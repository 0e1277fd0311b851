import gc
import random
from itertools import combinations

import pytest

from actsep.errors import (
    BadIdentity,
    ClosureTooLarge,
    InvalidSpec,
    LinkCoherenceViolation,
    LinkNotHomomorphism,
    MalformedTable,
    NotAssociative,
    NotNormalSubgroup,
    RightIdealEnumerationTooLarge,
)
from actsep.catalog import _enumerate_monoid_tables
from actsep.monoids import (
    FiniteMonoid,
    ReesMatrixSpec,
    StrongSemilatticeSpec,
    adjoin_identity,
    are_isomorphic,
    cyclic_group,
    find_isomorphism,
    is_normalized,
    left_zero_adjoined,
    monoid_from_table,
    normalize_sandwich,
    null_adjoined,
    rectangular_band_adjoined,
    rees_element_index,
    rees_element_triple,
    rees_matrix_monoid,
    right_ideals,
    sandwich_rank,
    strong_semilattice_monoid,
    structural_queries,
    transformation_closure,
    trivial_monoid,
)
from oracles import naive_rank, naive_rank_classes, naive_submonoid, naive_transformation_closure


def test_trivial_monoid():
    m = monoid_from_table([[0]], 0)
    assert m.order == 1 and m.identity == 0


def test_z2_from_table():
    m = monoid_from_table([[0, 1], [1, 0]], 0)
    assert m.is_group and m.is_commutative


def test_two_element_semilattice_and_bad_identity():
    m = monoid_from_table([[0, 1], [1, 1]], 0)
    assert m.idempotents == (0, 1)
    with pytest.raises(BadIdentity):
        monoid_from_table([[0, 1], [1, 1]], 1)


def test_malformed_tables():
    with pytest.raises(MalformedTable):
        monoid_from_table([[0, 1]], 0)
    with pytest.raises(MalformedTable):
        monoid_from_table([[0, 2], [1, 0]], 0)
    with pytest.raises(MalformedTable):
        monoid_from_table([], 0)


def test_not_associative_witness():
    # left-zero table with one corrupted entry cannot be associative
    table = [[0, 1, 2], [1, 1, 1], [2, 2, 0]]
    with pytest.raises(NotAssociative) as exc:
        monoid_from_table(table, 0)
    i, j, k = exc.value.triple
    t = table
    assert t[t[i][j]][k] != t[i][t[j][k]]


# ---------------------------------------------------------------------------
# generating sets


def _generator_test_monoids():
    from actsep.catalog import catalog_monoids
    from actsep.families import FAMILIES, build

    out = [(entry.name, entry.monoid) for entry in catalog_monoids()]
    for name, (_, ranges) in FAMILIES.items():
        top = {key: hi for key, (lo, hi) in ranges.items()}
        out.append((name, build(name, top).monoid))
    return out


def test_generators_generate_and_are_irredundant():
    monoids = _generator_test_monoids()
    assert len(monoids) == 49 + 10
    for name, monoid in monoids:
        gens = monoid.generators
        assert list(gens) == sorted(set(gens)), name
        # the right closure of the generators from the identity
        reached = {monoid.identity}
        frontier = [monoid.identity]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = monoid.table[x][g]
                if y not in reached:
                    reached.add(y)
                    frontier.append(y)
        assert reached == set(monoid.elements()), name
        for i, g in enumerate(gens):
            assert g not in naive_submonoid(monoid, gens[:i]), name


def test_generators_pinned_counts():
    from actsep.families import build

    cases = [
        ("free_monogenic_act", {"w": 60}, 1),
        ("squarefree", {"n": 6}, 3),
        ("bz_window", {"w": 40}, 1),
        ("n_times_g", {"n": 12, "g": 3}, 3),
        ("semilattice_act", {"n": 20}, 19),
    ]
    for name, params, count in cases:
        assert len(build(name, params).monoid.generators) == count, name
    assert cyclic_group(5).generators == (1,)
    assert trivial_monoid().generators == ()


def test_generators_cached_by_validation():
    m = monoid_from_table([[0, 1, 2], [1, 2, 0], [2, 0, 1]], 0)
    assert "generators" in vars(m)
    bare = FiniteMonoid(m.table, m.identity)
    assert "generators" not in vars(bare) and bare.generators == m.generators == (1,)


# ---------------------------------------------------------------------------
# transformation closures


def test_closure_identity_only():
    m = transformation_closure(2, [(0, 1)])
    assert m.order == 1


def test_closure_two_constants_matches_oracle():
    m = transformation_closure(2, [(0, 0), (1, 1)])
    oracle = naive_transformation_closure(2, [(0, 0), (1, 1)])
    assert m.order == len(oracle) == 3


def test_closure_three_cycle_is_group():
    m = transformation_closure(3, [(1, 2, 0)])
    assert m.order == 3 and m.is_group


def test_closure_cap():
    # the full transformation monoid on 3 points has 27 elements
    gens = [(1, 2, 0), (1, 0, 2), (0, 0, 2)]
    with pytest.raises(ClosureTooLarge):
        transformation_closure(3, gens, cap=10)
    assert transformation_closure(3, gens).order == 27
    assert len(naive_transformation_closure(3, gens)) == 27


# ---------------------------------------------------------------------------
# adjoined identities


def test_adjoin_identity_null():
    # null semigroup {s, z}: all products are z
    m = adjoin_identity([[1, 1], [1, 1]], ["s", "z"])
    assert m.order == 3
    s, z = 1, 2
    assert m.table[0][s] == s and m.table[s][s] == z


def test_adjoin_identity_left_zero():
    m = left_zero_adjoined(2)
    for x in (1, 2):
        for y in (1, 2):
            assert m.table[x][y] == x


def test_adjoin_identity_one_element():
    m = adjoin_identity([[0]])
    assert m.order == 2 and m.idempotents == (0, 1)


def test_adjoin_identity_rejects_non_associative():
    with pytest.raises(NotAssociative):
        adjoin_identity([[1, 0], [0, 0]])


# ---------------------------------------------------------------------------
# Rees matrix monoids


def test_rees_trivial_one_by_one():
    spec = ReesMatrixSpec(trivial_monoid(), 1, 1, ((0,),))
    m = rees_matrix_monoid(spec)
    assert m.order == 2
    assert m.idempotents == (0, 1)


def test_rees_rectangular_band_law():
    spec = ReesMatrixSpec(trivial_monoid(), 2, 2, ((0, 0), (0, 0)))
    m = rees_matrix_monoid(spec)
    assert m.order == 5
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    a = rees_element_index(spec, i, 0, j)
                    b = rees_element_index(spec, k, 0, l)
                    assert m.table[a][b] == rees_element_index(spec, i, 0, l)


def test_rees_z2_order_nine_associative():
    z2 = cyclic_group(2)
    spec = ReesMatrixSpec(z2, 2, 2, ((0, 0), (0, 1)))
    m = rees_matrix_monoid(spec)
    assert m.order == 9
    t = m.table
    for i in range(9):
        for j in range(9):
            for k in range(9):
                assert t[t[i][j]][k] == t[i][t[j][k]]


def test_rees_triple_roundtrip():
    spec = ReesMatrixSpec(cyclic_group(2), 3, 2, ((0, 0, 0), (0, 1, 0)))
    for idx in range(1, 3 * 2 * 2 + 1):
        i, g, j = rees_element_triple(spec, idx)
        assert rees_element_index(spec, i, g, j) == idx


def test_normalize_fixed_point():
    z2 = cyclic_group(2)
    spec = ReesMatrixSpec(z2, 2, 2, ((0, 0), (0, 1)))
    assert normalize_sandwich(spec, 0, 0).sandwich == spec.sandwich


def test_normalize_single_entry():
    z2 = cyclic_group(2)
    spec = ReesMatrixSpec(z2, 1, 1, ((1,),))
    assert normalize_sandwich(spec, 0, 0).sandwich == ((0,),)


def test_normalize_z2_with_oracle():
    z2 = cyclic_group(2)
    spec = ReesMatrixSpec(z2, 2, 2, ((1, 1), (1, 0)))
    norm = normalize_sandwich(spec, 0, 0)
    assert all(norm.sandwich[j][0] == 0 for j in range(2))
    assert all(norm.sandwich[0][i] == 0 for i in range(2))
    assert are_isomorphic(rees_matrix_monoid(spec), rees_matrix_monoid(norm))


def _specs_up_to_order_17():
    groups = [trivial_monoid(), cyclic_group(2), cyclic_group(3)]
    for group in groups:
        for rows in range(1, 9):
            for cols in range(1, 9):
                if rows * cols * group.order + 1 > 17:
                    continue
                cells = rows * cols
                count = group.order**cells
                step = max(1, count // 24)
                for seed in range(0, count, step):
                    value = seed
                    entries = []
                    for _ in range(cells):
                        entries.append(value % group.order)
                        value //= group.order
                    sandwich = tuple(
                        tuple(entries[j * rows + i] for i in range(rows))
                        for j in range(cols)
                    )
                    yield ReesMatrixSpec(group, rows, cols, sandwich)


def test_normalize_isomorphic_up_to_order_17():
    for spec in _specs_up_to_order_17():
        norm = normalize_sandwich(spec, 0, 0)
        assert is_normalized(norm)
        assert are_isomorphic(rees_matrix_monoid(spec), rees_matrix_monoid(norm))


# ---------------------------------------------------------------------------
# sandwich rank


def test_rank_all_identity():
    z2 = cyclic_group(2)
    spec = ReesMatrixSpec(z2, 2, 2, ((0, 0), (0, 0)))
    report = sandwich_rank(spec)
    assert (report.r_i, report.r_j, report.rank) == (1, 1, 1)


def _diagonal_spec(n: int) -> ReesMatrixSpec:
    z2 = cyclic_group(2)
    sandwich = tuple(
        tuple(1 if (i == j and i != 0) else 0 for i in range(n)) for j in range(n)
    )
    return ReesMatrixSpec(z2, n, n, sandwich)


def test_rank_diagonal_family_matches_oracle():
    spec = _diagonal_spec(4)
    report = sandwich_rank(spec)
    assert (report.r_i, report.r_j) == naive_rank(spec.group, 4, 4, spec.sandwich)
    assert report.rank == 4


def test_rank_mod_whole_group():
    spec = _diagonal_spec(4)
    report = sandwich_rank(spec, normal_subgroup=[0, 1])
    assert report.rank == 1


def test_rank_rejects_non_normal_subset():
    spec = _diagonal_spec(2)
    with pytest.raises(NotNormalSubgroup):
        sandwich_rank(spec, normal_subgroup=[1])


def test_rank_invariant_under_permutations():
    spec = _diagonal_spec(4)
    base = sandwich_rank(spec)
    row_perm = [2, 0, 3, 1]
    col_perm = [1, 3, 0, 2]
    permuted = ReesMatrixSpec(
        spec.group,
        4,
        4,
        tuple(
            tuple(spec.sandwich[row_perm[j]][col_perm[i]] for i in range(4))
            for j in range(4)
        ),
    )
    other = sandwich_rank(permuted)
    assert (other.r_i, other.r_j, other.rank) == (base.r_i, base.r_j, base.rank)
    # the partitions transport along the permutations
    mapped_i = sorted(
        tuple(sorted(col_perm.index(x) for x in block)) for block in base.classes_i
    )
    assert sorted(other.classes_i) == mapped_i


def _normal_subgroups(group):
    """Every normal subgroup, by brute force over subsets containing the
    identity (a finite subset closed under the product is a subgroup)."""
    t, e = group.table, group.identity
    others = [g for g in group.elements() if g != e]
    out = []
    for k in range(len(others) + 1):
        for extra in combinations(others, k):
            sub = {e, *extra}
            closed = all(t[a][b] in sub for a in sub for b in sub)
            normal = all(
                t[t[group.inverse(g)][a]][g] in sub for g in group.elements() for a in sub
            )
            if closed and normal:
                out.append(sorted(sub))
    return out


def _random_sandwich(rng, group, rows, cols):
    # mostly p_ji = a_j b_i, so that rows and columns share classes
    a = [rng.randrange(group.order) for _ in range(cols)]
    b = [rng.randrange(group.order) for _ in range(rows)]
    noise = rng.choice((0.0, 0.25, 1.0))
    return tuple(
        tuple(
            rng.randrange(group.order) if rng.random() < noise else group.table[a[j]][b[i]]
            for i in range(rows)
        )
        for j in range(cols)
    )


@pytest.mark.parametrize("name", ["S3", "Z4", "Z6"])
def test_rank_classes_match_oracle_modulo_every_normal_subgroup(name):
    group = {
        "S3": transformation_closure(3, [(1, 0, 2), (1, 2, 0)]),
        "Z4": cyclic_group(4),
        "Z6": cyclic_group(6),
    }[name]
    subgroups = _normal_subgroups(group)
    assert len(subgroups) == {"S3": 3, "Z4": 3, "Z6": 4}[name]
    rng = random.Random(f"rank-{name}")
    proper = 0
    for normal_subgroup in [None, *subgroups]:
        for _ in range(25):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            spec = ReesMatrixSpec(group, rows, cols, _random_sandwich(rng, group, rows, cols))
            report = sandwich_rank(spec, normal_subgroup)
            classes_i, classes_j = naive_rank_classes(
                group, rows, cols, spec.sandwich, normal_subgroup
            )
            assert (report.classes_i, report.classes_j) == (classes_i, classes_j)
            assert (report.r_i, report.r_j) == (len(classes_i), len(classes_j))
            assert report.rank == max(report.r_i, report.r_j)
            proper += 1 < report.r_i < rows or 1 < report.r_j < cols
    # the seeds reach classes that are neither all singletons nor one block
    assert proper


def test_recursive_searches_leave_no_cyclic_garbage():
    def garbage_after(run):
        gc.collect()
        before = len(gc.garbage)
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            run()
            gc.collect()
        finally:
            gc.set_debug(0)  # left on, later collections would save more
        saved = gc.garbage[before:]
        del gc.garbage[before:]
        return len(saved)

    def enumerate_tables():
        for n in range(1, 5):
            for _ in _enumerate_monoid_tables(n):
                pass

    def isomorphisms():
        assert find_isomorphism(cyclic_group(4), cyclic_group(4)) is not None
        assert find_isomorphism(left_zero_adjoined(3), left_zero_adjoined(3)) is not None

    assert garbage_after(enumerate_tables) == 0
    assert garbage_after(isomorphisms) == 0


# ---------------------------------------------------------------------------
# strong semilattices of groups


def _chain(n: int) -> FiniteMonoid:
    return monoid_from_table(
        [[max(i, j) for j in range(n)] for i in range(n)], 0, name="chain"
    )


def test_semilattice_trivial_gives_group():
    z3 = cyclic_group(3)
    spec = StrongSemilatticeSpec(_chain(1), (z3,), {(0, 0): (0, 1, 2)})
    m = strong_semilattice_monoid(spec)
    assert are_isomorphic(m, z3)


def test_semilattice_chain_z2_identity_link():
    z2 = cyclic_group(2)
    links = {(0, 0): (0, 1), (1, 1): (0, 1), (0, 1): (0, 1)}
    m = strong_semilattice_monoid(StrongSemilatticeSpec(_chain(2), (z2, z2), links))
    assert m.order == 4 and m.is_commutative
    for e in m.idempotents:
        for x in m.elements():
            assert m.table[e][x] == m.table[x][e]


def test_semilattice_tower_n2():
    z2, z4 = cyclic_group(2), cyclic_group(4)
    links = {
        (0, 0): (0, 1),
        (1, 1): (0, 1, 2, 3),
        (0, 1): (0, 2),  # generator of Z2 lands on the square of Z4's generator
    }
    m = strong_semilattice_monoid(StrongSemilatticeSpec(_chain(2), (z2, z4), links))
    assert m.order == 6
    assert m.is_commutative
    assert len(m.idempotents) == 2


def test_semilattice_link_errors():
    z2 = cyclic_group(2)
    bad_hom = {(0, 0): (0, 1), (1, 1): (0, 1), (0, 1): (1, 0)}
    with pytest.raises(LinkNotHomomorphism):
        strong_semilattice_monoid(StrongSemilatticeSpec(_chain(2), (z2, z2), bad_hom))
    z4 = cyclic_group(4)
    bad_coherence = {
        (0, 0): (0, 1),
        (1, 1): (0, 1),
        (2, 2): (0, 1, 2, 3),
        (0, 1): (0, 1),
        (1, 2): (0, 2),
        (0, 2): (0, 0),  # constant map is a homomorphism but breaks composition
    }
    with pytest.raises(LinkCoherenceViolation):
        strong_semilattice_monoid(
            StrongSemilatticeSpec(_chain(3), (z2, z2, z4), bad_coherence)
        )
    with pytest.raises(InvalidSpec):
        strong_semilattice_monoid(
            StrongSemilatticeSpec(cyclic_group(2), (z2, z2), {})
        )


# ---------------------------------------------------------------------------
# structural queries


def test_structure_of_group():
    report = structural_queries(cyclic_group(2))
    assert report.group
    assert len(report.r_classes) == 1
    assert report.right_ideals == ((0, 1),)


def test_structure_of_null_monoid():
    m = null_adjoined(1)  # {1, s, z}
    report = structural_queries(m)
    assert report.principal_right_ideals == ((0, 1, 2), (1, 2), (2,))
    assert (2,) in report.right_ideals and (1, 2) in report.right_ideals


def test_structure_of_two_element_semilattice():
    m = monoid_from_table([[0, 1], [1, 1]], 0)
    report = structural_queries(m)
    assert report.idempotents == (0, 1)
    assert report.r_classes == ((0,), (1,))


@pytest.mark.parametrize("rows,cols", [(2, 2), (2, 3), (3, 2), (4, 4)])
def test_rectangular_band_principal_ideal_count(rows, cols):
    m = rectangular_band_adjoined(rows, cols)
    ideals = {
        tuple(sorted(m.principal_right_ideal(x))) for x in range(1, m.order)
    }
    assert len(ideals) == rows


@pytest.mark.parametrize("rows,cols", [(2, 2), (3, 2), (4, 4)])
def test_rees_trivial_group_principal_ideal_count(rows, cols):
    # over a trivial group, each (i,g,j)M is {i} x G x J
    spec = ReesMatrixSpec(
        trivial_monoid(), rows, cols, tuple(tuple(0 for _ in range(rows)) for _ in range(cols))
    )
    report = structural_queries(rees_matrix_monoid(spec))
    non_identity = set(report.principal_right_ideals[1:])
    assert len(non_identity) == rows
    for i in range(rows):
        expected = tuple(
            rees_element_index(spec, i, 0, j) for j in range(cols)
        )
        assert tuple(sorted(expected)) in non_identity


def test_right_ideal_cap():
    with pytest.raises(RightIdealEnumerationTooLarge):
        right_ideals(null_adjoined(8), cap=16)


# ---------------------------------------------------------------------------
# isomorphism oracle


def test_isomorphism_distinguishes_groups():
    z4 = cyclic_group(4)
    v4 = monoid_from_table(
        [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]], 0
    )
    assert not are_isomorphic(z4, v4)
    assert are_isomorphic(v4, v4)


def test_isomorphism_finds_relabeling():
    z4 = cyclic_group(4)
    perm = (0, 3, 2, 1)
    inv = [perm.index(x) for x in range(4)]
    table = tuple(
        tuple(perm[z4.table[inv[i]][inv[j]]] for j in range(4)) for i in range(4)
    )
    relabeled = monoid_from_table(table, 0)
    phi = find_isomorphism(z4, relabeled)
    assert phi is not None
    for i in range(4):
        for j in range(4):
            assert phi[z4.table[i][j]] == relabeled.table[phi[i]][phi[j]]
