import pytest

from actsep.acts import (
    act_from_table,
    act_homomorphism,
    closure_partial,
    coset_act,
    decompose,
    disjoint_union,
    is_closed_partition,
    is_faithful,
    partial_act_from_table,
    preorder_and_green,
    rees_quotient,
    regular_act,
    subact_as_act,
    subact_generated,
    subact_violation,
    subacts,
    transport_along_ideal_complement,
    transport_along_retraction,
)
from actsep.errors import (
    AssociativityViolation,
    ComplementNotIdeal,
    EmptyGeneratorSet,
    IdentityLawViolation,
    InvalidSpec,
    MalformedTable,
    MonoidMismatch,
    NotARetraction,
    NotASubact,
)
from actsep.monoids import (
    adjoin_identity,
    cyclic_group,
    monoid_from_table,
    null_adjoined,
    rectangular_band_adjoined,
    rees_element_index,
    rees_matrix_monoid,
    right_ideals,
    submonoid,
    transformation_closure,
    trivial_monoid,
    ReesMatrixSpec,
)
from actsep.congruences import rees_congruence
from actsep.separability import is_clifford
from oracles import naive_partial_closure, naive_right_coset_act


NULL1 = null_adjoined(1)  # {1, s, z}


def test_regular_act_is_valid():
    act = act_from_table(NULL1, NULL1.table)
    assert act.size == 3


def test_one_row_zero_act():
    z2 = cyclic_group(2)
    act = act_from_table(z2, [[0, 0]])
    assert act.zeros == (0,)


def test_identity_law_violation():
    z2 = cyclic_group(2)
    with pytest.raises(IdentityLawViolation):
        act_from_table(z2, [[1, 0], [0, 1]])


def test_associativity_violation():
    # over Z2, a*g*g must return to a
    with pytest.raises(AssociativityViolation):
        act_from_table(cyclic_group(2), [[0, 1], [1, 1]])


# Z2's table is also a valid semigroup table and the regular act of Z2, so
# each constructor below accepts it, and every row and label check is one
# edit away from it
_Z2 = cyclic_group(2)
_TABLE_CONSTRUCTORS = {
    "monoid_from_table": lambda table, labels: monoid_from_table(table, 0, labels),
    "adjoin_identity": adjoin_identity,
    "act_from_table": lambda table, labels: act_from_table(_Z2, table, labels),
    "partial_act_from_table": lambda table, labels: partial_act_from_table(_Z2, table, labels),
}
_MALFORMED = {
    "empty table": ([], ["a", "b"]),
    "short row": ([[0, 1], [1]], ["a", "b"]),
    "entry out of range": ([[0, 1], [1, 2]], ["a", "b"]),
    "non-int entry": ([[0, 1], [1, "0"]], ["a", "b"]),
    "wrong label count": ([[0, 1], [1, 0]], ["a"]),
    "label with whitespace": ([[0, 1], [1, 0]], ["a", "b c"]),
    "int labels": ([[0, 1], [1, 0]], [1, 2]),
    "bytes labels": ([[0, 1], [1, 0]], [b"a", b"b"]),
    "string as labels": ([[0, 1], [1, 0]], "ab"),
    "iterator as labels": ([[0, 1], [1, 0]], iter(["a", "b"])),
}


@pytest.mark.parametrize("constructor", sorted(_TABLE_CONSTRUCTORS))
@pytest.mark.parametrize("case", list(_MALFORMED))
def test_table_constructors_share_row_and_label_checks(constructor, case):
    build = _TABLE_CONSTRUCTORS[constructor]
    build([[0, 1], [1, 0]], ["a", "b"])
    table, labels = _MALFORMED[case]
    with pytest.raises(MalformedTable):
        build(table, labels)


@pytest.mark.parametrize("constructor", sorted(_TABLE_CONSTRUCTORS))
def test_only_partial_acts_accept_undefined_entries(constructor):
    build = _TABLE_CONSTRUCTORS[constructor]
    table = [[0, 1], [1, None]]
    if constructor == "partial_act_from_table":
        assert build(table, None).table == ((0, 1), (1, None))
    else:
        with pytest.raises(MalformedTable):
            build(table, None)


def test_regular_act_subacts_are_right_ideals():
    from actsep.catalog import catalog_monoids

    monoids = [e.monoid for e in catalog_monoids() if e.monoid.order <= 5]
    assert len(monoids) > 45
    for monoid in monoids + [null_adjoined(2), rectangular_band_adjoined(2, 2)]:
        act = regular_act(monoid)
        assert {tuple(sorted(s)) for s in subacts(act)} == set(right_ideals(monoid))


def test_group_regular_act_has_no_proper_subact():
    act = regular_act(cyclic_group(2))
    assert subacts(act) == (frozenset({0, 1}),)


def test_null_regular_act_subacts():
    act = regular_act(null_adjoined(1))
    assert {frozenset(s) for s in subacts(act)} == {
        frozenset({2}),
        frozenset({1, 2}),
        frozenset({0, 1, 2}),
    }


def test_subact_generated():
    act = regular_act(NULL1)
    assert subact_generated(act, {2}) == {2}
    assert subact_generated(act, {1}) == {1, 2}
    assert subact_generated(act, {0, 1, 2}) == {0, 1, 2}
    with pytest.raises(EmptyGeneratorSet):
        subact_generated(act, set())


def test_subact_generated_properties(small_corpus):
    for act in small_corpus[::7]:
        carrier = list(act.carrier())
        full = subact_generated(act, carrier)
        assert full == set(carrier) or full == frozenset(carrier)
        for u in carrier:
            single = subact_generated(act, {u})
            assert subact_generated(act, single) == single  # idempotent
        for u in carrier:
            for v in carrier:
                both = subact_generated(act, {u, v})
                assert subact_generated(act, {u}) <= both  # monotone
                assert both == subact_generated(act, {u}) | subact_generated(act, {v})


def test_preorder_and_green_equality_over_idempotent_commutative():
    # commutative idempotent monoid: R_A is always equality
    semilattice = monoid_from_table([[0, 1], [1, 1]], 0)
    from actsep.catalog import enumerate_acts

    for size in (1, 2, 3):
        for act in enumerate_acts(semilattice, size):
            _, rclasses = preorder_and_green(act)
            assert all(len(block) == 1 for block in rclasses)


def test_preorder_group_single_class():
    act = regular_act(cyclic_group(3))
    _, rclasses = preorder_and_green(act)
    assert rclasses == ((0, 1, 2),)


def test_zero_below_everything_in_its_orbit():
    act = regular_act(NULL1)
    leq, rclasses = preorder_and_green(act)
    zero = 2
    for b in act.carrier():
        assert leq[zero][b]  # zero lies in every orbit here
    assert (zero,) in rclasses


def test_rees_quotient_whole_carrier():
    act = regular_act(NULL1)
    quot, proj = rees_quotient(act, {0, 1, 2})
    assert quot.size == 1
    assert set(proj.map) == {0}


def test_rees_quotient_singleton_zero():
    act = regular_act(NULL1)
    quot, proj = rees_quotient(act, {2})
    assert quot.size == act.size
    assert sorted(proj.map) == [0, 1, 2]


def test_rees_quotient_null_example():
    act = regular_act(NULL1)
    quot, _ = rees_quotient(act, {1, 2})
    assert quot.size == 2
    assert quot.labels == ("1", "0_B")


def test_rees_quotient_rejects_non_subact():
    act = regular_act(NULL1)
    with pytest.raises(NotASubact):
        rees_quotient(act, {0})


@pytest.mark.parametrize(
    "call, subset, message",
    [
        (rees_quotient, {9}, "subset element 9 out of carrier range"),
        (rees_quotient, {0, 9}, "subset element 9 out of carrier range"),
        (subact_as_act, {7}, "subset element 7 out of carrier range"),
        (subact_generated, {9}, "generator 9 out of carrier range"),
        (subact_generated, {-1}, "generator -1 out of carrier range"),
        (rees_congruence, {-1}, "subset element -1 out of carrier range"),
        (rees_congruence, set(), "non-empty"),
        (subact_violation, set(), "non-empty"),
    ],
)
def test_bad_subsets_raise_invalid_spec(call, subset, message):
    with pytest.raises(InvalidSpec, match=message):
        call(regular_act(null_adjoined(2)), subset)


def test_non_subact_keeps_its_witness():
    # in Null2^1 = {1, s1, s2, z}, s1*s1 = z leaves {s1}
    with pytest.raises(NotASubact) as exc:
        rees_quotient(regular_act(null_adjoined(2)), {1})
    assert exc.value.witness == (1, 1, 3)


def test_disjoint_union_and_decompose():
    act = regular_act(NULL1)
    union, injections = disjoint_union([act, act])
    assert union.size == 6
    assert decompose(union) == ((0, 1, 2), (3, 4, 5))
    for inj in injections:
        assert len(set(inj.map)) == act.size
    single, _ = disjoint_union([act])
    assert single.table == act.table


def test_disjoint_union_two_zero_acts():
    one = act_from_table(NULL1, [[0, 0, 0]])
    union, _ = disjoint_union([one, one])
    assert union.zeros == (0, 1)


def test_disjoint_union_monoid_mismatch():
    with pytest.raises(MonoidMismatch):
        disjoint_union([regular_act(NULL1), regular_act(cyclic_group(2))])


def test_decompose_regular_act_single_block():
    assert decompose(regular_act(NULL1)) == ((0, 1, 2),)


def test_decompose_blocks_not_mergeable(small_corpus):
    for act in small_corpus[::11]:
        blocks = decompose(act)
        for block in blocks:
            assert subact_violation(act, block) is None
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                sub, _ = subact_as_act(act, set(blocks[i]) | set(blocks[j]))
                assert len(decompose(sub)) >= 2


def test_coset_act_transitive():
    z4 = cyclic_group(4)
    act = coset_act(z4, [0, 2])
    assert act.size == 2
    assert decompose(act) == ((0, 1),)
    assert act.labels == ("H*e", "H*g")


def test_coset_act_uses_right_cosets_of_non_normal_subgroup():
    s3 = transformation_closure(3, [(1, 0, 2), (1, 2, 0)])
    h = [0, 1]  # the identity and the transposition (0 1)
    right = {frozenset(s3.table[x][g] for x in h) for g in s3.elements()}
    left = {frozenset(s3.table[g][x] for x in h) for g in s3.elements()}
    assert right != left  # so the oracle tells Hg from gH
    act = coset_act(s3, h)
    table, labels = naive_right_coset_act(s3, h)
    assert act.table == tuple(tuple(row) for row in table)
    assert act.labels == labels
    assert act.size == 3


def test_faithfulness():
    assert is_faithful(regular_act(NULL1))
    assert not is_faithful(act_from_table(NULL1, [[0, 0, 0]]))


# ---------------------------------------------------------------------------
# transports


def test_transport_ideal_complement_n_equals_m():
    act = regular_act(NULL1)
    out = transport_along_ideal_complement(act, NULL1, [0, 1, 2])
    assert out.size == act.size + 1
    zero = act.size
    assert all(out.table[zero][m] == zero for m in NULL1.elements())
    for a in act.carrier():
        for m in NULL1.elements():
            assert out.table[a][m] == act.table[a][m]


def test_transport_ideal_complement_point_act():
    point = act_from_table(trivial_monoid(), [[0]])
    out = transport_along_ideal_complement(point, NULL1, [0])
    assert out.size == 2
    assert out.table[0] == (0, 1, 1)  # everything in S kills the point


def test_transport_ideal_complement_rejects_non_ideal():
    # the complement of {1} in Z2 is {g}, not an ideal
    point = act_from_table(trivial_monoid(), [[0]])
    with pytest.raises(ComplementNotIdeal):
        transport_along_ideal_complement(point, cyclic_group(2), [0])


def test_transport_ideal_complement_clifford_units():
    # units of a Clifford monoid; complement is the non-unit ideal
    semilattice = monoid_from_table([[0, 1], [1, 1]], 0)
    units, embedding = submonoid(semilattice, [0])
    act = regular_act(units)
    out = transport_along_ideal_complement(act, semilattice, embedding)
    assert out.size == 2


def test_transport_retraction_identity():
    act = regular_act(NULL1)
    out = transport_along_retraction(act, NULL1, [0, 1, 2], [0, 1, 2])
    assert out.table == act.table


def _rees_left_zero_retraction():
    spec = ReesMatrixSpec(trivial_monoid(), 2, 2, ((0, 0), (0, 0)))
    m = rees_matrix_monoid(spec)
    j0 = 0
    sub_elems = [0] + [rees_element_index(spec, i, 0, j0) for i in range(2)]
    sub, embedding = submonoid(m, sub_elems)
    retraction = []
    pos = {e: i for i, e in enumerate(embedding)}
    for x in m.elements():
        if x == 0:
            retraction.append(pos[0])
        else:
            i = (x - 1) // 2
            retraction.append(pos[rees_element_index(spec, i, 0, j0)])
    return m, sub, embedding, retraction


def test_transport_retraction_rees_left_zero():
    m, sub, embedding, retraction = _rees_left_zero_retraction()
    act = regular_act(sub)
    out = transport_along_retraction(act, m, embedding, retraction)
    # restriction along the embedding recovers the original action
    for a in act.carrier():
        for n in sub.elements():
            assert out.table[a][embedding[n]] == act.table[a][n]


def test_transport_retraction_clifford_idempotents():
    semilattice = monoid_from_table([[0, 1], [1, 1]], 0)
    assert is_clifford(semilattice)
    ids, embedding = submonoid(semilattice, [0, 1])
    # m -> m m^-1 is the identity here, a degenerate retraction
    act = regular_act(ids)
    out = transport_along_retraction(act, semilattice, embedding, [0, 1])
    assert out.size == act.size


def test_transport_retraction_rejects_non_retraction():
    # {e, g^2} inside Z4 is not a retract: phi(g)^2 would have to be g^2
    z4 = cyclic_group(4)
    sub, embedding = submonoid(z4, [0, 2])
    with pytest.raises(NotARetraction):
        transport_along_retraction(
            regular_act(sub), z4, embedding, [0, 0, 1, 0]
        )


# ---------------------------------------------------------------------------
# partial acts and closures


def test_partial_act_validation():
    z2 = cyclic_group(2)
    act = partial_act_from_table(z2, [[0, None], [1, None]])
    assert act.size == 2
    with pytest.raises(IdentityLawViolation):
        partial_act_from_table(z2, [[1, None], [1, None]])


def test_partial_act_associativity_window():
    # a*g defined, (a*g)*g defined, but a*(gg) = a*1 = a disagrees
    z2 = cyclic_group(2)
    with pytest.raises(AssociativityViolation):
        partial_act_from_table(z2, [[0, 1], [1, 1]])
    # undefined entries impose no constraint
    partial_act_from_table(z2, [[0, 1], [1, None]])


def test_closure_partial_empty_seeds():
    z2 = cyclic_group(2)
    act = partial_act_from_table(z2, [[0, 1], [1, 0]])
    part = closure_partial(act, [])
    assert part.is_equality()


def test_closure_partial_matches_naive_oracle():
    from actsep.families import build

    window = build("bz_window", {"w": 6}).act
    seeds = [(window.size - 2, window.size - 5)]
    assert closure_partial(window, seeds) == naive_partial_closure(window, seeds)


def test_closure_partial_keeps_every_column_on_partial_tables():
    # over Z3 = <g> only g^2 is defined on 0 and 1, so merging them must
    # merge 0*g^2 and 1*g^2 although g^2 is not a generator
    z3 = cyclic_group(3)
    act = partial_act_from_table(
        z3, [[0, None, 2], [1, None, 3], [2, None, None], [3, None, None]]
    )
    assert z3.generators == (1,)
    part = closure_partial(act, [(0, 1)])
    assert part.same(2, 3)
    assert part == naive_partial_closure(act, [(0, 1)])


@pytest.mark.parametrize(
    "name,params",
    [
        ("bz_window", {"w": 8}),
        ("free_monogenic_act", {"w": 7}),
        ("n_times_g", {"n": 4, "g": 2}),
        ("squarefree", {"n": 2}),
        ("semilattice_act", {"n": 5}),
    ],
)
def test_closure_partial_oracle_across_families(name, params):
    from actsep.families import build

    act = build(name, params).act
    size = act.size
    for seeds in ([(0, size - 1)], [(1, 2), (3, size // 2)], [(size - 1, size - 2), (0, 1)]):
        assert closure_partial(act, seeds) == naive_partial_closure(act, seeds)


@pytest.mark.parametrize(
    "name", ["kozhukhov", "leftzero", "star_semilattice"]
)
def test_total_act_closures_agree(name):
    # principal_closure and closure_partial compute the same least
    # congruence on total tables, and on partial copies of them
    from actsep.congruences import principal_closure
    from actsep.families import build

    act = build(name, {"n": 3}).act
    partial = partial_act_from_table(act.monoid, act.table, act.labels)
    for seeds in ([(0, 1)], [(0, act.size - 1)], [(1, 2), (0, 3)]):
        closed = closure_partial(partial, seeds)
        assert principal_closure(act, seeds).partition == closed
        assert closure_partial(act, seeds) == closed
        assert closed == naive_partial_closure(partial, seeds)
    # the indecomposable components are the classes of the least congruence
    # containing every pair (a, a*m)
    edges = [(a, v) for a in act.carrier() for v in act.table[a]]
    assert decompose(act) == naive_partial_closure(partial, edges).blocks()


def test_closure_partial_fixed_point(small_corpus):
    from actsep.families import build

    window = build("bz_window", {"w": 5}).act
    b = lambda k: 5 + 1 + (k + 5)
    part = closure_partial(window, [(b(-1), b(-3))])
    pairs = [
        (block[0], x) for block in part.blocks() for x in block[1:]
    ]
    assert closure_partial(window, pairs) == part


def test_is_closed_partition_witness():
    from actsep.families import build
    from actsep.partitions import partition_from_blocks

    window = build("bz_window", {"w": 3}).act
    bad = partition_from_blocks(
        window.size, [[0, 1]] + [[x] for x in range(2, window.size)]
    )
    a, b, m = is_closed_partition(window, bad)
    u, v = window.table[a][m], window.table[b][m]
    assert bad.same(a, b)
    assert u is not None and v is not None
    assert not bad.same(u, v)


def test_act_homomorphism_validation():
    act = regular_act(NULL1)
    one = act_from_table(NULL1, [[0, 0, 0]])
    hom = act_homomorphism(act, one, [0, 0, 0])
    assert hom.map == (0, 0, 0)
    quot, proj = rees_quotient(act, {1, 2})
    assert proj.map == (0, 1, 1)


def test_every_constructor_output_passes_full_validation(small_corpus):
    # acts produced without going through act_from_table still satisfy both
    # axioms exhaustively
    for act in small_corpus[::25]:
        act_from_table(act.monoid, act.table, act.labels)
        for sub in subacts(act):
            sub_act, _ = subact_as_act(act, sub)
            act_from_table(sub_act.monoid, sub_act.table, sub_act.labels)
            quot, _ = rees_quotient(act, sub)
            act_from_table(quot.monoid, quot.table, quot.labels)
    union, _ = disjoint_union([regular_act(NULL1)] * 3)
    act_from_table(union.monoid, union.table, union.labels)


def test_closure_partial_kozhukhov_merge():
    from actsep.families import build

    inst = build("kozhukhov", {"n": 3})
    partial = partial_act_from_table(inst.act.monoid, inst.act.table, inst.act.labels)
    part = closure_partial(partial, [(inst.mark("a1"), inst.mark("a3"))])
    assert part.same(inst.mark("b"), inst.mark("0"))
