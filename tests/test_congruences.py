import pytest

from actsep.acts import act_from_table, act_homomorphism, disjoint_union, regular_act
from actsep.congruences import (
    all_congruences,
    cyclic_act_from_right_congruence,
    enumerate_congruences,
    equality_congruence,
    kernel,
    meet,
    principal_closure,
    quotient,
    quotient_monoid,
    rees_congruence,
    restrict,
    search_space_estimate,
    two_sided_violation,
    universal_congruence,
    verify_congruence,
)
from actsep.errors import ActMismatch, NotCompatible, SearchSpaceTooLarge
from actsep.monoids import (
    are_isomorphic,
    cyclic_group,
    null_adjoined,
    transformation_closure,
    trivial_monoid,
)
from actsep.partitions import partition_from_assignment, partition_from_blocks
from actsep.families import _bz_quotient_monoid, build
from oracles import all_set_partitions, naive_congruences


NULL1 = null_adjoined(1)


def test_equality_and_universal_always_congruences(small_corpus):
    for act in small_corpus[::9]:
        assert equality_congruence(act).index == act.size
        assert universal_congruence(act).index == 1
        verify_congruence(act, equality_congruence(act).partition)
        verify_congruence(act, universal_congruence(act).partition)


def test_verify_rejects_incompatible():
    act = regular_act(NULL1)
    with pytest.raises(NotCompatible) as exc:
        verify_congruence(act, partition_from_blocks(3, [[0, 1], [2]]))
    a, b, m = exc.value.witness
    assert act.table[a][m] != act.table[b][m]  # indeed split
    assert {a, b} == {0, 1}


def test_mod_classes_verify_on_quotient_monoid_regular_act():
    # grouping the mod-6 classes of the two-part monoid by their residue mod 3
    # is compatible with right multiplication
    q6 = _bz_quotient_monoid(6)
    act = regular_act(q6)
    blocks = [[m for m in range(6) if m % 3 == r] for r in range(3)]
    blocks += [[6 + m for m in range(6) if m % 3 == r] for r in range(3)]
    blocks += [[12]]
    cong = verify_congruence(act, partition_from_blocks(13, blocks))
    assert cong.index == 7


def test_principal_closure_reflexive_seed():
    act = regular_act(NULL1)
    assert principal_closure(act, [(1, 1)]).partition.is_equality()


def test_principal_closure_null_example():
    act = regular_act(NULL1)
    cong = principal_closure(act, [(1, 2)])
    assert cong.blocks() == ((0,), (1, 2))


def test_principal_closure_of_subact_square_equals_rees(small_corpus):
    from actsep.acts import subacts

    for act in small_corpus[::13]:
        for sub in subacts(act):
            pairs = [(a, b) for a in sub for b in sub if a < b]
            assert principal_closure(act, pairs).partition == rees_congruence(act, sub).partition


def test_principal_closure_idempotent_on_congruences(small_corpus):
    for act in small_corpus[::17]:
        for cong in all_congruences(act):
            pairs = [
                (block[0], x) for block in cong.blocks() for x in block[1:]
            ]
            assert principal_closure(act, pairs).partition == cong.partition


def test_rees_congruence_examples():
    act = regular_act(NULL1)
    assert rees_congruence(act, {2}).index == 3
    assert rees_congruence(act, {0, 1, 2}).index == 1
    assert rees_congruence(act, {1, 2}).blocks() == ((0,), (1, 2))


def test_meet():
    act = regular_act(NULL1)
    rho = rees_congruence(act, {1, 2})
    assert meet(rho, universal_congruence(act)).partition == rho.partition
    assert meet(rho, equality_congruence(act)).partition.is_equality()
    with pytest.raises(ActMismatch):
        meet(rho, universal_congruence(regular_act(cyclic_group(2))))


def test_meet_three_part_union():
    part = act_from_table(NULL1, [[0, 0, 0]])
    union, _ = disjoint_union([part, part, part])
    first = verify_congruence(union, partition_from_blocks(3, [[0], [1, 2]]))
    second = verify_congruence(union, partition_from_blocks(3, [[1], [0, 2]]))
    met = meet(first, second)
    assert met.index == 3
    assert met.index >= max(first.index, second.index)


def test_restrict():
    act = regular_act(NULL1)
    rho = rees_congruence(act, {1, 2})
    restricted = restrict(rho, {1, 2})
    assert restricted.index == 1  # B collapses under its own Rees congruence
    assert restrict(equality_congruence(act), {1, 2}).partition.is_equality()
    assert restrict(universal_congruence(act), {1, 2}).index == 1


def test_quotient_and_kernel_roundtrip(small_corpus):
    for act in small_corpus[::19]:
        for cong in all_congruences(act):
            quot, proj = quotient(act, cong)
            assert quot.size == cong.index
            assert kernel(proj).partition == cong.partition


def test_quotient_extreme_cases():
    act = regular_act(NULL1)
    iso, _ = quotient(act, equality_congruence(act))
    assert iso.size == act.size and iso.table == act.table
    point, _ = quotient(act, universal_congruence(act))
    assert point.size == 1


def test_kernel_injective_and_constant():
    act = regular_act(NULL1)
    ident = act_homomorphism(act, act, [0, 1, 2])
    assert kernel(ident).partition.is_equality()
    one = act_from_table(NULL1, [[0, 0, 0]])
    collapse = act_homomorphism(act, one, [0, 0, 0])
    assert kernel(collapse).index == 1


def test_enumerate_counts():
    one = act_from_table(NULL1, [[0, 0, 0]])
    assert len(all_congruences(one)) == 1
    two_zeros = act_from_table(NULL1, [[0, 0, 0], [1, 1, 1]])
    assert len(all_congruences(two_zeros)) == 2


def test_enumerate_matches_filter_oracle(small_corpus):
    for act in small_corpus[::5]:
        ours = [c.partition for c in all_congruences(act)]
        assert len(set(ours)) == len(ours)  # no duplicates
        assert set(ours) == set(naive_congruences(act))


def test_enumerate_order_is_rgs_lexicographic():
    two_zeros = act_from_table(NULL1, [[0, 0, 0], [1, 1, 1]])
    strings = [c.partition.block_of for c in all_congruences(two_zeros)]
    assert strings == sorted(strings)
    assert strings[0] == (0, 0)  # universal first


def _natural_act(degree, gens):
    """transformation_closure(degree, gens) acting on its points."""
    maps = [tuple(range(degree))]
    index = {maps[0]: 0}
    for x in maps:  # the closure's element order: breadth first, x then g
        for g in gens:
            y = tuple(g[v] for v in x)
            if y not in index:
                index[y] = len(maps)
                maps.append(y)
    monoid = transformation_closure(degree, gens)
    return act_from_table(monoid, [[f[p] for f in maps] for p in range(degree)])


def test_enumerate_on_few_generator_columns():
    # the enumerator compares generator columns only; these monoids have
    # one or two generators against 6 to 393 elements
    acts = [
        regular_act(cyclic_group(6)),
        regular_act(_bz_quotient_monoid(4)),
        _natural_act(4, [(1, 2, 3, 0), (0, 0, 2, 3)]),
        _natural_act(5, [(1, 2, 0, 4, 3), (0, 0, 1, 2, 3)]),
        _natural_act(6, [(1, 0, 3, 2, 5, 4), (1, 2, 3, 4, 5, 5)]),
        _natural_act(6, [(1, 2, 0, 4, 5, 3), (3, 3, 3, 0, 0, 0)]),
    ]
    for act in acts:
        assert len(act.monoid.generators) <= 2 < act.monoid.order
        ours = [c.partition for c in all_congruences(act)]
        strings = [p.block_of for p in ours]
        assert strings == sorted(set(strings))  # restricted-growth order, no duplicates
        assert set(ours) == set(naive_congruences(act))


@pytest.mark.parametrize("n", range(1, 10))
def test_star_semilattice_right_congruences(n):
    # {1, x1..xn, 0} with xi xi = xi and every other product 0: a set S of
    # the xi joins the zero's class (2^n), or 1 ~ xi, which sends every
    # other xj to 0 (n), or all is one class; every one is two-sided
    instance = build("star_semilattice", {"n": n})
    one, zero = instance.mark("1"), instance.mark("0")
    xs = [instance.mark(f"x{i}") for i in range(1, n + 1)]
    expected = {partition_from_assignment([0] * (n + 2))}
    for bits in range(1 << n):
        joined = {zero} | {x for k, x in enumerate(xs) if bits >> k & 1}
        expected.add(partition_from_assignment(-1 if e in joined else e for e in range(n + 2)))
    for x in xs:
        expected.add(partition_from_assignment(e in (one, x) for e in range(n + 2)))
    ours = all_congruences(regular_act(instance.monoid))
    assert len(ours) == len(expected) == 2**n + n + 1
    assert {c.partition for c in ours} == expected
    assert all(two_sided_violation(c) is None for c in ours)


def test_enumerate_bounded_equals_unbounded_at_carrier_size(small_corpus):
    for act in small_corpus[::23]:
        assert [c.partition for c in all_congruences(act, max_index=act.size)] == [
            c.partition for c in all_congruences(act)
        ]


def test_enumerate_cap():
    act = regular_act(null_adjoined(6))
    with pytest.raises(SearchSpaceTooLarge) as exc:
        list(enumerate_congruences(act, cap=10))
    assert exc.value.estimate == search_space_estimate(8, 8)


def test_enumeration_runs_in_one_frame_on_a_deep_carrier():
    # one search level per carrier element, none of them a Python frame
    act = act_from_table(trivial_monoid(), [[x] for x in range(1500)])
    assert all_congruences(act, max_index=1) == (universal_congruence(act),)


def test_search_space_estimate():
    assert search_space_estimate(5, 5) == 52  # Bell(5)
    assert search_space_estimate(5, 1) == 1
    assert search_space_estimate(5, 2) == 16  # S(5,1) + S(5,2)


def test_search_space_estimate_counts_partitions_with_at_most_k_blocks():
    for n in range(8):
        sizes = [len(blocks) for blocks in all_set_partitions(n)]
        for k in range(n + 2):
            assert search_space_estimate(n, k) == sum(s <= k for s in sizes), (n, k)


def test_quotient_monoid_by_equality():
    act = regular_act(NULL1)
    q = quotient_monoid(NULL1, equality_congruence(act))
    assert are_isomorphic(q, NULL1)


def test_two_sided_detection():
    from actsep.monoids import left_zero_adjoined, rectangular_band_adjoined

    lz = left_zero_adjoined(2)
    act = regular_act(lz)
    rho = verify_congruence(act, partition_from_blocks(3, [[0], [1, 2]]))
    assert two_sided_violation(rho) is None  # x1,x2 merge two-sidedly here
    cyclic = cyclic_act_from_right_congruence(lz, rho)
    assert cyclic.size == 2

    # merging one row pair of a rectangular band is right- but not two-sided
    rb = rectangular_band_adjoined(2, 2)
    reg = regular_act(rb)
    row_pair = verify_congruence(
        reg, partition_from_blocks(5, [[0], [1, 2], [3], [4]])
    )
    witness = two_sided_violation(row_pair)
    assert witness is not None
    a, b, m = witness
    assert not row_pair.same(rb.table[m][a], rb.table[m][b])


def test_cyclic_act_from_right_congruence_group_cosets():
    from actsep.acts import coset_act

    z4 = cyclic_group(4)
    act = regular_act(z4)
    rho = verify_congruence(
        act, partition_from_blocks(4, [[0, 2], [1, 3]])
    )
    quot = cyclic_act_from_right_congruence(z4, rho)
    cosets = coset_act(z4, [0, 2])
    assert quot.table == cosets.table
