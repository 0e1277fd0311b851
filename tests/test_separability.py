import pytest

from actsep.acts import (
    act_from_table,
    disjoint_union,
    regular_act,
    subact_generated,
    subacts,
)
from actsep.congruences import (
    all_congruences,
    cyclic_act_from_right_congruence,
    equality_congruence,
    meet,
    quotient_monoid,
    rees_congruence,
    verify_congruence,
)
from actsep.errors import (
    ActMismatch,
    EmptyForbiddenSet,
    InternalInvariantViolation,
    InvalidSpec,
    NotACongruence,
    NotAZero,
    NotClifford,
    NotComparable,
    NotNormalized,
    NotTwoSidedCongruence,
    PreconditionViolated,
    RRelated,
    XMeetsBlock,
)
from actsep.monoids import (
    ReesMatrixSpec,
    cyclic_group,
    monoid_from_table,
    null_adjoined,
    rectangular_band_adjoined,
    rees_element_index,
    rees_matrix_monoid,
    trivial_monoid,
)
from actsep.partitions import partition_from_blocks
from actsep.separability import (
    CONDITIONS,
    act_monoid_correspondence,
    bracket_profile,
    check_condition,
    clifford_witness,
    disjoint_union_fallback,
    disjoint_union_witness,
    is_clifford,
    make_certificate,
    minimal_separating_index,
    rclass_witness,
    rees_bracket_decomposition,
    rees_cyclic_sss_witness,
    separate,
    sigma_a,
)
from oracles import naive_min_separating_index, separates


NULL1 = null_adjoined(1)  # {1, s, z}


# ---------------------------------------------------------------------------
# bracket sets and sigma


def test_bracket_profile_one_element_act():
    act = act_from_table(NULL1, [[0, 0, 0]])
    profile = bracket_profile(act, 0)
    assert profile.brackets == (frozenset({0, 1, 2}),)


def test_bracket_profile_null_monoid_nonzero():
    act = regular_act(NULL1)
    profile = bracket_profile(act, 1)  # a = s
    assert set(profile.brackets) == {frozenset({1}), frozenset({0}), frozenset()}
    assert profile.distinct_count == 3


def test_bracket_profile_null_monoid_zero():
    act = regular_act(NULL1)
    profile = bracket_profile(act, 2)  # a = 0
    assert set(profile.brackets) == {
        frozenset({2}),
        frozenset({0, 1, 2}),
        frozenset({1, 2}),
    }


def test_identity_in_bracket_iff_equal(small_corpus):
    for act in small_corpus[::7]:
        e = act.monoid.identity
        for a in act.carrier():
            profile = bracket_profile(act, a)
            for b in act.carrier():
                assert (e in profile.brackets[b]) == (a == b)


def test_sigma_singleton_block(small_corpus):
    for act in small_corpus[::5]:
        for a in act.carrier():
            cong = sigma_a(act, a)
            assert cong.partition.block(a) == (a,)


def test_sigma_null_example():
    act = regular_act(NULL1)
    assert sigma_a(act, 1).blocks() == ((0,), (1,), (2,))


def test_sigma_one_element_act():
    act = act_from_table(NULL1, [[0, 0, 0]])
    assert sigma_a(act, 0).index == 1


# ---------------------------------------------------------------------------
# separate


def test_separate_two_zero_act():
    act = act_from_table(NULL1, [[0, 0, 0], [1, 1, 1]])
    cert = separate(act, 0, {1})
    assert cert.quotient_size == 2


def test_separate_rejects_degenerate_inputs():
    act = regular_act(NULL1)
    with pytest.raises(EmptyForbiddenSet):
        separate(act, 0, set())
    with pytest.raises(InvalidSpec):
        separate(act, 0, {0, 1})


def test_separate_minimal_against_oracle(small_corpus):
    for act in small_corpus[::31]:
        if act.size < 2:
            continue
        for a in act.carrier():
            rest = frozenset(act.carrier()) - {a}
            cert = separate(act, a, rest)
            assert cert.quotient_size == naive_min_separating_index(act, a, rest)


def test_separate_bound_semantics():
    from actsep.families import build

    inst = build("kozhukhov", {"n": 3})
    act, b, zero = inst.act, inst.mark("b"), inst.mark("0")
    cert = separate(act, b, {zero})
    assert cert.quotient_size == 5
    assert separate(act, b, {zero}, max_index=4) is None
    assert separate(act, b, {zero}, max_index=5).quotient_size == 5
    assert separate(act, b, {zero}, max_index=99).quotient_size == 5


def test_separate_certificate_disjointness(small_corpus):
    for act in small_corpus[::41]:
        if act.size < 3:
            continue
        a = 0
        forb = {act.size - 1}
        cert = separate(act, a, forb)
        for x in forb:
            assert not cert.congruence.same(a, x)


# ---------------------------------------------------------------------------
# condition checkers


@pytest.mark.parametrize("condition", ["rf", "wss", "sss", "cs"])
def test_conditions_hold_on_small_corpus(condition, small_corpus):
    for act in small_corpus[::21]:
        report = check_condition(act, condition)
        assert report.holds
        assert report.counterexample is None


def test_condition_report_implication_structure(small_corpus):
    for act in small_corpus[::33]:
        holds = {c: check_condition(act, c).holds for c in ("RF", "WSS", "SSS", "CS")}
        if holds["CS"]:
            assert holds["SSS"] and holds["RF"]
        if holds["SSS"]:
            assert holds["WSS"]


def test_one_element_act_all_conditions():
    act = act_from_table(NULL1, [[0, 0, 0]])
    for cond in ("rf", "wss", "sss", "cs"):
        report = check_condition(act, cond)
        assert report.holds and report.certificates == ()


def test_wss_equals_two_generator_subact_checks(small_corpus):
    # weak subact separability via cyclic subacts agrees with checking
    # subacts generated by at most two elements, and the meet of the two
    # cyclic certificates is itself a separating congruence
    for act in small_corpus[::37]:
        wss = check_condition(act, "wss")
        assert wss.holds
        congs = all_congruences(act)
        for x in act.carrier():
            for y in act.carrier():
                sub = frozenset(subact_generated(act, {x, y}))
                for a in act.carrier():
                    if a in sub:
                        continue
                    assert any(separates(c, a, sub) for c in congs)
                    cx = separate(act, a, subact_generated(act, {x}))
                    cy = separate(act, a, subact_generated(act, {y}))
                    met = meet(cx.congruence, cy.congruence)
                    assert separates(met, a, sub)


def test_check_condition_certificates_are_minimal():
    from actsep.families import build

    inst = build("kozhukhov", {"n": 2})
    report = check_condition(inst.act, "cs")
    assert report.holds
    for cert in report.certificates:
        assert cert.quotient_size == minimal_separating_index(
            inst.act, cert.element, cert.forbidden
        )


# ---------------------------------------------------------------------------
# named witnesses


def test_rclass_witness_two_element_act():
    act = act_from_table(NULL1, [[0, 1, 1], [1, 1, 1]])
    cert = rclass_witness(act, 1, 0)
    assert cert.congruence.blocks() == ((0,), (1,))


def test_rclass_witness_rees_quotient_act():
    from actsep.acts import rees_quotient

    m = rectangular_band_adjoined(2, 2)
    reg = regular_act(m)
    ideal = next(s for s in subacts(reg) if len(s) == 2)
    act, _ = rees_quotient(reg, ideal)
    zero = act.size - 1
    cert = rclass_witness(act, zero, 0)
    assert cert.quotient_size <= 2 ** len(m.r_classes) + 1


def test_rclass_witness_group_bound():
    z2 = cyclic_group(2)
    act = act_from_table(z2, [[0, 1], [1, 0], [2, 2]])
    cert = rclass_witness(act, 2, 0)
    assert cert.quotient_size <= 3


def test_rclass_witness_rejects_non_zero():
    act = regular_act(NULL1)
    with pytest.raises(NotAZero):
        rclass_witness(act, 0, 1)


@pytest.mark.parametrize(
    "a, message",
    [(99, "^element 99 out of carrier range"), (-1, "^element -1 out of carrier range"),
     (2, "must differ from the zero")],
)
def test_rclass_witness_rejects_a_bad_element(a, message):
    act = regular_act(NULL1)  # its zero is 2
    with pytest.raises(InvalidSpec, match=message):
        rclass_witness(act, 2, a)


def test_clifford_witness_zero_over_semilattice():
    semilattice = monoid_from_table([[0, 1], [1, 1]], 0)
    act = regular_act(semilattice)
    cert = clifford_witness(act, 1, 0)  # separate the zero from the identity
    assert cert.quotient_size == 2


def test_clifford_witness_chain_act():
    from actsep.families import build

    inst = build("semilattice_act", {"n": 3})
    cert = clifford_witness(inst.act, inst.mark("x2"), inst.mark("x0"))
    assert cert.quotient_size == 2


def test_clifford_witness_rejects():
    with pytest.raises(NotClifford):
        clifford_witness(regular_act(rectangular_band_adjoined(2, 2)), 1, 2)
    z2 = cyclic_group(2)
    with pytest.raises(RRelated):
        clifford_witness(regular_act(z2), 0, 1)


@pytest.mark.parametrize("a, b", [(5, 0), (0, 5), (-1, 0), (0, -1)])
def test_clifford_witness_rejects_elements_out_of_range(a, b):
    # checked before the preorder is read: 5 would index past it and -1 wrap
    act = regular_act(monoid_from_table([[0, 1], [1, 1]], 0))
    bad = a if b == 0 else b
    with pytest.raises(InvalidSpec, match=rf"^element {bad} out of carrier range"):
        clifford_witness(act, a, b)


def test_rees_cyclic_witness_rectangular_band():
    m = rectangular_band_adjoined(2, 2)
    reg = regular_act(m)
    ideal = next(s for s in subacts(reg) if len(s) == 2)
    rho = rees_congruence(reg, ideal)
    cert = rees_cyclic_sss_witness(m, rho)
    assert cert.quotient_size == 3
    assert len(cert.congruence.blocks()) == 3


def test_rees_cyclic_witness_degenerate_two_elements():
    spec = ReesMatrixSpec(trivial_monoid(), 1, 1, ((0,),))
    m = rees_matrix_monoid(spec)
    reg = regular_act(m)
    rho = rees_congruence(reg, {1})
    cert = rees_cyclic_sss_witness(m, rho)
    assert cert.quotient_size == 2  # equality on {[1], 0}


def test_rees_cyclic_witness_rejects_non_rees():
    from actsep.congruences import equality_congruence

    reg = regular_act(NULL1)
    with pytest.raises(PreconditionViolated):
        rees_cyclic_sss_witness(NULL1, equality_congruence(reg))


@pytest.mark.parametrize("forbidden", [{1}, {3}])
def test_make_certificate_rejects_a_congruence_on_another_act(forbidden):
    act = regular_act(null_adjoined(2))
    other = equality_congruence(regular_act(NULL1))
    with pytest.raises(ActMismatch):
        make_certificate(act, 0, forbidden, other)


@pytest.mark.parametrize(
    "call",
    [quotient_monoid, cyclic_act_from_right_congruence, act_monoid_correspondence, rees_cyclic_sss_witness],
)
def test_congruence_on_another_act_is_not_a_congruence_of_the_monoid(call):
    # RB2x2^1 passes the completely simple precondition of the Rees witness
    monoid = rectangular_band_adjoined(2, 2)
    with pytest.raises(NotACongruence):
        call(monoid, equality_congruence(regular_act(NULL1)))


def test_disjoint_union_witness_and_fallback():
    part = regular_act(NULL1)
    union, _ = disjoint_union([part, part])
    blocks = [(0, 1, 2), (3, 4, 5)]
    cert = disjoint_union_witness(union, blocks, 0, {3, 4})
    assert cert.quotient_size == 2
    with pytest.raises(XMeetsBlock):
        disjoint_union_witness(union, blocks, 0, {1, 4})
    fallback = disjoint_union_fallback(union, blocks, 0, {1, 4})
    assert not fallback.congruence.same(0, 1)
    assert not fallback.congruence.same(0, 4)


def test_disjoint_union_witness_singleton_blocks():
    one = act_from_table(NULL1, [[0, 0, 0]])
    union, _ = disjoint_union([one, one])
    cert = disjoint_union_witness(union, [(0,), (1,)], 0, {1})
    assert cert.quotient_size == 2


# ---------------------------------------------------------------------------
# Rees bracket decomposition


def test_rees_bracket_rectangular_band_example():
    spec = ReesMatrixSpec(trivial_monoid(), 2, 2, ((0, 0), (0, 0)))
    m = rees_matrix_monoid(spec)
    act = regular_act(m)
    # comparable pair: same row, different column
    a = rees_element_index(spec, 0, 0, 1)
    b = rees_element_index(spec, 0, 0, 0)
    assert a in act.orbit(b)
    decomp = rees_bracket_decomposition(act, spec, a, b)
    assert decomp.u_b == frozenset({(0, 0), (1, 0)})
    assert decomp.j_prime == frozenset({1})
    product = {
        rees_element_index(spec, i, g, j)
        for (i, g) in decomp.u_b
        for j in decomp.j_prime
    }
    assert product == set(bracket_profile(act, a).brackets[b])
    assert decomp.z_b is not None


def test_rees_bracket_rejects_unnormalized():
    z2 = cyclic_group(2)
    spec = ReesMatrixSpec(z2, 2, 2, ((0, 1), (1, 0)))
    act = regular_act(rees_matrix_monoid(spec))
    with pytest.raises(NotNormalized):
        rees_bracket_decomposition(act, spec, 1, 2)


def test_rees_bracket_rejects_incomparable():
    spec = ReesMatrixSpec(trivial_monoid(), 2, 2, ((0, 0), (0, 0)))
    m = rees_matrix_monoid(spec)
    act = regular_act(m)
    with pytest.raises(NotComparable):
        rees_bracket_decomposition(act, spec, 0, 0)


@pytest.mark.parametrize("a, b", [(0, 99), (0, -1), (99, 0), (-1, 0)])
def test_rees_bracket_rejects_elements_out_of_range(a, b):
    spec = ReesMatrixSpec(cyclic_group(2), 2, 2, ((0, 0), (0, 1)))
    act = regular_act(rees_matrix_monoid(spec))
    bad = a if b == 0 else b
    with pytest.raises(InvalidSpec, match=rf"^element {bad} out of carrier range"):
        rees_bracket_decomposition(act, spec, a, b)


# ---------------------------------------------------------------------------
# act <-> monoid correspondence


def test_correspondence_equality_congruence():
    from actsep.congruences import equality_congruence

    reg = regular_act(NULL1)
    report = act_monoid_correspondence(NULL1, equality_congruence(reg))
    assert report.two_sided
    assert report.subacts_match_right_ideals
    assert report.equivalences_agree
    assert all(report.act_conditions.values())
    assert all(report.monoid_conditions.values())
    # N = NULL1 is commutative, so its right congruences are two-sided; s
    # and z share a class in every congruence of index 2 (s*s = z)
    assert report.act_indices == report.monoid_indices == dict.fromkeys(CONDITIONS, 3)


def test_correspondence_universal_congruence():
    from actsep.congruences import universal_congruence

    reg = regular_act(NULL1)
    report = act_monoid_correspondence(NULL1, universal_congruence(reg))
    assert report.two_sided and report.equivalences_agree


def test_correspondence_right_only_bijection():
    rb = rectangular_band_adjoined(2, 2)
    reg = regular_act(rb)
    rho = verify_congruence(reg, partition_from_blocks(5, [[0], [1, 2], [3], [4]]))
    report = act_monoid_correspondence(rb, rho)
    assert not report.two_sided
    assert report.subacts_match_right_ideals
    assert report.act_conditions is None
    assert report.act_indices is None and report.monoid_indices is None
    with pytest.raises(NotTwoSidedCongruence):
        act_monoid_correspondence(rb, rho, monoid_side=True)


def test_correspondence_right_only_enumerates_nothing():
    # M = C17 x RB2x2^1 (C17 the order-17 chain under max) has order 85 and
    # about 2^51 right-ideal unions, so any listing of M's right ideals
    # aborts; rho = equality on the chain times the right-only classes of
    # test_correspondence_right_only_bijection on the band
    from actsep.partitions import partition_from_assignment

    rb = rectangular_band_adjoined(2, 2)
    table = [[max(x // 5, y // 5) * 5 + rb.table[x % 5][y % 5] for y in range(85)] for x in range(85)]
    monoid = monoid_from_table(table, 0)
    classes = partition_from_assignment([(x // 5, (0, 1, 1, 2, 3)[x % 5]) for x in range(85)])
    report = act_monoid_correspondence(monoid, verify_congruence(regular_act(monoid), classes))
    assert not report.two_sided and report.subacts_match_right_ideals


def test_correspondence_cap_bounds_each_condition():
    # the cap bounds the candidate sets of each condition's maximal
    # instances on its own: the largest condition's count passes, one less
    # aborts
    from actsep.acts import cyclic_subacts
    from actsep.congruences import equality_congruence, quotient
    from actsep.errors import SearchSpaceTooLarge
    from actsep.separability import _maximal_instances

    rho = equality_congruence(regular_act(NULL1))
    act = quotient(rho.act, rho)[0]
    counts = [
        sum(1 << (act.size - len(forb) - 1) for _, forb in _maximal_instances(act, cond, cyclic_subacts(act)))
        for cond in CONDITIONS
    ]
    assert sum(counts) > max(counts)
    assert act_monoid_correspondence(NULL1, rho, cap=max(counts)).equivalences_agree
    with pytest.raises(SearchSpaceTooLarge):
        act_monoid_correspondence(NULL1, rho, cap=max(counts) - 1)


def test_correspondence_cap_binds_before_and_after_the_memo():
    # the aborting call comes first, on an empty memo, and stores nothing;
    # the passing call then fills the memo, and the cap still binds on it
    from actsep import separability
    from actsep.acts import cyclic_subacts
    from actsep.congruences import equality_congruence
    from actsep.errors import SearchSpaceTooLarge
    from actsep.separability import _candidate_sets, _maximal_instances

    rho = equality_congruence(regular_act(NULL1))
    act = rho.act  # the equality quotient of NULL1 has NULL1's own table
    largest = max(
        _candidate_sets(act.size, _maximal_instances(act, cond, cyclic_subacts(act))) for cond in CONDITIONS
    )
    separability._two_sided_memo.cache_clear()
    with pytest.raises(SearchSpaceTooLarge) as aborted:
        act_monoid_correspondence(NULL1, rho, cap=largest - 1)
    assert separability._two_sided_memo.cache_info().currsize == 0
    assert act_monoid_correspondence(NULL1, rho, cap=largest).equivalences_agree
    with pytest.raises(SearchSpaceTooLarge) as again:
        act_monoid_correspondence(NULL1, rho, cap=largest - 1)
    assert (again.value.estimate, again.value.cap) == (aborted.value.estimate, aborted.value.cap)


def test_correspondence_needs_no_subact_cap():
    # the order-17 chain (max, identity 0) has 17 distinct principal right
    # ideals, more orbit unions than the subact cap allows; the two-sided
    # branch lists no subacts, so only the search cap applies
    from actsep.congruences import equality_congruence
    from actsep.errors import SearchSpaceTooLarge

    chain = monoid_from_table([[max(i, j) for j in range(17)] for i in range(17)], 0)
    reg = regular_act(chain)
    with pytest.raises(SearchSpaceTooLarge) as listed:
        subacts(reg)
    assert (listed.value.estimate, listed.value.cap) == (1 << 17, 1 << 16)
    report = act_monoid_correspondence(chain, equality_congruence(reg))
    assert report.subacts_match_right_ideals
    assert report.act_indices == report.monoid_indices == {"RF": 2, "WSS": 2, "SSS": 2, "CS": 3}


def test_maximal_instances():
    # NULL1 = {1, s, z} on itself: the orbits are {z}, {s, z} and everything
    from actsep.acts import cyclic_subacts
    from actsep.separability import _maximal_instances

    act = regular_act(NULL1)
    orbits = cyclic_subacts(act)
    assert set(orbits) == {frozenset({0, 1, 2}), frozenset({1, 2}), frozenset({2})}

    def maximal(cond):
        return {(a, tuple(sorted(x))) for a, x in _maximal_instances(act, cond, orbits)}

    assert maximal("RF") == {(0, (1,)), (0, (2,)), (1, (2,))}
    assert maximal("CS") == {(0, (1, 2)), (1, (0, 2)), (2, (0, 1))}
    assert maximal("SSS") == {(0, (1, 2)), (1, (2,))}
    assert maximal("WSS") == {(0, (1, 2)), (1, (2,))}
    with pytest.raises(InvalidSpec):
        _maximal_instances(act, "XSS", orbits)


def test_condition_index_without_listing_subacts():
    # SSS by one maximal instance per element: the check over every subact
    # gives up on 4 copies (candidate sets) and 5 copies (subacts) of the
    # kozhukhov n=2 act, while the index needs 56 and 70 candidate sets
    from actsep.acts import cyclic_subacts
    from actsep.errors import SearchSpaceTooLarge
    from actsep import condition_index
    from actsep.families import build
    from actsep.separability import _maximal_instances

    base = build("kozhukhov", {"n": 2}).act
    for copies, candidates in ((4, 56), (5, 70)):
        union = disjoint_union([base] * copies)[0]
        with pytest.raises(SearchSpaceTooLarge):
            check_condition(union, "sss")
        instances = _maximal_instances(union, "SSS", cyclic_subacts(union))
        assert sum(1 << (union.size - len(forb) - 1) for _, forb in instances) == candidates
        assert condition_index(union, "SSS") == 4
        assert condition_index(union, "CS") == 5
    with pytest.raises(SearchSpaceTooLarge):
        condition_index(union, "RF")
    with pytest.raises(InvalidSpec):
        condition_index(base, "XSS")


def test_cs_batch_walks_alone_without_computing_u():
    # CS has one instance per element with one candidate set each, so its n
    # elements alone (2^n sets > n) rule the table out before U is computed
    from actsep.catalog import enumerate_acts
    from actsep.separability import _condition_instances, _hit_masks, _SigmaBatch

    for size in (2, 3, 4, 5):
        for act in list(enumerate_acts(NULL1, size))[::7]:
            instances = _condition_instances(act, "CS", 1 << 16)
            batch = _SigmaBatch(_hit_masks(act), instances, None)
            assert batch.table is None
            assert not hasattr(batch, "free")
            expected = [c.quotient_size for c in check_condition(act, "CS").certificates]
            assert [batch.min_index(a, forb) for a, forb in instances] == expected


def test_monoid_side_rejects_an_act_side_minimum_above_it(monkeypatch):
    # a two-sided congruence of index 2 separates 0 from 1 in N = NULL1, so
    # an act-side "minimum" of 3, the equality, is a bug
    from actsep import separability
    from actsep.congruences import equality_congruence

    reg = regular_act(NULL1)
    rho = equality_congruence(reg)
    assert naive_min_separating_index(reg, 0, {1}) == 2
    report = act_monoid_correspondence(NULL1, rho)
    assert all(report.act_conditions.values()) and all(report.monoid_conditions.values())

    def equality_masks(act):
        # hit masks that give each element its own key under every C, so
        # every sigma_C on the act side is the equality
        return [[1 << (y * act.size + x) for x in act.carrier()] for y in act.carrier()]

    monkeypatch.setattr(separability, "_hit_masks", equality_masks)
    # the first call stored N = NULL1's entry; without clearing it the
    # second call would read it and never reach the faulty masks
    separability._two_sided_memo.cache_clear()
    with pytest.raises(InternalInvariantViolation, match="exceeds the two-sided one 2"):
        act_monoid_correspondence(NULL1, rho)
    # a single instance walks alone on both sides, and is checked on its own
    single = [(0, frozenset({1}))]
    right = separability._SigmaBatch(equality_masks(reg), single, None)
    two_sided = separability._SigmaBatch(separability._two_sided_hit_masks(NULL1), single, None)
    assert right.table is None and two_sided.table is None
    with pytest.raises(InternalInvariantViolation, match="index 3 exceeds the two-sided one 2"):
        separability._paired_min_indices(right, two_sided, single)


def test_is_clifford_predicate():
    assert is_clifford(cyclic_group(4))
    assert is_clifford(monoid_from_table([[0, 1], [1, 1]], 0))
    assert not is_clifford(rectangular_band_adjoined(2, 2))
    assert not is_clifford(NULL1)  # s has no inverse
