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
    meet,
    rees_congruence,
    verify_congruence,
)
from actsep.errors import (
    EmptyForbiddenSet,
    InternalInvariantViolation,
    InvalidSpec,
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
    act_monoid_correspondence,
    bracket_profile,
    check_condition,
    clifford_witness,
    disjoint_union_fallback,
    disjoint_union_witness,
    is_clifford,
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
    with pytest.raises(NotTwoSidedCongruence):
        act_monoid_correspondence(rb, rho, monoid_side=True)


def test_correspondence_cap_bounds_each_condition():
    # the cap bounds the candidate sets of each condition on its own: the
    # largest condition's count passes, one less aborts
    from actsep.congruences import equality_congruence, quotient
    from actsep.errors import SearchSpaceTooLarge
    from actsep.separability import CONDITIONS, _condition_instances

    rho = equality_congruence(regular_act(NULL1))
    act = quotient(rho.act, rho)[0]
    counts = [
        sum(1 << (act.size - len(forb) - 1) for _, forb in _condition_instances(act, cond, 1 << 16))
        for cond in CONDITIONS
    ]
    assert sum(counts) > max(counts)
    assert act_monoid_correspondence(NULL1, rho, cap=max(counts)).equivalences_agree
    with pytest.raises(SearchSpaceTooLarge):
        act_monoid_correspondence(NULL1, rho, cap=max(counts) - 1)


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
    with pytest.raises(InternalInvariantViolation, match="exceeds the two-sided one 2"):
        act_monoid_correspondence(NULL1, rho)


def test_is_clifford_predicate():
    assert is_clifford(cyclic_group(4))
    assert is_clifford(monoid_from_table([[0, 1], [1, 1]], 0))
    assert not is_clifford(rectangular_band_adjoined(2, 2))
    assert not is_clifford(NULL1)  # s has no inverse
