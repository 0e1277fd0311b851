"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line.  Every tolerance is exact.  Run with

    python3 -m pytest tests/test_acceptance.py -v -s
"""

from itertools import product

import pytest

from actsep.acts import regular_act
from actsep.catalog import catalog_monoids, enumerate_acts, named_monoids
from actsep.congruences import (
    all_congruences,
    two_sided_violation,
    verify_congruence,
)
from actsep.errors import PreconditionViolated, XMeetsBlock
from actsep.families import (
    CongruenceWitness,
    ForcingChain,
    MinIndexFact,
    build,
    verify,
)
from actsep.monoids import (
    ReesMatrixSpec,
    cyclic_group,
    rees_element_index,
    rees_matrix_monoid,
    sandwich_rank,
    trivial_monoid,
)
from actsep.partitions import partition_from_blocks
from actsep.separability import (
    CONDITIONS,
    act_monoid_correspondence,
    check_condition,
    clifford_witness,
    disjoint_union_fallback,
    disjoint_union_witness,
    is_clifford,
    rclass_witness,
    rees_bracket_decomposition,
    rees_cyclic_sss_witness,
    separate,
    sigma_a,
)
from oracles import (
    all_set_partitions,
    count_squarefree_words,
    naive_is_congruence,
    naive_rank,
)


def _report(criterion: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {criterion:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def _corpus_acts(max_order: int, max_carrier: int):
    for entry in catalog_monoids():
        if entry.monoid.order > max_order:
            continue
        for size in range(1, max_carrier + 1):
            yield from enumerate_acts(entry.monoid, size)


def test_criterion_1_every_catalog_act_completely_separable():
    """Every act (carrier <= 5) over every catalog monoid satisfies CS, and
    the bracket congruence has a singleton block at every element (the
    singleton check runs inside sigma_a and raises on violation)."""
    counts = dict.fromkeys(range(1, 6), 0)
    checked = 0
    for entry in catalog_monoids():
        for size in counts:
            for act in enumerate_acts(entry.monoid, size):
                report = check_condition(act, "cs")
                assert report.holds, (entry.name, act.table)
                if checked % 97 == 0:
                    for a in act.carrier():
                        assert sigma_a(act, a).partition.block(a) == (a,)
                checked += 1
                counts[size] += 1
    _report(
        1,
        f"corpus complete separability ({checked} acts)",
        counts == {1: 49, 2: 209, 3: 1322, 4: 11893, 5: 142294},
    )


def test_criterion_2_sigma_oracle_equivalence():
    """On 1000 (act, element) instances: sigma_a verifies with a singleton
    block, and the minimal separating index from separate() equals the
    smallest singleton-block congruence found by the naive partition oracle,
    never exceeding index(sigma_a)."""
    instances = []
    for entry in catalog_monoids():
        taken = 0
        for size in range(2, 6):
            if taken >= 25:
                break
            for act in enumerate_acts(entry.monoid, size):
                for a in act.carrier():
                    instances.append((act, a))
                    taken += 1
                    if taken >= 25:
                        break
                if taken >= 25:
                    break
    instances = instances[:1000]
    assert len(instances) == 1000
    for act, a in instances:
        sigma = sigma_a(act, a)
        assert sigma.partition.block(a) == (a,)
        rest = frozenset(act.carrier()) - {a}
        cert = separate(act, a, rest)
        best = None
        for blocks in all_set_partitions(act.size):
            if any(a in block and len(block) > 1 for block in blocks):
                continue
            if naive_is_congruence(act, blocks):
                if best is None or len(blocks) < best:
                    best = len(blocks)
        assert cert.quotient_size == best
        assert cert.quotient_size <= sigma.index
    _report(2, "sigma vs enumeration oracle on 1000 instances", True)


def test_criterion_3_forcing_chains():
    cases = [
        ("bz_window", {"w": 12}, 10),  # all 1 <= i < j <= 5
        ("kozhukhov", {"n": 2}, 1),
        ("kozhukhov", {"n": 3}, 3),
        ("kozhukhov", {"n": 4}, 6),
        ("leftzero", {"n": 2}, 1),
        ("leftzero", {"n": 3}, 3),
        ("leftzero", {"n": 4}, 6),
        ("free_monogenic_act", {"w": 10}, 55),
        ("star_semilattice", {"n": 2}, 2),
        ("star_semilattice", {"n": 3}, 6),
        ("star_semilattice", {"n": 4}, 12),
        ("star_semilattice", {"n": 5}, 20),
    ]
    for name, params, expected_chains in cases:
        instance = build(name, params)
        chains = [f for f in instance.expected if isinstance(f, ForcingChain)]
        assert len(chains) == expected_chains, (name, params)
        report = verify(instance)
        for result in report.results:
            if isinstance(result.fact, ForcingChain):
                assert result.passed, (name, params, result)
    _report(3, "forcing chains fire across all five families", True)


def test_criterion_4_minimal_index_pins():
    for name in ("kozhukhov", "leftzero"):
        for n in (2, 3, 4):
            instance = build(name, {"n": n})
            fact = next(f for f in instance.expected if isinstance(f, MinIndexFact))
            assert fact.value == n + 2
            # independent oracle: filter every set partition
            act = instance.act
            best = None
            forb = set(fact.forbidden)
            for blocks in all_set_partitions(act.size):
                if not naive_is_congruence(act, blocks):
                    continue
                mine = next(set(b) for b in blocks if fact.element in b)
                if mine & forb:
                    continue
                if best is None or len(blocks) < best:
                    best = len(blocks)
            assert best == n + 2
            cert = separate(act, fact.element, fact.forbidden)
            assert cert.quotient_size == n + 2
    _report(4, "min-index pins n+2 for kozhukhov and leftzero, n in {2,3,4}", True)


def test_criterion_5_clifford_tower_pigeonhole():
    for n in (2, 3):
        instance = build("clifford_tower", {"n": n})
        act = instance.act
        e1 = instance.mark("e1")
        rest = frozenset(act.carrier()) - {e1}
        assert separate(act, e1, rest, max_index=n) is None
        # independent oracle over all partitions with at most n blocks
        for blocks in all_set_partitions(act.size):
            if len(blocks) > n or not naive_is_congruence(act, blocks):
                continue
            mine = next(set(b) for b in blocks if e1 in b)
            assert mine & rest, "oracle found a separating congruence"
        # a separating congruence exists at some index <= |A|
        assert separate(act, e1, rest).quotient_size <= act.size
        # the defining relation verifies as a right congruence with the
        # identity classes merged
        witness = next(f for f in instance.expected if isinstance(f, CongruenceWitness))
        reg = regular_act(instance.monoid)
        cong = verify_congruence(
            reg, partition_from_blocks(instance.monoid.order, witness.blocks)
        )
        labels = instance.monoid.labels
        e_block = {labels[x] for x in cong.partition.block(0)}
        assert e_block == {f"e{i + 1}" for i in range(n)}
    _report(5, "clifford tower admits no small separating congruence", True)


def test_criterion_6_sandwich_rank():
    z2 = cyclic_group(2)
    for n in range(2, 7):
        sandwich = tuple(
            tuple(1 if (i == j and i != 0) else 0 for i in range(n)) for j in range(n)
        )
        spec = ReesMatrixSpec(z2, n, n, sandwich)
        report = sandwich_rank(spec)
        assert report.rank == n, n
        assert (report.r_i, report.r_j) == naive_rank(z2, n, n, sandwich)
        assert sandwich_rank(spec, normal_subgroup=[0, 1]).rank == 1
    flat = ReesMatrixSpec(z2, 3, 3, tuple(tuple(0 for _ in range(3)) for _ in range(3)))
    assert sandwich_rank(flat).rank == 1
    _report(6, "diagonal family rank n, all-identity rank 1, P/G rank 1", True)


def test_criterion_7_witness_constructions():
    rclass_runs = clifford_runs = rees_runs = union_runs = 0

    for act in _corpus_acts(max_order=3, max_carrier=4):
        zeros = act.zeros
        clifford = is_clifford(act.monoid)
        for zero in zeros:
            for a in act.carrier():
                if a != zero:
                    cert = rclass_witness(act, zero, a)
                    assert not cert.congruence.same(a, zero)
                    assert cert.quotient_size <= 2 ** len(act.monoid.r_classes) + 1
                    rclass_runs += 1
        if clifford:
            from actsep.acts import preorder_and_green

            leq, _ = preorder_and_green(act)
            for a in act.carrier():
                for b in range(a + 1, act.size):
                    if leq[a][b] and leq[b][a]:
                        continue
                    cert = clifford_witness(act, a, b)
                    assert cert.quotient_size == 2
                    clifford_runs += 1

    for entry in named_monoids():
        if entry.name not in ("rectband2x2^1", "reesZ2_2x2^1"):
            continue
        monoid = entry.monoid
        reg = regular_act(monoid)
        for rho in all_congruences(reg):
            try:
                cert = rees_cyclic_sss_witness(monoid, rho)
            except PreconditionViolated:
                continue
            assert not cert.congruence.same(cert.element, next(iter(cert.forbidden)))
            rees_runs += 1

    for entry in catalog_monoids():
        if entry.monoid.order > 2:
            continue
        acts = [a for size in (1, 2) for a in enumerate_acts(entry.monoid, size)]
        for first, second in product(acts[:4], acts[:4]):
            from actsep.acts import disjoint_union

            union, _ = disjoint_union([first, second])
            blocks = [
                tuple(range(first.size)),
                tuple(range(first.size, union.size)),
            ]
            a = 0
            other = set(blocks[1])
            cert = disjoint_union_witness(union, blocks, a, other)
            assert cert.quotient_size == 2
            union_runs += 1
            if first.size >= 2:
                mixed = {1} | other
                with pytest.raises(XMeetsBlock):
                    disjoint_union_witness(union, blocks, a, mixed)
                fallback = disjoint_union_fallback(union, blocks, a, mixed)
                for x in mixed:
                    assert not fallback.congruence.same(a, x)
                union_runs += 1

    assert rclass_runs > 1000 and clifford_runs > 100 and rees_runs >= 10 and union_runs > 10
    _report(
        7,
        "witness constructions verified "
        f"(rclass={rclass_runs}, clifford={clifford_runs}, "
        f"rees={rees_runs}, union={union_runs})",
        True,
    )


def test_criterion_8_act_monoid_correspondence():
    checked = 0
    for entry in catalog_monoids():
        monoid = entry.monoid
        if monoid.order > 4:
            continue
        reg = regular_act(monoid)
        for rho in all_congruences(reg):
            if two_sided_violation(rho) is not None:
                continue
            report = act_monoid_correspondence(monoid, rho)
            assert report.two_sided
            assert report.subacts_match_right_ideals, entry.name
            assert report.equivalences_agree, entry.name
            assert report.act_conditions == report.monoid_conditions == dict.fromkeys(
                CONDITIONS, True
            ), entry.name
            checked += 1
    _report(8, f"act/monoid correspondence on {checked} quotients", checked > 100)


def test_criterion_9_rees_bracket_decomposition():
    groups = [trivial_monoid(), cyclic_group(2)]
    pairs_checked = 0
    for group in groups:
        e = group.identity
        for rows in (1, 2, 3):
            for cols in (1, 2, 3):
                free = (rows - 1) * (cols - 1)
                for mask in range(group.order**free):
                    entries = []
                    value = mask
                    for _ in range(free):
                        entries.append(value % group.order)
                        value //= group.order
                    sandwich = [[e] * rows for _ in range(cols)]
                    pos = 0
                    for j in range(1, cols):
                        for i in range(1, rows):
                            sandwich[j][i] = entries[pos]
                            pos += 1
                    spec = ReesMatrixSpec(
                        group, rows, cols, tuple(tuple(r) for r in sandwich)
                    )
                    act = regular_act(rees_matrix_monoid(spec))
                    for b in act.carrier():
                        for a in act.orbit(b):
                            if a == b:
                                continue
                            decomp = rees_bracket_decomposition(act, spec, a, b)
                            product_set = {
                                rees_element_index(spec, i, g, j)
                                for (i, g) in decomp.u_b
                                for j in decomp.j_prime
                            }
                            direct = {
                                m
                                for m in act.monoid.elements()
                                if act.table[b][m] == a
                            }
                            assert product_set == direct
                            pairs_checked += 1
    _report(9, f"bracket product identity on {pairs_checked} comparable pairs", pairs_checked > 500)


def test_criterion_10_family_structural_counts():
    for n in range(1, 7):
        instance = build("squarefree", {"n": n})
        assert instance.monoid.order == 2 + count_squarefree_words(n)
    for n in range(1, 7):
        instance = build("bz_quotient", {"n": n})
        report = verify(instance)
        assert report.passed
        witness = next(f for f in instance.expected if isinstance(f, CongruenceWitness))
        # re-check the separations directly: all in-window pairs b_i, b_j
        # with 0 < |i - j| < n land in different classes
        part = partition_from_blocks(instance.act.size, witness.blocks)
        w = 2 * n
        for i in range(-w, w + 1):
            for j in range(-w, w + 1):
                if 0 < abs(i - j) < n:
                    bi = instance.mark(f"b{i}")
                    bj = instance.mark(f"b{j}")
                    assert not part.same(bi, bj)
    _report(10, "squarefree counts and bz quotient separations", True)
