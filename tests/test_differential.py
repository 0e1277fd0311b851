"""Wider differential checks: the pruned enumerations against naive
generate-then-filter oracles on carriers beyond the small corpus, and the
syntactic-congruence separation search against the congruence enumeration."""

import pytest

from actsep.acts import act_from_table, regular_act
from actsep.catalog import catalog_monoids, enumerate_acts
from actsep.congruences import all_congruences
from actsep.families import build
from actsep.partitions import partition_from_assignment
from actsep.separability import (
    CONDITIONS,
    _condition_instances,
    _separates,
    check_condition,
    separate,
    sigma_a,
)
from oracles import naive_acts, naive_congruences

BOUNDS = (None, 1, 2, 3)


def _order4_entries():
    return [e for e in catalog_monoids() if e.monoid.order == 4][:6]


def test_congruence_enumeration_on_larger_carriers():
    # carrier-6/7 acts assembled from the families, checked against the
    # Bell-number filter oracle
    acts = [
        build("kozhukhov", {"n": 4}).act,       # carrier 6
        build("leftzero", {"n": 5}).act,        # carrier 7
        build("star_semilattice", {"n": 4}).act,  # carrier 6
        regular_act(build("bz_quotient", {"n": 3}).monoid),  # carrier 7
    ]
    for act in acts:
        ours = [c.partition for c in all_congruences(act)]
        assert len(set(ours)) == len(ours)
        assert set(ours) == set(naive_congruences(act))


def test_congruence_enumeration_on_order4_regular_acts():
    for entry in _order4_entries():
        act = regular_act(entry.monoid)
        ours = {c.partition for c in all_congruences(act)}
        assert ours == set(naive_congruences(act))


def test_act_enumeration_order3_carrier4_against_naive():
    checked = 0
    for entry in catalog_monoids():
        if entry.monoid.order != 3 or checked >= 3:
            continue
        ours = sorted(a.table for a in enumerate_acts(entry.monoid, 4))
        assert ours == sorted(naive_acts(entry.monoid, 4))
        checked += 1
    assert checked == 3


@pytest.mark.parametrize("name,params", [("kozhukhov", {"n": 3}), ("star_semilattice", {"n": 3})])
def test_separate_bound_sweep(name, params):
    # every bound below the minimum returns nothing; every bound at or above
    # it returns a certificate of exactly the minimal index
    instance = build(name, params)
    act = instance.act
    for a in act.carrier():
        rest = frozenset(act.carrier()) - {a}
        minimal = separate(act, a, rest).quotient_size
        for bound in range(1, act.size + 1):
            cert = separate(act, a, rest, max_index=bound)
            if bound < minimal:
                assert cert is None
            else:
                assert cert is not None and cert.quotient_size == minimal


def test_sigma_upper_bounds_minimal_separation():
    for entry in _order4_entries():
        for act in enumerate_acts(entry.monoid, 4):
            for a in act.carrier():
                rest = frozenset(act.carrier()) - {a}
                cert = separate(act, a, rest)
                assert cert.quotient_size <= sigma_a(act, a).index


def _separation_corpus():
    """Every catalog act with carrier <= 3, and every 40th with carrier 4."""
    for entry in catalog_monoids():
        for size in (1, 2, 3):
            yield from enumerate_acts(entry.monoid, size)
        yield from list(enumerate_acts(entry.monoid, 4))[::40]


def _reference(congs, a, forbidden, bound):
    """First congruence of minimal index in restricted-growth-string order
    that separates, from the full enumeration; None above the bound."""
    best = None
    for cong in congs:
        if _separates(cong, a, forbidden) and (best is None or cong.index < best.index):
            best = cong
    if bound is not None and best.index > bound:
        return None
    return best


def _partition(cert):
    return None if cert is None else cert.congruence.partition


def test_syntactic_search_matches_enumeration():
    acts = 0
    for act in _separation_corpus():
        acts += 1
        congs = all_congruences(act)
        for cond in CONDITIONS:
            instances = _condition_instances(act, cond, 1 << 16)
            for bound in BOUNDS:
                expected = []
                for a, forbidden in instances:
                    ref = _reference(congs, a, forbidden, bound)
                    if ref is None:
                        break
                    expected.append(ref.partition)
                report = check_condition(act, cond, max_index=bound)
                assert [_partition(c) for c in report.certificates] == expected
                assert report.holds == (len(expected) == len(instances))
                if not report.holds:
                    assert report.counterexample == instances[len(expected)]
        for a, forbidden in _condition_instances(act, "RF", 1 << 16):
            for bound in BOUNDS:
                ref = _reference(congs, a, forbidden, bound)
                cert = separate(act, a, forbidden, max_index=bound)
                assert _partition(cert) == (None if ref is None else ref.partition)
    assert acts > 1800


def _syntactic_partition(act, block):
    """sigma_C straight from its definition: x ~ y iff x*m in C exactly when
    y*m in C, for every m."""
    return partition_from_assignment(
        tuple(act.table[x][m] in block for m in act.monoid.elements())
        for x in act.carrier()
    )


def test_certificates_are_syntactic_congruences():
    # every certificate is sigma_C for C the class of the separated element
    acts = [
        build("kozhukhov", {"n": 4}).act,
        build("leftzero", {"n": 4}).act,
        build("star_semilattice", {"n": 4}).act,
        build("clifford_tower", {"n": 2}).act,
    ]
    acts += [act for act in _separation_corpus() if act.size == 4][::7]
    for act in acts:
        for cond in CONDITIONS:
            for cert in check_condition(act, cond).certificates:
                partition = cert.congruence.partition
                block = frozenset(partition.block(cert.element))
                assert partition == _syntactic_partition(act, block)
