"""Wider differential checks: the pruned enumerations against naive
generate-then-filter oracles on carriers beyond the small corpus, the
syntactic-congruence separation search against the congruence enumeration
(right congruences of acts, and two-sided congruences of monoids), and the
generator-column validators against all-column oracles on every
single-entry corruption of small tables."""

import pytest

from actsep.acts import act_from_table, partial_act_from_table, regular_act
from actsep.catalog import catalog_monoids, enumerate_acts
from actsep.congruences import (
    all_congruences,
    enumerate_congruences,
    quotient,
    quotient_monoid,
    two_sided_violation,
    verify_congruence,
)
from actsep.errors import (
    AssociativityViolation,
    BadIdentity,
    IdentityLawViolation,
    NotAssociative,
)
from actsep.families import build
from actsep.partitions import Partition, partition_from_assignment
from actsep.separability import (
    CONDITIONS,
    _condition_instances,
    _hit_masks,
    _SigmaBatch,
    _two_sided_hit_masks,
    check_condition,
    separate,
    sigma_a,
)
from actsep.monoids import cyclic_group, monoid_from_table
from oracles import (
    naive_act_violation,
    naive_acts,
    naive_congruences,
    naive_is_associative,
    separates,
)

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
        if separates(cong, a, forbidden) and (best is None or cong.index < best.index):
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


# ---------------------------------------------------------------------------
# the act/monoid correspondence: minimal two-sided separation against the
# two-sided congruences of the enumeration, and the act side's minimal
# indices against the certificates of check_condition


def _two_sided_quotients():
    """(N, M/rho) for every two-sided congruence rho on the regular act of
    each catalog monoid of order <= 4; the carrier labels of both are the
    classes of rho."""
    for entry in catalog_monoids():
        if entry.monoid.order > 4:
            continue
        for rho in all_congruences(regular_act(entry.monoid)):
            if two_sided_violation(rho) is None:
                yield quotient_monoid(entry.monoid, rho), quotient(rho.act, rho)[0]


def test_two_sided_search_matches_enumeration():
    checked = 0
    for n_monoid, act in _two_sided_quotients():
        reg = regular_act(n_monoid)
        two_sided = [c for c in enumerate_congruences(reg) if two_sided_violation(c) is None]
        instances = {cond: _condition_instances(act, cond, 1 << 16) for cond in CONDITIONS}
        everything = [i for v in instances.values() for i in v]
        batch = _SigmaBatch(_two_sided_hit_masks(n_monoid), everything, None)
        right = _SigmaBatch(_hit_masks(act), everything, None)
        for cond, cond_instances in instances.items():
            act_side = check_condition(act, cond).certificates
            for (a, forbidden), cert in zip(cond_instances, act_side, strict=True):
                oracle = min(c.index for c in two_sided if separates(c, a, forbidden))
                assert batch.min_index(a, forbidden) == oracle
                winner = verify_congruence(reg, Partition(batch.solve(a, forbidden)))
                assert winner.index == oracle
                assert two_sided_violation(winner) is None
                assert separates(winner, a, forbidden)
                assert cert.quotient_size <= oracle
                assert right.min_index(a, forbidden) == cert.quotient_size
                checked += 1
    assert checked > 1000


# ---------------------------------------------------------------------------
# validation over generator columns against the all-column oracles


def _corruptions(table, values):
    """Every table that differs from the given one in exactly one entry."""
    for i, row in enumerate(table):
        for j, old in enumerate(row):
            for new in values:
                if new != old:
                    out = [list(r) for r in table]
                    out[i][j] = new
                    yield out


def _small_monoids():
    return [e.monoid for e in catalog_monoids() if e.monoid.order <= 3]


def test_monoid_validation_matches_naive_on_corruptions():
    rejected = 0
    for monoid in _small_monoids():
        e = monoid.identity
        for t in _corruptions(monoid.table, monoid.elements()):
            identity_ok = all(t[e][x] == x == t[x][e] for x in monoid.elements())
            try:
                monoid_from_table(t, e)
            except BadIdentity:
                assert not identity_ok
            except NotAssociative as exc:
                rejected += 1
                assert identity_ok and not naive_is_associative(t)
                i, j, k = exc.triple
                assert t[t[i][j]][k] != t[i][t[j][k]]
            else:
                assert identity_ok and naive_is_associative(t)
    assert rejected > 0


def _check_act_validator(validate, monoid, t):
    """validate accepts t exactly when the identity law (where defined) and
    the all-column oracle do; a raised witness is a real violation.  Returns
    whether the act equation rejected t."""
    e = monoid.identity
    identity_ok = all(row[e] in (None, a) for a, row in enumerate(t))
    expected = naive_act_violation(monoid, t)
    try:
        validate(monoid, t)
    except IdentityLawViolation:
        assert not identity_ok
    except AssociativityViolation as exc:
        assert identity_ok and expected is not None
        a, m, k = exc.triple
        y, z = t[t[a][m]][k], t[a][monoid.table[m][k]]
        assert y is not None and z is not None and y != z
        return True
    else:
        assert identity_ok and expected is None
    return False


def test_act_validation_matches_naive_on_corruptions():
    rejected = 0
    for monoid in _small_monoids():
        for size in (1, 2):
            for act in enumerate_acts(monoid, size):
                for t in _corruptions(act.table, range(size)):
                    rejects = _check_act_validator(act_from_table, monoid, t)
                    assert _check_act_validator(partial_act_from_table, monoid, t) == rejects
                    rejected += rejects
                for t in _corruptions(act.table, [None]):
                    rejected += _check_act_validator(partial_act_from_table, monoid, t)
    assert rejected > 0


def test_partial_act_violation_outside_generator_columns():
    # over Z3 = <g>, the only violation sits in column g^2: 1*(g*g^2) = 1*1
    # = 1, but (1*g)*g^2 = 0*g^2 = 0; the undefined entry 0*g keeps every
    # column in the check
    z3 = cyclic_group(3)
    table = [[0, None, 0], [1, 0, 0]]
    assert z3.generators == (1,)
    assert naive_act_violation(z3, table) == (1, 1, 2)
    with pytest.raises(AssociativityViolation) as exc:
        partial_act_from_table(z3, table)
    assert exc.value.triple == (1, 1, 2)
