"""Wider differential checks: the pruned enumerations against naive
generate-then-filter oracles on carriers beyond the small corpus, the
syntactic-congruence separation search against the congruence enumeration
(right congruences of acts, and two-sided congruences of monoids), the
generator-column validators against all-column oracles on every
single-entry corruption of small tables, the trusted quotient
constructions against those validators, and closure_partial against the
rescanning closure oracle."""

import hashlib
import random
from collections import Counter

import pytest

from actsep.acts import (
    FiniteAct,
    _split_images,
    act_from_table,
    closure_partial,
    cyclic_subacts,
    decompose,
    partial_act_from_table,
    regular_act,
    subacts,
)
from actsep.catalog import catalog_monoids, enumerate_acts
from actsep.congruences import (
    all_congruences,
    compatibility_violation,
    cyclic_act_from_right_congruence,
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
    InvalidSpec,
    NotAssociative,
    NotTwoSidedCongruence,
)
from actsep.families import build
from actsep.partitions import Partition, partition_from_assignment, partition_from_blocks
from actsep.separability import (
    CONDITIONS,
    _condition_instances,
    _maximal_instances,
    act_monoid_correspondence,
    bracket_profile,
    condition_index,
    _hit_masks,
    _SigmaBatch,
    _two_sided_hit_masks,
    check_condition,
    separate,
    sigma_a,
)
from actsep.monoids import cyclic_group, monoid_from_table, right_ideals
from oracles import (
    all_set_partitions,
    naive_act_violation,
    naive_acts,
    naive_congruences,
    naive_is_associative,
    naive_min_separating_index,
    naive_partial_closure,
    naive_split_witness,
    naive_two_sided_violation,
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


def _random_transformation_monoid(rng):
    """A seeded transformation monoid whose order is drawn from 3 to 8, with
    its maps in element order (composed left to right, as right actions)."""
    order = rng.randrange(3, 9)
    while True:
        degree = rng.randrange(3, 5)
        gens = [tuple(rng.randrange(degree) for _ in range(degree)) for _ in range(rng.randrange(1, 3))]
        maps = [tuple(range(degree))]
        for f in maps:
            for g in gens:
                h = tuple(g[v] for v in f)
                if h not in maps:
                    maps.append(h)
        if len(maps) == order:
            index = {f: i for i, f in enumerate(maps)}
            table = [[index[tuple(g[v] for v in f)] for g in maps] for f in maps]
            return monoid_from_table(table, 0), maps


def _orbit_act(monoid, maps, seeds):
    """The monoid acting pointwise on the orbit of the seed tuples."""
    carrier = list(dict.fromkeys(seeds))
    for x in carrier:
        for f in maps:
            y = tuple(f[p] for p in x)
            if y not in carrier:
                carrier.append(y)
    index = {x: i for i, x in enumerate(carrier)}
    return act_from_table(monoid, [[index[tuple(f[p] for p in x)] for f in maps] for x in carrier])


def test_congruence_enumeration_yields_the_oracle_list_in_rgs_order():
    # the yield sequence, not just the set, against the filter oracle sorted
    # as restricted-growth strings, on regular, point and pair acts
    rng = random.Random(5)
    checked = 0
    for _ in range(40):
        monoid, maps = _random_transformation_monoid(rng)
        degree = len(maps[0])
        pairs = [tuple(rng.randrange(degree) for _ in range(2)) for _ in range(rng.randrange(1, 3))]
        acts = [regular_act(monoid), _orbit_act(monoid, maps, [(p,) for p in range(degree)])]
        pair_act = _orbit_act(monoid, maps, pairs)
        if pair_act.size <= 8:
            acts.append(pair_act)
        for act in acts:
            naive = sorted(p.block_of for p in naive_congruences(act))
            for bound in (None, 2, 3):
                ours = [c.partition.block_of for c in enumerate_congruences(act, bound)]
                assert ours == [s for s in naive if bound is None or max(s) < bound]
                checked += 1
    assert checked >= 320


def test_two_sided_check_on_generator_columns_matches_all_columns():
    # two_sided_violation reads only the generators' columns of the left
    # table; the oracle reads every column.  The monoids are the catalog and
    # the three larger ones of the lattice benchmark workload.
    monoids = [e.monoid for e in catalog_monoids()] + [
        build(name, params).monoid
        for name, params in (("leftzero", {"n": 7}), ("star_semilattice", {"n": 7}), ("semilattice_act", {"n": 8}))
    ]
    right_only = 0
    for monoid in monoids:
        t = monoid.table
        for rho in all_congruences(regular_act(monoid)):
            witness = two_sided_violation(rho)
            assert (witness is None) == (naive_two_sided_violation(monoid, rho.partition) is None)
            if witness is not None:
                a, b, m = witness
                assert rho.same(a, b) and not rho.same(t[m][a], t[m][b])
                right_only += 1
    assert right_only == 49  # of 1,433 right congruences


def test_split_witness_matches_the_definition():
    # the one-pass checker against the witness read off its definition, on
    # seeded random partitions of every catalog act of carrier <= 3 and
    # every 40th of carrier 4 (all columns and the generators' columns), and
    # on partial windows: every partition of those of carrier <= 7, where a
    # later member fills a column its block's first member leaves undefined
    rng = random.Random(29)
    cases = []
    for entry in catalog_monoids():
        gens = entry.monoid.generators
        for size in range(1, 5):
            for act in list(enumerate_acts(entry.monoid, size))[:: 1 if size < 4 else 40]:
                for columns in (None, gens):
                    for _ in range(2):
                        keys = [rng.randrange(rng.randrange(1, size + 1)) for _ in range(size)]
                        cases.append((act.table, columns, partition_from_assignment(keys)))
    for name, params in (
        ("bz_window", {"w": 1}),
        ("bz_window", {"w": 6}),
        ("n_times_g", {"n": 2, "g": 2}),
        ("n_times_g", {"n": 3, "g": 2}),
    ):
        window = build(name, params).act
        assert not window._total
        size = window.size
        if size <= 7:
            partitions = [partition_from_blocks(size, blocks) for blocks in all_set_partitions(size)]
        else:
            partitions = [
                partition_from_assignment(rng.randrange(rng.randrange(1, size + 1)) for _ in range(size))
                for _ in range(300)
            ]
        for columns in (None, window.monoid.generators):
            cases += [(window.table, columns, partition) for partition in partitions]
    found = filled = 0
    for table, columns, partition in cases:
        witness = _split_images(table, partition, columns)
        assert witness == naive_split_witness(table, partition, columns)
        if witness is not None:
            found += 1
            filled += witness[0] != partition.block_of.index(partition.block_of[witness[0]])
    assert found > 2000 and filled > 20


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


def test_sigma_a_is_the_bracket_partition_and_the_cs_certificate():
    # sigma_a keys x by the bitmask of [a, x]; the bracket sets themselves
    # are the oracle, and the congruence property is checked, not trusted.
    # Every catalog act of carrier <= 3 and every 8th of carrier 4.
    acts = 0
    for entry in catalog_monoids():
        for size in range(1, 5):
            for act in list(enumerate_acts(entry.monoid, size))[:: 8 if size == 4 else 1]:
                acts += 1
                cs = check_condition(act, "CS").certificates if act.size > 1 else ()
                for a in act.carrier():
                    partition = sigma_a(act, a).partition
                    assert partition == partition_from_assignment(bracket_profile(act, a).brackets)
                    assert compatibility_violation(act, partition) is None
                    assert partition.block(a) == (a,)
                    if cs:
                        assert cs[a].element == a and cs[a].congruence.partition == partition
                for a in (-1, act.size):
                    with pytest.raises(InvalidSpec):
                        sigma_a(act, a)
    assert acts == 3096


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
    """(M, rho, N, M/rho) for every two-sided congruence rho on the regular
    act of each catalog monoid M of order <= 4, with N = M/rho; the carrier
    labels of N and M/rho are the classes of rho."""
    for entry in catalog_monoids():
        if entry.monoid.order > 4:
            continue
        for rho in all_congruences(regular_act(entry.monoid)):
            if two_sided_violation(rho) is None:
                n_monoid = quotient_monoid(entry.monoid, rho)
                yield entry.monoid, rho, n_monoid, quotient(rho.act, rho)[0]


def test_two_sided_search_matches_enumeration():
    checked = 0
    for _, _, n_monoid, act in _two_sided_quotients():
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


def _full_list_index(batch, instances):
    """The largest minimal index over a full instance list, 1 when empty."""
    return max((batch.min_index(a, forbidden) for a, forbidden in instances), default=1)


def test_maximal_instances_give_the_full_list_indices():
    # a congruence that separates a from X separates a from every subset of
    # X, so the maximal instances reach each condition's largest minimum
    checked = 0
    for monoid, rho, n_monoid, act in _two_sided_quotients():
        report = act_monoid_correspondence(monoid, rho)
        instances = {cond: _condition_instances(act, cond, 1 << 16) for cond in CONDITIONS}
        everything = [i for v in instances.values() for i in v]
        right = _SigmaBatch(_hit_masks(act), everything, None)
        two_sided = _SigmaBatch(_two_sided_hit_masks(n_monoid), everything, None)
        for cond, cond_instances in instances.items():
            assert report.act_indices[cond] == _full_list_index(right, cond_instances)
            assert report.monoid_indices[cond] == _full_list_index(two_sided, cond_instances)
            checked += 1
    assert checked > 400


def test_memoised_correspondence_matches_the_public_index():
    # the memo is keyed by the quotient monoid N; its act-side indices must
    # equal condition_index on the real act M/rho, whose columns are
    # indexed by M, on every two-sided quotient of the 49 catalog monoids
    from actsep import separability
    from actsep.congruences import _quotient_act

    quotients = [
        (entry.monoid, rho)
        for entry in catalog_monoids()
        for rho in all_congruences(regular_act(entry.monoid))
        if two_sided_violation(rho) is None
    ]
    assert len(quotients) == 242
    separability._two_sided_memo.cache_clear()
    cold = [act_monoid_correspondence(monoid, rho) for monoid, rho in quotients]
    for (monoid, rho), report in zip(quotients, cold):
        act = _quotient_act(rho.act, rho)
        for cond in CONDITIONS:
            assert report.act_indices[cond] == condition_index(act, cond)
    warm = [act_monoid_correspondence(monoid, rho) for monoid, rho in quotients]
    assert warm == cold
    # each report owns its mappings: changing one leaves the next unchanged
    monoid, rho = quotients[-1]
    expected = dict(warm[-1].act_indices)
    warm[-1].act_indices["RF"] = 0
    warm[-1].act_conditions["RF"] = False
    again = act_monoid_correspondence(monoid, rho)
    assert again.act_indices == expected and all(again.act_conditions.values())


def test_two_sided_subacts_are_the_right_ideals():
    # act_monoid_correspondence reports subacts_match_right_ideals = True on
    # every two-sided quotient without listing either side: the subacts of
    # M/rho are the subsets closed under its columns, N's right translations
    checked = 0
    for entry in catalog_monoids():
        for rho in all_congruences(regular_act(entry.monoid)):
            if two_sided_violation(rho) is None:
                act = quotient(rho.act, rho)[0]
                n_ideals = {frozenset(i) for i in right_ideals(quotient_monoid(entry.monoid, rho))}
                assert set(subacts(act)) == n_ideals
                checked += 1
    assert checked == 242


def test_trusted_quotients_pass_the_checked_constructors():
    # quotient_monoid and the quotient act skip monoid_from_table and
    # act_from_table, and act_monoid_correspondence does not compare the
    # columns of M/rho with N's; here every two-sided quotient of a catalog
    # monoid goes through both validators, and the columns are compared
    checked = 0
    for entry in catalog_monoids():
        monoid = entry.monoid
        for rho in all_congruences(regular_act(monoid)):
            if two_sided_violation(rho) is not None:
                continue
            n_monoid = quotient_monoid(monoid, rho)
            assert monoid_from_table(n_monoid.table, n_monoid.identity, n_monoid.labels, n_monoid.name) == n_monoid
            act = cyclic_act_from_right_congruence(monoid, rho)
            assert act_from_table(monoid, act.table, act.labels, act.name) == act
            assert set(zip(*act.table)) == set(zip(*n_monoid.table))
            checked += 1
    assert checked == 242


def test_right_only_subacts_are_the_saturated_right_ideals():
    # act_monoid_correspondence reports subacts_match_right_ideals = True on
    # every right-only quotient without listing either side: the projection
    # M -> M/rho matches the subacts of M/rho with the rho-saturated right
    # ideals of M, by preimage
    checked = 0
    for entry in catalog_monoids():
        monoid = entry.monoid
        for rho in all_congruences(regular_act(monoid)):
            if two_sided_violation(rho) is None:
                continue
            block_of = rho.partition.block_of
            saturated = set()
            for ideal in right_ideals(monoid):
                classes = frozenset(block_of[x] for x in ideal)
                if sum(block_of[x] in classes for x in monoid.elements()) == len(ideal):
                    saturated.add(classes)
            assert set(subacts(quotient(rho.act, rho)[0])) == saturated
            checked += 1
    assert checked == 49


def _lattice_monoids():
    """The 49 catalog monoids and three larger ones, the monoids of
    perfbench's lattice workload."""
    monoids = [entry.monoid for entry in catalog_monoids()]
    monoids += [
        build(name, params).monoid
        for name, params in (("leftzero", {"n": 7}), ("star_semilattice", {"n": 7}), ("semilattice_act", {"n": 8}))
    ]
    assert len(monoids) == 52
    return monoids


def test_act_side_indices_fall_below_the_two_sided_ones():
    # over every two-sided quotient of the regular act of the 49 catalog
    # monoids and three larger ones, the act-side condition index is
    # strictly smaller in exactly 46 (quotient, condition) pairs, none of
    # them on a commutative quotient
    quotients = smaller = 0
    for monoid in _lattice_monoids():
        for rho in all_congruences(regular_act(monoid)):
            if two_sided_violation(rho) is not None:
                continue
            report = act_monoid_correspondence(monoid, rho)
            quotients += 1
            below = [c for c in CONDITIONS if report.act_indices[c] < report.monoid_indices[c]]
            assert not below or not quotient_monoid(monoid, rho).is_commutative
            smaller += len(below)
    assert (quotients, smaller) == (1384, 46)


# sha256 over repr((table, identity, labels, name)) of quotient_monoid(M, rho)
# for every two-sided rho, in the order of the loops below, as computed
# before two_sided_violation stored its verdict
QUOTIENT_MONOIDS_SHA256 = "150997e03150f8516d34831865c543807762e224544dcbf5b4164ff408cc4589"


def test_two_sided_verdict_is_computed_once_per_congruence(monkeypatch):
    # the verdict two_sided_violation stores in a congruence is the fresh
    # check's, a second call reads it without checking again, and
    # quotient_monoid (which asks again) raises with the same witness and
    # builds the same monoids as when every call checked
    from actsep import congruences

    checks = []

    def counted(*args):
        checks.append(args)
        return _split_images(*args)

    monkeypatch.setattr(congruences, "_split_images", counted)
    digest = hashlib.sha256()
    listed = right_only = 0
    for monoid in _lattice_monoids():
        for rho in all_congruences(regular_act(monoid)):
            listed += 1
            witness = two_sided_violation(rho)
            assert two_sided_violation(rho) is witness
            assert witness == _split_images(monoid.left_table, rho.partition, monoid.generators)
            assert (witness is None) == (naive_two_sided_violation(monoid, rho.partition) is None)
            if witness is not None:
                right_only += 1
                with pytest.raises(NotTwoSidedCongruence) as raised:
                    quotient_monoid(monoid, rho)
                assert raised.value.witness == witness
                continue
            n_monoid = quotient_monoid(monoid, rho)
            digest.update(repr((n_monoid.table, n_monoid.identity, n_monoid.labels, n_monoid.name)).encode())
    assert (listed, right_only) == (1433, 49)
    assert len(checks) == listed
    assert digest.hexdigest() == QUOTIENT_MONOIDS_SHA256


def test_correspondence_minima_match_the_naive_route(monkeypatch):
    # for each distinct N among the 1,384 lattice quotients, the minima the
    # correspondence computes on its maximal instances equal the least index
    # of a separating right congruence (act side) and of a separating
    # two-sided one (monoid side) of N's regular act, all listed by
    # enumerate_congruences; over the quotients, the act-side minimum is
    # strictly smaller on 114 instances of the four conditions' full
    # instance lists, 113 of them maximal, in 23 quotients
    from actsep import separability

    recorded = []
    paired = separability._paired_min_indices

    def spy(right, two_sided, instances):
        minima = paired(right, two_sided, instances)
        recorded.append((list(instances), minima))
        return minima

    monkeypatch.setattr(separability, "_paired_min_indices", spy)
    separability._two_sided_memo.cache_clear()
    quotients = Counter()
    first = {}
    for monoid in _lattice_monoids():
        for rho in all_congruences(regular_act(monoid)):
            if two_sided_violation(rho) is None:
                n_monoid = quotient_monoid(monoid, rho)
                key = (n_monoid.table, n_monoid.identity)
                quotients[key] += 1
                first.setdefault(key, (monoid, rho, n_monoid))
    assert (sum(quotients.values()), len(quotients)) == (1384, 87)
    smaller = Counter()
    for key, (monoid, rho, n_monoid) in first.items():
        report = act_monoid_correspondence(monoid, rho)
        batch, (act_minima, monoid_minima) = recorded.pop()
        act = regular_act(n_monoid)
        # by index, so the first separating congruence of a side is its least
        right = sorted(enumerate_congruences(act), key=lambda c: c.index)
        two_sided = [c for c in right if two_sided_violation(c) is None]

        def naive(a, forbidden):
            return tuple(next(c.index for c in side if separates(c, a, forbidden)) for side in (right, two_sided))

        minima = dict(zip(batch, zip(act_minima, monoid_minima)))
        assert minima == {instance: naive(*instance) for instance in batch}
        orbits = cyclic_subacts(act)
        maximal = {cond: _maximal_instances(act, cond, orbits) for cond in CONDITIONS}
        assert set(batch) == {instance for cond_instances in maximal.values() for instance in cond_instances}
        for cond, cond_instances in maximal.items():
            assert report.act_indices[cond] == max((minima[i][0] for i in cond_instances), default=1)
            assert report.monoid_indices[cond] == max((minima[i][1] for i in cond_instances), default=1)
        for instance in {i for cond in CONDITIONS for i in _condition_instances(act, cond, 1 << 16)}:
            if instance not in minima:
                minima[instance] = naive(*instance)
        below = [i for i, (act_min, monoid_min) in minima.items() if act_min < monoid_min]
        if below:
            smaller["quotients"] += quotients[key]
            smaller["instances"] += quotients[key] * len(below)
            smaller["maximal"] += quotients[key] * sum(i in batch for i in below)
    assert not recorded
    assert smaller == {"quotients": 23, "instances": 114, "maximal": 113}


def test_condition_index_is_the_largest_certificate():
    for i, act in enumerate(list(_separation_corpus())[::3]):
        for cond in CONDITIONS:
            certificates = check_condition(act, cond).certificates
            expected = max((c.quotient_size for c in certificates), default=1)
            assert condition_index(act, cond) == expected
            if i % 10 == 0:
                # the condition holds within k exactly from its index on
                for bound in range(1, act.size + 1):
                    holds = check_condition(act, cond, max_index=bound).holds
                    assert holds == (expected <= bound)
                naive = [
                    naive_min_separating_index(act, a, forbidden)
                    for a, forbidden in _condition_instances(act, cond, 1 << 16)
                ]
                assert condition_index(act, cond.lower()) == max(naive, default=1)


def test_minimal_index_equals_the_certificate_index(monkeypatch):
    # minimal_separating_index counts classes only: it must agree with
    # separate's certificate on seeded random catalog instances, raise what
    # separate raises, and never normalise a partition or build a certificate
    from actsep import separability

    rng = random.Random(12)
    instances = []
    for entry in catalog_monoids():
        for size in (2, 3, 4):
            for act in list(enumerate_acts(entry.monoid, size))[::60]:
                for _ in range(2):
                    a = rng.randrange(size)
                    others = [x for x in act.carrier() if x != a]
                    instances.append((act, a, rng.sample(others, rng.randrange(1, size))))
    expected = [separate(act, a, forbidden).quotient_size for act, a, forbidden in instances]
    act = instances[0][0]
    bad = [((act, 0, []), {}), ((act, 0, [0, 1]), {}), ((act, act.size, [0]), {}), ((act, 0, [-1]), {})]
    bad.append(((act, 0, [1]), {"cap": 0}))
    raised = []
    for args, kwargs in bad:
        with pytest.raises(Exception) as exc:
            separate(*args, **kwargs)
        raised.append((type(exc.value), str(exc.value)))

    def forbidden_call(*args, **kwargs):
        raise AssertionError("minimal_separating_index built a partition or a certificate")

    monkeypatch.setattr(separability, "normalize_block_ids", forbidden_call)
    monkeypatch.setattr(separability, "_certificate", forbidden_call)
    assert [separability.minimal_separating_index(*instance) for instance in instances] == expected
    assert len(expected) > 500 and len(set(expected)) >= 3
    for (args, kwargs), (kind, message) in zip(bad, raised):
        with pytest.raises(kind) as exc:
            separability.minimal_separating_index(*args, **kwargs)
        assert str(exc.value) == message


def test_certificate_partitions_pass_the_checked_constructor():
    # check_condition and separate build their partitions unchecked from
    # block ids the search has already normalised
    for act in list(_separation_corpus())[::9]:
        for cond in CONDITIONS:
            for cert in check_condition(act, cond).certificates:
                block_of = cert.congruence.partition.block_of
                assert Partition(block_of) == cert.congruence.partition
                cert = separate(act, cert.element, cert.forbidden)
                assert Partition(cert.congruence.partition.block_of).index == cert.quotient_size


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


# ---------------------------------------------------------------------------
# closure_partial against the rescanning oracle, on total tables (one pass
# over the seeds) and partial ones (cascade over every column)


def _closure_matches_oracle(act, seeds):
    ours = closure_partial(act, seeds)
    # the block ids bypass Partition's normal-form check; it must still hold
    assert Partition(ours.block_of) == ours
    assert ours == naive_partial_closure(act, seeds)
    return ours


def _carrier4_slice():
    for entry in catalog_monoids():
        yield from list(enumerate_acts(entry.monoid, 4))[::40]


def _family_acts():
    """Total family acts with their PartialAct copies, and partial windows."""
    total = [
        build("kozhukhov", {"n": 4}).act,
        build("leftzero", {"n": 4}).act,
        build("star_semilattice", {"n": 4}).act,
        build("clifford_tower", {"n": 2}).act,
        regular_act(build("bz_quotient", {"n": 3}).monoid),
    ]
    copies = [partial_act_from_table(a.monoid, a.table, a.labels) for a in total]
    assert all(copy._total for copy in copies)
    windows = [
        build("bz_window", {"w": 6}).act,
        build("n_times_g", {"n": 3, "g": 2}).act,
        build("bz_quotient", {"n": 2}).act,
    ]
    assert not any(window._total for window in windows)
    return total + copies + windows


def test_closure_single_pair_seeds_on_carrier4_acts():
    checked = 0
    for act in _carrier4_slice():
        for a in act.carrier():
            for b in act.carrier():
                _closure_matches_oracle(act, [(a, b)])
                checked += 1
    assert checked > 4000


def test_closure_of_shuffled_decompose_edges():
    rng = random.Random(4)
    acts = list(_carrier4_slice())[::5] + [a for a in _family_acts() if a._total]
    for act in acts:
        edges = [(a, v) for a in act.carrier() for v in act.table[a]]
        rng.shuffle(edges)
        ours = _closure_matches_oracle(act, edges)
        if isinstance(act, FiniteAct):
            assert ours.blocks() == decompose(act)


def test_closure_of_multi_seed_sets_with_joined_and_reversed_seeds():
    rng = random.Random(9)
    for act in _family_acts():
        n = act.size
        for _ in range(20):
            seeds = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(1, 4))]
            closed = _closure_matches_oracle(act, seeds)
            joined = [(block[-1], block[0]) for block in closed.blocks() if len(block) > 1]
            more = seeds + [(b, a) for a, b in seeds] + joined
            rng.shuffle(more)
            assert _closure_matches_oracle(act, more) == closed
            # already-joined seeds first, then the seeds again reversed
            assert _closure_matches_oracle(act, joined + [(b, a) for a, b in seeds]) == closed
