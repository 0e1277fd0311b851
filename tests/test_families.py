import hashlib
from itertools import product

import pytest

from actsep.acts import PartialAct, closure_partial, regular_act
from actsep.congruences import verify_congruence
from actsep.errors import ParamOutOfRange, UnknownFamily
from actsep.families import (
    CongruenceWitness,
    FAMILIES,
    ForcingChain,
    MinIndexFact,
    build,
    format_report,
    verify,
)
from actsep.monoids import monoid_from_table
from actsep.textio import write_act, write_monoid
from oracles import count_squarefree_words


def test_unknown_family_and_bad_params():
    with pytest.raises(UnknownFamily):
        build("nosuch", {})
    with pytest.raises(ParamOutOfRange):
        build("kozhukhov", {"n": 0})
    with pytest.raises(ParamOutOfRange):
        build("kozhukhov", {"n": 3, "bogus": 1})
    with pytest.raises(ParamOutOfRange):
        build("kozhukhov", {})


# exhaustive validation over a representative slice of every documented range
_VALIDATION_GRID = [
    ("bz_window", "w", range(1, 9)),
    ("bz_quotient", "n", range(1, 7)),
    ("kozhukhov", "n", range(1, 7)),
    ("leftzero", "n", range(1, 7)),
    ("squarefree", "n", range(1, 5)),
    ("free_monogenic_act", "w", range(1, 13)),
    ("clifford_tower", "n", range(1, 4)),
    ("semilattice_act", "n", range(1, 9)),
    ("star_semilattice", "n", range(1, 7)),
]


@pytest.mark.parametrize("name,param,values", _VALIDATION_GRID)
def test_builders_produce_valid_structures(name, param, values):
    for value in values:
        instance = build(name, {param: value})
        # reconstructing through the public validators re-runs all axioms
        monoid_from_table(
            instance.monoid.table, instance.monoid.identity, instance.monoid.labels
        )
        assert all(label in instance.act.labels for label in ())
        for mark in instance.marked.values():
            assert 0 <= mark < instance.act.size


def test_n_times_g_validates_both_groups():
    for g in (2, 3):
        for n in (2, 3, 4):
            instance = build("n_times_g", {"n": n, "g": g})
            assert instance.monoid.order == 1 + (n + 1) * g
            assert instance.act.size == 1 + n * g


def test_kozhukhov_n1_degenerate():
    instance = build("kozhukhov", {"n": 1})
    chains = [f for f in instance.expected if isinstance(f, ForcingChain)]
    assert chains == []  # no pigeonhole pair to seed
    report = verify(instance)
    assert report.passed
    minfact = next(f for f in instance.expected if isinstance(f, MinIndexFact))
    assert minfact.value == 3  # only the equality congruence separates


def test_bz_quotient_order():
    instance = build("bz_quotient", {"n": 3})
    assert instance.monoid.order == 7
    assert instance.monoid.labels[:3] == ("C0", "C1", "C2")


def test_squarefree_order_matches_oracle():
    for n in range(1, 5):
        instance = build("squarefree", {"n": n})
        assert instance.monoid.order == count_squarefree_words(n) + 2


def test_forcing_chains_monotone_in_window():
    small = build("bz_window", {"w": 6})
    large = build("bz_window", {"w": 10})
    seed_small = (small.mark("b-1"), small.mark("b-3"))
    target_small = (small.mark("b0"), small.mark("b2"))
    assert closure_partial(small.act, [seed_small]).same(*target_small)
    seed_large = (large.mark("b-1"), large.mark("b-3"))
    target_large = (large.mark("b0"), large.mark("b2"))
    assert closure_partial(large.act, [seed_large]).same(*target_large)


def test_clifford_tower_rho_class_of_identity():
    for n in (1, 2, 3):
        instance = build("clifford_tower", {"n": n})
        witness = next(f for f in instance.expected if isinstance(f, CongruenceWitness))
        labels = instance.monoid.labels
        identity_block = next(
            block for block in witness.blocks if 0 in block
        )
        assert {labels[x] for x in identity_block} == {f"e{i+1}" for i in range(n)}
        # machine-check the relation as a right congruence
        part = regular_act(instance.monoid)
        from actsep.partitions import partition_from_blocks

        verify_congruence(part, partition_from_blocks(instance.monoid.order, witness.blocks))


@pytest.mark.parametrize("g", [2, 3])
def test_n_times_g_maps_are_monoid_homomorphisms(g):
    # theta and psi are act-level kernels of genuine monoid homomorphisms
    n = 4
    instance = build("n_times_g", {"n": n, "g": g})
    monoid = instance.monoid

    def level_of(idx: int) -> int | None:
        if idx == 0:
            return None
        return (idx - 1) // g  # 0-based; value n encodes the collapsed tail

    # theta forgets the group and truncates the level at m_sep
    m_sep = 1
    theta_target = build("free_monogenic_act", {"w": m_sep}).monoid

    def theta(idx: int) -> int:
        lvl = level_of(idx)
        if lvl is None:
            return 0
        level = lvl + 1
        return level if level <= m_sep else m_sep + 1

    for x in monoid.elements():
        for y in monoid.elements():
            assert theta(monoid.table[x][y]) == theta_target.table[theta(x)][theta(y)]

    # psi keeps the group coordinate; its target is the same construction
    # truncated lower, and the group map is the identity
    m_psi = 2
    psi_target = build("n_times_g", {"n": m_psi, "g": g}).monoid

    def psi(idx: int) -> int:
        lvl = level_of(idx)
        if lvl is None:
            return 0
        u = (idx - 1) % g
        level = min(lvl, m_psi)  # levels beyond m_psi join the collapsed tail
        return 1 + level * g + u

    for x in monoid.elements():
        for y in monoid.elements():
            assert psi(monoid.table[x][y]) == psi_target.table[psi(x)][psi(y)]


def test_family_reports_are_deterministic():
    a = format_report(verify(build("leftzero", {"n": 3})))
    b = format_report(verify(build("leftzero", {"n": 3})))
    assert a == b
    assert a[0] == "family leftzero"
    assert a[-1] == "result pass"


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_every_family_verifies_at_smallest_params(name):
    _, ranges = FAMILIES[name]
    params = {k: lo for k, (lo, hi) in ranges.items()}
    report = verify(build(name, params))
    assert report.passed, format_report(report)


def test_partial_act_families_are_partial():
    for name, params in [("bz_window", {"w": 3}), ("n_times_g", {"n": 2, "g": 2})]:
        assert isinstance(build(name, params).act, PartialAct)


def test_free_monogenic_forcing_monotone():
    for w in (4, 6, 9):
        inst = build("free_monogenic_act", {"w": w})
        part = closure_partial(inst.act, [(inst.mark("a1"), inst.mark("a3"))])
        assert part.same(inst.mark("0"), inst.mark("a0"))


# sha256 of write_monoid + write_act over every parameter in a family's
# range (parameter names sorted, values ascending), so a change to any
# built table, label or name fails here and names the family
_FAMILY_DUMP_SHA256 = {
    "bz_window": "772b4c348913f1cb92d01c4ad134a844440576cacaba8a0385ed7a7adf9dc041",
    "bz_quotient": "2cdce6e9f4657f53335ec44d83eec879e3f3e4bfba9b622ed29413ac6fc2970d",
    "kozhukhov": "71c994a0b7ccad0ba500d9b60ac7b94ccb6e4112561b6b72a64a20021a508849",
    "leftzero": "5db9fa91e68d8f9856a033303f510fdb8a6277aaa1ed65e0fe30ac21a7915852",
    "squarefree": "159f8e3715650c2a6e888080e8de8c4c8edca56aa2c74a9027f7b32b373a0f0f",
    "n_times_g": "983788fb561879f47bbbc5760c29454b24f402f143b60819e0edd01e3f29965e",
    "free_monogenic_act": "852f8cca51eb1250cb3c8751de655da55f2e597e247a1ef9e5da1a98c1dd3bef",
    "clifford_tower": "9886339eebe2a19071f7abcfcd2f66c21bdb1c2adee690653a24cc375bf52254",
    "semilattice_act": "a441727790512d5ce0feb654f1a95b5e8c035f9a8b38aa5024af85340310621b",
    "star_semilattice": "2580cc995dbc7e67deb8e4fdbb8b2833a229f551a1037da2cc4dc7c570fd0bef",
}


def test_family_dump_digests_cover_every_family():
    assert set(_FAMILY_DUMP_SHA256) == set(FAMILIES)


@pytest.mark.parametrize("name", sorted(_FAMILY_DUMP_SHA256))
def test_every_family_dump_is_pinned(name):
    _, ranges = FAMILIES[name]
    keys = sorted(ranges)
    digest = hashlib.sha256()
    for values in product(*(range(ranges[k][0], ranges[k][1] + 1) for k in keys)):
        instance = build(name, dict(zip(keys, values)))
        digest.update(write_monoid(instance.monoid).encode())
        digest.update(write_act(instance.act).encode())
    assert digest.hexdigest() == _FAMILY_DUMP_SHA256[name]
