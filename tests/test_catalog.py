import gc

import pytest

from actsep.acts import act_from_table, regular_act
from actsep.catalog import (
    catalog_monoids,
    enumerate_acts,
    monoid_tables_up_to_iso,
    named_monoids,
)
from actsep.congruences import enumerate_congruences
from actsep.monoids import (
    are_isomorphic,
    cyclic_group,
    left_zero_adjoined,
    monoid_from_table,
    trivial_monoid,
)
from oracles import naive_acts


def test_monoid_counts_by_order():
    # the numbers of monoids of order 1..4 up to isomorphism
    assert [len(monoid_tables_up_to_iso(n)) for n in range(1, 5)] == [1, 2, 7, 35]


def test_catalog_tables_are_valid_and_deduplicated():
    entries = [e for e in catalog_monoids() if e.monoid.order <= 3]
    for entry in entries:
        monoid_from_table(entry.monoid.table, entry.monoid.identity)
    for i, first in enumerate(entries):
        for second in entries[i + 1 :]:
            if first.name.startswith("order") and second.name.startswith("order"):
                assert not are_isomorphic(first.monoid, second.monoid)


def test_named_constructions_present():
    names = {e.name for e in named_monoids()}
    assert names == {"rectband2x2^1", "reesZ2_2x2^1", "cliffordtower2", "bzquotient2"}
    orders = {e.name: e.monoid.order for e in named_monoids()}
    assert orders["reesZ2_2x2^1"] == 9
    assert orders["cliffordtower2"] == 6


def test_act_enumeration_matches_naive_filter():
    # exhaustive cross-check on every catalog monoid at carrier 2, and on
    # every one of order <= 3 at carriers 1 and 3 as well
    for entry in catalog_monoids():
        for size in (1, 2, 3) if entry.monoid.order <= 3 else (2,):
            ours = sorted(a.table for a in enumerate_acts(entry.monoid, size))
            assert ours == sorted(naive_acts(entry.monoid, size)), (entry.name, size)


def test_act_enumeration_order_is_strictly_increasing():
    # the search tries each row-major entry in ascending order, so the
    # tables come out strictly increasing: no duplicates, one fixed order
    for entry in catalog_monoids():
        for size in range(1, 5):
            tables = [a.table for a in enumerate_acts(entry.monoid, size)]
            assert all(p < q for p, q in zip(tables, tables[1:])), (entry.name, size)


def test_act_enumeration_known_counts():
    assert sum(1 for _ in enumerate_acts(trivial_monoid(), 4)) == 1
    # acts of Z2 on 5 points = involutions of a 5-set, including the identity
    assert sum(1 for _ in enumerate_acts(cyclic_group(2), 5)) == 26
    # acts of Z4 on 5 points = permutations of order dividing 4: 1 + 25 + 30
    assert sum(1 for _ in enumerate_acts(cyclic_group(4), 5)) == 56
    # acts of LZ3^1 on K points: choose the fixed set F, then 3 columns into F
    lz3 = left_zero_adjoined(3)
    from math import comb

    for size in (3, 4, 5):
        expected = sum(
            comb(size, f) * f ** (3 * (size - f)) for f in range(1, size + 1)
        )
        assert sum(1 for _ in enumerate_acts(lz3, size)) == expected


def test_enumerated_acts_pass_validation():
    for entry in catalog_monoids():
        for act in enumerate_acts(entry.monoid, 3):
            act_from_table(act.monoid, act.table)


@pytest.mark.parametrize("items", [None, 1], ids=["consumed", "closed_after_one"])
@pytest.mark.parametrize("enumerator", ["acts", "congruences"])
def test_enumerators_leave_no_cyclic_garbage(enumerator, items):
    # the recursive generators inside must not outlive the enumeration in a
    # reference cycle that only the cyclic collector frees
    monoid = left_zero_adjoined(2)
    act = regular_act(monoid)
    gc.collect()
    gc.disable()
    try:
        gen = enumerate_acts(monoid, 3) if enumerator == "acts" else enumerate_congruences(act)
        for count, _ in enumerate(gen, start=1):
            if count == items:
                break
        gen.close()
        del gen
        assert gc.collect() == 0
    finally:
        gc.enable()
