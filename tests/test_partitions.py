"""First-occurrence normal form: the public constructor checks it, and the
trusted path behind partition_from_assignment agrees with it."""

import random

import pytest

from actsep.partitions import Partition, normalize_block_ids, partition_from_assignment


def test_partition_rejects_ids_out_of_normal_form():
    with pytest.raises(ValueError):
        Partition((1, 0))
    with pytest.raises(ValueError):
        Partition((0, 2, 1))


def test_partition_from_assignment_matches_checked_constructor():
    rng = random.Random(9)
    for _ in range(500):
        size = rng.randrange(0, 12)
        keys = rng.randrange(1, size + 2)
        assignment = [rng.choice("abcdefghijklm"[:keys]) for _ in range(size)]
        ours = partition_from_assignment(assignment)
        checked = Partition(normalize_block_ids(assignment))
        assert ours == checked
        assert hash(ours) == hash(checked)
        assert ours.index == checked.index == len(set(assignment))
        assert ours.blocks() == checked.blocks()
