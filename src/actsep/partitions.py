"""Partitions of a finite carrier in first-occurrence normal form.

Block ids are assigned in order of each block's first (= least) carrier
element, so two partitions are equal iff their `block_of` sequences are
equal, and `blocks()` lists blocks sorted by least member.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable


def normalize_block_ids(assignment: Iterable[Hashable]) -> tuple[int, ...]:
    """Relabel arbitrary hashable block keys to first-occurrence order
    starting at 0."""
    seen: dict[Hashable, int] = {}
    out = []
    for b in assignment:
        if b not in seen:
            seen[b] = len(seen)
        out.append(seen[b])
    return tuple(out)


def _representatives(block_of: tuple[int, ...]) -> list[int]:
    """The least member of each block, in block order: in first-occurrence
    normal form, x is one exactly when its block id is the next new one."""
    reps: list[int] = []
    for x, b in enumerate(block_of):
        if b == len(reps):
            reps.append(x)
    return reps


@dataclass(frozen=True)
class Partition:
    block_of: tuple[int, ...]
    _index: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.block_of != normalize_block_ids(self.block_of):
            raise ValueError("block ids not in first-occurrence normal form")
        object.__setattr__(self, "_index", max(self.block_of) + 1 if self.block_of else 0)

    @property
    def size(self) -> int:
        return len(self.block_of)

    @property
    def index(self) -> int:
        """Number of blocks (the paper-level index of the relation)."""
        return self._index

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.index)]
        for x, b in enumerate(self.block_of):
            out[b].append(x)
        return tuple(tuple(block) for block in out)

    def block(self, x: int) -> tuple[int, ...]:
        b = self.block_of[x]
        return tuple(y for y, c in enumerate(self.block_of) if c == b)

    def same(self, x: int, y: int) -> bool:
        return self.block_of[x] == self.block_of[y]

    def is_equality(self) -> bool:
        return self.index == self.size

    def is_universal(self) -> bool:
        return self.index <= 1


def _normal_partition(block_of: tuple[int, ...]) -> Partition:
    """A Partition from block ids already in first-occurrence normal form,
    without the normal-form check of Partition(...)."""
    part = object.__new__(Partition)
    object.__setattr__(part, "block_of", block_of)
    object.__setattr__(part, "_index", max(block_of) + 1 if block_of else 0)
    return part


def partition_from_assignment(assignment: Iterable[Hashable]) -> Partition:
    return _normal_partition(normalize_block_ids(assignment))


def partition_from_blocks(size: int, blocks: Iterable[Iterable[int]]) -> Partition:
    assignment = [-1] * size
    for bid, block in enumerate(blocks):
        for x in block:
            if not 0 <= x < size:
                raise ValueError(f"block member {x} out of range for size {size}")
            if assignment[x] != -1:
                raise ValueError(f"element {x} assigned to two blocks")
            assignment[x] = bid
    if -1 in assignment:
        raise ValueError(f"element {assignment.index(-1)} not covered by any block")
    return partition_from_assignment(assignment)


def equality_partition(size: int) -> Partition:
    return Partition(tuple(range(size)))


def universal_partition(size: int) -> Partition:
    return Partition(tuple(0 for _ in range(size)))
