"""Act congruences as verified partitions.

The enumeration walks restricted-growth strings depth-first with early
compatibility pruning: placing element i into a block immediately checks
every image pair that is already decidable and defers the rest to the step
where the larger image gets assigned, so a prefix violation kills the whole
subtree.  The yield order is the lexicographic order of restricted-growth
strings (universal partition first, equality last).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .acts import (
    ActHomomorphism,
    FiniteAct,
    _split_images,
    act_from_table,
    act_homomorphism,
    closure_partial,
    require_subact,
    subact_as_act,
)
from .errors import (
    ActMismatch,
    NotACongruence,
    NotCompatible,
    NotTwoSidedCongruence,
    SearchSpaceTooLarge,
)
from .monoids import FiniteMonoid, monoid_from_table
from .partitions import (
    Partition,
    equality_partition,
    partition_from_assignment,
    universal_partition,
)

DEFAULT_SEARCH_CAP = 5_000_000


@dataclass(frozen=True)
class Congruence:
    """A partition verified compatible with the action.

    Congruence values are built through verify_congruence, through
    constructions that are compatible by design (closures, kernels, Rees
    congruences, meets, and the syntactic congruences of the separation
    search) or through the enumeration; the last two are checked against
    generate-then-filter oracles and each other in the tests.
    """

    act: FiniteAct
    partition: Partition

    @property
    def index(self) -> int:
        return self.partition.index

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        return self.partition.blocks()

    def same(self, a: int, b: int) -> bool:
        return self.partition.same(a, b)


def compatibility_violation(act: FiniteAct, partition: Partition) -> tuple[int, int, int] | None:
    """None if compatible; otherwise a witness (a, b, m) with a ~ b but
    a*m !~ b*m."""
    if partition.size != act.size:
        raise ActMismatch("partition size does not match the act carrier")
    return _split_images(act.table, partition)


def verify_congruence(act: FiniteAct, partition: Partition) -> Congruence:
    witness = compatibility_violation(act, partition)
    if witness is not None:
        raise NotCompatible(*witness)
    return Congruence(act, partition)


def equality_congruence(act: FiniteAct) -> Congruence:
    return Congruence(act, equality_partition(act.size))


def universal_congruence(act: FiniteAct) -> Congruence:
    return Congruence(act, universal_partition(act.size))


def principal_closure(act: FiniteAct, seeds: Iterable[tuple[int, int]]) -> Congruence:
    """Least congruence containing the seed pairs (see closure_partial)."""
    return Congruence(act, closure_partial(act, seeds))


def rees_congruence(act: FiniteAct, subset: Iterable[int]) -> Congruence:
    """(a, b) related iff a = b or both lie in the subact B."""
    sub = require_subact(act, subset)
    marker = act.size
    assignment = [marker if a in sub else a for a in act.carrier()]
    return Congruence(act, partition_from_assignment(assignment))


def meet(*congruences: Congruence) -> Congruence:
    """Common refinement (intersection of the relations)."""
    if not congruences:
        raise ActMismatch("meet of no congruences")
    act = congruences[0].act
    for c in congruences[1:]:
        if c.act != act:
            raise ActMismatch("meet across different acts")
    combined = zip(*(c.partition.block_of for c in congruences))
    return Congruence(act, partition_from_assignment(combined))


def restrict(congruence: Congruence, subset: Iterable[int]) -> Congruence:
    """Restriction to a subact, re-indexed on the subact's own carrier."""
    sub_act, embedding = subact_as_act(congruence.act, subset)
    block_of = congruence.partition.block_of
    return verify_congruence(
        sub_act, partition_from_assignment(block_of[a] for a in embedding)
    )


def quotient(act: FiniteAct, congruence: Congruence) -> tuple[FiniteAct, ActHomomorphism]:
    """The quotient act [a]m = [am] together with the projection."""
    if congruence.act != act:
        raise ActMismatch("congruence lives on a different act")
    block_of = congruence.partition.block_of
    reps = [block[0] for block in congruence.blocks()]
    table = [
        [block_of[act.table[r][m]] for m in act.monoid.elements()] for r in reps
    ]
    labels = tuple(f"[{act.label(r)}]" for r in reps)
    quot = act_from_table(act.monoid, table, labels, name=f"{act.name}/rho")
    proj = act_homomorphism(act, quot, block_of)
    return quot, proj


def kernel(hom: ActHomomorphism) -> Congruence:
    """ker theta: (a, b) related iff a theta = b theta."""
    return verify_congruence(hom.source, partition_from_assignment(hom.map))


# ---------------------------------------------------------------------------
# enumeration


def _bell_numbers(n: int) -> list[int]:
    row = [1]
    bells = [1]
    for _ in range(n):
        new = [row[-1]]
        for v in row:
            new.append(new[-1] + v)
        row = new
        bells.append(row[0])
    return bells


def search_space_estimate(size: int, max_blocks: int) -> int:
    """Set partitions of `size` elements into at most `max_blocks` blocks."""
    if max_blocks >= size:
        return _bell_numbers(size)[size]
    # Stirling numbers of the second kind, summed over 1..max_blocks
    prev = [0] * (max_blocks + 1)
    prev[0] = 1
    for _ in range(size):
        cur = [0] * (max_blocks + 1)
        for k in range(1, max_blocks + 1):
            cur[k] = k * prev[k] + prev[k - 1]
        prev = cur
    return sum(prev[1:])


def enumerate_congruences(
    act: FiniteAct,
    max_index: int | None = None,
    cap: int = DEFAULT_SEARCH_CAP,
) -> Iterator[Congruence]:
    """Yield every congruence on the act (index <= max_index when given),
    each exactly once, in restricted-growth-string order."""
    size = act.size
    bound = size if max_index is None else min(max_index, size)
    if bound < 1:
        return
    estimate = search_space_estimate(size, bound)
    if estimate > cap:
        raise SearchSpaceTooLarge(estimate, cap)

    table = act.table
    n = act.monoid.order
    assign = [0] * size
    pending: list[list[tuple[int, int]]] = [[] for _ in range(size)]

    def place(i: int, b: int) -> tuple[bool, list[int]]:
        log: list[int] = []
        assign[i] = b
        row_i = table[i]
        for j in range(i):
            if assign[j] != b:
                continue
            row_j = table[j]
            for m in range(n):
                u = row_j[m]
                v = row_i[m]
                if u == v:
                    continue
                s = u if u > v else v
                if s <= i:
                    if assign[u] != assign[v]:
                        return False, log
                else:
                    pending[s].append((u, v))
                    log.append(s)
        for u, v in pending[i]:
            if assign[u] != assign[v]:
                return False, log
        return True, log

    def undo(log: list[int]) -> None:
        for s in reversed(log):
            pending[s].pop()

    def rec(i: int, used: int) -> Iterator[Congruence]:
        if i == size:
            yield Congruence(act, Partition(tuple(assign)))
            return
        top = used if used == bound else used + 1
        for b in range(top):
            ok, log = place(i, b)
            if ok:
                yield from rec(i + 1, used if b < used else used + 1)
            undo(log)

    try:
        yield from rec(0, 0)
    finally:
        del rec  # rec refers to itself through its closure cell


def all_congruences(
    act: FiniteAct, max_index: int | None = None, cap: int = DEFAULT_SEARCH_CAP
) -> tuple[Congruence, ...]:
    return tuple(enumerate_congruences(act, max_index, cap))


# ---------------------------------------------------------------------------
# right congruences on a monoid (congruences on the regular act)


def two_sided_violation(congruence: Congruence) -> tuple[int, int, int] | None:
    """For a congruence on a regular act: None if it is also left-compatible,
    else a witness (a, b, m) with a ~ b but ma !~ mb."""
    return _split_images(congruence.act.monoid.left_table, congruence.partition)


def quotient_monoid(monoid: FiniteMonoid, congruence: Congruence, name: str | None = None) -> FiniteMonoid:
    """M/rho for a two-sided congruence given on the regular act of M."""
    if congruence.act.table != monoid.table:
        raise NotACongruence("congruence does not live on the regular act of this monoid")
    witness = two_sided_violation(congruence)
    if witness is not None:
        raise NotTwoSidedCongruence(*witness)
    block_of = congruence.partition.block_of
    reps = [block[0] for block in congruence.blocks()]
    table = [[block_of[monoid.table[a][b]] for b in reps] for a in reps]
    labels = [f"[{monoid.label(r)}]" for r in reps]
    return monoid_from_table(table, block_of[monoid.identity], labels, name=name or f"{monoid.name}/rho")


def cyclic_act_from_right_congruence(monoid: FiniteMonoid, congruence: Congruence) -> FiniteAct:
    """M/rho as an act, generated by the class of the identity."""
    if congruence.act.table != monoid.table:
        raise NotACongruence("congruence does not live on the regular act of this monoid")
    quot, _ = quotient(congruence.act, congruence)
    return quot
