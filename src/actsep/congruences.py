"""Act congruences as verified partitions.

The enumeration walks restricted-growth strings depth-first with forward
checking (Haralick and Elliott, 1980).  Placing element i into a block
compares its images with those of the block's first element: a pair (u, v)
of images with both ends placed is checked at once, and a pair with s =
max(u, v) still unplaced forces s into the block of t = min(u, v) -- now
if t is placed, else when t is placed.  Two forcings of s into different
blocks fail the placement at once, and a forced element tries only its
forced block.  This is the check the pair would get when s is placed, made
earlier: every choice it prunes fails there, so neither the yield set nor
the yield order depends on it, and a subtree that cannot place a late,
over-constrained element (the zero of a semilattice, say) is cut where the
conflict arises, not when that element's turn comes.  Every pair is
decided by the leaf, and each element's images then lie in the classes of
its block's first element's images, so by transitivity every pair in a
block has related images.  Only the columns of the monoid's generators are
compared: a partition compatible with columns m and k is compatible with
column mk (a ~ b gives am ~ bm, then amk ~ bmk), the identity column is
trivially compatible, and every element is a product of generators, so on
a total act generator columns give every column (the argument of
acts._validated).  Neither rule changes the yield set.  The yield order is
the lexicographic order of restricted-growth strings (universal partition
first, equality last).  The search keeps its levels on an explicit stack,
so each congruence passes through one generator frame, not one per carrier
element.

Compatibility is checked by acts._split_images alone, in one pass over the
carrier: each block keeps its first member's row of images, and the witness
reported is the first split in (block, member, column) order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .acts import (
    ActHomomorphism,
    FiniteAct,
    _split_images,
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
from .monoids import FiniteMonoid
from .partitions import (
    Partition,
    _normal_partition,
    _representatives,
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
    generate-then-filter oracles and each other in the tests.  Quotients by
    a congruence are likewise acts and monoids by design: quotient and
    quotient_monoid wrap their tables without re-validating them, and the
    tests pass every two-sided quotient of the catalog through the checked
    constructors.

    A congruence on a regular act also keeps its left-compatibility verdict:
    two_sided_violation computes it on the first call and stores it in the
    instance, so a filter and a later quotient_monoid or correspondence on
    the same value check it once.  The fields are frozen, so the verdict
    cannot go stale, and it takes no part in equality or hashing.
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
    """Least congruence containing the seed pairs: the equivalence generated
    by the pairs (x*m, y*m) for every seed (x, y) and every m, computed in
    one pass over the seeds by closure_partial (see its docstring for the
    argument and the cost bound)."""
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
    quot = _quotient_act(act, congruence)
    return quot, act_homomorphism(act, quot, congruence.partition.block_of)


def _quotient_act(act: FiniteAct, congruence: Congruence) -> FiniteAct:
    """The act of quotient(act, congruence), without the projection.  It is
    an act by construction ([a]*1 = [a], and [a]*(mk) = [(a*m)*k] =
    ([a]*m)*k since the congruence is compatible), so the table is wrapped
    without act_from_table."""
    if congruence.act != act:
        raise ActMismatch("congruence lives on a different act")
    block_of = congruence.partition.block_of
    reps = _representatives(block_of)
    table = tuple(tuple([block_of[x] for x in act.table[r]]) for r in reps)
    labels = tuple(f"[{act.label(r)}]" for r in reps)
    return FiniteAct(act.monoid, table, labels, name=f"{act.name}/rho")


def kernel(hom: ActHomomorphism) -> Congruence:
    """ker theta: (a, b) related iff a theta = b theta."""
    return verify_congruence(hom.source, partition_from_assignment(hom.map))


# ---------------------------------------------------------------------------
# enumeration


def search_space_estimate(size: int, max_blocks: int) -> int:
    """Set partitions of `size` elements into at most `max_blocks` blocks:
    the sum of the Stirling numbers S(size, k) of the second kind over
    k = 0..max_blocks, by S(n, k) = k*S(n-1, k) + S(n-1, k-1) from
    S(0, 0) = 1 (so the empty carrier has its one partition)."""
    top = min(max_blocks, size)
    row = [1] + [0] * top
    for _ in range(size):
        row = [0] + [k * row[k] + row[k - 1] for k in range(1, top + 1)]
    return sum(row)


def enumerate_congruences(
    act: FiniteAct,
    max_index: int | None = None,
    cap: int = DEFAULT_SEARCH_CAP,
) -> Iterator[Congruence]:
    """Yield every congruence on the act (index <= max_index when given),
    each exactly once, in restricted-growth-string order.

    A deferred pair (t, s) with t < s is kept as a forcing: in forced[s]
    once t is placed, else in waiting[t] until it is.  Each placement
    appends to those lists and to nothing else, and logs every list it
    appended to, so backtracking pops each logged list once.  The search
    runs on an explicit stack, one level per carrier element, in the style
    of catalog.enumerate_acts: every congruence is yielded from this one
    generator frame, whatever the carrier size, with no recursion limit.
    The cap is checked against search_space_estimate before the first
    yield; forcing often visits far fewer placements than that estimate."""
    size = act.size
    bound = size if max_index is None else min(max_index, size)
    if bound < 1:
        return
    estimate = search_space_estimate(size, bound)
    if estimate > cap:
        raise SearchSpaceTooLarge(estimate, cap)

    table = act.table
    columns = act.monoid.generators
    assign = [0] * size
    firsts: list[int] = []  # the first element of each block, in block order
    waiting: list[list[int]] = [[] for _ in range(size)]  # s joins t's block
    forced: list[list[int]] = [[] for _ in range(size)]  # blocks forced on s

    def place(i: int, b: int, log: list[list[int]]) -> bool:
        # every append goes to a list also appended to log, for the undo
        assign[i] = b
        for s in waiting[i]:
            f = forced[s]
            if f and f[0] != b:
                return False
            f.append(b)
            log.append(f)
        if b < len(firsts):
            row_i = table[i]
            row_j = table[firsts[b]]
            for m in columns:
                u = row_j[m]
                v = row_i[m]
                if u == v:
                    continue
                if u < v:
                    t, s = u, v
                else:
                    t, s = v, u
                if s <= i:
                    if assign[t] != assign[s]:
                        return False
                elif t <= i:
                    f = forced[s]
                    c = assign[t]
                    if f and f[0] != c:
                        return False
                    f.append(c)
                    log.append(f)
                else:
                    w = waiting[t]
                    w.append(s)
                    log.append(w)
        return True

    # Level i places element i.  It keeps the next block to try, the block
    # after its last, and the undo log of its current placement; element i
    # opened a new block exactly when firsts[-1] == i.  The loop descends on
    # a placement and backtracks when a level runs out of blocks.
    nxt = [0] * size
    end = [1] * size  # level 0 tries block 0 only; deeper levels are set on entry
    logs: list[list[list[int]]] = [[] for _ in range(size)]
    i = 0
    while True:
        if i < size:
            b, last = nxt[i], end[i]
            log: list[list[int]] = []
            while b < last and not place(i, b, log):
                for entries in log:  # this call's entries are the last of each list
                    entries.pop()
                log.clear()
                b += 1
            if b < last:
                nxt[i] = b + 1
                logs[i] = log
                if b == len(firsts):
                    firsts.append(i)
                i += 1
                if i < size:
                    f = forced[i]
                    if f:
                        nxt[i], end[i] = f[0], f[0] + 1
                    else:
                        used = len(firsts)
                        nxt[i], end[i] = 0, used if used == bound else used + 1
                continue
        else:
            # a restricted-growth string is already in first-occurrence form
            yield Congruence(act, _normal_partition(tuple(assign)))
        # level i is done: back to level i - 1, undoing its placement
        if i == 0:
            return
        i -= 1
        for entries in logs[i]:
            entries.pop()
        if firsts[-1] == i:
            firsts.pop()


def all_congruences(
    act: FiniteAct, max_index: int | None = None, cap: int = DEFAULT_SEARCH_CAP
) -> tuple[Congruence, ...]:
    return tuple(enumerate_congruences(act, max_index, cap))


# ---------------------------------------------------------------------------
# right congruences on a monoid (congruences on the regular act)


_UNCHECKED = object()  # no verdict stored yet; None is the verdict "two-sided"


def two_sided_violation(congruence: Congruence) -> tuple[int, int, int] | None:
    """For a congruence on a regular act: None if it is also left-compatible,
    else a witness (a, b, m) with a ~ b but ma !~ mb.

    Only the generators' columns of the left table are compared: the m with
    a ~ b => ma ~ mb for all a, b contain the identity and are closed under
    products ((mk)a = m(ka) ~ m(kb) = (mk)b), so they are all of M once
    they contain a generating set.  The verdict is computed once per
    Congruence value, on the first call, and stored in the instance's
    __dict__ as cached_property does (a plain dict read, without the lock
    cached_property takes before Python 3.12); later calls return it."""
    witness = congruence.__dict__.get("_left_witness", _UNCHECKED)
    if witness is _UNCHECKED:
        monoid = congruence.act.monoid
        witness = _split_images(monoid.left_table, congruence.partition, monoid.generators)
        congruence.__dict__["_left_witness"] = witness
    return witness


def _quotient_table(
    monoid: FiniteMonoid, congruence: Congruence
) -> tuple[tuple[tuple[int, ...], ...], int, list[int]]:
    """The table and identity of M/rho, with the representatives (the least
    member of each class) that index its rows and columns, after the two
    checks: rho lives on M's regular act (NotACongruence) and rho is
    left-compatible (NotTwoSidedCongruence, by two_sided_violation).  Row
    [a] lists [a*b] over the representatives b: only the representatives'
    rows and columns of M are read."""
    if congruence.act.table != monoid.table:
        raise NotACongruence("congruence does not live on the regular act of this monoid")
    witness = two_sided_violation(congruence)
    if witness is not None:
        raise NotTwoSidedCongruence(*witness)
    block_of = congruence.partition.block_of
    reps = _representatives(block_of)
    rows = map(monoid.table.__getitem__, reps)
    table = tuple([tuple([block_of[row[b]] for b in reps]) for row in rows])
    return table, block_of[monoid.identity], reps


def quotient_monoid(monoid: FiniteMonoid, congruence: Congruence, name: str | None = None) -> FiniteMonoid:
    """M/rho for a two-sided congruence given on the regular act of M.

    The two checks are that rho lives on M's regular act and that it is
    left-compatible (two_sided_violation, whose verdict the congruence
    keeps, so a caller that filtered by it pays nothing here); both run in
    _quotient_table, which also builds the table.  M/rho is a monoid by
    construction ([a][b] = [ab] is well defined, associative and has [1]
    as identity), so the table is wrapped without monoid_from_table, with
    labels [x] for each representative x, and its generating set is
    computed when first read."""
    table, identity, reps = _quotient_table(monoid, congruence)
    labels = tuple(f"[{monoid.label(r)}]" for r in reps)
    return FiniteMonoid(table, identity, labels, name or f"{monoid.name}/rho")


def cyclic_act_from_right_congruence(monoid: FiniteMonoid, congruence: Congruence) -> FiniteAct:
    """M/rho as an act, generated by the class of the identity."""
    if congruence.act.table != monoid.table:
        raise NotACongruence("congruence does not live on the regular act of this monoid")
    return _quotient_act(congruence.act, congruence)
