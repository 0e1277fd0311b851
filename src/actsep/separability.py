"""Separation machinery: bracket sets, the bracket-equality congruence,
minimal separation searches with certificates, the four condition checkers,
the named witness constructions (proofs run as code), and the act/monoid
correspondence checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, count
from operator import gt, xor
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

from .acts import (
    DEFAULT_SUBACT_CAP,
    FiniteAct,
    cyclic_subacts,
    preorder_and_green,
    regular_act,
    require_subact,
    subact_as_act,
    subacts,
)
from .congruences import (
    Congruence,
    DEFAULT_SEARCH_CAP,
    _quotient_table,
    quotient,
    verify_congruence,
)
from .errors import (
    ActMismatch,
    EmptyForbiddenSet,
    InternalInvariantViolation,
    InvalidSpec,
    MonoidMismatch,
    NotAZero,
    NotACongruence,
    NotClifford,
    NotComparable,
    NotNormalized,
    NotTwoSidedCongruence,
    PreconditionViolated,
    RRelated,
    SearchSpaceTooLarge,
    XMeetsBlock,
)
from .monoids import (
    FiniteMonoid,
    ReesMatrixSpec,
    rees_element_index,
    rees_matrix_monoid,
)
from .partitions import _normal_partition, normalize_block_ids, partition_from_assignment

CONDITIONS = ("RF", "WSS", "SSS", "CS")


# ---------------------------------------------------------------------------
# bracket sets and the bracket-equality congruence


@dataclass(frozen=True)
class BracketProfile:
    """For a fixed element a, the sets [a, b] = {m : a = b*m} for every b."""

    act: FiniteAct
    element: int
    brackets: tuple[frozenset[int], ...]

    @property
    def distinct_count(self) -> int:
        return len(set(self.brackets))


def _require_elements(act: FiniteAct, *elements: int) -> None:
    for x in elements:
        if not 0 <= x < act.size:
            raise InvalidSpec(f"element {x} out of carrier range")


def bracket_profile(act: FiniteAct, a: int) -> BracketProfile:
    _require_elements(act, a)
    brackets = tuple(
        frozenset(m for m in act.monoid.elements() if act.table[b][m] == a)
        for b in act.carrier()
    )
    return BracketProfile(act, a, brackets)


def sigma_a(act: FiniteAct, a: int) -> Congruence:
    """The bracket congruence sigma_a: x and y are related iff [a, x] = [a, y].
    It is the syntactic congruence sigma_C of C = {a} (see _SigmaBatch), so a
    congruence by construction with {a} as the block of a; the key of x is
    the bitmask of [a, x], row a of _hit_masks."""
    _require_elements(act, a)
    return Congruence(act, partition_from_assignment(_hit_masks(act)[a]))


# ---------------------------------------------------------------------------
# separation certificates


@dataclass(frozen=True)
class SeparationCertificate:
    act: FiniteAct
    element: int
    forbidden: frozenset[int]
    congruence: Congruence

    @property
    def quotient_size(self) -> int:
        return self.congruence.index


def make_certificate(
    act: FiniteAct, element: int, forbidden: Iterable[int], congruence: Congruence
) -> SeparationCertificate:
    if congruence.act != act:
        raise ActMismatch("congruence lives on a different act")
    forb = frozenset(forbidden)
    _check_separation_input(act, element, forb)
    return _certificate(act, element, forb, congruence)


def _certificate(
    act: FiniteAct, element: int, forbidden: frozenset[int], congruence: Congruence
) -> SeparationCertificate:
    """make_certificate for an element and forbidden set that already passed
    _check_separation_input; still asserts that the congruence separates."""
    block_of = congruence.partition.block_of
    for x in forbidden:
        if block_of[x] == block_of[element]:
            raise InvalidSpec(f"congruence does not separate {element} from {x}")
    return SeparationCertificate(act, element, forbidden, congruence)


def _keyed_certificate(
    act: FiniteAct, a: int, forbidden: Iterable[int], keys: Iterable[Hashable]
) -> SeparationCertificate:
    """make_certificate for the congruence whose classes are the fibers of
    the keys, one key per carrier element, verified compatible."""
    return make_certificate(act, a, forbidden, verify_congruence(act, partition_from_assignment(keys)))


def _check_separation_input(act: FiniteAct, a: int, forbidden: frozenset[int]) -> None:
    _require_elements(act, a)
    if not forbidden:
        raise EmptyForbiddenSet("the forbidden set must be non-empty")
    for x in forbidden:
        if not 0 <= x < act.size:
            raise InvalidSpec(f"forbidden element {x} out of carrier range")
    if a in forbidden:
        raise InvalidSpec(f"element {a} belongs to the forbidden set")


def _candidate_sets(size: int, instances: Sequence[tuple[int, frozenset[int]]]) -> int:
    """The candidate sets C of the instances together: 2^(n-|X|-1) each."""
    return sum(1 << (size - len(forb) - 1) for _, forb in instances)


def _require_within_cap(
    size: int,
    instances: Sequence[tuple[int, frozenset[int]]],
    max_index: int | None,
    cap: int,
) -> None:
    """Raise SearchSpaceTooLarge when the instances together have more than
    cap candidate sets, none at all below bound 2."""
    if max_index is not None and max_index < 2:
        return
    total = _candidate_sets(size, instances)
    if total > cap:
        raise SearchSpaceTooLarge(total, cap)


def _hit_masks(act: FiniteAct) -> list[list[int]]:
    """hits[y][x] is the bitmask of the monoid elements m with x*m = y."""
    hits = [[0] * act.size for _ in range(act.size)]
    for x, row in enumerate(act.table):
        for m, y in enumerate(row):
            hits[y][x] |= 1 << m
    return hits


def _two_sided_hit_masks(monoid: FiniteMonoid) -> list[list[int]]:
    """hits[y][x] has bit m*|N|+k set when m*x*k = y: the hit masks whose
    sigma_C is the two-sided syntactic congruence of C in the monoid."""
    n = monoid.order
    table = monoid.table
    hits = [[0] * n for _ in range(n)]
    for m, row in enumerate(table):
        for x, mx in enumerate(row):
            for k, y in enumerate(table[mx], start=m * n):
                hits[y][x] |= 1 << k
    return hits


def _gray_keys(hits: list[list[int]], a: int, forbidden: frozenset[int]) -> Iterator[list[int]]:
    """The keys of sigma_C for every set C with a in C and C disjoint from X,
    in Gray-code order: one XOR with hits[y] per element and step."""
    free = [y for y in range(len(hits)) if y != a and y not in forbidden]
    keys = hits[a]
    yield keys
    for step in range(1, 1 << len(free)):
        keys = list(map(xor, keys, hits[free[(step & -step).bit_length() - 1]]))
        yield keys


def _walk_alone(
    hits: list[list[int]], a: int, forbidden: frozenset[int], bound: int
) -> tuple[int, ...] | None:
    """The least-index sigma_C over the sets C with a in C and C disjoint
    from X, walked in Gray-code order; its block_of, or None above bound."""
    best_index = bound
    best: tuple[int, ...] | None = None
    for keys in _gray_keys(hits, a, forbidden):
        index = len(set(keys))
        if index <= best_index:
            block_of = normalize_block_ids(keys)
            if best is None or index < best_index or block_of < best:
                best_index, best = index, block_of
    return best


class _SigmaBatch:
    """Minimal separation by syntactic congruences, for a batch of instances.

    For a set C of carrier elements, sigma_C relates x and y iff, for every
    m, x*m lies in C exactly when y*m does: the largest congruence in which C
    is a union of classes.  If a congruence separates a from X and C is the
    class of a, then sigma_C contains it and still separates; so every
    minimal-index separating congruence is some sigma_C with a in C and C
    disjoint from X, and only those 2^(n-|X|-1) sets need checking.  For
    C = {a}, sigma_C is the bracket congruence sigma_a.  With the two-sided
    masks of _two_sided_hit_masks the same argument gives the minimal
    two-sided congruences of a monoid.

    With hits = _hit_masks(act), the key of x under C (the m with x*m in C)
    is the OR of hits[y][x] over y in C.  For a fixed x these masks are
    disjoint, so adding or removing y is an XOR with hits[y], and walking
    sets in Gray-code order costs one XOR per element and step.

    sigma_C depends on C alone, so one walk serves every instance: it goes
    over the subsets of U, the carrier minus the elements that every
    instance forbids, and records the index of each sigma_C in a table by
    the bitmask of C.  An instance (a, X) then takes its minimum over the
    submasks of that table that contain a and miss X.  When the table
    (2^|U| sets) would be larger than the instances' own candidate sets
    together (the sum of 2^(n-|X|-1)), each instance walks alone instead;
    a single instance always does, and so does a carrier of more than 255
    elements, whose indices do not fit the byte table.  So no batch walks
    more sets than that sum, the estimate that the search cap bounds, and
    the instances read the table once per candidate set.

    solve returns the block_of of the minimal-index sigma_C, ties broken by
    the lexicographically least block_of (the first in restricted-growth-
    string order), or None when that index exceeds max_index.  With the
    table only tied sets are normalised, each at most once per batch."""

    def __init__(
        self,
        hits: list[list[int]],
        instances: Sequence[tuple[int, frozenset[int]]],
        max_index: int | None,
    ):
        size = len(hits)
        self.hits = hits
        self.bound = size if max_index is None else max_index
        self.table: bytearray | None = None
        if self.bound < 2 or not instances:  # one block cannot separate
            return
        own = _candidate_sets(size, instances)
        # each instance's element lies in U, so this rules the table out
        # before U is computed (CS always stops here)
        if 1 << len({a for a, _ in instances}) > own or size > 255:
            return
        free = [y for y in range(size) if not all(y in forb for _, forb in instances)]
        if 1 << len(free) > own:
            return
        self.free = free
        self.bit = {y: 1 << i for i, y in enumerate(free)}
        self.table = bytearray(1 << len(free))
        self.blocks: dict[int, tuple[int, ...]] = {}
        keys = [0] * size
        c = 0
        for step in range(1 << len(free)):
            if step:
                i = (step & -step).bit_length() - 1
                keys = list(map(xor, keys, hits[free[i]]))
                c ^= 1 << i
            self.table[c] = len(set(keys))

    def _masks(self, a: int, forbidden: frozenset[int]) -> tuple[int, int]:
        """The bit of a and the free elements besides a that miss X: the
        candidate sets C are the bit of a joined with each submask of the
        latter."""
        bit = self.bit
        own = bit[a]
        allowed = (len(self.table) - 1) & ~own
        for x in forbidden:
            allowed &= ~bit.get(x, 0)
        return own, allowed

    def _ties(self, a: int, forbidden: frozenset[int]) -> list[int]:
        """The masks C with a in C, C disjoint from X, and the least index of
        sigma_C, when that index is within the bound."""
        table = self.table
        own, allowed = self._masks(a, forbidden)
        best = self.bound
        ties: list[int] = []
        sub = allowed
        while True:
            index = table[sub | own]
            if index < best:
                best, ties = index, [sub | own]
            elif index == best:
                ties.append(sub | own)
            if not sub:
                return ties
            sub = (sub - 1) & allowed

    def _block_of(self, c: int) -> tuple[int, ...]:
        block_of = self.blocks.get(c)
        if block_of is None:
            rows = [self.hits[y] for i, y in enumerate(self.free) if c >> i & 1]
            # the masks of one column are disjoint, so their sum is their OR
            block_of = self.blocks[c] = normalize_block_ids(map(sum, zip(*rows)))
        return block_of

    def solve(self, a: int, forbidden: frozenset[int]) -> tuple[int, ...] | None:
        if self.bound < 2:
            return None
        if self.table is None:
            return _walk_alone(self.hits, a, forbidden, self.bound)
        ties = self._ties(a, forbidden)
        return min(map(self._block_of, ties)) if ties else None

    def min_index(self, a: int, forbidden: frozenset[int]) -> int:
        """The index of solve(a, X), from the class counts alone: no tie is
        normalised and no tie list is built.  Every candidate separates a
        from X, so the walk stops at the first index 2.  Called only on
        batches built with max_index=None, whose bound is the carrier size:
        sigma_a separates a from everything else, so solve always finds a
        winner there."""
        best = self.bound
        if self.table is None:
            for keys in _gray_keys(self.hits, a, forbidden):
                index = len(set(keys))
                if index < best:
                    best = index
                    if index == 2:
                        break
            return best
        table = self.table
        own, allowed = self._masks(a, forbidden)
        sub = allowed
        while True:
            index = table[sub | own]
            if index < best:
                best = index
                if index == 2:
                    return 2
            if not sub:
                return best
            sub = (sub - 1) & allowed


def separate(
    act: FiniteAct,
    a: int,
    forbidden: Iterable[int],
    max_index: int | None = None,
    cap: int = DEFAULT_SEARCH_CAP,
) -> SeparationCertificate | None:
    """Minimal-index congruence separating a from the forbidden set X, ties
    broken by restricted-growth-string order; None when no congruence within
    max_index separates.  Unbounded search always succeeds on a finite act
    because the bracket congruence of a separates a from everything else.
    The search checks the syntactic congruence of every set C with a in C and
    C disjoint from X; SearchSpaceTooLarge is raised when those 2^(n-|X|-1)
    candidate sets exceed cap."""
    forb = frozenset(forbidden)
    _check_separation_input(act, a, forb)
    _require_within_cap(act.size, [(a, forb)], max_index, cap)
    best = _SigmaBatch(_hit_masks(act), [(a, forb)], max_index).solve(a, forb)
    return None if best is None else _certificate(act, a, forb, Congruence(act, _normal_partition(best)))


def minimal_separating_index(
    act: FiniteAct,
    a: int,
    forbidden: Iterable[int],
    cap: int = DEFAULT_SEARCH_CAP,
) -> int:
    """The index of separate(act, a, forbidden), with the same input and cap
    checks, from the class counts of the search alone: no congruence or
    certificate is built."""
    forb = frozenset(forbidden)
    _check_separation_input(act, a, forb)
    _require_within_cap(act.size, [(a, forb)], None, cap)
    return _SigmaBatch(_hit_masks(act), [(a, forb)], None).min_index(a, forb)


# ---------------------------------------------------------------------------
# the four condition checkers


@dataclass(frozen=True)
class ConditionReport:
    condition: str
    act: FiniteAct
    holds: bool
    certificates: tuple[SeparationCertificate, ...]
    counterexample: tuple[int, frozenset[int]] | None


def _condition_instances(
    act: FiniteAct, condition: str, subact_cap: int
) -> list[tuple[int, frozenset[int]]]:
    """The instances (a, X) of one condition, in order: for WSS and SSS, one
    per (cyclic subact or subact X, element a outside X)."""
    if condition == "WSS":
        forbidden_sets = cyclic_subacts(act)
    elif condition == "SSS":
        forbidden_sets = subacts(act, cap=subact_cap)
    else:
        return _maximal_instances(act, condition, ())
    return [(a, sub) for sub in forbidden_sets for a in act.carrier() if a not in sub]


def _maximal_instances(
    act: FiniteAct, condition: str, orbits: Sequence[frozenset[int]]
) -> list[tuple[int, frozenset[int]]]:
    """The instances (a, X) of one condition whose X lies in no larger X of
    an instance with the same a, given orbits = cyclic_subacts(act) (unused
    by RF and CS, whose instances are all maximal).  A congruence that
    separates a from X separates a from every subset of X, so the condition
    holds within an index exactly when these instances can be separated
    within it, and its index is the largest of their minimal indices.

    - RF: (a, {b}) for every pair a < b.
    - CS: (a, carrier minus a).
    - SSS: (a, B_a) with B_a = {x : a not in xM} non-empty: the union of
      the orbits that miss a, so the largest subact that misses a.
    - WSS: (a, O) for each orbit O that misses a and lies in no larger
      orbit that misses a."""
    if condition == "RF":
        return [(a, frozenset({b})) for a in act.carrier() for b in range(a + 1, act.size)]
    if condition == "CS":
        carrier = frozenset(act.carrier())
        return [(a, carrier - {a}) for a in act.carrier()] if act.size > 1 else []
    if condition == "SSS":
        out = []
        for a in act.carrier():
            b_a = frozenset().union(*(orbit for orbit in orbits if a not in orbit))
            if b_a:
                out.append((a, b_a))
        return out
    if condition == "WSS":
        # an orbit missing a is maximal among those iff a lies in every
        # larger orbit, i.e. in their intersection
        carrier = frozenset(act.carrier())
        above = [
            carrier.intersection(*(other for other in orbits if orbit < other))
            for orbit in orbits
        ]
        return [
            (a, orbit)
            for a in act.carrier()
            for orbit, inside in zip(orbits, above)
            if a not in orbit and a in inside
        ]
    raise InvalidSpec(f"unknown condition {condition!r}")


def condition_index(act: FiniteAct, condition: str, cap: int = DEFAULT_SEARCH_CAP) -> int:
    """The least index k at which one of RF/WSS/SSS/CS holds: the largest
    minimal separating index over its instances, 1 when it has none.  Only
    the maximal instances are solved (see _maximal_instances), at most n for
    SSS and CS and never a list of subacts, so the subact cap does not
    apply; SearchSpaceTooLarge is raised when their candidate sets together
    exceed cap.  By the paper's first theorem a finite act satisfies all
    four conditions, so the index always exists."""
    cond = condition.upper()
    instances = _maximal_instances(act, cond, cyclic_subacts(act))
    _require_within_cap(act.size, instances, None, cap)
    solver = _SigmaBatch(_hit_masks(act), instances, None)
    return max((solver.min_index(a, forb) for a, forb in instances), default=1)


def check_condition(
    act: FiniteAct,
    condition: str,
    max_index: int | None = None,
    cap: int = DEFAULT_SEARCH_CAP,
    subact_cap: int = DEFAULT_SUBACT_CAP,
) -> ConditionReport:
    """Decide one of RF/WSS/SSS/CS by solving every instance, in instance
    order, with the minimal separation search of separate(), up to the first
    instance with no separating congruence within max_index.  The cap bounds
    the candidate sets of all instances together, checked before any is
    solved; a CS instance has exactly one, so CS reduces to the bracket
    congruences.  The instances share one _SigmaBatch and each distinct
    winner is built once; act_monoid_correspondence builds no certificates
    and compares minimal indices alone."""
    cond = condition.upper()
    instances = _condition_instances(act, cond, subact_cap)
    _require_within_cap(act.size, instances, max_index, cap)
    solver = _SigmaBatch(_hit_masks(act), instances, max_index)
    congruences: dict[tuple[int, ...], Congruence] = {}
    certificates: list[SeparationCertificate] = []
    counterexample = None
    for a, forb in instances:
        best = solver.solve(a, forb)
        if best is None:
            counterexample = (a, forb)
            break
        cong = congruences.get(best)
        if cong is None:
            cong = congruences[best] = Congruence(act, _normal_partition(best))
        certificates.append(_certificate(act, a, forb, cong))
    return ConditionReport(cond, act, counterexample is None, tuple(certificates), counterexample)


# ---------------------------------------------------------------------------
# named witness constructions (the paper's proofs run as code)


def rclass_witness(act: FiniteAct, zero: int, a: int) -> SeparationCertificate:
    """Separate a from a zero via the fibers of x -> (is x*R_i = {zero})_i
    over the monoid's R-classes, with {zero} as its own block."""
    if zero not in act.zeros:
        raise NotAZero(zero)
    _require_elements(act, a)
    if a == zero:
        raise InvalidSpec("element to separate must differ from the zero")
    rclasses = act.monoid.r_classes
    keys = (
        ("zero",) if x == zero else tuple(all(row[r] == zero for r in rc) for rc in rclasses)
        for x, row in enumerate(act.table)
    )
    return _keyed_certificate(act, a, {zero}, keys)


def is_clifford(monoid: FiniteMonoid) -> bool:
    """Inverse monoid with central idempotents: regular, unique inverses,
    idempotents commuting with everything (all checked exhaustively)."""
    t = monoid.table
    for m in monoid.elements():
        inverses = [
            x
            for x in monoid.elements()
            if t[t[m][x]][m] == m and t[t[x][m]][x] == x
        ]
        if len(inverses) != 1:
            return False
    for e in monoid.idempotents:
        if any(t[e][x] != t[x][e] for x in monoid.elements()):
            return False
    return True


def clifford_witness(act: FiniteAct, a: int, b: int) -> SeparationCertificate:
    """Over a Clifford monoid, separate two non-R-related elements by the
    two-block congruence {x : a <= x} | {x : a is not below x}."""
    _require_elements(act, a, b)
    if not is_clifford(act.monoid):
        raise NotClifford("the acting monoid is not a Clifford monoid")
    leq, _ = preorder_and_green(act)
    if leq[a][b] and leq[b][a]:
        raise RRelated(a, b)
    if leq[a][b]:
        a, b = b, a
    return _keyed_certificate(act, a, {b}, (leq[a][x] for x in act.carrier()))


def _completely_simple_violation(monoid: FiniteMonoid) -> str | None:
    """None when M minus its identity is a completely simple subsemigroup."""
    e = monoid.identity
    s_elems = [x for x in monoid.elements() if x != e]
    if not s_elems:
        return "no elements besides the identity"
    t = monoid.table
    sset = set(s_elems)
    for x in s_elems:
        for y in s_elems:
            if t[x][y] == e:
                return f"products of non-identity elements reach the identity: {x}*{y}"
    full = frozenset(s_elems)
    for s in s_elems:
        ideal = {s}
        ideal.update(t[s][y] for y in s_elems)
        ideal.update(t[y][s] for y in s_elems)
        for x in s_elems:
            xs = t[x][s]
            ideal.update(t[xs][y] for y in s_elems)
        if frozenset(ideal) != full:
            return f"principal ideal of {s} is proper, the semigroup part is not simple"
    return None


def rees_cyclic_sss_witness(
    monoid: FiniteMonoid,
    rho: Congruence,
    zero: int | None = None,
    element: int | None = None,
) -> SeparationCertificate:
    """On a cyclic act M/rho with a zero, over S^1 with S completely simple:
    the three-block congruence {[1]}, {0}, rest (equality when the rest is
    empty).  Also asserts that the class of the identity is a singleton,
    which the completely simple structure forces whenever such a zero
    exists."""
    violation = _completely_simple_violation(monoid)
    if violation is not None:
        raise PreconditionViolated(violation)
    if rho.act.table != monoid.table:
        raise NotACongruence("rho must be a right congruence on the monoid")
    act, proj = quotient(rho.act, rho)
    one = proj.map[monoid.identity]
    candidates = [z for z in act.zeros if z != one]
    if zero is not None:
        if zero not in candidates:
            raise PreconditionViolated(f"{zero} is not a zero distinct from the identity class")
    else:
        if not candidates:
            raise PreconditionViolated("the quotient act has no zero distinct from [1]")
        zero = candidates[0]
    if element is None:
        element = one
    if element == zero:
        raise InvalidSpec("element to separate must differ from the zero")
    if len(rho.partition.block(monoid.identity)) != 1:
        raise InternalInvariantViolation("the class of the identity is not a singleton")
    keys = (x if x in (one, zero) else -1 for x in act.carrier())
    return _keyed_certificate(act, element, {zero}, keys)


def _union_block(
    act: FiniteAct, blocks: Sequence[Iterable[int]], a: int, forbidden: Iterable[int]
) -> tuple[frozenset[int], frozenset[int]]:
    """(the forbidden set, the block of a), once the separation input is
    checked and the blocks are checked to be subacts partitioning the act."""
    forb = frozenset(forbidden)
    _check_separation_input(act, a, forb)
    parts = [require_subact(act, block) for block in blocks]
    covered: set[int] = set()
    for block in parts:
        if covered & block:
            raise InvalidSpec("union blocks overlap")
        covered |= block
    if covered != set(act.carrier()):
        raise InvalidSpec("union blocks do not cover the carrier")
    return forb, next(block for block in parts if a in block)


def disjoint_union_witness(
    act: FiniteAct,
    blocks: Sequence[Iterable[int]],
    a: int,
    forbidden: Iterable[int],
) -> SeparationCertificate:
    """When the forbidden set misses the block of a: the two-block congruence
    A_i | rest separates.  Otherwise raises XMeetsBlock; see
    disjoint_union_fallback for the general construction."""
    forb, mine = _union_block(act, blocks, a, forbidden)
    overlap = forb & mine
    if overlap:
        raise XMeetsBlock(min(overlap))
    return _keyed_certificate(act, a, forb, (x in mine for x in act.carrier()))


def disjoint_union_fallback(
    act: FiniteAct,
    blocks: Sequence[Iterable[int]],
    a: int,
    forbidden: Iterable[int],
    cap: int = DEFAULT_SEARCH_CAP,
) -> SeparationCertificate:
    """General case: separate inside the block of a, then extend by sending
    the rest of the act to an adjoined sink class."""
    forb, mine = _union_block(act, blocks, a, forbidden)
    inside = forb & mine
    if not inside:
        return _keyed_certificate(act, a, forb, (x in mine for x in act.carrier()))
    sub_act, embedding = subact_as_act(act, mine)
    pos = {x: i for i, x in enumerate(embedding)}
    sub_cert = separate(sub_act, pos[a], {pos[x] for x in inside}, cap=cap)
    assert sub_cert is not None
    sub_blocks = sub_cert.congruence.partition.block_of
    keys = (sub_blocks[pos[x]] if x in pos else -1 for x in act.carrier())
    return _keyed_certificate(act, a, forb, keys)


# ---------------------------------------------------------------------------
# bracket decomposition over Rees matrix monoids


@dataclass(frozen=True)
class ReesBracketDecomposition:
    """[a, b] = U_b x J' over a normalized Rees matrix monoid; z_b is the
    group slice used by the finite-rank argument (None when either element
    has only the identity as a representative)."""

    u_b: frozenset[tuple[int, int]]
    j_prime: frozenset[int]
    z_b: frozenset[int] | None


def rees_bracket_decomposition(
    act: FiniteAct,
    spec: ReesMatrixSpec,
    a: int,
    b: int,
    projection: Sequence[int] | None = None,
) -> ReesBracketDecomposition:
    monoid = rees_matrix_monoid(spec)
    if act.monoid.table != monoid.table:
        raise MonoidMismatch("act is not over the Rees matrix monoid of this spec")
    e = spec.group.identity
    anchor = next(
        (
            i
            for i in range(spec.rows)
            if all(spec.sandwich[j][i] == e for j in range(spec.cols))
        ),
        None,
    )
    if anchor is None:
        raise NotNormalized("no all-identity column in the sandwich matrix")
    _require_elements(act, a, b)
    if a == b or a not in act.orbit(b):
        raise NotComparable(a, b)
    table = act.table
    u_b = frozenset(
        (i, g)
        for i in range(spec.rows)
        for g in range(spec.group.order)
        if any(
            table[b][rees_element_index(spec, i, g, j)] == a for j in range(spec.cols)
        )
    )
    j_prime = frozenset(
        j
        for j in range(spec.cols)
        if table[a][rees_element_index(spec, anchor, e, j)] == a
    )
    product = {
        rees_element_index(spec, i, g, j) for (i, g) in u_b for j in j_prime
    }
    direct = bracket_profile(act, a).brackets[b]
    if product != set(direct):
        raise InternalInvariantViolation(
            "bracket set does not factor as U_b x J' on this instance"
        )
    z_b: frozenset[int] | None = None
    if projection is None and act.table == monoid.table:
        projection = tuple(range(monoid.order))
    if projection is not None:
        rep_b = min(m for m in range(monoid.order) if projection[m] == b)
        rep_a = min(m for m in range(monoid.order) if projection[m] == a)
        if rep_b != monoid.identity and rep_a != monoid.identity:
            i_b = (rep_b - 1) // (spec.group.order * spec.cols)
            j_a = (rep_a - 1) % spec.cols
            z_b = frozenset(
                h
                for h in range(spec.group.order)
                if projection[rees_element_index(spec, i_b, h, j_a)] == a
            )
    return ReesBracketDecomposition(u_b, j_prime, z_b)


# ---------------------------------------------------------------------------
# act <-> monoid correspondence


@dataclass(frozen=True)
class CorrespondenceReport:
    """For N = M/rho: indices, with derived booleans.  For a two-sided rho,
    each condition's index in CONDITIONS order, the largest minimal index
    over its maximal instances, by right congruences of the act M/rho
    (act_indices) and by two-sided congruences of N (monoid_indices); both
    are None on right-only input.

    The booleans are derived, as the theory fixes them.  The subacts of
    M/rho match the right ideals for every rho (see
    act_monoid_correspondence), and by the paper's first theorem every
    condition holds on both sides of a finite quotient, so each condition
    holds wherever it has an index.  Each property returns a fresh dict."""

    two_sided: bool
    act_indices: Mapping[str, int] | None = None
    monoid_indices: Mapping[str, int] | None = None

    @property
    def subacts_match_right_ideals(self) -> bool:
        return True

    @property
    def act_conditions(self) -> dict[str, bool] | None:
        return None if self.act_indices is None else dict.fromkeys(self.act_indices, True)

    @property
    def monoid_conditions(self) -> dict[str, bool] | None:
        return None if self.monoid_indices is None else dict.fromkeys(self.monoid_indices, True)

    @property
    def equivalences_agree(self) -> bool:
        return self.act_conditions == self.monoid_conditions


def _paired_min_indices(
    right: _SigmaBatch, two_sided: _SigmaBatch, instances: Sequence[tuple[int, frozenset[int]]]
) -> tuple[list[int], list[int]]:
    """The right and the two-sided minimal index of each instance, for two
    batches over the same instances and carrier, so with a table both or
    neither.  The right syntactic congruence of C contains the two-sided
    one (take m = 1 in m*x*k), so it has at most its index, for every C:
    this is checked over the whole tables when there are tables, and on
    each instance's minima always; a violation raises
    InternalInvariantViolation."""
    if right.table is not None:
        table, other = right.table, two_sided.table
        c = next(compress(count(), map(gt, table, other)), None)
        if c is not None:
            members = [y for i, y in enumerate(right.free) if c >> i & 1]
            raise InternalInvariantViolation(
                f"act-side index {table[c]} of sigma_C exceeds the two-sided "
                f"one {other[c]} for C = {members}"
            )
    act_minima: list[int] = []
    monoid_minima: list[int] = []
    for a, forb in instances:
        act_index = right.min_index(a, forb)
        monoid_index = two_sided.min_index(a, forb)
        if act_index > monoid_index:
            raise InternalInvariantViolation(
                f"act-side minimal index {act_index} exceeds the two-sided "
                f"one {monoid_index} separating {a} from {sorted(forb)}"
            )
        act_minima.append(act_index)
        monoid_minima.append(monoid_index)
    return act_minima, monoid_minima


@lru_cache(maxsize=128)
def _two_sided_memo(
    table: tuple[tuple[int, ...], ...], identity: int, cap: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The act-side and the monoid-side index of each condition, in
    CONDITIONS order, for the quotient monoid N with this table and
    identity, solved on N's regular act; see act_monoid_correspondence.
    The key is N's bare table and identity, as _quotient_table returns
    them, so a lookup builds no monoid and only a miss builds N (the 1,384
    quotients of a round of perfbench's lattice workload share 87 N).  Each
    condition's candidate sets are checked against cap before any search,
    and a raise stores nothing, so a hit means that this cap already passed
    on this N."""
    n_monoid = FiniteMonoid(table, identity)
    act = regular_act(n_monoid)
    orbits = cyclic_subacts(act)
    maximal = [_maximal_instances(act, cond, orbits) for cond in CONDITIONS]
    for cond_instances in maximal:
        _require_within_cap(act.size, cond_instances, None, cap)
    batch = list(dict.fromkeys(instance for cond_instances in maximal for instance in cond_instances))
    right = _SigmaBatch(_hit_masks(act), batch, None)
    two_sided = _SigmaBatch(_two_sided_hit_masks(n_monoid), batch, None)
    act_minima, monoid_minima = _paired_min_indices(right, two_sided, batch)
    return tuple(
        tuple(max((minimum[i] for i in cond_instances), default=1) for cond_instances in maximal)
        for minimum in (dict(zip(batch, act_minima)), dict(zip(batch, monoid_minima)))
    )


def act_monoid_correspondence(
    monoid: FiniteMonoid,
    rho: Congruence,
    cap: int = DEFAULT_SEARCH_CAP,
    monoid_side: bool | None = None,
) -> CorrespondenceReport:
    """For N = M/rho: the index of each separability condition on the act
    M/rho and of its analogue on N, when rho is two-sided.  The report
    stores only these indices; its booleans (the subacts of M/rho are the
    right ideals, every condition holds on both sides) are derived.

    For a two-sided rho, column m of the act M/rho is the right translation
    of N by [m]: [a]*m = [am] = [a][m], and [a][m] does not depend on the
    representative m because rho is left-compatible (m rho m' implies
    am rho am'), which _quotient_table checks with two_sided_violation on
    every call (a stored read when the caller already asked).  So the act's
    distinct columns are N's by construction, and only N's table is built:
    no labels, no FiniteMonoid, no act.  The subacts, being the subsets
    closed under the act's columns, are then the right ideals of N, and no
    subact is enumerated.  Everything else (orbits, maximal instances,
    syntactic congruences) depends on N alone, so the indices come from
    _two_sided_memo, which solves on N's regular act and keeps the last 128
    results keyed by N's table, identity and cap.  Each report gets fresh
    mappings.

    Each condition's index is found from its maximal instances alone (see
    _maximal_instances), deduplicated across the four conditions: at most n
    for SSS, one per element and maximal orbit missing it for WSS.  Each
    is solved on both sides: for the minimal right congruence of the act (a
    _SigmaBatch on _hit_masks), and for the minimal two-sided congruence of
    N, which is the two-sided syntactic congruence of some C with a in C and
    C disjoint from X (the same batch on _two_sided_hit_masks).  Only
    minimal indices are compared; no congruence is enumerated and no
    certificate is built.

    Right congruences include the two-sided ones, so the act-side sigma_C
    has at most the index of the two-sided one for every C: checked over
    the whole tables of sigma_C indices when the batches have them and on
    each instance's minima always, and a violation raises
    InternalInvariantViolation.  The cap bounds the candidate sets of each
    condition's maximal instances on its own, checked before any search;
    N has the order of the act's carrier, so one check covers both sides.

    A right-only rho has no quotient monoid, so the report has no indices
    and only the bijection, which holds for every right congruence: the
    projection M -> M/rho is an onto act morphism, so taking preimages
    matches the subacts of M/rho one-to-one with the rho-saturated right
    ideals of M, with images as the inverse.  That branch enumerates
    nothing, so of the package's caps only the search cap applies here.
    Requesting monoid_side on such input raises NotTwoSidedCongruence."""
    try:
        table, identity, _ = _quotient_table(monoid, rho)
    except NotTwoSidedCongruence:
        if monoid_side:
            raise
        return CorrespondenceReport(two_sided=False)
    act_indices, monoid_indices = (
        dict(zip(CONDITIONS, indices)) for indices in _two_sided_memo(table, identity, cap)
    )
    return CorrespondenceReport(True, act_indices, monoid_indices)
