"""Separation machinery: bracket sets, the bracket-equality congruence,
minimal separation searches with certificates, the four condition checkers,
the named witness constructions (proofs run as code), and the act/monoid
correspondence checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import xor
from typing import Iterable, Mapping, Sequence

from .acts import (
    DEFAULT_SUBACT_CAP,
    FiniteAct,
    cyclic_subacts,
    preorder_and_green,
    require_subact,
    subact_as_act,
    subacts,
)
from .congruences import (
    Congruence,
    DEFAULT_SEARCH_CAP,
    equality_congruence,
    quotient,
    quotient_monoid,
    two_sided_violation,
    verify_congruence,
)
from .errors import (
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
    right_ideals,
)
from .partitions import Partition, normalize_block_ids, partition_from_assignment

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


def bracket_profile(act: FiniteAct, a: int) -> BracketProfile:
    if not 0 <= a < act.size:
        raise InvalidSpec(f"element {a} out of carrier range")
    brackets = tuple(
        frozenset(m for m in act.monoid.elements() if act.table[b][m] == a)
        for b in act.carrier()
    )
    return BracketProfile(act, a, brackets)


def sigma_a(act: FiniteAct, a: int) -> Congruence:
    """Partition the carrier by bracket-set equality.  Always a congruence
    with {a} as the block of a; a verification failure is a bug."""
    profile = bracket_profile(act, a)
    try:
        cong = verify_congruence(act, partition_from_assignment(profile.brackets))
    except Exception as exc:  # pragma: no cover - theory guarantees compatibility
        raise InternalInvariantViolation(f"bracket partition not a congruence: {exc}") from exc
    if len(cong.partition.block(a)) != 1:
        raise InternalInvariantViolation("bracket congruence block of a is not a singleton")
    return cong


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


def _check_separation_input(act: FiniteAct, a: int, forbidden: frozenset[int]) -> None:
    if not 0 <= a < act.size:
        raise InvalidSpec(f"element {a} out of carrier range")
    if not forbidden:
        raise EmptyForbiddenSet("the forbidden set must be non-empty")
    for x in forbidden:
        if not 0 <= x < act.size:
            raise InvalidSpec(f"forbidden element {x} out of carrier range")
    if a in forbidden:
        raise InvalidSpec(f"element {a} belongs to the forbidden set")


def _require_within_cap(
    size: int,
    instances: Sequence[tuple[int, frozenset[int]]],
    max_index: int | None,
    cap: int,
) -> None:
    """Raise SearchSpaceTooLarge when the instances together have more than
    cap candidate sets: 2^(n-|X|-1) each, none at all below bound 2."""
    if max_index is not None and max_index < 2:
        return
    total = sum(1 << (size - len(forb) - 1) for _, forb in instances)
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


def _walk_alone(
    hits: list[list[int]], a: int, forbidden: frozenset[int], bound: int
) -> tuple[int, ...] | None:
    """The least-index sigma_C over the sets C with a in C and C disjoint
    from X, walked in Gray-code order; its block_of, or None above bound."""
    free = [y for y in range(len(hits)) if y != a and y not in forbidden]
    keys = hits[a]
    best_index = bound
    best: tuple[int, ...] | None = None
    for step in range(1 << len(free)):
        if step:
            y = free[(step & -step).bit_length() - 1]
            keys = list(map(xor, keys, hits[y]))
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
        free = [y for y in range(size) if not all(y in forb for _, forb in instances)]
        own = sum(1 << (size - len(forb) - 1) for _, forb in instances)
        if 1 << len(free) > own or size > 255:
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

    def _ties(self, a: int, forbidden: frozenset[int]) -> list[int]:
        """The masks C with a in C, C disjoint from X, and the least index of
        sigma_C, when that index is within the bound."""
        table, bit = self.table, self.bit
        own = bit[a]
        allowed = (len(table) - 1) & ~own
        for x in forbidden:
            allowed &= ~bit.get(x, 0)
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

    def min_index(self, a: int, forbidden: frozenset[int]) -> int | None:
        """The index of solve(a, X), without normalising ties on the table."""
        if self.table is None:
            best = self.solve(a, forbidden)
            return None if best is None else max(best) + 1
        ties = self._ties(a, forbidden)
        return self.table[ties[0]] if ties else None


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
    return None if best is None else _certificate(act, a, forb, Congruence(act, Partition(best)))


def minimal_separating_index(
    act: FiniteAct,
    a: int,
    forbidden: Iterable[int],
    cap: int = DEFAULT_SEARCH_CAP,
) -> int:
    cert = separate(act, a, forbidden, cap=cap)
    assert cert is not None  # unbounded search cannot fail on a finite act
    return cert.quotient_size


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
    act: FiniteAct,
    condition: str,
    subact_cap: int,
    all_subacts: Sequence[frozenset[int]] | None = None,
) -> list[tuple[int, frozenset[int]]]:
    """The instances (a, X) of one condition, in order.  SSS lists the
    subacts unless all_subacts, subacts(act, cap=subact_cap), is given."""
    out: list[tuple[int, frozenset[int]]] = []
    if condition == "RF":
        for a in act.carrier():
            for b in range(a + 1, act.size):
                out.append((a, frozenset({b})))
    elif condition == "WSS":
        for sub in cyclic_subacts(act):
            for a in act.carrier():
                if a not in sub:
                    out.append((a, sub))
    elif condition == "SSS":
        if all_subacts is None:
            all_subacts = subacts(act, cap=subact_cap)
        for sub in all_subacts:
            for a in act.carrier():
                if a not in sub:
                    out.append((a, sub))
    elif condition == "CS":
        for a in act.carrier():
            rest = frozenset(act.carrier()) - {a}
            if rest:
                out.append((a, rest))
    else:
        raise InvalidSpec(f"unknown condition {condition!r}")
    return out


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
            cong = congruences[best] = Congruence(act, Partition(best))
        certificates.append(_certificate(act, a, forb, cong))
    return ConditionReport(cond, act, counterexample is None, tuple(certificates), counterexample)


# ---------------------------------------------------------------------------
# named witness constructions (the paper's proofs run as code)


def rclass_witness(act: FiniteAct, zero: int, a: int) -> SeparationCertificate:
    """Separate a from a zero via the fibers of x -> (is x*R_i = {zero})_i
    over the monoid's R-classes, with {zero} as its own block."""
    if zero not in act.zeros:
        raise NotAZero(zero)
    if a == zero or not 0 <= a < act.size:
        raise InvalidSpec("element to separate must differ from the zero")
    rclasses = act.monoid.r_classes
    keys: list[tuple] = []
    for x in act.carrier():
        if x == zero:
            keys.append(("zero",))
        else:
            row = act.table[x]
            keys.append(tuple(all(row[r] == zero for r in rc) for rc in rclasses))
    cong = verify_congruence(act, partition_from_assignment(keys))
    return make_certificate(act, a, {zero}, cong)


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
    if not is_clifford(act.monoid):
        raise NotClifford("the acting monoid is not a Clifford monoid")
    leq, _ = preorder_and_green(act)
    if leq[a][b] and leq[b][a]:
        raise RRelated(a, b)
    if leq[a][b]:
        a, b = b, a
    assignment = [0 if leq[a][x] else 1 for x in act.carrier()]
    cong = verify_congruence(act, partition_from_assignment(assignment))
    return make_certificate(act, a, {b}, cong)


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
    the three-block congruence {[1]}, {0}, rest.  Also asserts that the class
    of the identity is a singleton, which the completely simple structure
    forces whenever such a zero exists."""
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
    if act.size < 3:
        return make_certificate(act, element, {zero}, equality_congruence(act))
    assignment = [0 if x == one else 1 if x == zero else 2 for x in act.carrier()]
    cong = verify_congruence(act, partition_from_assignment(assignment))
    return make_certificate(act, element, {zero}, cong)


def _validate_union_blocks(
    act: FiniteAct, blocks: Sequence[Iterable[int]]
) -> list[frozenset[int]]:
    out = [require_subact(act, block) for block in blocks]
    covered: set[int] = set()
    for block in out:
        if covered & block:
            raise InvalidSpec("union blocks overlap")
        covered |= block
    if covered != set(act.carrier()):
        raise InvalidSpec("union blocks do not cover the carrier")
    return out


def disjoint_union_witness(
    act: FiniteAct,
    blocks: Sequence[Iterable[int]],
    a: int,
    forbidden: Iterable[int],
) -> SeparationCertificate:
    """When the forbidden set misses the block of a: the two-block congruence
    A_i | rest separates.  Otherwise raises XMeetsBlock; see
    disjoint_union_fallback for the general construction."""
    forb = frozenset(forbidden)
    _check_separation_input(act, a, forb)
    parts = _validate_union_blocks(act, blocks)
    mine = next(block for block in parts if a in block)
    overlap = forb & mine
    if overlap:
        raise XMeetsBlock(min(overlap))
    return _two_block_certificate(act, mine, a, forb)


def _two_block_certificate(
    act: FiniteAct, mine: frozenset[int], a: int, forbidden: frozenset[int]
) -> SeparationCertificate:
    """The congruence mine | rest, for inputs already checked by the caller
    and a forbidden set that misses the subact mine."""
    assignment = [0 if x in mine else 1 for x in act.carrier()]
    cong = verify_congruence(act, partition_from_assignment(assignment))
    return _certificate(act, a, forbidden, cong)


def disjoint_union_fallback(
    act: FiniteAct,
    blocks: Sequence[Iterable[int]],
    a: int,
    forbidden: Iterable[int],
    cap: int = DEFAULT_SEARCH_CAP,
) -> SeparationCertificate:
    """General case: separate inside the block of a, then extend by sending
    the rest of the act to an adjoined sink class."""
    forb = frozenset(forbidden)
    _check_separation_input(act, a, forb)
    parts = _validate_union_blocks(act, blocks)
    mine = next(block for block in parts if a in block)
    inside = forb & mine
    if not inside:
        return _two_block_certificate(act, mine, a, forb)
    sub_act, embedding = subact_as_act(act, mine)
    pos = {x: i for i, x in enumerate(embedding)}
    sub_cert = separate(sub_act, pos[a], {pos[x] for x in inside}, cap=cap)
    assert sub_cert is not None
    sub_blocks = sub_cert.congruence.partition.block_of
    keys = [
        ("in", sub_blocks[pos[x]]) if x in pos else ("out",) for x in act.carrier()
    ]
    cong = verify_congruence(act, partition_from_assignment(keys))
    return _certificate(act, a, forb, cong)


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
    two_sided: bool
    subacts_match_right_ideals: bool
    act_conditions: Mapping[str, bool] | None
    monoid_conditions: Mapping[str, bool] | None

    @property
    def equivalences_agree(self) -> bool:
        if self.act_conditions is None or self.monoid_conditions is None:
            return self.subacts_match_right_ideals
        return self.subacts_match_right_ideals and all(
            self.act_conditions[c] == self.monoid_conditions[c] for c in CONDITIONS
        )


def act_monoid_correspondence(
    monoid: FiniteMonoid,
    rho: Congruence,
    cap: int = DEFAULT_SEARCH_CAP,
    monoid_side: bool | None = None,
) -> CorrespondenceReport:
    """For N = M/rho: subacts of the act M/rho are the right ideals of N, and
    each act-side separability condition matches its monoid-side analogue.

    Each instance (a, X) of RF, WSS, SSS and CS on M/rho is solved on both
    sides, on the carrier labels that M/rho and N share: for the minimal
    right congruence of the act (a _SigmaBatch on _hit_masks), and for the
    minimal two-sided congruence of N, which is the two-sided syntactic
    congruence of some C with a in C and C disjoint from X (the same batch
    on _two_sided_hit_masks).  Only minimal indices are compared; no
    congruence is enumerated and no certificate is built.  A condition
    holds on a side when each of its instances has a separating congruence
    there, and an act-side index above the two-sided one raises
    InternalInvariantViolation, since right congruences include the
    two-sided ones.  The cap bounds the candidate sets of each condition on
    its own; N has the order of the act's carrier, so one check covers both
    sides.

    A right-only congruence checks the bijection alone, against the
    rho-saturated right ideals of M; requesting monoid_side on such input
    raises NotTwoSidedCongruence."""
    if rho.act.table != monoid.table:
        raise NotACongruence("rho must be a right congruence on the monoid")
    act, proj = quotient(rho.act, rho)
    act_subacts = subacts(act)
    violation = two_sided_violation(rho)
    if monoid_side and violation is not None:
        raise NotTwoSidedCongruence(*violation)
    if violation is not None:
        saturated = set()
        block_of = rho.partition.block_of
        for ideal in right_ideals(monoid):
            classes = frozenset(block_of[x] for x in ideal)
            members = {x for x in monoid.elements() if block_of[x] in classes}
            if members == set(ideal):
                saturated.add(classes)
        return CorrespondenceReport(
            two_sided=False,
            subacts_match_right_ideals=set(act_subacts) == saturated,
            act_conditions=None,
            monoid_conditions=None,
        )
    n_monoid = quotient_monoid(monoid, rho)
    n_ideals = {frozenset(i) for i in right_ideals(n_monoid)}
    instances = {}
    for cond in CONDITIONS:
        instances[cond] = _condition_instances(act, cond, DEFAULT_SUBACT_CAP, act_subacts)
        _require_within_cap(act.size, instances[cond], None, cap)
    batch = [inst for cond_instances in instances.values() for inst in cond_instances]
    right = _SigmaBatch(_hit_masks(act), batch, None)
    two_sided = _SigmaBatch(_two_sided_hit_masks(n_monoid), batch, None)
    act_conditions = dict.fromkeys(CONDITIONS, True)
    monoid_conditions = dict.fromkeys(CONDITIONS, True)
    for cond, cond_instances in instances.items():
        for a, forb in cond_instances:
            act_index = right.min_index(a, forb)
            monoid_index = two_sided.min_index(a, forb)
            act_conditions[cond] &= act_index is not None
            monoid_conditions[cond] &= monoid_index is not None
            if None not in (act_index, monoid_index) and act_index > monoid_index:
                raise InternalInvariantViolation(
                    f"{cond}: act-side minimal index {act_index} exceeds the two-sided "
                    f"one {monoid_index} separating {a} from {sorted(forb)}"
                )
    return CorrespondenceReport(
        two_sided=True,
        subacts_match_right_ideals=set(act_subacts) == n_ideals,
        act_conditions=act_conditions,
        monoid_conditions=monoid_conditions,
    )
