"""Parameterized finite reconstructions of the worked counterexamples, each
bundled with its expected facts for the acceptance suite.

Windowing policy: partial-act entries are defined only when the result stays
inside the window (no wrap-around, no zero absorption), so every merge a
forcing chain derives in the window is valid in the infinite act.  Genuine
zeros of the infinite act stay defined.  The act of `n_times_g` and the
a-part of `bz_window` are windows of their monoid's regular act: its first
rows, with the products that leave the window undefined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Union

from .acts import (
    FiniteAct,
    PartialAct,
    act_from_table,
    closure_partial,
    is_closed_partition,
    partial_act_from_table,
    regular_act,
    subact_generated,
)
from .catalog import _bz_quotient_monoid, _clifford_tower_monoid
from .congruences import DEFAULT_SEARCH_CAP, quotient, verify_congruence
from .errors import ParamOutOfRange, UnknownFamily
from .monoids import (
    FiniteMonoid,
    adjoin_identity,
    cyclic_group,
    left_zero_adjoined,
    monoid_from_table,
    null_adjoined,
)
from .partitions import partition_from_assignment, partition_from_blocks
from .separability import minimal_separating_index, separate


# ---------------------------------------------------------------------------
# fact records


@dataclass(frozen=True)
class ForcingChain:
    """Seeding one identification must merge the target pair in the closure."""

    seed: tuple[int, int]
    target: tuple[int, int]


@dataclass(frozen=True)
class MinIndexFact:
    element: int
    forbidden: tuple[int, ...]
    value: int


@dataclass(frozen=True)
class CongruenceWitness:
    description: str
    blocks: tuple[tuple[int, ...], ...]
    separates: tuple[tuple[int, tuple[int, ...]], ...] = ()
    on_regular_act: bool = False


@dataclass(frozen=True)
class NoSeparationUpTo:
    element: int
    forbidden: tuple[int, ...]
    bound: int


@dataclass(frozen=True)
class StructuralCount:
    quantity: str
    value: int


Fact = Union[ForcingChain, MinIndexFact, CongruenceWitness, NoSeparationUpTo, StructuralCount]


@dataclass(frozen=True)
class FamilyInstance:
    name: str
    params: tuple[tuple[str, int], ...]
    monoid: FiniteMonoid
    act: FiniteAct | PartialAct
    marked: Mapping[str, int]
    expected: tuple[Fact, ...]

    def mark(self, name: str) -> int:
        return self.marked[name]


@dataclass(frozen=True)
class FactResult:
    fact: Fact
    passed: bool
    actual: str


@dataclass(frozen=True)
class FamilyReport:
    instance: FamilyInstance
    results: tuple[FactResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


# ---------------------------------------------------------------------------
# shared pieces


def _truncated_monogenic(w: int) -> FiniteMonoid:
    """{1, x, .., x^w, z}: powers of one generator with an overflow sink,
    the semigroup {x, .., x^w, z} with an identity adjoined."""
    sink = w  # x^(i+1) is element i of the semigroup
    table = [[sink if i + j + 2 > w else i + j + 1 for j in range(w + 1)] for i in range(w + 1)]
    labels = [f"x^{k}" if k > 1 else "x" for k in range(1, w + 1)] + ["z"]
    return adjoin_identity(table, labels, name=f"FreeMono{w}")


# ---------------------------------------------------------------------------
# builders


def _build_bz_window(w: int) -> FamilyInstance:
    monoid = _truncated_monogenic(w)
    n_cols = monoid.order
    sink = w + 1
    size = (w + 1) + (2 * w + 1) + 1
    zero = size - 1

    def b_idx(k: int) -> int:
        return w + 1 + (k + w)

    # the a-part is the window of the regular act below the sink
    table: list[list[int | None]] = [
        [x if x != sink else None for x in row] for row in monoid.table[: w + 1]
    ]
    for k in range(-w, w + 1):
        row = []
        for j in range(n_cols):
            if j == sink:
                row.append(None)
            else:
                row.append(b_idx(k + j) if k + j <= w else None)
        table.append(row)
    table.append([zero] * n_cols)
    labels = [f"a^{i}" for i in range(w + 1)] + [f"b{k}" for k in range(-w, w + 1)] + ["0"]
    act = partial_act_from_table(monoid, table, labels, name=f"bzwin{w}")
    marked = {f"a{i}": i for i in range(w + 1)}
    marked.update({f"b{k}": b_idx(k) for k in range(-w, w + 1)})
    marked["0"] = zero
    facts: list[Fact] = []
    for i in range(1, min(5, w) + 1):
        for j in range(i + 1, min(5, w) + 1):
            facts.append(ForcingChain((b_idx(-i), b_idx(-j)), (b_idx(0), b_idx(j - i))))
    return FamilyInstance("bz_window", (("w", w),), monoid, act, marked, tuple(facts))


def _build_bz_quotient(n: int) -> FamilyInstance:
    monoid = _bz_quotient_monoid(n)
    window = _build_bz_window(2 * n)
    act = window.act
    w = 2 * n
    blocks: list[list[int]] = [[] for _ in range(2 * n + 1)]
    for i in range(w + 1):
        blocks[i % n].append(window.mark(f"a{i}"))
    for k in range(-w, w + 1):
        blocks[n + (k % n)].append(window.mark(f"b{k}"))
    blocks[2 * n].append(window.mark("0"))
    separations = []
    for i in range(-w, w + 1):
        for j in range(i + 1, w + 1):
            if 0 < j - i < n:
                separations.append((window.mark(f"b{i}"), (window.mark(f"b{j}"),)))
    facts: tuple[Fact, ...] = (
        CongruenceWitness(
            "mod-n-classes",
            tuple(tuple(sorted(b)) for b in blocks),
            tuple(separations),
        ),
        StructuralCount("monoid_order", 2 * n + 1),
    )
    return FamilyInstance(
        "bz_quotient", (("n", n),), monoid, act, dict(window.marked), facts
    )


def _build_kozhukhov(n: int) -> FamilyInstance:
    monoid = null_adjoined(n)
    size = n + 2
    b, zero = n, n + 1
    table = []
    for i in range(n):
        row = [i]
        for j in range(n):
            row.append(b if j == i else zero)
        row.append(zero)
        table.append(row)
    table.append([b] + [zero] * (n + 1))
    table.append([zero] * (n + 2))
    labels = [f"a{i + 1}" for i in range(n)] + ["b", "0"]
    act = act_from_table(monoid, table, labels, name=f"kozh{n}")
    marked = {lab: i for i, lab in enumerate(labels)}
    facts: list[Fact] = []
    for i in range(n):
        for j in range(i + 1, n):
            facts.append(ForcingChain((i, j), (b, zero)))
    facts.append(MinIndexFact(b, (zero,), n + 2))
    return FamilyInstance("kozhukhov", (("n", n),), monoid, act, marked, tuple(facts))


def _build_leftzero(n: int) -> FamilyInstance:
    monoid = left_zero_adjoined(n)
    b, c = n, n + 1
    table = []
    for x in range(n):
        row = [x]
        for y in range(n):
            row.append(b if y == x else c)
        table.append(row)
    table.append([b] * (n + 1))
    table.append([c] * (n + 1))
    labels = [f"a{x + 1}" for x in range(n)] + ["b", "c"]
    act = act_from_table(monoid, table, labels, name=f"lz{n}")
    marked = {lab: i for i, lab in enumerate(labels)}
    facts: list[Fact] = []
    for x in range(n):
        for y in range(x + 1, n):
            facts.append(ForcingChain((x, y), (b, c)))
    # n = 1 has no second generator to force c out of b's class: {a1, b}|{c}
    # is already a separating congruence (oracle-derived)
    facts.append(MinIndexFact(b, (c,), 2 if n == 1 else n + 2))
    return FamilyInstance("leftzero", (("n", n),), monoid, act, marked, tuple(facts))


def _square_free_words(max_len: int) -> list[str]:
    """Square-free words over {a, b, c} of length 1..max_len, by (length, lex)."""
    out: list[str] = []
    frontier = [""]
    for _ in range(max_len):
        new = []
        for word in frontier:
            for ch in "abc":
                cand = word + ch
                if not _has_square(cand):
                    new.append(cand)
        new.sort()
        out.extend(new)
        frontier = new
    return out


def _has_square(word: str) -> bool:
    n = len(word)
    for half in range(1, n // 2 + 1):
        for start in range(0, n - 2 * half + 1):
            if word[start : start + half] == word[start + half : start + 2 * half]:
                return True
    return False


_SQUAREFREE_COUNTS = {1: 3, 2: 9, 3: 21, 4: 39, 5: 69, 6: 111}


def _build_squarefree(n: int) -> FamilyInstance:
    words = _square_free_words(n)
    zero = len(words) + 1
    index = {w: i + 1 for i, w in enumerate(words)}
    # the semigroup of the words and 0, one index below the monoid's: a
    # product is its concatenation when that is a word, else 0
    table = [[index.get(u + v, zero) - 1 for v in words] + [zero - 1] for u in words]
    table.append([zero - 1] * zero)
    labels = ["1"] + words + ["0"]
    monoid = adjoin_identity(table, labels[1:], name=f"sqfree{n}")
    act = regular_act(monoid, name=f"sqfree{n}")
    marked = {lab: i for i, lab in enumerate(labels)}
    facts: list[Fact] = [
        StructuralCount("squarefree_words", _SQUAREFREE_COUNTS[n]),
        StructuralCount("monoid_order", _SQUAREFREE_COUNTS[n] + 2),
    ]
    for m in range(1, n):
        long_block = sorted(
            [index[w] for w in words if len(w) > m] + [zero]
        )
        short = [[0]] + [[index[w]] for w in words if len(w) <= m]
        blocks = tuple(tuple(b) for b in short) + (tuple(long_block),)
        u = next(w for w in words if len(w) == m)
        seed = next(w for w in words if len(w) == m + 1)
        ideal = tuple(sorted(subact_generated(act, {index[seed]})))
        facts.append(
            CongruenceWitness(
                f"length-ideal-{m}",
                blocks,
                ((index[u], ideal),),
            )
        )
    return FamilyInstance("squarefree", (("n", n),), monoid, act, marked, tuple(facts))


def _build_n_times_g(n: int, g: int) -> FamilyInstance:
    group = cyclic_group(g)
    overflow = n  # internal marker for the collapsed tail of the naturals
    # the semigroup: (p, u) at index p*g + u, one below the monoid's
    table = [
        [
            (overflow if overflow in (p, q) or (p + 1) + (q + 1) > n else p + q + 1) * g + (u + v) % g
            for q in range(n + 1)
            for v in range(g)
        ]
        for p in range(n + 1)
        for u in range(g)
    ]
    m_labels = []
    for p in range(n + 1):
        tag = "J" if p == overflow else str(p + 1)
        m_labels.extend(f"({tag},{group.label(u)})" for u in range(g))
    monoid = adjoin_identity(table, m_labels, name=f"NxG{n}_{g}")

    # the act is the window of the regular act below the overflow level
    carrier = 1 + n * g

    def c_idx(p: int, u: int) -> int:
        return 1 + (p - 1) * g + u

    act_table = [[x if x < carrier else None for x in row] for row in monoid.table[:carrier]]
    a_labels = monoid.labels[:carrier]
    act = partial_act_from_table(monoid, act_table, a_labels, name=f"NxGwin{n}_{g}")
    marked = {lab: i for i, lab in enumerate(a_labels)}

    facts: list[Fact] = []
    if n >= 2:
        facts.append(
            ForcingChain(
                (c_idx(1, 1 % g), c_idx(1, 0)),
                (c_idx(2, 0), c_idx(2, (-1) % g)),
            )
        )
        # theta: forget the group, collapse levels above 1
        theta_blocks = (
            (0,),
            tuple(c_idx(1, u) for u in range(g)),
            tuple(c_idx(p, u) for p in range(2, n + 1) for u in range(g)),
        )
        theta_target = tuple(
            sorted(
                [c_idx(2, 0)]
                + [c_idx(q, v) for q in range(3, n + 1) for v in range(g)]
            )
        )
        facts.append(
            CongruenceWitness(
                "theta-level-kernel",
                theta_blocks,
                ((c_idx(1, 0), theta_target),),
            )
        )
        # psi: keep the group coordinate on the collapsed tail
        psi_blocks = [(0,)]
        psi_blocks += [(c_idx(1, u),) for u in range(g)]
        psi_blocks += [(c_idx(2, u),) for u in range(g)]
        for u in range(g):
            tail = tuple(c_idx(p, u) for p in range(3, n + 1))
            if tail:
                psi_blocks.append(tail)
        psi_target = tuple(
            sorted(
                [c_idx(2, 1 % g)]
                + [c_idx(q, v) for q in range(3, n + 1) for v in range(g)]
            )
        )
        facts.append(
            CongruenceWitness(
                "psi-level-group-kernel",
                tuple(psi_blocks),
                ((c_idx(2, 0), psi_target),),
            )
        )
    return FamilyInstance(
        "n_times_g", (("g", g), ("n", n)), monoid, act, marked, tuple(facts)
    )


def _build_free_monogenic_act(w: int) -> FamilyInstance:
    monoid = _truncated_monogenic(w)
    sink = w + 1
    zero = w + 1
    table: list[list[int | None]] = []
    for i in range(w + 1):
        row: list[int | None] = []
        for j in range(monoid.order):
            if j == sink:
                row.append(zero)
            else:
                row.append(i - j if j <= i else zero)
        table.append(row)
    table.append([zero] * monoid.order)
    labels = [f"a{i}" for i in range(w + 1)] + ["0"]
    act = partial_act_from_table(monoid, table, labels, name=f"freemono{w}")
    marked = {lab: i for i, lab in enumerate(labels)}
    facts: list[Fact] = []
    for i in range(w + 1):
        for j in range(i + 1, w + 1):
            facts.append(ForcingChain((i, j), (zero, 0)))
    return FamilyInstance("free_monogenic_act", (("w", w),), monoid, act, marked, tuple(facts))


def _build_clifford_tower(n: int) -> FamilyInstance:
    monoid = _clifford_tower_monoid(n)
    # element order of the tower: component a = 0..n-1, then k in Z_{2^(a+1)}
    pairs = [(a, k) for a in range(n) for k in range(2 ** (a + 1))]
    rho = partition_from_assignment((k * 2 ** (n - 1 - a)) % 2 ** n for (a, k) in pairs)
    blocks = rho.blocks()
    reg = regular_act(monoid)
    cong = verify_congruence(reg, rho)
    act, proj = quotient(reg, cong)
    e1_class = proj.map[0]
    rest = tuple(x for x in act.carrier() if x != e1_class)
    marked = {"e1": e1_class}
    for idx, (a, k) in enumerate(pairs):
        if a == n - 1:
            marked[f"gn^{k}"] = proj.map[idx]
    facts: tuple[Fact, ...] = (
        CongruenceWitness("tower-value-relation", blocks, (), on_regular_act=True),
        NoSeparationUpTo(e1_class, rest, n),
        StructuralCount("act_size", 2 ** n),
    )
    return FamilyInstance("clifford_tower", (("n", n),), monoid, act, marked, facts)


def _build_semilattice_act(n: int) -> FamilyInstance:
    monoid = monoid_from_table(
        [[max(i, j) for j in range(n)] for i in range(n)],
        0,
        [f"y{i}" for i in range(n)],
        name=f"Chain{n}",
    )
    zero = n
    table = []
    for k in range(n):
        table.append([k if j <= k else zero for j in range(n)])
    table.append([zero] * n)
    labels = [f"x{k}" for k in range(n)] + ["0"]
    act = act_from_table(monoid, table, labels, name=f"chainact{n}")
    marked = {lab: i for i, lab in enumerate(labels)}
    facts: list[Fact] = []
    for lo in range(n):
        for hi in range(lo + 1, n):
            facts.append(ForcingChain((lo, hi), (zero, hi)))
    return FamilyInstance("semilattice_act", (("n", n),), monoid, act, marked, tuple(facts))


def _build_star_semilattice(n: int) -> FamilyInstance:
    size = n + 2
    zero = n + 1
    # the semigroup {x1, .., xn, 0} with xi xi = xi and every other product 0
    table = [[i if i == j else n for j in range(n + 1)] for i in range(n + 1)]
    labels = ["1"] + [f"x{i}" for i in range(1, n + 1)] + ["0"]
    monoid = adjoin_identity(table, labels[1:], name=f"Star{n}")
    act = regular_act(monoid)
    marked = {lab: i for i, lab in enumerate(labels)}
    facts: list[Fact] = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            facts.append(ForcingChain((i, j), (i, zero)))
            facts.append(ForcingChain((i, j), (j, zero)))
    rest = tuple(x for x in range(size) if x != zero)
    facts.append(MinIndexFact(zero, rest, 2 if n == 1 else n + 2))
    return FamilyInstance("star_semilattice", (("n", n),), monoid, act, marked, tuple(facts))


# ---------------------------------------------------------------------------
# registry, build, verify


_BuilderEntry = tuple[Callable[..., FamilyInstance], dict[str, tuple[int, int]]]

FAMILIES: dict[str, _BuilderEntry] = {
    "bz_window": (_build_bz_window, {"w": (1, 40)}),
    "bz_quotient": (_build_bz_quotient, {"n": (1, 12)}),
    "kozhukhov": (_build_kozhukhov, {"n": (1, 10)}),
    "leftzero": (_build_leftzero, {"n": (1, 10)}),
    "squarefree": (_build_squarefree, {"n": (1, 6)}),
    "n_times_g": (_build_n_times_g, {"n": (2, 12), "g": (2, 3)}),
    "free_monogenic_act": (_build_free_monogenic_act, {"w": (1, 60)}),
    "clifford_tower": (_build_clifford_tower, {"n": (1, 3)}),
    "semilattice_act": (_build_semilattice_act, {"n": (1, 20)}),
    "star_semilattice": (_build_star_semilattice, {"n": (1, 10)}),
}


def build(name: str, params: Mapping[str, int]) -> FamilyInstance:
    if name not in FAMILIES:
        raise UnknownFamily(name)
    builder, ranges = FAMILIES[name]
    for key in params:
        if key not in ranges:
            raise ParamOutOfRange(name, key, params[key], "not a parameter of this family")
    kwargs = {}
    for key, (lo, hi) in ranges.items():
        if key not in params:
            raise ParamOutOfRange(name, key, None, f"[{lo}, {hi}] (missing)")
        value = params[key]
        if not lo <= value <= hi:
            raise ParamOutOfRange(name, key, value, f"[{lo}, {hi}]")
        kwargs[key] = value
    return builder(**kwargs)


def _verify_fact(instance: FamilyInstance, fact: Fact, cap: int) -> FactResult:
    act = instance.act
    if isinstance(fact, ForcingChain):
        merged = closure_partial(act, [fact.seed]).same(*fact.target)
        return FactResult(fact, merged, "merged" if merged else "split")
    if isinstance(fact, MinIndexFact):
        assert isinstance(act, FiniteAct)
        actual = minimal_separating_index(act, fact.element, fact.forbidden, cap=cap)
        return FactResult(fact, actual == fact.value, str(actual))
    if isinstance(fact, CongruenceWitness):
        target = regular_act(instance.monoid) if fact.on_regular_act else act
        partition = partition_from_blocks(target.size, fact.blocks)
        witness = is_closed_partition(target, partition)
        if witness is not None:
            return FactResult(fact, False, f"incompatible at {witness}")
        for element, forbidden in fact.separates:
            for x in forbidden:
                if partition.same(element, x):
                    return FactResult(fact, False, f"does not separate {element} from {x}")
        return FactResult(fact, True, "compatible")
    if isinstance(fact, NoSeparationUpTo):
        assert isinstance(act, FiniteAct)
        cert = separate(act, fact.element, fact.forbidden, max_index=fact.bound, cap=cap)
        return FactResult(fact, cert is None, "none" if cert is None else str(cert.quotient_size))
    if isinstance(fact, StructuralCount):
        if fact.quantity == "monoid_order":
            actual = instance.monoid.order
        elif fact.quantity == "act_size":
            actual = instance.act.size
        elif fact.quantity == "squarefree_words":
            actual = instance.monoid.order - 2
        else:
            return FactResult(fact, False, f"unknown quantity {fact.quantity!r}")
        return FactResult(fact, actual == fact.value, str(actual))
    raise TypeError(f"unknown fact type {type(fact).__name__}")


def verify(instance: FamilyInstance, cap: int = DEFAULT_SEARCH_CAP) -> FamilyReport:
    results = tuple(_verify_fact(instance, fact, cap) for fact in instance.expected)
    return FamilyReport(instance, results)


# ---------------------------------------------------------------------------
# report formatting (shared by the CLI and the golden files)


def _fact_line(instance: FamilyInstance, result: FactResult) -> str:
    act = instance.act
    fact = result.fact
    status = "pass" if result.passed else "fail"
    if isinstance(fact, ForcingChain):
        return (
            f"fact ForcingChain seed={act.label(fact.seed[0])}|{act.label(fact.seed[1])} "
            f"target={act.label(fact.target[0])}|{act.label(fact.target[1])} status={status}"
        )
    if isinstance(fact, MinIndexFact):
        forb = "|".join(act.label(x) for x in fact.forbidden)
        return (
            f"fact MinIndex element={act.label(fact.element)} forbidden={forb} "
            f"expected={fact.value} actual={result.actual} status={status}"
        )
    if isinstance(fact, CongruenceWitness):
        scope = "regular" if fact.on_regular_act else "act"
        return (
            f"fact WitnessCongruence name={fact.description} on={scope} "
            f"blocks={len(fact.blocks)} separations={len(fact.separates)} status={status}"
        )
    if isinstance(fact, NoSeparationUpTo):
        return (
            f"fact NoSeparationUpTo element={act.label(fact.element)} bound={fact.bound} "
            f"result={result.actual} status={status}"
        )
    if isinstance(fact, StructuralCount):
        return (
            f"fact StructuralCount quantity={fact.quantity} expected={fact.value} "
            f"actual={result.actual} status={status}"
        )
    raise TypeError(type(fact).__name__)


def format_report(report: FamilyReport) -> list[str]:
    lines = [f"family {report.instance.name}"]
    for key, value in report.instance.params:
        lines.append(f"param {key}={value}")
    for result in report.results:
        lines.append(_fact_line(report.instance, result))
    lines.append(f"result {'pass' if report.passed else 'fail'}")
    return lines
