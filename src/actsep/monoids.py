"""Finite monoids: validated multiplication tables and the constructions used
throughout the package (transformation closures, Rees matrix monoids, strong
semilattices of groups), plus structural queries and a small-order
isomorphism oracle.

Conventions: elements are indices into the table; constructed monoids index
elements in construction order with the identity first; labels carry the
semantic names and must contain no whitespace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import (
    BadIdentity,
    ClosureTooLarge,
    InternalInvariantViolation,
    InvalidSpec,
    LinkCoherenceViolation,
    LinkNotHomomorphism,
    MalformedTable,
    NotAssociative,
    NotNormalSubgroup,
    RightIdealEnumerationTooLarge,
)
from .partitions import normalize_block_ids, partition_from_assignment

DEFAULT_CLOSURE_CAP = 10_000
DEFAULT_IDEAL_CAP = 1 << 20


@dataclass(frozen=True)
class FiniteMonoid:
    """A monoid given by its full multiplication table.

    `table[i][j]` is the index of the product m_i * m_j.  Instances are
    immutable; derived structure (idempotents, Green's R data) is cached.
    """

    table: tuple[tuple[int, ...], ...]
    identity: int
    labels: tuple[str, ...] | None = None
    name: str = "M"

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels is not None else str(i)

    def elements(self) -> range:
        return range(self.order)

    @cached_property
    def idempotents(self) -> tuple[int, ...]:
        return tuple(x for x in self.elements() if self.table[x][x] == x)

    @cached_property
    def is_commutative(self) -> bool:
        t = self.table
        n = self.order
        return all(t[i][j] == t[j][i] for i in range(n) for j in range(i + 1, n))

    @cached_property
    def is_group(self) -> bool:
        """Every element has a two-sided inverse (checked exhaustively)."""
        e = self.identity
        t = self.table
        for x in self.elements():
            if not any(t[x][y] == e and t[y][x] == e for y in self.elements()):
                return False
        return True

    def inverse(self, x: int) -> int:
        e = self.identity
        for y in self.elements():
            if self.table[x][y] == e and self.table[y][x] == e:
                return y
        raise InvalidSpec(f"element {x} has no two-sided inverse")

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """A generating set, greedy in element order (see _generators);
        monoid_from_table computes it once and stores it here."""
        return _generators(self.table, self.identity)

    @cached_property
    def left_table(self) -> tuple[tuple[int, ...], ...]:
        """The transposed table: `left_table[a][m]` is m * a, so row a lists
        the images of a under left multiplication."""
        return tuple(zip(*self.table))

    def principal_right_ideal(self, m: int) -> frozenset[int]:
        """mM; contains m because the monoid has an identity."""
        return frozenset(self.table[m])

    @cached_property
    def r_classes(self) -> tuple[tuple[int, ...], ...]:
        """Green's R-classes: m R n iff mM = nM, in order of least member."""
        ideals = map(self.principal_right_ideal, self.elements())
        return partition_from_assignment(ideals).blocks()

    @cached_property
    def h_classes(self) -> tuple[tuple[int, ...], ...]:
        right = map(self.principal_right_ideal, self.elements())
        left = map(frozenset, self.left_table)
        return partition_from_assignment(zip(right, left)).blocks()

    def power(self, x: int, k: int) -> int:
        acc = self.identity
        for _ in range(k):
            acc = self.table[acc][x]
        return acc


def _check_rows(table: Sequence[Sequence[int | None]], width: int, bound: int, partial: bool = False) -> None:
    """The shape check shared by monoid and act tables: raise MalformedTable
    unless the table has a row, every row has `width` entries, and each entry
    is an int in [0, bound), or None when the table is partial."""
    if not table:
        raise MalformedTable("empty table")
    for row in table:
        if len(row) != width:
            raise MalformedTable(f"row of length {len(row)}, expected {width}")
        for v in row:
            if not isinstance(v, int) or not 0 <= v < bound:
                if v is None and partial:
                    continue
                raise MalformedTable(f"entry {v!r} out of range [0, {bound})")


def _check_labels(labels: Sequence[str] | None, size: int) -> tuple[str, ...] | None:
    """The labels as a tuple: one per element, each a non-empty string free
    of whitespace, else MalformedTable."""
    if labels is None:
        return None
    if len(labels) != size:
        raise MalformedTable(f"{len(labels)} labels for {size} elements")
    for lab in labels:
        if not isinstance(lab, str):
            raise MalformedTable(f"label {lab!r} is not a string")
        if not lab or any(c.isspace() for c in lab):
            raise MalformedTable(f"label {lab!r} empty or contains whitespace")
    return tuple(labels)


def _generators(table: Sequence[Sequence[int]], identity: int) -> tuple[int, ...]:
    """Greedy in element order: m joins when the right closure of the
    identity under the earlier generators misses it.  The reached set grows
    incrementally: a new generator g sends every reached x to x*g, and each
    newly reached element is pushed through every generator once, so the
    whole run costs O(order * generators).

    On an associative table the right closure is the submonoid the earlier
    generators generate.  monoid_from_table calls this before associativity
    is known; Light's test there needs only that every element is a
    left-bracketed product of generators, which the closure gives."""
    reached = [False] * len(table)
    reached[identity] = True
    found = [identity]
    gens: list[int] = []
    for m in range(len(table)):
        if reached[m]:
            continue
        gens.append(m)
        pending = [table[x][m] for x in found]
        while pending:
            y = pending.pop()
            if not reached[y]:
                reached[y] = True
                found.append(y)
                pending.extend(table[y][g] for g in gens)
    return tuple(gens)


def _check_associative(table: Sequence[Sequence[int]], middles: Sequence[int]) -> None:
    """Light's test: raise NotAssociative at the first (i, g, k) with
    (i*g)*k != i*(g*k), for g among the given middle elements."""
    n = len(table)
    for i in range(n):
        ti = table[i]
        for g in middles:
            tig = table[ti[g]]
            tg = table[g]
            for k in range(n):
                if tig[k] != ti[tg[k]]:
                    raise NotAssociative(i, g, k)


def monoid_from_table(
    table: Sequence[Sequence[int]],
    identity: int,
    labels: Sequence[str] | None = None,
    name: str = "M",
) -> FiniteMonoid:
    """Validate a multiplication table and wrap it: square, identity law,
    associativity, then labels.

    Associativity is Light's test over the generating set G of
    FiniteMonoid.generators: (i*g)*k = i*(g*k) for every i, k and g in G.
    The middle elements that pass are closed under products (if a and b
    pass, (x*(ab))*y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y)) and
    contain the identity, and every element is a product of generators, so
    all of them pass.  G is computed once and kept on the monoid.

    Raises MalformedTable, BadIdentity or NotAssociative with the witness.
    """
    n = len(table)
    _check_rows(table, n, n)
    if not 0 <= identity < n:
        raise BadIdentity(identity)
    for i in range(n):
        if table[identity][i] != i or table[i][identity] != i:
            raise BadIdentity(i)
    gens = _generators(table, identity)
    _check_associative(table, gens)
    monoid = FiniteMonoid(tuple(tuple(row) for row in table), identity, _check_labels(labels, n), name)
    vars(monoid)["generators"] = gens
    return monoid


# ---------------------------------------------------------------------------
# transformation closures


def transformation_closure(
    degree: int,
    generators: Iterable[Sequence[int]],
    cap: int = DEFAULT_CLOSURE_CAP,
    name: str = "T",
) -> FiniteMonoid:
    """Submonoid of the full transformation monoid generated by `generators`
    plus the identity map; element 0 is the identity map.

    Maps compose left to right (apply f, then g), matching right actions.
    """
    gens = [tuple(g) for g in generators]
    for g in gens:
        if len(g) != degree or any(not 0 <= v < degree for v in g):
            raise InvalidSpec(f"generator {g!r} is not a map on [0, {degree})")
    ident = tuple(range(degree))
    elements: list[tuple[int, ...]] = [ident]
    index: dict[tuple[int, ...], int] = {ident: 0}
    pos = 0
    while pos < len(elements):
        x = elements[pos]
        pos += 1
        for g in gens:
            y = tuple(g[v] for v in x)
            if y not in index:
                if len(elements) >= cap:
                    raise ClosureTooLarge(cap)
                index[y] = len(elements)
                elements.append(y)
    table = tuple(
        tuple(index[tuple(b[v] for v in a)] for b in elements) for a in elements
    )
    return monoid_from_table(table, 0, name=name)


# ---------------------------------------------------------------------------
# adjoining an identity


def adjoin_identity(
    semigroup_table: Sequence[Sequence[int]],
    labels: Sequence[str] | None = None,
    name: str = "S1",
) -> FiniteMonoid:
    """S^1: a fresh identity is adjoined unconditionally at index 0 and the
    original elements shift up by one.  S^1 is associative exactly when S
    is, so monoid_from_table checks S; a NotAssociative witness names S^1
    indices."""
    n = len(semigroup_table)
    _check_rows(semigroup_table, n, n)
    table = [[0] + [j + 1 for j in range(n)]]
    for i in range(n):
        table.append([i + 1] + [semigroup_table[i][j] + 1 for j in range(n)])
    new_labels = None
    if labels is not None:
        new_labels = ["1", *labels]
    return monoid_from_table(table, 0, new_labels, name=name)


# ---------------------------------------------------------------------------
# Rees matrix monoids


@dataclass(frozen=True)
class ReesMatrixSpec:
    """Data (G; I, J; P) of a Rees matrix semigroup; `sandwich[j][i]` = p_{ji}."""

    group: FiniteMonoid
    rows: int
    cols: int
    sandwich: tuple[tuple[int, ...], ...]


def validate_rees_spec(spec: ReesMatrixSpec) -> None:
    if not spec.group.is_group:
        raise InvalidSpec("Rees matrix structure group is not a group")
    if spec.rows < 1 or spec.cols < 1:
        raise InvalidSpec("index sets must be non-empty")
    if len(spec.sandwich) != spec.cols:
        raise InvalidSpec(f"sandwich must have {spec.cols} rows (one per column index j)")
    for row in spec.sandwich:
        if len(row) != spec.rows:
            raise InvalidSpec(f"sandwich row of length {len(row)}, expected {spec.rows}")
        for v in row:
            if not 0 <= v < spec.group.order:
                raise InvalidSpec(f"sandwich entry {v} is not a group element index")


def rees_element_index(spec: ReesMatrixSpec, i: int, g: int, j: int) -> int:
    """Index of the triple (i, g, j) in the monoid built by rees_matrix_monoid."""
    return 1 + (i * spec.group.order + g) * spec.cols + j


def rees_element_triple(spec: ReesMatrixSpec, idx: int) -> tuple[int, int, int]:
    q, j = divmod(idx - 1, spec.cols)
    i, g = divmod(q, spec.group.order)
    return i, g, j


def rees_matrix_monoid(spec: ReesMatrixSpec, name: str = "ReesM") -> FiniteMonoid:
    """S^1 for S = M(G; I, J; P) with product (i,g,j)(k,h,l) = (i, g p_{jk} h, l)."""
    validate_rees_spec(spec)
    G = spec.group
    order = 1 + spec.rows * G.order * spec.cols
    table = [[0] * order for _ in range(order)]
    table[0] = list(range(order))
    for a in range(1, order):
        table[a][0] = a
    for i in range(spec.rows):
        for g in range(G.order):
            for j in range(spec.cols):
                a = rees_element_index(spec, i, g, j)
                row = table[a]
                for k in range(spec.rows):
                    gp = G.table[g][spec.sandwich[j][k]]
                    for h in range(G.order):
                        gph = G.table[gp][h]
                        for l in range(spec.cols):
                            row[rees_element_index(spec, k, h, l)] = rees_element_index(
                                spec, i, gph, l
                            )
    labels = ["1"]
    for i in range(spec.rows):
        for g in range(G.order):
            for j in range(spec.cols):
                labels.append(f"({i},{G.label(g)},{j})")
    return monoid_from_table(table, 0, labels, name=name)


def normalize_sandwich(spec: ReesMatrixSpec, i0: int, j0: int) -> ReesMatrixSpec:
    """Force row j0 and column i0 of the sandwich matrix to the identity.

    Entry-wise: q_{ji} = p_{j,i0}^-1 * p_{ji} * p_{j0,i}^-1 * p_{j0,i0}, which
    yields an isomorphic Rees matrix semigroup (confirmed by the brute-force
    isomorphism search at small orders rather than trusted).
    """
    validate_rees_spec(spec)
    if not 0 <= i0 < spec.rows or not 0 <= j0 < spec.cols:
        raise InvalidSpec(f"anchors ({i0}, {j0}) out of range")
    G = spec.group
    p = spec.sandwich
    new = []
    for j in range(spec.cols):
        a = G.inverse(p[j][i0])
        row = []
        for i in range(spec.rows):
            v = G.table[G.table[G.table[a][p[j][i]]][G.inverse(p[j0][i])]][p[j0][i0]]
            row.append(v)
        new.append(tuple(row))
    return ReesMatrixSpec(G, spec.rows, spec.cols, tuple(new))


def is_normalized(spec: ReesMatrixSpec) -> bool:
    e = spec.group.identity
    has_col = any(
        all(spec.sandwich[j][i] == e for j in range(spec.cols)) for i in range(spec.rows)
    )
    has_row = any(
        all(spec.sandwich[j][i] == e for i in range(spec.rows)) for j in range(spec.cols)
    )
    return has_col and has_row


@dataclass(frozen=True)
class RankReport:
    r_i: int
    r_j: int
    rank: int
    classes_i: tuple[tuple[int, ...], ...]
    classes_j: tuple[tuple[int, ...], ...]


def _verify_normal_subgroup(group: FiniteMonoid, subset: frozenset[int]) -> None:
    if group.identity not in subset:
        raise NotNormalSubgroup("subset does not contain the identity")
    for a in subset:
        if not 0 <= a < group.order:
            raise NotNormalSubgroup(f"element {a} out of range")
        for b in subset:
            if group.table[a][b] not in subset:
                raise NotNormalSubgroup(f"not closed under product: {a}*{b}")
    for a in subset:
        if group.inverse(a) not in subset:
            raise NotNormalSubgroup(f"not closed under inverse: {a}")
    for g in group.elements():
        gi = group.inverse(g)
        for a in subset:
            if group.table[group.table[g][a]][gi] not in subset:
                raise NotNormalSubgroup(f"not normal: {g}*{a}*{g}^-1 escapes")


def sandwich_rank(
    spec: ReesMatrixSpec, normal_subgroup: Iterable[int] | None = None
) -> RankReport:
    """Index of ~_I and ~_J for P (or P/N when a normal subgroup is given);
    rank = max of the two indices.

    i ~_I k iff p_ji = p_jk g for one g and every j.  That g is forced to
    p_0k^-1 p_0i, so i ~_I k iff p_ji p_0i^-1 = p_jk p_0k^-1 for every j:
    the tuple (p_ji p_0i^-1)_j is a key of column i, and classes are key
    classes, found in O(rows * cols) products.  Dually (p_j0^-1 p_ji)_i is
    a key of row j.  Modulo N each key entry is read as its coset gN,
    which is the same key computed in G/N since N is normal."""
    validate_rees_spec(spec)
    G = spec.group
    t, p = G.table, spec.sandwich
    coset_of: Sequence[int] = G.elements()
    if normal_subgroup is not None:
        subset = frozenset(normal_subgroup)
        _verify_normal_subgroup(G, subset)
        coset_of = normalize_block_ids(frozenset(t[g][a] for a in subset) for g in G.elements())
    inv = [G.inverse(g) for g in G.elements()]
    keys_i = (
        tuple(coset_of[t[p[j][i]][inv[p[0][i]]]] for j in range(spec.cols))
        for i in range(spec.rows)
    )
    keys_j = (
        tuple(coset_of[t[inv[p[j][0]]][p[j][i]]] for i in range(spec.rows))
        for j in range(spec.cols)
    )
    classes_i = partition_from_assignment(keys_i).blocks()
    classes_j = partition_from_assignment(keys_j).blocks()
    r_i, r_j = len(classes_i), len(classes_j)
    return RankReport(r_i, r_j, max(r_i, r_j), classes_i, classes_j)


# ---------------------------------------------------------------------------
# strong semilattices of groups


@dataclass(frozen=True)
class StrongSemilatticeSpec:
    """A semilattice Y (commutative idempotent monoid), one group per element
    of Y, and linking homomorphisms for every comparable pair alpha >= beta
    (where alpha >= beta iff alpha*beta = beta in Y)."""

    semilattice: FiniteMonoid
    components: tuple[FiniteMonoid, ...]
    links: Mapping[tuple[int, int], tuple[int, ...]] = field(hash=False)


def _semilattice_ge(y: FiniteMonoid, a: int, b: int) -> bool:
    return y.table[a][b] == b


def validate_strong_semilattice_spec(spec: StrongSemilatticeSpec) -> None:
    y = spec.semilattice
    if not (y.is_commutative and len(y.idempotents) == y.order):
        raise InvalidSpec("structure semilattice must be commutative and idempotent")
    if len(spec.components) != y.order:
        raise InvalidSpec("one component group per semilattice element required")
    for g in spec.components:
        if not g.is_group:
            raise InvalidSpec("every component must be a group")
    for a in y.elements():
        for b in y.elements():
            if not _semilattice_ge(y, a, b):
                continue
            link = spec.links.get((a, b))
            src, dst = spec.components[a], spec.components[b]
            if link is None or len(link) != src.order:
                raise InvalidSpec(f"missing or malformed link for pair ({a}, {b})")
            if any(not 0 <= v < dst.order for v in link):
                raise InvalidSpec(f"link ({a}, {b}) hits indices outside the target group")
            for x in src.elements():
                for z in src.elements():
                    if link[src.table[x][z]] != dst.table[link[x]][link[z]]:
                        raise LinkNotHomomorphism(a, b)
            if a == b and any(link[x] != x for x in src.elements()):
                raise LinkCoherenceViolation(a, a, a)
    for a in y.elements():
        for b in y.elements():
            if not _semilattice_ge(y, a, b):
                continue
            for c in y.elements():
                if not _semilattice_ge(y, b, c):
                    continue
                ab, bc, ac = spec.links[(a, b)], spec.links[(b, c)], spec.links[(a, c)]
                for x in spec.components[a].elements():
                    if bc[ab[x]] != ac[x]:
                        raise LinkCoherenceViolation(a, b, c)


def strong_semilattice_monoid(spec: StrongSemilatticeSpec, name: str = "Sl") -> FiniteMonoid:
    """Monoid on the disjoint union of the component groups; x in G_a times
    y in G_b multiplies as link(a,ab)(x) * link(b,ab)(y) inside G_{ab}."""
    validate_strong_semilattice_spec(spec)
    y = spec.semilattice
    comps = spec.components
    top = y.identity
    pairs = [(top, comps[top].identity)]
    for a in y.elements():
        for g in comps[a].elements():
            if (a, g) != pairs[0]:
                pairs.append((a, g))
    index = {p: i for i, p in enumerate(pairs)}
    order = len(pairs)
    table = []
    for (a, g) in pairs:
        row = []
        for (b, h) in pairs:
            c = y.table[a][b]
            prod = comps[c].table[spec.links[(a, c)][g]][spec.links[(b, c)][h]]
            row.append(index[(c, prod)])
        table.append(row)
    comp_labels = [comps[a].label(g) for (a, g) in pairs]
    if any(c.labels is None for c in comps) or len(set(comp_labels)) != order:
        comp_labels = [f"{y.label(a)}:{comps[a].label(g)}" for (a, g) in pairs]
    out = monoid_from_table(table, 0, comp_labels, name=name)
    for e in out.idempotents:
        for x in out.elements():
            if out.table[e][x] != out.table[x][e]:
                raise InternalInvariantViolation(
                    f"idempotent {e} not central in strong semilattice output"
                )
    return out


# ---------------------------------------------------------------------------
# structural queries


@dataclass(frozen=True)
class StructureReport:
    idempotents: tuple[int, ...]
    commutative: bool
    group: bool
    r_classes: tuple[tuple[int, ...], ...]
    h_classes: tuple[tuple[int, ...], ...]
    principal_right_ideals: tuple[tuple[int, ...], ...]
    right_ideals: tuple[tuple[int, ...], ...]


def _distinct_unions(sets: Iterable[frozenset[int]]) -> list[tuple[int, ...]]:
    """The distinct non-empty unions of the given sets, each as its sorted
    members, sorted by (size, members).  Keeps only the distinct unions
    found so far, never one entry per subset of the given sets."""
    found: set[frozenset[int]] = set()
    for members in sets:
        found |= {members | union for union in found}
        found.add(members)
    out = [tuple(sorted(union)) for union in found]
    out.sort(key=lambda union: (len(union), union))
    return out


def right_ideals(monoid: FiniteMonoid, cap: int = DEFAULT_IDEAL_CAP) -> tuple[tuple[int, ...], ...]:
    """All right ideals, as unions of the distinct principal right ideals,
    sorted by (size, members)."""
    principals = set(map(monoid.principal_right_ideal, monoid.elements()))
    if 1 << len(principals) > cap:
        raise RightIdealEnumerationTooLarge(1 << len(principals), cap)
    return tuple(_distinct_unions(principals))


def structural_queries(monoid: FiniteMonoid, ideal_cap: int = DEFAULT_IDEAL_CAP) -> StructureReport:
    return StructureReport(
        idempotents=monoid.idempotents,
        commutative=monoid.is_commutative,
        group=monoid.is_group,
        r_classes=monoid.r_classes,
        h_classes=monoid.h_classes,
        principal_right_ideals=tuple(
            tuple(sorted(monoid.principal_right_ideal(m))) for m in monoid.elements()
        ),
        right_ideals=right_ideals(monoid, ideal_cap),
    )


def submonoid(monoid: FiniteMonoid, subset: Iterable[int], name: str = "N") -> tuple[FiniteMonoid, tuple[int, ...]]:
    """Re-index a subset closed under product and containing the identity as
    a monoid of its own; returns (monoid, embedding into the parent)."""
    elems = sorted(set(subset))
    pos = {m: i for i, m in enumerate(elems)}
    if monoid.identity not in pos:
        raise InvalidSpec("subset does not contain the identity")
    for a in elems:
        for b in elems:
            if monoid.table[a][b] not in pos:
                raise InvalidSpec(f"subset not closed under product: {a}*{b}")
    table = [[pos[monoid.table[a][b]] for b in elems] for a in elems]
    labels = tuple(monoid.label(m) for m in elems) if monoid.labels else None
    return monoid_from_table(table, pos[monoid.identity], labels, name=name), tuple(elems)


# ---------------------------------------------------------------------------
# brute-force isomorphism oracle (small orders)


def _element_colors(m: FiniteMonoid) -> tuple[int, ...]:
    n = m.order
    t = m.table
    counts = [0] * n
    for row in t:
        for v in row:
            counts[v] += 1

    def pow_data(x: int) -> tuple[int, int]:
        seen: dict[int, int] = {}
        cur = x
        step = 1
        while cur not in seen:
            seen[cur] = step
            cur = t[cur][x]
            step += 1
        return seen[cur], step - seen[cur]

    base = [
        (x == m.identity, t[x][x] == x, pow_data(x), counts[x]) for x in range(n)
    ]
    palette = {v: i for i, v in enumerate(sorted(set(base)))}
    col = [palette[v] for v in base]
    for _ in range(2):
        sig = [
            (col[x], tuple(sorted((col[y], col[t[x][y]], col[t[y][x]]) for y in range(n))))
            for x in range(n)
        ]
        palette = {v: i for i, v in enumerate(sorted(set(sig)))}
        col = [palette[v] for v in sig]
    return tuple(col)


def find_isomorphism(m1: FiniteMonoid, m2: FiniteMonoid) -> tuple[int, ...] | None:
    """Search for a monoid isomorphism m1 -> m2; None if there is none.

    Backtracking over images with forced-product propagation; intended for
    small orders (the normalization oracle runs it up to order 17).
    """
    n = m1.order
    if m2.order != n:
        return None
    c1, c2 = _element_colors(m1), _element_colors(m2)
    if sorted(c1) != sorted(c2):
        return None
    t1, t2 = m1.table, m2.table
    cand = [tuple(y for y in range(n) if c2[y] == c1[x]) for x in range(n)]
    phi = [-1] * n
    used = [False] * n
    order = sorted(range(n), key=lambda x: len(cand[x]))

    def assign(x: int, y: int, trail: list[int]) -> bool:
        if phi[x] != -1:
            return phi[x] == y
        if used[y] or c1[x] != c2[y]:
            return False
        phi[x] = y
        used[y] = True
        trail.append(x)
        for z in range(n):
            if phi[z] == -1:
                continue
            if not assign(t1[x][z], t2[y][phi[z]], trail):
                return False
            if not assign(t1[z][x], t2[phi[z]][y], trail):
                return False
        return True

    def undo(trail: list[int], mark: int) -> None:
        while len(trail) > mark:
            x = trail.pop()
            used[phi[x]] = False
            phi[x] = -1

    def search() -> bool:
        x = next((z for z in order if phi[z] == -1), None)
        if x is None:
            return True
        for y in cand[x]:
            if used[y]:
                continue
            mark = len(trail)
            if assign(x, y, trail) and search():
                return True
            undo(trail, mark)
        return False

    trail: list[int] = []
    try:
        if assign(m1.identity, m2.identity, trail) and search():
            return tuple(phi)
        return None
    finally:
        del assign, search  # each refers to itself through its closure cell


def are_isomorphic(m1: FiniteMonoid, m2: FiniteMonoid) -> bool:
    return find_isomorphism(m1, m2) is not None


# ---------------------------------------------------------------------------
# stock constructions used by the catalog and the families


def trivial_monoid(name: str = "1") -> FiniteMonoid:
    return monoid_from_table([[0]], 0, ["1"], name=name)


def cyclic_group(n: int, generator_label: str = "g", name: str | None = None) -> FiniteMonoid:
    if n < 1:
        raise InvalidSpec("cyclic group order must be positive")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    if n == 1:
        labels = ["e"]
    else:
        labels = ["e", generator_label] + [f"{generator_label}^{k}" for k in range(2, n)]
    return monoid_from_table(table, 0, labels, name=name or f"Z{n}")


def left_zero_adjoined(n: int, name: str | None = None) -> FiniteMonoid:
    """L^1 for the left zero semigroup on n elements (xy = x)."""
    sg = [[i for _ in range(n)] for i in range(n)]
    return adjoin_identity(sg, [f"x{i + 1}" for i in range(n)], name=name or f"LZ{n}^1")


def null_adjoined(n: int, name: str | None = None) -> FiniteMonoid:
    """S^1 for the null semigroup {s_1..s_n, z} (all products are z)."""
    size = n + 1
    sg = [[n for _ in range(size)] for _ in range(size)]
    labels = [f"s{i + 1}" for i in range(n)] + ["z"]
    return adjoin_identity(sg, labels, name=name or f"Null{n}^1")


def rectangular_band_adjoined(rows: int, cols: int, name: str | None = None) -> FiniteMonoid:
    """(I x J)^1 with (i,j)(k,l) = (i,l)."""
    size = rows * cols
    sg = [
        [(a // cols) * cols + (b % cols) for b in range(size)] for a in range(size)
    ]
    labels = [f"({i},{j})" for i in range(rows) for j in range(cols)]
    return adjoin_identity(sg, labels, name=name or f"RB{rows}x{cols}^1")
