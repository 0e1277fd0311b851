"""Finite and partial right acts over a finite monoid.

An act table has one row per carrier element and one column per monoid
element; entry (a, m) is the index of a*m.  Partial acts use None for
undefined entries and only constrain triples whose entries are all defined,
which is what makes windowed truncations of infinite acts sound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    AssociativityViolation,
    ComplementNotIdeal,
    EmptyGeneratorSet,
    IdentityLawViolation,
    InvalidSpec,
    MalformedTable,
    MonoidMismatch,
    NotARetraction,
    NotASubact,
    SearchSpaceTooLarge,
)
from .monoids import FiniteMonoid, _check_labels, _check_rows, _distinct_unions
from .partitions import (
    Partition,
    _normal_partition,
    _representatives,
    normalize_block_ids,
    partition_from_assignment,
)

DEFAULT_SUBACT_CAP = 1 << 16


@dataclass(frozen=True)
class _Act:
    """The fields and carrier queries shared by total and partial acts."""

    monoid: FiniteMonoid
    table: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] | None = None
    name: str = "A"

    @property
    def size(self) -> int:
        return len(self.table)

    def label(self, a: int) -> str:
        return self.labels[a] if self.labels is not None else str(a)

    def carrier(self) -> range:
        return range(self.size)


@dataclass(frozen=True)
class FiniteAct(_Act):
    def act(self, a: int, m: int) -> int:
        return self.table[a][m]

    def orbit(self, a: int) -> frozenset[int]:
        """The cyclic subact <a> = aM (contains a)."""
        return frozenset(self.table[a])

    @cached_property
    def zeros(self) -> tuple[int, ...]:
        return tuple(a for a in self.carrier() if all(v == a for v in self.table[a]))

    _total = True  # no undefined entry; see closure_partial


@dataclass(frozen=True)
class PartialAct(_Act):
    table: tuple[tuple[int | None, ...], ...]
    name: str = "P"

    @cached_property
    def _total(self) -> bool:
        """No entry is undefined.  Cached per act, since a forcing argument
        closes many seed sets over one act (see closure_partial)."""
        return not any(None in row for row in self.table)


@dataclass(frozen=True)
class ActHomomorphism:
    source: FiniteAct
    target: FiniteAct
    map: tuple[int, ...]


def _validated(
    monoid: FiniteMonoid,
    table: Sequence[Sequence[int | None]],
    labels: Sequence[str] | None,
    partial: bool,
) -> tuple[tuple[tuple[int | None, ...], ...], tuple[str, ...] | None]:
    """The rows and labels of a valid act table, in the order of checks:
    shape and range (None allowed only when partial), a*1 = a whenever
    defined, a*(mk) = (a*m)*k whenever all three entries are defined (else
    AssociativityViolation at the first such (a, m, k)), then the labels.

    A table with no undefined entry is checked over generator columns k
    only: the k that satisfy the equation for all a and m contain the
    identity (by the identity law) and are closed under products
    (a*(m(kl)) = a*((mk)l) = (a*(mk))*l = ((a*m)*k)*l = (a*m)*(kl)), and
    every element is a product of generators.  Otherwise every column k is
    checked, since that argument composes entries and an undefined one
    breaks the chain."""
    size = len(table)
    _check_rows(table, monoid.order, size, partial)
    e = monoid.identity
    for a, row in enumerate(table):
        if row[e] != a and row[e] is not None:
            raise IdentityLawViolation(a)
    total = not partial or not any(None in row for row in table)
    columns = monoid.generators if total else monoid.elements()
    mt = monoid.table
    for a, row in enumerate(table):
        for m, x in enumerate(row):
            if x is None:
                continue
            xrow = table[x]
            prods = mt[m]
            for k in columns:
                y = xrow[k]
                z = row[prods[k]]
                if y != z and y is not None and z is not None:
                    raise AssociativityViolation(a, m, k)
    return tuple(tuple(r) for r in table), _check_labels(labels, size)


def act_from_table(
    monoid: FiniteMonoid,
    table: Sequence[Sequence[int]],
    labels: Sequence[str] | None = None,
    name: str = "A",
) -> FiniteAct:
    """Validate both act axioms, a*1 = a and a*(mk) = (a*m)*k, the latter
    over the monoid's generator columns k (see _validated)."""
    return FiniteAct(monoid, *_validated(monoid, table, labels, False), name)  # type: ignore[arg-type]


def partial_act_from_table(
    monoid: FiniteMonoid,
    table: Sequence[Sequence[int | None]],
    labels: Sequence[str] | None = None,
    name: str = "P",
) -> PartialAct:
    """Validate a partial act: defined entries in range, a*1 = a whenever
    defined, and a*(mk) = (a*m)*k whenever all three entries are defined;
    over generator columns k when no entry is undefined and over every
    column otherwise (see _validated)."""
    return PartialAct(monoid, *_validated(monoid, table, labels, True), name)


def act_homomorphism(source: FiniteAct, target: FiniteAct, mapping: Sequence[int]) -> ActHomomorphism:
    if source.monoid.table != target.monoid.table:
        raise MonoidMismatch("homomorphism endpoints live over different monoids")
    if len(mapping) != source.size:
        raise MalformedTable("homomorphism map has wrong length")
    for v in mapping:
        if not 0 <= v < target.size:
            raise MalformedTable(f"homomorphism image {v} out of range")
    for a in source.carrier():
        for m in source.monoid.elements():
            if mapping[source.table[a][m]] != target.table[mapping[a]][m]:
                raise InvalidSpec(f"not equivariant at (a={a}, m={m})")
    return ActHomomorphism(source, target, tuple(mapping))


def regular_act(monoid: FiniteMonoid, name: str | None = None) -> FiniteAct:
    """The monoid acting on itself by right multiplication."""
    return FiniteAct(monoid, monoid.table, monoid.labels, name or monoid.name)


def is_faithful(act: FiniteAct) -> bool:
    cols = {tuple(act.table[a][m] for a in act.carrier()) for m in act.monoid.elements()}
    return len(cols) == act.monoid.order


# ---------------------------------------------------------------------------
# subacts


def _require_in_carrier(act: FiniteAct, elements: set[int], what: str) -> None:
    """Raise InvalidSpec naming the least or the greatest of the non-empty
    elements when it lies outside the carrier."""
    for x in (min(elements), max(elements)):
        if not 0 <= x < act.size:
            raise InvalidSpec(f"{what} {x} out of carrier range")


def subact_violation(act: FiniteAct, subset: Iterable[int]) -> tuple[int, int, int] | None:
    """None if subset is a subact, else a witness (b, m, image outside).
    An empty subset, or one with a member outside the carrier, raises
    InvalidSpec."""
    sub = set(subset)
    if not sub:
        raise InvalidSpec("a subact must be non-empty")
    _require_in_carrier(act, sub, "subset element")
    for b in sorted(sub):
        for m in act.monoid.elements():
            img = act.table[b][m]
            if img not in sub:
                return (b, m, img)
    return None


def require_subact(act: FiniteAct, subset: Iterable[int]) -> frozenset[int]:
    sub = frozenset(subset)
    witness = subact_violation(act, sub)
    if witness is not None:
        raise NotASubact(*witness)
    return sub


def subact_generated(act: FiniteAct, generators: Iterable[int]) -> frozenset[int]:
    """<U> = UM, the least subact containing U; one closure step suffices
    because (um)n = u(mn)."""
    gens = set(generators)
    if not gens:
        raise EmptyGeneratorSet("generating set must be non-empty")
    _require_in_carrier(act, gens, "generator")
    out: set[int] = set()
    for u in gens:
        out.update(act.table[u])
    return frozenset(out)


def cyclic_subacts(act: FiniteAct) -> tuple[frozenset[int], ...]:
    """Distinct orbits <x>, ordered by least generator."""
    seen: dict[frozenset[int], int] = {}
    for x in act.carrier():
        orb = act.orbit(x)
        if orb not in seen:
            seen[orb] = x
    return tuple(sorted(seen, key=lambda o: seen[o]))


def subacts(act: FiniteAct, cap: int = DEFAULT_SUBACT_CAP) -> tuple[frozenset[int], ...]:
    """All subacts, as unions of the distinct cyclic subacts, sorted by
    (size, members)."""
    orbits = cyclic_subacts(act)
    if 1 << len(orbits) > cap:
        raise SearchSpaceTooLarge(1 << len(orbits), cap)
    return tuple(frozenset(s) for s in _distinct_unions(orbits))


def subact_as_act(act: FiniteAct, subset: Iterable[int], name: str = "B") -> tuple[FiniteAct, tuple[int, ...]]:
    """Re-index a subact as an act of its own; returns (act, embedding)."""
    sub = require_subact(act, subset)
    elems = tuple(sorted(sub))
    pos = {a: i for i, a in enumerate(elems)}
    table = [[pos[act.table[a][m]] for m in act.monoid.elements()] for a in elems]
    labels = tuple(act.label(a) for a in elems) if act.labels else None
    return FiniteAct(act.monoid, tuple(tuple(r) for r in table), labels, name), elems


# ---------------------------------------------------------------------------
# preorder, Green's relation, decomposition


def preorder_and_green(act: FiniteAct) -> tuple[tuple[tuple[bool, ...], ...], tuple[tuple[int, ...], ...]]:
    """(leq, R-classes): a <= b iff <a> is contained in <b>, i.e. a in bM;
    the R-classes are the symmetrization, listed by least member."""
    orbits = [act.orbit(a) for a in act.carrier()]
    leq = tuple(
        tuple(a in orbits[b] for b in act.carrier()) for a in act.carrier()
    )
    return leq, partition_from_assignment(orbits).blocks()


def decompose(act: FiniteAct) -> tuple[tuple[int, ...], ...]:
    """The unique partition into indecomposable subacts: connected components
    of the undirected graph with edges {a, a*m}.  The components are subacts,
    so they are the classes of the least congruence containing those edges."""
    edges = [(a, v) for a in act.carrier() for v in act.table[a]]
    return closure_partial(act, edges).blocks()


# ---------------------------------------------------------------------------
# quotients, unions, coset acts


def rees_quotient(act: FiniteAct, subset: Iterable[int]) -> tuple[FiniteAct, ActHomomorphism]:
    """Collapse the subact B to a fresh zero 0_B appended at the end of the
    carrier; also returns the projection homomorphism."""
    sub = require_subact(act, subset)
    keep = [a for a in act.carrier() if a not in sub]
    zero = len(keep)
    proj = [0] * act.size
    for i, a in enumerate(keep):
        proj[a] = i
    for b in sub:
        proj[b] = zero
    table = [[proj[act.table[a][m]] for m in act.monoid.elements()] for a in keep]
    table.append([zero] * act.monoid.order)
    labels = None
    if act.labels:
        labels = tuple(act.label(a) for a in keep) + ("0_B",)
    quot = FiniteAct(act.monoid, tuple(tuple(r) for r in table), labels, f"{act.name}/B")
    return quot, ActHomomorphism(act, quot, tuple(proj))


def disjoint_union(parts: Sequence[FiniteAct], name: str = "U") -> tuple[FiniteAct, tuple[ActHomomorphism, ...]]:
    if not parts:
        raise InvalidSpec("disjoint union needs at least one part")
    monoid = parts[0].monoid
    for p in parts[1:]:
        if p.monoid.table != monoid.table:
            raise MonoidMismatch("parts act over different monoids")
    offsets = []
    total = 0
    for p in parts:
        offsets.append(total)
        total += p.size
    table: list[tuple[int, ...]] = []
    labels: list[str] = []
    for idx, p in enumerate(parts):
        off = offsets[idx]
        for a in p.carrier():
            table.append(tuple(v + off for v in p.table[a]))
            lab = p.label(a)
            labels.append(lab if len(parts) == 1 else f"{idx}:{lab}")
    union = FiniteAct(monoid, tuple(table), tuple(labels), name)
    injections = tuple(
        ActHomomorphism(p, union, tuple(a + offsets[i] for a in p.carrier()))
        for i, p in enumerate(parts)
    )
    return union, injections


def coset_act(group: FiniteMonoid, subgroup: Iterable[int], name: str = "G/H") -> FiniteAct:
    """The act of a group on the right cosets of a subgroup, with labels H*g."""
    if not group.is_group:
        raise InvalidSpec("coset acts need a group")
    sub = sorted(set(subgroup))
    pos = set(sub)
    if group.identity not in pos:
        raise InvalidSpec("subgroup must contain the identity")
    for a in sub:
        if group.inverse(a) not in pos or any(group.table[a][b] not in pos for b in sub):
            raise InvalidSpec("subset is not a subgroup")
    coset_of = normalize_block_ids(
        frozenset(group.table[h][g] for h in sub) for g in group.elements()
    )
    reps = _representatives(coset_of)
    table = [[coset_of[x] for x in group.table[r]] for r in reps]
    labels = [f"H*{group.label(r)}" for r in reps]
    return act_from_table(group, table, labels, name=name)


# ---------------------------------------------------------------------------
# transports along submonoids and retractions


def _check_embedding(sub: FiniteMonoid, sup: FiniteMonoid, embedding: Sequence[int]) -> None:
    if len(embedding) != sub.order or len(set(embedding)) != sub.order:
        raise InvalidSpec("embedding must be injective and total on the submonoid")
    for v in embedding:
        if not 0 <= v < sup.order:
            raise InvalidSpec(f"embedding image {v} out of range")
    if embedding[sub.identity] != sup.identity:
        raise InvalidSpec("embedding must send identity to identity")
    for a in sub.elements():
        for b in sub.elements():
            if sup.table[embedding[a]][embedding[b]] != embedding[sub.table[a][b]]:
                raise InvalidSpec(f"embedding not a homomorphism at ({a}, {b})")


def transport_along_ideal_complement(
    act: FiniteAct,
    monoid: FiniteMonoid,
    embedding: Sequence[int],
    name: str | None = None,
) -> FiniteAct:
    """Extend an N-act to an M-act on A plus a fresh zero: a*m stays inside A
    when m comes from N, everything else lands on the zero.  Requires the
    complement of N's image to be a two-sided ideal of M."""
    sub = act.monoid
    _check_embedding(sub, monoid, embedding)
    image = set(embedding)
    preim = {embedding[n]: n for n in sub.elements()}
    for x in monoid.elements():
        if x in image:
            continue
        for m in monoid.elements():
            if monoid.table[x][m] in image:
                raise ComplementNotIdeal(x, m, monoid.table[x][m])
            if monoid.table[m][x] in image:
                raise ComplementNotIdeal(m, x, monoid.table[m][x])
    zero = act.size
    table = []
    for a in act.carrier():
        table.append(
            tuple(
                act.table[a][preim[m]] if m in preim else zero
                for m in monoid.elements()
            )
        )
    table.append(tuple(zero for _ in monoid.elements()))
    labels = None
    if act.labels:
        labels = tuple(act.labels) + ("0",)
    return act_from_table(monoid, table, labels, name=name or f"{act.name}+0")


def transport_along_retraction(
    act: FiniteAct,
    monoid: FiniteMonoid,
    embedding: Sequence[int],
    retraction: Sequence[int],
    name: str | None = None,
) -> FiniteAct:
    """Pull an N-act back along a retraction phi: M -> N (x*m = x*(m phi)).
    `retraction[m]` is an N-index; it must be a homomorphism fixing N."""
    sub = act.monoid
    _check_embedding(sub, monoid, embedding)
    if len(retraction) != monoid.order:
        raise NotARetraction("retraction must be total on the big monoid")
    for v in retraction:
        if not 0 <= v < sub.order:
            raise NotARetraction(f"retraction image {v} is not a submonoid element")
    for m in monoid.elements():
        for n in monoid.elements():
            if retraction[monoid.table[m][n]] != sub.table[retraction[m]][retraction[n]]:
                raise NotARetraction(f"not a homomorphism at ({m}, {n})")
    for n in sub.elements():
        if retraction[embedding[n]] != n:
            raise NotARetraction(f"does not fix submonoid element {n}")
    table = [
        tuple(act.table[a][retraction[m]] for m in monoid.elements())
        for a in act.carrier()
    ]
    return act_from_table(monoid, table, act.labels, name=name or act.name)


# ---------------------------------------------------------------------------
# closure and compatibility, on total and partial tables alike


def closure_partial(partial: PartialAct | FiniteAct, seeds: Iterable[tuple[int, int]]) -> Partition:
    """Least equivalence containing the seeds and closed under every defined
    action entry: x ~ y forces x*m ~ y*m whenever both are defined.  On a
    total act (no undefined entries) this is the least congruence containing
    the seeds.

    On a total act that congruence is the equivalence generated by the pairs
    (x*m, y*m) for every seed (x, y) and every m (Kilp, Knauer and Mikhalev,
    Monoids, Acts and Categories, I.4), so each seed is taken once, in one
    pass: m = 1 gives the seed itself; the pairs are closed under the
    action, since (x*m)*k = x*(mk); and a seed whose ends are already joined
    adds nothing, because its joining chain, multiplied by m, consists of
    pairs already joined.  Each other seed joins at least two classes, so
    the cost is at most |S| + (n - 1)|M| union steps for |S| seeds on n
    elements.

    A table with an undefined entry keeps a cascade over every column, since
    that argument composes entries and an undefined one breaks the chain:
    union-find where each class root keeps one defined image per column (its
    own row until the first merge copies it), and merging two roots pushes
    every column where both images are defined and differ, so the fixed
    point is independent of processing order.

    Both branches link the larger root under the smaller and find only
    shortens paths, so parent[x] <= x throughout, each root is the least
    member of its class, and one ascending pass over parent gives the block
    ids in first-occurrence order.
    """
    size = partial.size
    parent = list(range(size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    table = partial.table
    pairs = list(seeds)
    for a, b in pairs:
        if not (0 <= a < size and 0 <= b < size):
            raise InvalidSpec(f"seed ({a}, {b}) out of range")
    if partial._total:
        for a, b in pairs:
            if find(a) == find(b):
                continue
            for u, v in zip(table[a], table[b]):
                if u != v:
                    u, v = find(u), find(v)
                    if u < v:
                        parent[v] = u
                    elif v < u:
                        parent[u] = v
    else:
        images: list[list[int | None] | None] = [None] * size
        while pairs:
            a, b = pairs.pop()
            ra, rb = find(a), find(b)
            if ra == rb:
                continue
            if ra > rb:
                ra, rb = rb, ra
            parent[rb] = ra
            kept = images[ra]
            if kept is None:
                kept = images[ra] = list(table[ra])
            merged = images[rb]
            for m, v in enumerate(table[rb] if merged is None else merged):
                if v is not None:
                    u = kept[m]
                    if u is None:
                        kept[m] = v
                    elif u != v:
                        pairs.append((u, v))
    block_of = [0] * size
    index = 0
    for x, p in enumerate(parent):
        if p == x:
            block_of[x] = index
            index += 1
        else:
            block_of[x] = block_of[p]
    return _normal_partition(tuple(block_of))


def _split_images(
    table: Sequence[Sequence[int | None]],
    partition: Partition,
    columns: Sequence[int] | None = None,
) -> tuple[int, int, int] | None:
    """The compatibility check behind compatibility_violation,
    is_closed_partition and two_sided_violation: None if, in every column m
    (every one of `columns` when given), the defined images x*m of each
    block lie in one block; else a witness (a, b, m) with a ~ b, both images
    defined and split.

    Each block keeps one defined image per column and the member it came
    from, as closure_partial does, so a is the first member with an image in
    column m and b the first member whose image lies in another block.
    Linear in the size of the table."""
    block_of = partition.block_of
    if columns is None:
        columns = range(len(table[0]))
    for block in partition.blocks():
        if len(block) < 2:
            continue
        kept = list(table[block[0]])
        owner = [block[0]] * len(kept)
        for x in block[1:]:
            row = table[x]
            for m in columns:
                v = row[m]
                if v is not None:
                    u = kept[m]
                    if u is None:
                        kept[m] = v
                        owner[m] = x
                    elif block_of[u] != block_of[v]:
                        return (owner[m], x, m)
    return None


def is_closed_partition(partial: PartialAct | FiniteAct, partition: Partition) -> tuple[int, int, int] | None:
    """None if the partition is compatible with every defined entry, else a
    witness (a, b, m) where a ~ b but the defined images split."""
    if partition.size != partial.size:
        raise InvalidSpec("partition size does not match the carrier")
    return _split_images(partial.table, partition)
