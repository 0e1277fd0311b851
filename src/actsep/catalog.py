"""Built-in corpus: every monoid of order <= 4 up to isomorphism plus a few
named constructions, and an exhaustive enumeration of the acts over a monoid
with a given carrier size.

Small monoids are found by identity-fixed table backtracking (complete by
construction; the counts 1/2/7/35 are pinned in the tests) and wrapped by
monoid_from_table, whose Light's test checks each table once more.  Each
table is associative with identity 0, so by Cayley's theorem it is the
transformation monoid of its right regular representation m -> (x -> x*m),
in the same element order; the tests compare every table with that
transformation closure.

Acts are enumerated by a depth-first search over the unknown table entries
in row-major order.  Each value the search sets is propagated through the
act equation by a work queue that checks only the equation triples the new
entry wakes, never a rescan of the whole table; propagation only sets
forced values, so the tables come out in row-major lexicographic order, as
from the plain search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Iterator

from .monoids import (
    FiniteMonoid,
    ReesMatrixSpec,
    StrongSemilatticeSpec,
    cyclic_group,
    monoid_from_table,
    rectangular_band_adjoined,
    rees_matrix_monoid,
    strong_semilattice_monoid,
)
from .acts import FiniteAct


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    monoid: FiniteMonoid


def _slot_consistent(t: list[list[int]], n: int, i: int, j: int) -> bool:
    """Whether every associativity triple (a*b)*c = a*(b*c) whose four
    entries are defined, and which reads the slot (i, j) just set, holds.

    The triples that read it are (i*j)*c, (a*i)*j, the (a*b)*c with a*b = i
    and c = j, and the i*(b*c) with b*c = j.  Every other defined triple
    held before the slot was set and is unchanged, so this is the whole
    check, in O(n^2) per slot."""
    ij = t[i][j]
    row_i = t[i]
    row_j = t[j]
    row_ij = t[ij]
    for c in range(n):
        jc = row_j[c]
        left = row_ij[c]
        if jc >= 0 and left >= 0:
            right = row_i[jc]
            if right >= 0 and left != right:
                return False
    for a in range(n):
        row_a = t[a]
        right = row_a[ij]
        ai = row_a[i]
        if ai >= 0 and right >= 0:
            left = t[ai][j]
            if left >= 0 and left != right:
                return False
        for b in range(n):
            if row_a[b] == i:
                bj = t[b][j]
                if bj >= 0:
                    right = row_a[bj]
                    if right >= 0 and right != ij:
                        return False
    for b in range(n):
        ib = row_i[b]
        if ib < 0:
            continue
        row_b = t[b]
        row_ib = t[ib]
        for c in range(n):
            if row_b[c] == j:
                left = row_ib[c]
                if left >= 0 and left != ij:
                    return False
    return True


def _enumerate_monoid_tables(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All monoid tables of order n with the identity fixed at index 0."""
    t = [[-1] * n for _ in range(n)]
    for i in range(n):
        t[0][i] = i
        t[i][0] = i
    slots = [(i, j) for i in range(1, n) for j in range(1, n)]

    def rec(pos: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if pos == len(slots):
            yield tuple(tuple(row) for row in t)
            return
        i, j = slots[pos]
        for v in range(n):
            t[i][j] = v
            if _slot_consistent(t, n, i, j):
                yield from rec(pos + 1)
        t[i][j] = -1

    try:
        yield from rec(0)
    finally:
        del rec  # rec refers to itself through its closure cell


def _canonical_form(table: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Minimum relabeling under permutations fixing the identity (index 0)."""
    n = len(table)
    best = None
    for perm_rest in permutations(range(1, n)):
        perm = (0, *perm_rest)
        inv = [0] * n
        for x, y in enumerate(perm):
            inv[y] = x
        candidate = tuple(
            tuple(perm[table[inv[i]][inv[j]]] for j in range(n)) for i in range(n)
        )
        if best is None or candidate < best:
            best = candidate
    return best


@lru_cache(maxsize=None)
def monoid_tables_up_to_iso(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    seen: set[tuple[tuple[int, ...], ...]] = set()
    out = []
    for table in _enumerate_monoid_tables(n):
        canon = _canonical_form(table)
        if canon not in seen:
            seen.add(canon)
            out.append(canon)
    return tuple(sorted(out))


def _clifford_tower_monoid(n: int) -> FiniteMonoid:
    chain = monoid_from_table(
        [[max(i, j) for j in range(n)] for i in range(n)],
        0,
        [f"y{i + 1}" for i in range(n)],
        name="Ychain",
    )
    comps = []
    for i in range(n):
        order = 2 ** (i + 1)
        labels = [f"e{i + 1}"] + [
            f"g{i + 1}" if k == 1 else f"g{i + 1}^{k}" for k in range(1, order)
        ]
        comps.append(
            monoid_from_table(
                [[(a + b) % order for b in range(order)] for a in range(order)],
                0,
                labels,
                name=f"Z{order}",
            )
        )
    links = {}
    for i in range(n):
        for j in range(i, n):
            links[(i, j)] = tuple(
                (k * 2 ** (j - i)) % 2 ** (j + 1) for k in range(2 ** (i + 1))
            )
    spec = StrongSemilatticeSpec(chain, tuple(comps), links)
    return strong_semilattice_monoid(spec, name=f"Tower{n}")


def _bz_quotient_monoid(n: int) -> FiniteMonoid:
    """Order 2n+1 quotient with classes C_m, D_m and a zero."""
    zero = 2 * n
    table = [[0] * (2 * n + 1) for _ in range(2 * n + 1)]
    for a in range(n):
        for b in range(n):
            table[a][b] = (a + b) % n
            table[a][n + b] = n + (a + b) % n
            table[n + a][b] = n + (a + b) % n
            table[n + a][n + b] = zero
    for x in range(2 * n + 1):
        table[x][zero] = zero
        table[zero][x] = zero
    labels = [f"C{m}" for m in range(n)] + [f"D{m}" for m in range(n)] + ["0"]
    return monoid_from_table(table, 0, labels, name=f"BZq{n}")


@lru_cache(maxsize=None)
def named_monoids() -> tuple[CatalogEntry, ...]:
    z2 = cyclic_group(2)
    rees_spec = ReesMatrixSpec(z2, 2, 2, ((0, 0), (0, 1)))
    return (
        CatalogEntry("rectband2x2^1", rectangular_band_adjoined(2, 2)),
        CatalogEntry("reesZ2_2x2^1", rees_matrix_monoid(rees_spec, name="ReesZ2")),
        CatalogEntry("cliffordtower2", _clifford_tower_monoid(2)),
        CatalogEntry("bzquotient2", _bz_quotient_monoid(2)),
    )


@lru_cache(maxsize=None)
def catalog_monoids(max_order: int = 4) -> tuple[CatalogEntry, ...]:
    entries = []
    for n in range(1, max_order + 1):
        for idx, table in enumerate(monoid_tables_up_to_iso(n)):
            name = f"order{n}_{idx:02d}"
            entries.append(CatalogEntry(name, monoid_from_table(table, 0, name=name)))
    entries.extend(named_monoids())
    return tuple(entries)


def enumerate_acts(monoid: FiniteMonoid, size: int) -> Iterator[FiniteAct]:
    """All right actions of the monoid on a carrier of the given size,
    equivalently all its transformation representations on that set.

    Depth-first search over the unknown entries in row-major order, each
    tried with the values 0..size-1 in ascending order, so the tables come
    out in strictly increasing row-major lexicographic order.  A value set
    by the search is propagated through the act equation
    t[t[a][m]][k] = t[a][m*k] by a work queue, the trail of entries set so
    far.  When entry (a, j) becomes x, it wakes only the triples

    - (a, j, k) for every k: t[x][k] against t[a][j*k];
    - (a, m, k) for every m*k = j with t[a][m] defined: t[t[a][m]][k]
      against x (by_product[j] lists those (m, k));

    a triple with one side undefined sets it to the other side, which joins
    the queue, and one with two different sides is a conflict.  Whichever
    of t[a][m] and t[a][m*k] is set last wakes (a, m, k), so a drained
    queue leaves every triple with both defined satisfied, t[t[a][m]][k]
    included, and a complete table is an act; setting t[t[a][m]][k] itself
    need wake nothing.  Propagation only sets forced values, so it skips no
    act, and the yield order is that of the search without it.  The open
    choices live on an explicit stack, so every act is yielded from this
    one generator frame, not through one nested generator per choice.
    """
    n = monoid.order
    prod = monoid.table
    e = monoid.identity
    t: list[list[int]] = [[-1] * n for _ in range(size)]
    for a in range(size):
        t[a][e] = a
    # Triples with m = e or k = e hold for every defined entry, and the
    # identity column is set before the search, so both are left out.
    columns = [k for k in range(n) if k != e]
    slots = [(a, m) for a in range(size) for m in columns]
    by_product: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for m in columns:
        for k in columns:
            by_product[prod[m][k]].append((m, k))

    def propagate(trail: list[tuple[int, int]]) -> bool:
        for a, j in trail:  # also visits the entries appended while it runs
            row = t[a]
            x = row[j]
            row_x = t[x]
            pj = prod[j]
            for k in columns:
                y = row_x[k]
                z = row[pj[k]]
                if y < 0:
                    if z >= 0:
                        row_x[k] = z
                        trail.append((x, k))
                elif z < 0:
                    row[pj[k]] = y
                    trail.append((a, pj[k]))
                elif y != z:
                    return False
            for m, k in by_product[j]:
                x2 = row[m]
                if x2 >= 0:
                    y = t[x2][k]
                    if y < 0:
                        t[x2][k] = x
                        trail.append((x2, k))
                    elif y != x:
                        return False
        return True

    # The stack holds (slot position, value set there, its trail) for each
    # open choice; v is the next value to try at slot pos, and a finished
    # table or a slot with no value left backtracks to the top choice.
    stack: list[tuple[int, int, list[tuple[int, int]]]] = []
    nslots = len(slots)
    pos, v = 0, 0
    while True:
        while pos < nslots and t[slots[pos][0]][slots[pos][1]] >= 0:
            pos += 1
        if pos == nslots:
            yield FiniteAct(monoid, tuple(map(tuple, t)))
        else:
            a, m = slots[pos]
            row = t[a]
            while v < size:
                trail = [(a, m)]
                row[m] = v
                if propagate(trail):
                    break
                for x, k in trail:
                    t[x][k] = -1
                v += 1
            if v < size:
                stack.append((pos, v, trail))
                pos, v = pos + 1, 0
                continue
        if not stack:
            return
        pos, v, trail = stack.pop()
        for x, k in trail:
            t[x][k] = -1
        v += 1
