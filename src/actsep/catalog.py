"""Built-in corpus: every monoid of order <= 4 up to isomorphism plus a few
named constructions, and an exhaustive enumeration of the acts over a monoid
with a given carrier size.

Small monoids are found by identity-fixed table backtracking (complete by
construction; the counts 1/2/7/35 are pinned in the tests) and then realized
through the transformation closure of their right regular representation, so
every catalog table is literally a monoid of transformations.

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

from .errors import InternalInvariantViolation
from .monoids import (
    FiniteMonoid,
    ReesMatrixSpec,
    StrongSemilatticeSpec,
    cyclic_group,
    monoid_from_table,
    rectangular_band_adjoined,
    rees_matrix_monoid,
    strong_semilattice_monoid,
    transformation_closure,
)
from .acts import FiniteAct


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    monoid: FiniteMonoid


def _associativity_ok_partial(t: list[list[int]], n: int) -> bool:
    for a in range(n):
        for b in range(n):
            ab = t[a][b]
            if ab < 0:
                continue
            row_ab = t[ab]
            row_b = t[b]
            row_a = t[a]
            for c in range(n):
                bc = row_b[c]
                left = row_ab[c]
                if bc < 0 or left < 0:
                    continue
                right = row_a[bc]
                if right >= 0 and left != right:
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
            if _associativity_ok_partial(t, n):
                yield from rec(pos + 1)
        t[i][j] = -1

    yield from rec(0)


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


def _as_transformation_monoid(table: tuple[tuple[int, ...], ...], name: str) -> FiniteMonoid:
    """Right regular representation m -> (x -> x*m); its closure reproduces
    the table exactly, in the same element order."""
    n = len(table)
    columns = [tuple(table[x][m] for x in range(n)) for m in range(n)]
    closed = transformation_closure(n, columns, name=name)
    if closed.table != table:
        raise InternalInvariantViolation("regular representation closure diverged from source table")
    return closed


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
            entries.append(CatalogEntry(name, _as_transformation_monoid(table, name)))
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
    act, and the yield order is that of the search without it.
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

    def rec(pos: int) -> Iterator[FiniteAct]:
        while pos < len(slots) and t[slots[pos][0]][slots[pos][1]] >= 0:
            pos += 1
        if pos == len(slots):
            yield FiniteAct(monoid, tuple(tuple(row) for row in t))
            return
        a, m = slots[pos]
        for v in range(size):
            trail = [(a, m)]
            t[a][m] = v
            if propagate(trail):
                yield from rec(pos + 1)
            for (x, k) in trail:
                t[x][k] = -1

    try:
        yield from rec(0)
    finally:
        del rec  # rec refers to itself through its closure cell
