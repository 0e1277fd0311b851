"""Independent brute-force oracles for the test suite.

These deliberately re-derive results through different algorithms than the
package uses: naive generate-then-filter over all set partitions, pairwise
closure by repeated scanning, and exhaustive table filters.  They stay
independent of the code paths they check.
"""

from __future__ import annotations

from itertools import product

from actsep.acts import FiniteAct
from actsep.monoids import FiniteMonoid
from actsep.partitions import Partition, partition_from_blocks


def all_set_partitions(n: int):
    """Every partition of {0..n-1}, as a list of blocks (insertion order)."""

    def rec(k: int):
        if k == n:
            yield []
            return
        for rest in rec(k + 1):
            for i in range(len(rest)):
                yield rest[:i] + [[k] + rest[i]] + rest[i + 1 :]
            yield [[k]] + rest

    yield from rec(0)


def naive_is_congruence(act: FiniteAct, blocks: list[list[int]]) -> bool:
    block_of = {}
    for bid, block in enumerate(blocks):
        for x in block:
            block_of[x] = bid
    for block in blocks:
        for a in block:
            for b in block:
                for m in range(act.monoid.order):
                    if block_of[act.table[a][m]] != block_of[act.table[b][m]]:
                        return False
    return True


def naive_congruences(act: FiniteAct) -> list[Partition]:
    out = []
    for blocks in all_set_partitions(act.size):
        if naive_is_congruence(act, blocks):
            out.append(partition_from_blocks(act.size, blocks))
    return out


def naive_two_sided_violation(monoid: FiniteMonoid, partition: Partition):
    """The first (a, b, m) over all pairs and every column m with a ~ b but
    m*a !~ m*b, or None when the partition is left-compatible."""
    block_of = partition.block_of
    t = monoid.table
    for a in range(monoid.order):
        for b in range(monoid.order):
            if block_of[a] != block_of[b]:
                continue
            for m in range(monoid.order):
                if block_of[t[m][a]] != block_of[t[m][b]]:
                    return (a, b, m)
    return None


def naive_split_witness(table, partition: Partition, columns=None):
    """The compatibility witness from its definition: the first (a, b, m) in
    (block, b, m) order with a ~ b, a < b, a the block's first member with a
    defined image in column m, b's image in column m defined too, and the
    two images in different blocks; None when there is none.  Every column
    when columns is None."""
    block_of = partition.block_of
    if columns is None:
        columns = range(len(table[0]))
    for block in partition.blocks():
        for b in block:
            for m in columns:
                defined = [x for x in block if table[x][m] is not None]
                if not defined:
                    continue
                a = defined[0]
                u, v = table[a][m], table[b][m]
                if a < b and v is not None and block_of[u] != block_of[v]:
                    return (a, b, m)
    return None


def separates(congruence, element: int, forbidden) -> bool:
    """Whether the congruence puts element in a class that misses forbidden."""
    block_of = congruence.partition.block_of
    return all(block_of[x] != block_of[element] for x in forbidden)


def naive_min_separating_index(act: FiniteAct, a: int, forbidden) -> int:
    forb = set(forbidden)
    best = None
    for blocks in all_set_partitions(act.size):
        if not naive_is_congruence(act, blocks):
            continue
        mine = next(set(b) for b in blocks if a in b)
        if mine & forb:
            continue
        if best is None or len(blocks) < best:
            best = len(blocks)
    assert best is not None
    return best


def naive_partial_closure(partial, seeds) -> Partition:
    """Fixpoint by repeated full rescan; merges classes through any column
    where two related elements both have defined images."""
    classes = [{x} for x in range(partial.size)]

    def class_of(x):
        for c in classes:
            if x in c:
                return c
        raise AssertionError

    def merge(x, y):
        cx, cy = class_of(x), class_of(y)
        if cx is cy:
            return False
        cx |= cy
        classes.remove(cy)
        return True

    for a, b in seeds:
        merge(a, b)
    changed = True
    while changed:
        changed = False
        for c in list(classes):
            members = sorted(c)
            for i, a in enumerate(members):
                for b in members[i + 1 :]:
                    for m in range(partial.monoid.order):
                        u, v = partial.table[a][m], partial.table[b][m]
                        if u is not None and v is not None:
                            if merge(u, v):
                                changed = True
    return partition_from_blocks(
        partial.size, sorted((sorted(c) for c in classes), key=lambda b: b[0])
    )


def naive_is_associative(table) -> bool:
    """Every triple (i, j, k) of a square table, all columns."""
    n = len(table)
    for i in range(n):
        ti = table[i]
        for j in range(n):
            tij = table[ti[j]]
            tj = table[j]
            for k in range(n):
                if tij[k] != ti[tj[k]]:
                    return False
    return True


def naive_act_violation(monoid: FiniteMonoid, table):
    """The first (a, m, k) over all columns where a*(mk) and (a*m)*k are
    both defined and differ, or None; None entries are undefined."""
    mt = monoid.table
    n = monoid.order
    for a in range(len(table)):
        row = table[a]
        for m in range(n):
            x = row[m]
            if x is None:
                continue
            for k in range(n):
                y = table[x][k]
                z = row[mt[m][k]]
                if y is not None and z is not None and y != z:
                    return (a, m, k)
    return None


def naive_submonoid(monoid: FiniteMonoid, gens) -> set[int]:
    """The identity and the generators, closed by multiplying all pairs
    until stable."""
    elems = {monoid.identity, *gens}
    while True:
        new = {monoid.table[x][y] for x in elems for y in elems} - elems
        if not new:
            return elems
        elems |= new


def naive_acts(monoid: FiniteMonoid, size: int) -> list[tuple[tuple[int, ...], ...]]:
    """All act tables by filtering every table with the correct identity
    column; exponential, for cross-checking tiny cases only."""
    n = monoid.order
    e = monoid.identity
    free_cols = [m for m in range(n) if m != e]
    out = []
    for values in product(range(size), repeat=size * len(free_cols)):
        table = [[0] * n for _ in range(size)]
        pos = 0
        for a in range(size):
            table[a][e] = a
            for m in free_cols:
                table[a][m] = values[pos]
                pos += 1
        ok = True
        for a in range(size):
            for m in range(n):
                if not ok:
                    break
                for k in range(n):
                    if table[table[a][m]][k] != table[a][monoid.table[m][k]]:
                        ok = False
                        break
            if not ok:
                break
        if ok:
            out.append(tuple(tuple(r) for r in table))
    return out


def naive_transformation_closure(degree: int, generators) -> set[tuple[int, ...]]:
    """Closure by repeatedly composing all pairs until stable."""
    elems = {tuple(range(degree))}
    elems.update(tuple(g) for g in generators)
    while True:
        new = set()
        for f in elems:
            for g in elems:
                h = tuple(g[f[x]] for x in range(degree))
                if h not in elems:
                    new.add(h)
        if not new:
            return elems
        elems |= new


def count_squarefree_words(n: int) -> int:
    """Independent filter: every ternary word of length 1..n, scanned for a
    repeated adjacent factor."""
    total = 0
    for length in range(1, n + 1):
        for word in product("abc", repeat=length):
            has_square = False
            for half in range(1, length // 2 + 1):
                for start in range(length - 2 * half + 1):
                    if word[start : start + half] == word[start + half : start + 2 * half]:
                        has_square = True
                        break
                if has_square:
                    break
            if not has_square:
                total += 1
    return total


def naive_rank_classes(group: FiniteMonoid, rows: int, cols: int, sandwich, normal_subgroup=None):
    """Pairwise ~_I and ~_J classes of P, or of P/N when a normal subgroup N
    is given, quantifying over every candidate group element g and comparing
    entries as cosets xN.  Classes are listed by least member."""
    t = group.table
    subgroup = [group.identity] if normal_subgroup is None else list(normal_subgroup)

    def coset(x):
        return frozenset(t[x][a] for a in subgroup)

    def related_i(i, k):
        return any(
            all(coset(sandwich[j][i]) == coset(t[sandwich[j][k]][g]) for j in range(cols))
            for g in range(group.order)
        )

    def related_j(j, l):
        return any(
            all(coset(sandwich[j][i]) == coset(t[g][sandwich[l][i]]) for i in range(rows))
            for g in range(group.order)
        )

    def classes(n, related):
        out = []
        for x in range(n):
            home = next((c for c in out if related(c[0], x)), None)
            if home is None:
                out.append([x])
            else:
                home.append(x)
        return tuple(tuple(c) for c in out)

    return classes(rows, related_i), classes(cols, related_j)


def naive_rank(group: FiniteMonoid, rows: int, cols: int, sandwich) -> tuple[int, int]:
    """Pairwise rank oracle quantifying over every candidate group element."""
    classes_i, classes_j = naive_rank_classes(group, rows, cols, sandwich)
    return len(classes_i), len(classes_j)


def naive_right_coset_act(group: FiniteMonoid, subgroup):
    """The right cosets Hg as sets, listed by least member, with table entry
    (C, m) the index of the set {c*m : c in C} and labels H*<least member>."""
    cosets = []
    for g in group.elements():
        coset = frozenset(group.table[h][g] for h in subgroup)
        if coset not in cosets:
            cosets.append(coset)
    table = [
        [cosets.index(frozenset(group.table[c][m] for c in coset)) for m in group.elements()]
        for coset in cosets
    ]
    labels = tuple(f"H*{group.label(min(coset))}" for coset in cosets)
    return table, labels
