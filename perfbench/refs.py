"""References the benchmark checks answers against.

Nothing here imports actsep.  Every check is written from the definitions:
a congruence is a partition whose blocks each land in a single block under
every monoid column, a certificate separates when the element's block meets
no forbidden element, and the instance lists of the four conditions come
from orbits and their unions.  Pinned numbers come from theory or from
independent counts (see README.md).
"""

from __future__ import annotations

from math import comb

CONDITIONS = ("rf", "wss", "sss", "cs")

# acts over the 49 catalog monoids, summed per carrier size
CORPUS_ACT_COUNTS = {1: 49, 2: 209, 3: 1322, 4: 11893, 5: 142294}


def is_compatible(table, block_of) -> bool:
    """x ~ y implies x*m ~ y*m: each block maps into one block per column."""
    image: dict[tuple[int, int], int] = {}
    for x, row in enumerate(table):
        b = block_of[x]
        for m, y in enumerate(row):
            target = block_of[y]
            if image.setdefault((b, m), target) != target:
                return False
    return True


def is_left_compatible(monoid_table, block_of) -> bool:
    """For a partition of a monoid: a ~ b implies m*a ~ m*b."""
    for row in monoid_table:
        image: dict[int, int] = {}
        for a, y in enumerate(row):
            target = block_of[y]
            if image.setdefault(block_of[a], target) != target:
                return False
    return True


def separation_problem(table, block_of, element, forbidden) -> str | None:
    """None when block_of is a congruence keeping element apart from every
    forbidden element; otherwise what is wrong."""
    if len(block_of) != len(table):
        return "partition size differs from the carrier"
    if not is_compatible(table, block_of):
        return "partition is not a congruence"
    if any(block_of[x] == block_of[element] for x in forbidden):
        return f"element {element} shares a block with a forbidden element"
    return None


def condition_instances(table, condition: str) -> list[tuple[int, tuple[int, ...]]]:
    """Sorted (element, forbidden) pairs a condition check must solve."""
    size = len(table)
    carrier = range(size)
    if condition == "rf":
        out = [(a, (b,)) for a in carrier for b in range(a + 1, size)]
    elif condition == "cs":
        out = [(a, tuple(x for x in carrier if x != a)) for a in carrier] if size > 1 else []
    else:
        orbits = {frozenset(row) for row in table}
        if condition == "wss":
            subs = orbits
        else:
            subs = set()
            for orbit in orbits:
                subs |= {orbit | s for s in subs}
                subs.add(orbit)
        out = [(a, tuple(sorted(s))) for s in subs for a in carrier if a not in s]
    return sorted(out)


def report_problem(table, condition: str, report) -> str | None:
    """Check a ConditionReport: with no index bound every condition holds on
    a finite act, the instances are exactly the condition's, and each
    certificate verifies."""
    if not report.holds or report.counterexample is not None:
        return f"{condition} reported as failing on a finite act"
    got = sorted((c.element, tuple(sorted(c.forbidden))) for c in report.certificates)
    if got != condition_instances(table, condition):
        return f"{condition} solved the wrong instances"
    for cert in report.certificates:
        problem = separation_problem(
            table, cert.congruence.partition.block_of, cert.element, cert.forbidden
        )
        if problem is not None:
            return f"{condition} certificate: {problem}"
    return None


def parse_certificate(text: str):
    """(element, forbidden, block_of) from the certificate text format; the
    format requires classes sorted by least member and members sorted."""
    lines = [line for line in text.split("\n") if line.strip() and not line.startswith("#")]
    head = lines[0].split()
    if len(head) < 4 or head[0] != "separates" or head[2] != "from":
        raise ValueError("certificate must start with 'separates <i> from ...'")
    if lines[1].split()[0] != "congruence" or lines[2].split()[0] != "classes":
        raise ValueError("certificate lacks its congruence header")
    count = int(lines[2].split()[1])
    blocks = [[int(v) for v in line.split()] for line in lines[3:]]
    if len(blocks) != count:
        raise ValueError(f"{len(blocks)} class lines for {count} classes")
    if any(b != sorted(b) for b in blocks) or [b[0] for b in blocks] != sorted(b[0] for b in blocks):
        raise ValueError("classes not in canonical order")
    size = sum(len(b) for b in blocks)
    block_of = [-1] * size
    for bid, block in enumerate(blocks):
        for x in block:
            block_of[x] = bid
    if -1 in block_of:
        raise ValueError("classes do not partition the carrier")
    return int(head[1]), tuple(int(v) for v in head[3:]), block_of


def certificate_problem(table, text: str, element=None, forbidden=None, index=None) -> str | None:
    try:
        got_element, got_forbidden, block_of = parse_certificate(text)
    except (ValueError, IndexError) as exc:
        return f"unreadable certificate: {exc}"
    if element is not None and (got_element, got_forbidden) != (element, tuple(forbidden)):
        return "certificate for the wrong instance"
    if index is not None and max(block_of) + 1 != index:
        return f"certificate index {max(block_of) + 1}, expected {index}"
    return separation_problem(table, block_of, got_element, got_forbidden)


# ---------------------------------------------------------------------------
# family report pins: what format_report must say, from the theory


def family_pins(name: str, params: dict[str, int]) -> list[tuple[str, int]]:
    """(substring, occurrences) pairs for a family report.  Forcing-chain
    counts are pair counts; min-index n+2 is the paper's value for the
    kozhukhov, leftzero and star acts; the square-free word count is
    3+6+12+18+30+42 for lengths up to 6; the Clifford tower of height n has
    2^n act elements and no separating congruence of index <= n."""
    n = params.get("n", 0)
    pins: list[tuple[str, int]] = []
    chains = {
        "kozhukhov": comb(n, 2),
        "leftzero": comb(n, 2),
        "star_semilattice": 2 * comb(n, 2),
        "semilattice_act": comb(n, 2),
        "free_monogenic_act": comb(params.get("w", 0) + 1, 2),
        "bz_window": comb(min(5, params.get("w", 0)), 2),
        "n_times_g": 1 if n >= 2 else 0,
    }
    if name in chains:
        pins.append(("fact ForcingChain ", chains[name]))
    if name in ("kozhukhov", "leftzero", "star_semilattice") and n > 1:
        pins.append((f"expected={n + 2} actual={n + 2} status=pass", 1))
    if name == "squarefree" and n == 6:
        pins.append(("quantity=squarefree_words expected=111 actual=111 status=pass", 1))
        pins.append(("quantity=monoid_order expected=113 actual=113 status=pass", 1))
    if name == "bz_quotient":
        pins.append((f"quantity=monoid_order expected={2 * n + 1} actual={2 * n + 1}", 1))
    if name == "clifford_tower":
        pins.append((f"fact NoSeparationUpTo element=[e1] bound={n} result=none status=pass", 1))
        pins.append((f"quantity=act_size expected={2 ** n} actual={2 ** n} status=pass", 1))
    return pins


def family_report_problem(name: str, params: dict[str, int], lines: list[str]) -> str | None:
    if not lines or lines[0] != f"family {name}" or lines[-1] != "result pass":
        return "report does not open with the family or does not pass"
    facts = [line for line in lines if line.startswith("fact ")]
    if not facts or any(not line.endswith(" status=pass") for line in facts):
        return "a fact does not pass"
    text = "\n".join(lines)
    for needle, count in family_pins(name, params):
        if text.count(needle) != count:
            return f"expected {count} x {needle!r}, found {text.count(needle)}"
    return None
