"""Bit-exact text formats for monoids, acts, and congruence certificates.

All files are ASCII with LF line endings; lines starting with `#` and blank
lines are ignored on input.  Writers always emit a labels line when labels
are present and never otherwise, so write/parse round-trips byte-identically.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .acts import FiniteAct, PartialAct, act_from_table, partial_act_from_table
from .congruences import Congruence, verify_congruence
from .errors import InvalidSpec, MalformedTable
from .monoids import FiniteMonoid, monoid_from_table
from .partitions import partition_from_blocks
from .separability import SeparationCertificate, make_certificate


def _content_lines(text: str) -> list[str]:
    out = []
    for raw in text.split("\n"):
        line = raw.rstrip()
        if not line or line.lstrip().startswith("#"):
            continue
        out.append(line)
    return out


def _header(lines: list[str], pos: int, keyword: str, arity: int) -> list[str]:
    """The arguments of the `keyword` line expected at content line pos."""
    if pos >= len(lines):
        raise MalformedTable(f"missing {keyword!r} line")
    tokens = lines[pos].split()
    if tokens[0] != keyword:
        raise MalformedTable(f"expected {keyword!r} line, found {' '.join(tokens)!r}")
    if len(tokens) != arity + 1:
        raise MalformedTable(f"{keyword!r} line takes {arity} argument(s)")
    return tokens[1:]


def _int(token: str, line: str) -> int:
    """An integer token of the given content line."""
    try:
        return int(token)
    except ValueError:
        raise MalformedTable(f"expected an integer, found {token!r} in line {line!r}") from None


def _table_section(lines: list[str], pos: int, count: int) -> tuple[list[str] | None, list[str]]:
    """The optional labels line at content line pos, then the `table` line
    and its `count` rows: (labels or None, the rows)."""
    tokens = lines[pos].split() if pos < len(lines) else []
    labels = tokens[1:] if tokens and tokens[0] == "labels" else None
    if labels is not None:
        pos += 1
    _header(lines, pos, "table", 0)
    rows = lines[pos + 1 : pos + 1 + count]
    if len(rows) != count:
        raise MalformedTable(f"table needs {count} rows, found {len(rows)}")
    return labels, rows


def _write_table(
    head: list[str], labels: Sequence[str] | None, rows: Iterable[Sequence], cell: Callable[..., str]
) -> str:
    """The header lines, the labels line when there are labels, then the
    table with each entry written by cell."""
    if labels is not None:
        head.append("labels " + " ".join(labels))
    head.append("table")
    head.extend(" ".join(map(cell, row)) for row in rows)
    return "\n".join(head) + "\n"


def write_monoid(monoid: FiniteMonoid) -> str:
    head = [f"monoid {monoid.name}", f"order {monoid.order}", f"identity {monoid.identity}"]
    return _write_table(head, monoid.labels, monoid.table, str)


def parse_monoid(text: str) -> FiniteMonoid:
    lines = _content_lines(text)
    if not lines:
        raise MalformedTable("empty monoid file")
    name = _header(lines, 0, "monoid", 1)[0]
    order = _int(_header(lines, 1, "order", 1)[0], lines[1])
    identity = _int(_header(lines, 2, "identity", 1)[0], lines[2])
    labels, rows = _table_section(lines, 3, order)
    table = [[_int(v, row) for v in row.split()] for row in rows]
    return monoid_from_table(table, identity, labels, name=name)


def write_act(act: FiniteAct | PartialAct) -> str:
    kind = "partialact" if isinstance(act, PartialAct) else "act"
    head = [f"{kind} {act.name}", f"monoid {act.monoid.name}", f"size {act.size}"]
    return _write_table(head, act.labels, act.table, lambda v: "-" if v is None else str(v))


def parse_act(text: str, monoid: FiniteMonoid) -> FiniteAct | PartialAct:
    lines = _content_lines(text)
    if not lines:
        raise MalformedTable("empty act file")
    head = lines[0].split()
    if head[0] not in ("act", "partialact") or len(head) != 2:
        raise MalformedTable("first line must be 'act <name>' or 'partialact <name>'")
    partial = head[0] == "partialact"
    name = head[1]
    declared = _header(lines, 1, "monoid", 1)[0]
    if declared != monoid.name:
        raise InvalidSpec(
            f"act declares monoid {declared!r} but was resolved against {monoid.name!r}"
        )
    size = _int(_header(lines, 2, "size", 1)[0], lines[2])
    labels, rows = _table_section(lines, 3, size)
    table = [[None if v == "-" else _int(v, row) for v in row.split()] for row in rows]
    if partial:
        return partial_act_from_table(monoid, table, labels, name=name)
    if any(v is None for row in table for v in row):
        raise MalformedTable("undefined entries in a total act file")
    return act_from_table(monoid, table, labels, name=name)  # type: ignore[arg-type]


def write_congruence(congruence: Congruence) -> str:
    blocks = congruence.blocks()
    lines = [
        f"congruence {congruence.act.name}",
        f"classes {len(blocks)}",
    ]
    for block in blocks:
        lines.append(" ".join(str(x) for x in block))
    return "\n".join(lines) + "\n"


def parse_congruence(text: str, act: FiniteAct) -> Congruence:
    lines = _content_lines(text)
    declared = _header(lines, 0, "congruence", 1)[0]
    if declared != act.name:
        raise InvalidSpec(f"congruence declares act {declared!r}, expected {act.name!r}")
    count = _int(_header(lines, 1, "classes", 1)[0], lines[1])
    rows = lines[2 : 2 + count]
    if len(rows) != count:
        raise MalformedTable(f"expected {count} class lines, found {len(rows)}")
    blocks = [[_int(v, row) for v in row.split()] for row in rows]
    try:
        partition = partition_from_blocks(act.size, blocks)
    except ValueError as exc:
        raise MalformedTable(f"classes do not partition the carrier: {exc}") from exc
    return verify_congruence(act, partition)


def write_certificate(cert: SeparationCertificate) -> str:
    forbidden = " ".join(str(x) for x in sorted(cert.forbidden))
    return f"separates {cert.element} from {forbidden}\n" + write_congruence(cert.congruence)


def parse_certificate(text: str, act: FiniteAct) -> SeparationCertificate:
    lines = _content_lines(text)
    if not lines:
        raise MalformedTable("missing 'separates' line")
    tokens = lines[0].split()
    if len(tokens) < 4 or tokens[0] != "separates" or tokens[2] != "from":
        raise MalformedTable("certificate must start with 'separates <i> from <j> ...'")
    element = _int(tokens[1], lines[0])
    forbidden = [_int(v, lines[0]) for v in tokens[3:]]
    congruence = parse_congruence("\n".join(lines[1:]) + "\n", act)
    return make_certificate(act, element, forbidden, congruence)
