from itertools import islice

import pytest

from actsep.acts import regular_act
from actsep.catalog import catalog_monoids, enumerate_acts
from actsep.congruences import rees_congruence
from actsep.errors import InvalidSpec, MalformedTable
from actsep.families import build
from actsep.monoids import null_adjoined
from actsep.separability import separate
from actsep.textio import (
    parse_act,
    parse_certificate,
    parse_congruence,
    parse_monoid,
    write_act,
    write_certificate,
    write_congruence,
    write_monoid,
)


NULL2 = null_adjoined(2)


def test_monoid_roundtrip():
    text = write_monoid(NULL2)
    back = parse_monoid(text)
    assert back.table == NULL2.table
    assert back.labels == NULL2.labels
    assert write_monoid(back) == text


def test_monoid_roundtrip_without_labels():
    from actsep.monoids import monoid_from_table

    bare = monoid_from_table([[0, 1], [1, 0]], 0)
    text = write_monoid(bare)
    assert "labels" not in text
    assert parse_monoid(text).table == bare.table
    assert write_monoid(parse_monoid(text)) == text


def test_act_roundtrip():
    # the regular act of NULL2, then every 97th act of the catalog corpus
    # on carriers 1-4
    corpus = (
        act
        for entry in catalog_monoids()
        for size in range(1, 5)
        for act in enumerate_acts(entry.monoid, size)
    )
    for act in (regular_act(NULL2), *islice(corpus, 0, None, 97)):
        text = write_act(act)
        back = parse_act(text, act.monoid)
        assert back.table == act.table
        assert write_act(back) == text


def test_partial_act_roundtrip():
    window = build("bz_window", {"w": 3})
    text = write_act(window.act)
    assert text.startswith("partialact")
    table_lines = text.splitlines()[text.splitlines().index("table") + 1 :]
    assert any("-" in line.split() for line in table_lines)
    back = parse_act(text, window.monoid)
    assert back.table == window.act.table
    assert write_act(back) == text


def test_act_monoid_name_mismatch():
    act = regular_act(NULL2)
    text = write_act(act)
    other = null_adjoined(1)
    with pytest.raises(InvalidSpec):
        parse_act(text, other)


def test_comments_and_blank_lines_ignored():
    act = regular_act(NULL2)
    text = write_act(act)
    noisy = "# a comment\n\n" + text.replace("table\n", "table\n# rows follow\n\n")
    assert parse_act(noisy, NULL2).table == act.table


def test_congruence_roundtrip():
    act = regular_act(NULL2)
    cong = rees_congruence(act, {1, 2, 3})
    text = write_congruence(cong)
    lines = text.splitlines()
    assert lines[0] == f"congruence {act.name}"
    assert lines[1] == "classes 2"
    back = parse_congruence(text, act)
    assert back.partition == cong.partition


def test_congruence_blocks_sorted_by_least_member():
    act = regular_act(NULL2)
    cong = rees_congruence(act, {1, 2, 3})
    text = write_congruence(cong)
    blocks = [list(map(int, line.split())) for line in text.splitlines()[2:]]
    assert blocks == sorted(blocks, key=lambda b: b[0])
    for block in blocks:
        assert block == sorted(block)


def test_certificate_roundtrip():
    act = regular_act(NULL2)
    cert = separate(act, 1, {3})
    text = write_certificate(cert)
    assert text.splitlines()[0] == "separates 1 from 3"
    back = parse_certificate(text, act)
    assert back.element == cert.element
    assert back.forbidden == cert.forbidden
    assert back.congruence.partition == cert.congruence.partition


def test_certificate_elements_out_of_range():
    act = regular_act(NULL2)
    body = write_certificate(separate(act, 1, {3})).split("\n", 1)[1]
    for header in ("separates -1 from 0", "separates 99 from 0", "separates 0 from 99"):
        with pytest.raises(InvalidSpec):
            parse_certificate(f"{header}\n{body}", act)


def test_malformed_files():
    with pytest.raises(MalformedTable, match="found 'x' in line 'order x'"):
        parse_monoid("monoid m\norder x\nidentity 0\ntable\n0\n")
    with pytest.raises(MalformedTable):
        parse_monoid("monoid m\norder 2\nidentity 0\ntable\n0 1\n")
    with pytest.raises(MalformedTable):
        parse_monoid("")
    with pytest.raises(MalformedTable):
        parse_act("act a\nmonoid Null2^1\nsize 1\ntable\n0 - 0 0\n", NULL2)
    act = regular_act(NULL2)
    for classes in ("0\n1 2 3 4", "0 1\n1 2 3", "0\n1 2"):
        with pytest.raises(MalformedTable, match="classes do not partition the carrier"):
            parse_congruence(f"congruence Null2^1\nclasses 2\n{classes}\n", act)


def _prefixes(text):
    lines = text.splitlines()
    return ["\n".join(lines[:k]) + "\n" for k in range(len(lines))]


def test_truncated_files_raise_malformed_table():
    # every proper prefix of a valid file is malformed, headers included
    act = regular_act(NULL2)
    cert = separate(act, 1, {3})
    cases = [
        (write_monoid(NULL2), parse_monoid),
        (write_act(act), lambda text: parse_act(text, NULL2)),
        (write_congruence(cert.congruence), lambda text: parse_congruence(text, act)),
        (write_certificate(cert), lambda text: parse_certificate(text, act)),
    ]
    for text, parse in cases:
        for prefix in _prefixes(text):
            with pytest.raises(MalformedTable):
                parse(prefix)


def test_missing_header_line_is_named():
    with pytest.raises(MalformedTable, match="missing 'order' line"):
        parse_monoid("monoid X\n")
    with pytest.raises(MalformedTable, match="missing 'table' line"):
        parse_monoid("monoid X\norder 1\nidentity 0\n")
    with pytest.raises(MalformedTable, match="missing 'size' line"):
        parse_act("act a\nmonoid Null2^1\n", NULL2)
    with pytest.raises(MalformedTable, match="missing 'classes' line"):
        parse_congruence("congruence Null2^1\n", regular_act(NULL2))
    with pytest.raises(MalformedTable, match="missing 'separates' line"):
        parse_certificate("# nothing\n", regular_act(NULL2))
