"""Property tests of the parsers and `actsep validate` on untrusted bytes:
valid monoid, act and certificate files, truncated and then edited at a few
positions; and the round trip of the certificates that `check` writes."""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from actsep.cli import main
from actsep.errors import ActsepError
from actsep.families import build
from actsep.separability import CONDITIONS, check_condition
from actsep.textio import (
    parse_act,
    parse_certificate,
    parse_monoid,
    write_act,
    write_certificate,
    write_monoid,
)
from oracles import separates

_TOTAL = build("kozhukhov", {"n": 2})
_PARTIAL = build("bz_window", {"w": 2})
# (the file under test, the monoid file it is parsed against or None)
_FILES = [
    (write_monoid(_TOTAL.monoid).encode(), None),
    (write_monoid(_PARTIAL.monoid).encode(), None),
    (write_act(_TOTAL.act).encode(), write_monoid(_TOTAL.monoid)),
    (write_act(_PARTIAL.act).encode(), write_monoid(_PARTIAL.monoid)),
]
_KOZHUKHOV = build("kozhukhov", {"n": 3})
# one certificate per condition, as `check` writes them
_CERTIFICATES = [
    write_certificate(check_condition(_KOZHUKHOV.act, cond).certificates[-1]).encode()
    for cond in CONDITIONS
]
_TOKENS = [b"0", b"1", b"2", b"7", b"-", b"-1", b" ", b"\n", b"#", b"x", b"table", b"\xff", b"", b"10" * 12]

_positions = st.integers(min_value=0, max_value=400)
# an edit replaces `width` bytes at a position anywhere, or one digit with
# another digit or "-", which keeps the file well formed more often
_edits = st.lists(
    st.one_of(
        st.tuples(
            st.just(False),
            _positions,
            st.integers(min_value=0, max_value=2),
            st.one_of(st.sampled_from(_TOKENS), st.binary(max_size=2)),
        ),
        st.tuples(st.just(True), _positions, st.just(1), st.sampled_from(list(b"0123456789-"))),
    ),
    max_size=3,
)


def _mutate(data: bytes, cut, edits) -> bytes:
    """Truncate at cut (None keeps the whole file), then apply the edits;
    positions wrap around the current length, or around the digits of the
    file for a digit edit."""
    out = bytearray(data[:cut])
    for digit, pos, width, new in edits:
        if digit:
            digits = [i for i, b in enumerate(out) if chr(b).isdigit()]
            if not digits:
                continue
            pos = digits[pos % len(digits)]
            new = bytes([new])
        else:
            pos %= len(out) + 1
        out[pos : pos + width] = new
    return bytes(out)


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(
    which=st.integers(min_value=0, max_value=len(_FILES) - 1),
    cut=st.one_of(st.none(), st.integers(min_value=0, max_value=400)),
    edits=_edits,
)
def test_validators_on_mutated_files(which, cut, edits):
    data, monoid_text = _FILES[which]
    mutated = _mutate(data, cut, edits)
    text = mutated.decode("latin-1")
    parsed = True
    try:
        if monoid_text is None:
            parse_monoid(text)
        else:
            parse_act(text, parse_monoid(monoid_text))
    except ActsepError:
        parsed = False
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(mutated)
        if monoid_text is None:
            argv = ["validate", "--monoid", str(path)]
        else:
            monoid_path = Path(tmp) / "monoid"
            monoid_path.write_text(monoid_text, encoding="ascii")
            argv = ["validate", "--act", str(path), "--monoid-file", str(monoid_path)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    # validate reads ASCII only, so other bytes are invalid there
    assert code == (0 if parsed and mutated.isascii() else 1)


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(
    which=st.integers(min_value=0, max_value=len(_CERTIFICATES) - 1),
    cut=st.one_of(st.none(), st.integers(min_value=0, max_value=400)),
    edits=_edits,
)
def test_certificate_parser_on_mutated_files(which, cut, edits):
    text = _mutate(_CERTIFICATES[which], cut, edits).decode("latin-1")
    try:
        cert = parse_certificate(text, _KOZHUKHOV.act)
    except ActsepError:
        return
    assert separates(cert.congruence, cert.element, cert.forbidden)


def test_written_certificates_reparse_and_rewrite(tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["family", "dump", "--name", "kozhukhov", "--param", "n=3", "--out", str(tmp_path)]) == 0
    monoid_path, act_path = tmp_path / "kozhukhov.monoid", tmp_path / "kozhukhov.act"
    act = parse_act(act_path.read_text(encoding="ascii"), parse_monoid(monoid_path.read_text(encoding="ascii")))
    written = 0
    for cond in CONDITIONS:
        outdir = tmp_path / cond
        argv = ["check", "--act", str(act_path), "--monoid-file", str(monoid_path),
                "--condition", cond.lower(), "--certificates", str(outdir)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        expected = check_condition(act, cond).certificates
        paths = sorted(outdir.iterdir())
        assert len(paths) == len(expected) > 0
        for path, cert in zip(paths, expected):
            data = path.read_bytes()
            back = parse_certificate(data.decode("ascii"), act)
            assert back == cert
            assert separates(back.congruence, back.element, back.forbidden)
            assert write_certificate(back).encode() == data
            written += 1
    assert written > 20
