import json
from pathlib import Path

import pytest

from actsep.cli import main
from actsep.monoids import cyclic_group
from actsep.textio import parse_act, parse_certificate, parse_monoid, write_monoid

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "goldens" / "v1"


@pytest.fixture()
def kozh_files(tmp_path):
    assert main(["family", "dump", "--name", "kozhukhov", "--param", "n=3", "--out", str(tmp_path)]) == 0
    return tmp_path / "kozhukhov.monoid", tmp_path / "kozhukhov.act"


def test_validate_ok(kozh_files, capsys):
    monoid, act = kozh_files
    assert main(["validate", "--monoid", str(monoid)]) == 0
    assert main(["validate", "--act", str(act), "--monoid-file", str(monoid)]) == 0
    assert capsys.readouterr().out == "ok\nok\n"


def test_validate_rejects_broken_table(tmp_path, capsys):
    bad = tmp_path / "bad.monoid"
    bad.write_text("monoid m\norder 2\nidentity 0\ntable\n0 1\n0 1\n")
    assert main(["validate", "--monoid", str(bad)]) == 1
    assert "invalid" in capsys.readouterr().err


def test_min_index_prints_golden_value(kozh_files, capsys):
    monoid, act = kozh_files
    code = main([
        "min-index", "--act", str(act), "--monoid-file", str(monoid),
        "--element", "3", "--from", "4",
    ])
    assert code == 0
    assert capsys.readouterr().out == "5\n"


def test_separate_writes_certificate(kozh_files, tmp_path, capsys):
    monoid_path, act_path = kozh_files
    out = tmp_path / "b_from_zero.cert"
    code = main([
        "separate", "--act", str(act_path), "--monoid-file", str(monoid_path),
        "--element", "3", "--from", "4", "--out", str(out),
    ])
    assert code == 0
    monoid = parse_monoid(monoid_path.read_text())
    act = parse_act(act_path.read_text(), monoid)
    cert = parse_certificate(out.read_text(), act)
    assert cert.element == 3 and cert.forbidden == frozenset({4})


def test_separate_none_within_bound(kozh_files, capsys):
    monoid, act = kozh_files
    code = main([
        "separate", "--act", str(act), "--monoid-file", str(monoid),
        "--element", "3", "--from", "4", "--max-index", "4",
    ])
    assert code == 1
    assert capsys.readouterr().out == "none within bound\n"


def test_check_text_and_json_agree(kozh_files, capsys):
    monoid, act = kozh_files
    assert main(["check", "--act", str(act), "--monoid-file", str(monoid), "--condition", "cs"]) == 0
    text = capsys.readouterr().out
    assert main(["check", "--act", str(act), "--monoid-file", str(monoid), "--condition", "cs", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["holds"] is True
    assert f"holds true" in text
    text_instances = [l for l in text.splitlines() if l.startswith("instance ")]
    assert len(text_instances) == len(payload["instances"])
    for line, inst in zip(text_instances, payload["instances"]):
        assert f"element={inst['element']}" in line
        assert f"index={inst['index']}" in line


def test_check_writes_certificates(kozh_files, tmp_path, capsys):
    monoid_path, act_path = kozh_files
    certdir = tmp_path / "certs"
    assert main([
        "check", "--act", str(act_path), "--monoid-file", str(monoid_path),
        "--condition", "rf", "--certificates", str(certdir),
    ]) == 0
    capsys.readouterr()
    files = sorted(certdir.iterdir())
    assert len(files) == 10  # all unordered pairs of a 5-element carrier
    monoid = parse_monoid(monoid_path.read_text())
    act = parse_act(act_path.read_text(), monoid)
    parse_certificate(files[0].read_text(), act)


def test_check_certificates_of_names_with_separators(tmp_path, capsys):
    # quotient acts are named "<name>/rho": each separator becomes "_" in
    # the certificate file names, so no name writes outside the directory
    assert main(["family", "dump", "--name", "clifford_tower", "--param", "n=2", "--out", str(tmp_path)]) == 0
    monoid_path, act_path = tmp_path / "clifford_tower.monoid", tmp_path / "clifford_tower.act"
    name = act_path.read_text().splitlines()[0].split()[1]
    assert name.endswith("/rho")
    args = ["check", "--act", str(act_path), "--monoid-file", str(monoid_path), "--condition", "rf"]
    certdir = tmp_path / "certs"
    assert main([*args, "--certificates", str(certdir)]) == 0
    stem = name.replace("/", "_")
    files = sorted(path.name for path in certdir.iterdir())
    assert files and all(f.startswith(f"{stem}_rf_") for f in files)
    act_path.write_text(act_path.read_text().replace(f"act {name}\n", "act ../../escaped\n", 1))
    deep = certdir / "a" / "b"
    assert main([*args, "--certificates", str(deep)]) == 0
    capsys.readouterr()
    assert sorted(path.name for path in deep.iterdir()) == [f.replace(stem, ".._.._escaped", 1) for f in files]
    assert not list(tmp_path.rglob("escaped*"))


def test_cli_deterministic(kozh_files, capsys):
    monoid, act = kozh_files
    main(["check", "--act", str(act), "--monoid-file", str(monoid), "--condition", "sss"])
    first = capsys.readouterr().out
    main(["check", "--act", str(act), "--monoid-file", str(monoid), "--condition", "sss"])
    assert capsys.readouterr().out == first


def test_rees_rank_output(tmp_path, capsys):
    group = tmp_path / "z2.monoid"
    group.write_text(write_monoid(cyclic_group(2)))
    matrix = tmp_path / "p.matrix"
    matrix.write_text("e g e e\ng e e e\ne e e e\ne e e e\n".replace("g", "g"))
    # diagonal family truncated to 4: p_{00}=e is ensured by writing the
    # diagonal entries g only off the anchor
    rows = []
    for j in range(4):
        rows.append(" ".join("g" if (i == j and i != 0) else "e" for i in range(4)))
    matrix.write_text("\n".join(rows) + "\n")
    code = main([
        "rees", "--group", str(group), "--rows", "4", "--cols", "4",
        "--matrix", str(matrix), "--rank",
    ])
    assert code == 0
    assert capsys.readouterr().out == "r_I=4 r_J=4 rank=4\n"


def test_rees_monoid_output_roundtrip(tmp_path, capsys):
    group = tmp_path / "z2.monoid"
    group.write_text(write_monoid(cyclic_group(2)))
    matrix = tmp_path / "p.matrix"
    matrix.write_text("e e\ne g\n")
    out = tmp_path / "rees.monoid"
    code = main([
        "rees", "--group", str(group), "--rows", "2", "--cols", "2",
        "--matrix", str(matrix), "--out", str(out),
    ])
    assert code == 0
    built = parse_monoid(out.read_text())
    assert built.order == 9


def test_rees_normalize_then_rank(tmp_path, capsys):
    group = tmp_path / "z2.monoid"
    group.write_text(write_monoid(cyclic_group(2)))
    matrix = tmp_path / "p.matrix"
    matrix.write_text("g g\ng e\n")
    code = main([
        "rees", "--group", str(group), "--rows", "2", "--cols", "2",
        "--matrix", str(matrix), "--normalize", "0,0", "--rank",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("r_I=")


def test_family_list(capsys):
    assert main(["family", "list"]) == 0
    out = capsys.readouterr().out
    assert "kozhukhov n=1..10" in out
    assert "n_times_g g=2..3 n=2..12" in out


def test_family_run_against_goldens(capsys):
    code = main([
        "family", "run", "--name", "kozhukhov", "--param", "n=3",
        "--golden", str(GOLDEN_DIR),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.endswith("result pass\n")


def test_family_run_golden_mismatch(tmp_path, capsys):
    bad = tmp_path / "kozhukhov__n=3.facts"
    bad.write_text("family kozhukhov\nresult fail\n")
    code = main([
        "family", "run", "--name", "kozhukhov", "--param", "n=3",
        "--golden", str(tmp_path),
    ])
    assert code == 1
    assert "golden mismatch" in capsys.readouterr().err


def test_exit_code_usage():
    with pytest.raises(SystemExit) as exc:
        main(["check", "--condition", "nosuch"])
    assert exc.value.code == 2


def test_exit_code_validation_failure(tmp_path, capsys):
    missing = tmp_path / "nope.monoid"
    code = main(["min-index", "--act", str(missing), "--monoid-file", str(missing),
                 "--element", "0", "--from", "1"])
    assert code == 3


def test_exit_code_search_cap(kozh_files, capsys, monkeypatch):
    monoid, act = kozh_files
    monkeypatch.setenv("ACTSEP_MAX_SEARCH", "3")
    code = main([
        "min-index", "--act", str(act), "--monoid-file", str(monoid),
        "--element", "3", "--from", "4",
    ])
    assert code == 4
    assert "search space" in capsys.readouterr().err


def test_search_cap_bounds_whole_check(kozh_files, capsys, monkeypatch):
    # each RF instance of the 5-element act has 8 candidate sets, within the
    # cap of 10, but the 10 instances together have 80
    monoid, act = kozh_files
    monkeypatch.setenv("ACTSEP_MAX_SEARCH", "10")
    code = main(["check", "--act", str(act), "--monoid-file", str(monoid), "--condition", "rf"])
    assert code == 4
    assert "search space ~80 exceeds cap 10" in capsys.readouterr().err


def test_validate_header_only_monoid_is_invalid(tmp_path, capsys):
    bad = tmp_path / "bad.monoid"
    bad.write_text("monoid X\n")
    assert main(["validate", "--monoid", str(bad)]) == 1
    assert capsys.readouterr().err == "invalid: missing 'order' line\n"


def test_truncated_input_exits_3(kozh_files, tmp_path, capsys):
    monoid, act = kozh_files
    bad = tmp_path / "bad.monoid"
    bad.write_text("monoid X\n")
    code = main(["min-index", "--act", str(act), "--monoid-file", str(bad),
                 "--element", "3", "--from", "4"])
    assert code == 3
    bad_act = tmp_path / "bad.act"
    bad_act.write_text("act kozhukhov\n")
    code = main(["check", "--act", str(bad_act), "--monoid-file", str(monoid),
                 "--condition", "rf"])
    assert code == 3
    assert "missing 'monoid' line" in capsys.readouterr().err


@pytest.mark.parametrize("raw", ["0", "-1"])
def test_search_cap_below_one_rejected(kozh_files, capsys, monkeypatch, raw):
    monoid, act = kozh_files
    monkeypatch.setenv("ACTSEP_MAX_SEARCH", raw)
    code = main([
        "min-index", "--act", str(act), "--monoid-file", str(monoid),
        "--element", "3", "--from", "4",
    ])
    assert code == 3
    assert "ACTSEP_MAX_SEARCH must be at least 1" in capsys.readouterr().err


def test_family_dump_partial_act(tmp_path):
    assert main(["family", "dump", "--name", "bz_window", "--param", "w=4", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "bz_window.act").read_text()
    assert text.startswith("partialact")
    monoid = parse_monoid((tmp_path / "bz_window.monoid").read_text())
    act = parse_act(text, monoid)
    assert act.size == 3 * 4 + 3
