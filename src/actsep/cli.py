"""Batch command-line front end.

Exit codes: 0 success / property holds, 1 negative result (condition fails,
no separation within the bound, golden mismatch, invalid input to
`validate`), 2 usage errors, 3 validation failures of input files or
structures, 4 search-cap aborts.  Diagnostics go to stderr.  The only
environment variable read is ACTSEP_MAX_SEARCH, which overrides the
search cap.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import families, textio
from .acts import PartialAct
from .congruences import DEFAULT_SEARCH_CAP
from .errors import (
    ActsepError,
    ClosureTooLarge,
    RightIdealEnumerationTooLarge,
    SearchSpaceTooLarge,
)
from .monoids import (
    ReesMatrixSpec,
    normalize_sandwich,
    rees_matrix_monoid,
    sandwich_rank,
    validate_rees_spec,
)
from .separability import check_condition, separate

_CAP_ENV = "ACTSEP_MAX_SEARCH"


def _cap() -> int:
    raw = os.environ.get(_CAP_ENV)
    if raw is None:
        return DEFAULT_SEARCH_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ActsepError(f"{_CAP_ENV} must be an integer, got {raw!r}")
    if cap < 1:
        raise ActsepError(f"{_CAP_ENV} must be at least 1, got {raw!r}")
    return cap


def _read(path: str) -> str:
    return Path(path).read_text(encoding="ascii")


def _load_monoid(path: str):
    return textio.parse_monoid(_read(path))


def _load_act(act_path: str, monoid_path: str):
    monoid = textio.parse_monoid(_read(monoid_path))
    return textio.parse_act(_read(act_path), monoid)


def _parse_indices(raw: str) -> list[int]:
    return [int(tok) for tok in raw.split(",") if tok != ""]


def _group_token(group, token: str) -> int:
    try:
        return int(token)
    except ValueError:
        if group.labels is not None and token in group.labels:
            return group.labels.index(token)
        raise ActsepError(f"unknown group element {token!r}")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args) -> int:
    if args.act is not None:
        if args.monoid_file is None:
            print("error: --act requires --monoid-file", file=sys.stderr)
            return 2
        try:
            _load_act(args.act, args.monoid_file)
        except (ActsepError, ValueError, OSError) as exc:
            print(f"invalid: {exc}", file=sys.stderr)
            return 1
    elif args.monoid is not None:
        try:
            _load_monoid(args.monoid)
        except (ActsepError, ValueError, OSError) as exc:
            print(f"invalid: {exc}", file=sys.stderr)
            return 1
    else:
        print("error: validate needs --monoid or --act", file=sys.stderr)
        return 2
    print("ok")
    return 0


def _report_lines(report) -> list[str]:
    lines = [
        f"condition {report.condition}",
        f"act {report.act.name}",
        f"holds {'true' if report.holds else 'false'}",
        f"instances {len(report.certificates)}",
    ]
    for cert in report.certificates:
        forbidden = ",".join(str(x) for x in sorted(cert.forbidden))
        lines.append(
            f"instance element={cert.element} forbidden={forbidden} index={cert.quotient_size}"
        )
    if report.counterexample is not None:
        element, forbidden = report.counterexample
        lines.append(
            "counterexample element=%d forbidden=%s"
            % (element, ",".join(str(x) for x in sorted(forbidden)))
        )
    return lines


def _report_json(report) -> str:
    payload = {
        "condition": report.condition,
        "act": report.act.name,
        "holds": report.holds,
        "instances": [
            {
                "element": cert.element,
                "forbidden": sorted(cert.forbidden),
                "index": cert.quotient_size,
            }
            for cert in report.certificates
        ],
        "counterexample": None
        if report.counterexample is None
        else {
            "element": report.counterexample[0],
            "forbidden": sorted(report.counterexample[1]),
        },
    }
    return json.dumps(payload, sort_keys=True)


def _cmd_check(args) -> int:
    act = _load_act(args.act, args.monoid_file)
    if isinstance(act, PartialAct):
        raise ActsepError("condition checks need a total act")
    report = check_condition(act, args.condition, cap=_cap())
    if args.json:
        print(_report_json(report))
    else:
        for line in _report_lines(report):
            print(line)
    if args.certificates is not None:
        outdir = Path(args.certificates)
        outdir.mkdir(parents=True, exist_ok=True)
        for k, cert in enumerate(report.certificates):
            path = outdir / f"{act.name}_{report.condition.lower()}_{k:04d}.cert"
            path.write_text(textio.write_certificate(cert), encoding="ascii")
    return 0 if report.holds else 1


def _cmd_separate(args) -> int:
    act = _load_act(args.act, args.monoid_file)
    if isinstance(act, PartialAct):
        raise ActsepError("separation needs a total act")
    forbidden = _parse_indices(getattr(args, "from"))
    cert = separate(act, args.element, forbidden, max_index=args.max_index, cap=_cap())
    if cert is None:
        print("none within bound")
        return 1
    text = textio.write_certificate(cert)
    if args.out is not None:
        Path(args.out).write_text(text, encoding="ascii")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_min_index(args) -> int:
    act = _load_act(args.act, args.monoid_file)
    if isinstance(act, PartialAct):
        raise ActsepError("separation needs a total act")
    forbidden = _parse_indices(getattr(args, "from"))
    cert = separate(act, args.element, forbidden, cap=_cap())
    assert cert is not None
    print(cert.quotient_size)
    return 0


def _cmd_rees(args) -> int:
    group = _load_monoid(args.group)
    matrix_rows = []
    for line in _read(args.matrix).split("\n"):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        matrix_rows.append(tuple(_group_token(group, tok) for tok in line.split()))
    spec = ReesMatrixSpec(group, args.rows, args.cols, tuple(matrix_rows))
    validate_rees_spec(spec)
    if args.normalize is not None:
        i0, j0 = _parse_indices(args.normalize)
        spec = normalize_sandwich(spec, i0, j0)
    if args.rank:
        subgroup = None
        if args.mod_subgroup is not None:
            tokens = _read(args.mod_subgroup).split()
            subgroup = [_group_token(group, tok) for tok in tokens]
        report = sandwich_rank(spec, subgroup)
        print(f"r_I={report.r_i} r_J={report.r_j} rank={report.rank}")
        return 0
    monoid = rees_matrix_monoid(spec)
    text = textio.write_monoid(monoid)
    if args.out is not None:
        Path(args.out).write_text(text, encoding="ascii")
    else:
        sys.stdout.write(text)
    return 0


def _params_from_args(pairs: list[str]) -> dict[str, int]:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ActsepError(f"--param takes k=v, got {pair!r}")
        key, _, value = pair.partition("=")
        out[key] = int(value)
    return out


def _golden_name(instance) -> str:
    params = "_".join(f"{k}={v}" for k, v in instance.params)
    return f"{instance.name}__{params}.facts"


def _cmd_family(args) -> int:
    if args.family_cmd == "list":
        for name in sorted(families.FAMILIES):
            _, ranges = families.FAMILIES[name]
            spans = " ".join(f"{k}={lo}..{hi}" for k, (lo, hi) in sorted(ranges.items()))
            print(f"{name} {spans}")
        return 0
    params = _params_from_args(args.param or [])
    instance = families.build(args.name, params)
    if args.family_cmd == "dump":
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / f"{instance.name}.monoid").write_text(
            textio.write_monoid(instance.monoid), encoding="ascii"
        )
        (outdir / f"{instance.name}.act").write_text(
            textio.write_act(instance.act), encoding="ascii"
        )
        return 0
    report = families.verify(instance, cap=_cap())
    lines = families.format_report(report)
    for line in lines:
        print(line)
    code = 0 if report.passed else 1
    if args.golden is not None:
        golden_path = Path(args.golden) / _golden_name(instance)
        expected = golden_path.read_text(encoding="ascii")
        if expected != "\n".join(lines) + "\n":
            print(f"golden mismatch: {golden_path}", file=sys.stderr)
            code = 1
    return code


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="actsep",
        description="Construct finite monoids and acts, compute congruences, "
        "and decide separability conditions with certificates.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("validate", help="run full axiom checks on a monoid or act file")
    p.add_argument("--monoid")
    p.add_argument("--act")
    p.add_argument("--monoid-file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("check", help="decide one of the four separability conditions")
    p.add_argument("--act", required=True)
    p.add_argument("--monoid-file", required=True)
    p.add_argument("--condition", required=True, choices=["rf", "wss", "sss", "cs"])
    p.add_argument("--json", action="store_true")
    p.add_argument("--certificates")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("separate", help="search for a minimal separating congruence")
    p.add_argument("--act", required=True)
    p.add_argument("--monoid-file", required=True)
    p.add_argument("--element", type=int, required=True)
    p.add_argument("--from", required=True)
    p.add_argument("--max-index", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_separate)

    p = sub.add_parser("min-index", help="print the minimal separating index")
    p.add_argument("--act", required=True)
    p.add_argument("--monoid-file", required=True)
    p.add_argument("--element", type=int, required=True)
    p.add_argument("--from", required=True)
    p.set_defaults(func=_cmd_min_index)

    p = sub.add_parser("rees", help="build or normalize a Rees matrix monoid")
    p.add_argument("--group", required=True)
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--normalize")
    p.add_argument("--rank", action="store_true")
    p.add_argument("--mod-subgroup")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_rees)

    p = sub.add_parser("family", help="build, verify, and dump example families")
    fam = p.add_subparsers(dest="family_cmd", required=True)
    run = fam.add_parser("run")
    run.add_argument("--name", required=True)
    run.add_argument("--param", action="append")
    run.add_argument("--golden")
    listp = fam.add_parser("list")
    dump = fam.add_parser("dump")
    dump.add_argument("--name", required=True)
    dump.add_argument("--param", action="append")
    dump.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_family)
    run.set_defaults(func=_cmd_family)
    listp.set_defaults(func=_cmd_family)
    dump.set_defaults(func=_cmd_family)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SearchSpaceTooLarge, ClosureTooLarge, RightIdealEnumerationTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ActsepError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
