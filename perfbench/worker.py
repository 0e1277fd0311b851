"""Run one benchmark workload in this process and print one JSON line.

    python3 perfbench/worker.py --workload corpus --seed 1 --seconds 10 --mode run

Modes: `setup` builds the workload and reports only its set-up time; `run`
repeats whole rounds, as many as come nearest to --seconds (at least one);
`once` runs exactly one round, so its work counts are fixed by the seed.
`--traced` installs the wrappers from tracing.py before set-up.  `--tiny`
shrinks every workload to seconds and `--corrupt` damages one reference;
both serve the self-test.

Every op is timed on its own and every answer is checked after its clock
stops, against the references in refs.py, so checking stays out of the
rates.  run.py starts this script; see README.md.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse
import array
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# src for actsep, tests for the naive oracles the lattice pins come from
sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests")]

from actsep import acts, catalog, cli, congruences, families, separability, textio  # noqa: E402

import refs  # noqa: E402

perf = time.perf_counter

CORPUS_SAMPLE_EVERY = 64
# the goldens take milliseconds each; passes over them give the latency
# quantiles samples of many different instances, which keeps them steady
FAMILY_GOLDEN_PASSES = 20
# a round that starts with fewer latency samples than this is recorded whole;
# corpus (155,767 ops a round) keeps its first round only, the others all
LATENCY_CAP = 65536
FAMILY_TOP = (
    ("kozhukhov", {"n": 9}),
    ("leftzero", {"n": 9}),
    ("star_semilattice", {"n": 9}),
    ("free_monogenic_act", {"w": 60}),
    ("bz_window", {"w": 40}),
    ("semilattice_act", {"n": 20}),
    ("squarefree", {"n": 6}),
    ("bz_quotient", {"n": 12}),
    ("n_times_g", {"n": 12, "g": 3}),
    ("clifford_tower", {"n": 3}),
)
FAMILY_TOP_TINY = (("kozhukhov", {"n": 6}), ("free_monogenic_act", {"w": 10}), ("clifford_tower", {"n": 3}))
CLI_VALIDATE = (("squarefree", {"n": 6}), ("bz_window", {"w": 40}))
# acts whose separation instance (element, forbidden) has minimal index n+2
CLI_SEARCH = (("kozhukhov", 6), ("leftzero", 6), ("star_semilattice", 6))
LATTICE_EXTRA = (("leftzero", {"n": 7}), ("star_semilattice", {"n": 7}), ("semilattice_act", {"n": 8}))


class Stats:
    """Ops attempted, answers found wrong, and busy time of the timed phase.

    Latencies are kept in a flat array for whole rounds, up to LATENCY_CAP
    samples, so the memory they take stays small next to the program's own
    peak_rss_mb and barely depends on how many rounds fit in the run."""

    def __init__(self):
        self.ops = 0
        self.failed = 0
        self.busy = 0.0
        self.latencies = array.array("d")
        self.keep_latencies = True
        self.problems: list[str] = []

    def done(self, seconds: float) -> None:
        self.ops += 1
        self.busy += seconds
        if self.keep_latencies:
            self.latencies.append(seconds)

    def bad(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(problem)

    def raised(self, seconds: float, exc: Exception, where: str) -> None:
        self.done(seconds)
        self.bad(f"{where}: {type(exc).__name__}: {exc}")


def _params(params: dict[str, int]) -> str:
    return "_".join(f"{k}={v}" for k, v in sorted(params.items()))


def _work_dir() -> Path:
    path = HERE / "out" / f"work-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _golden_dir(work: Path | None, corrupt: bool) -> Path:
    """goldens/v1, or a copy of it with one byte flipped in its first file."""
    source = ROOT / "goldens" / "v1"
    if not corrupt:
        return source
    target = work / "goldens"
    shutil.copytree(source, target)
    first = sorted(target.glob("*.facts"))[0]
    data = bytearray(first.read_bytes())
    data[len(data) // 2] ^= 1
    first.write_bytes(bytes(data))
    return target


def _goldens(directory: Path) -> list[tuple[str, dict[str, int], bytes]]:
    out = []
    for path in sorted(directory.glob("*.facts")):
        name, _, params = path.name[: -len(".facts")].partition("__")
        pairs = (item.split("=") for item in params.split("_"))
        out.append((name, {k: int(v) for k, v in pairs}, path.read_bytes()))
    return out


# ---------------------------------------------------------------------------
# workloads: set-up in __init__, reference preparation in prepare(), and
# one round of ops per round() call


class Workload:
    work: Path | None = None

    def prepare(self) -> None:
        pass

    def close(self) -> None:
        if self.work is not None:
            shutil.rmtree(self.work, ignore_errors=True)


class Corpus(Workload):
    """Every act on carriers 1-5 over the 49 catalog monoids; a systematic
    1-in-64 sample, offset per cell by the seed, runs all four checks."""

    def __init__(self, args):
        self.monoids = [entry.monoid for entry in catalog.catalog_monoids()]
        self.sizes = range(1, 4 if args.tiny else 6)
        self.every = 4 if args.tiny else CORPUS_SAMPLE_EVERY
        self.expected = {s: refs.CORPUS_ACT_COUNTS[s] for s in self.sizes}
        if args.corrupt:
            self.expected[1] += 1

    def round(self, rng, stats):
        counts = dict.fromkeys(self.sizes, 0)
        cells = [(m, s) for m in self.monoids for s in self.sizes]
        rng.shuffle(cells)
        for monoid, size in cells:
            offset = rng.randrange(self.every)
            stream = catalog.enumerate_acts(monoid, size)
            position = 0
            while True:
                start = perf()
                try:
                    act = next(stream, None)
                    reports = None
                    if act is not None and position % self.every == offset:
                        reports = [separability.check_condition(act, c) for c in refs.CONDITIONS]
                except Exception as exc:  # an op that raises is a failed op
                    stats.raised(perf() - start, exc, f"{monoid.name} size {size}")
                    break
                if act is None:
                    stats.busy += perf() - start
                    break
                stats.done(perf() - start)
                counts[size] += 1
                position += 1
                for condition, report in zip(refs.CONDITIONS, reports or ()):
                    problem = refs.report_problem(act.table, condition, report)
                    if problem is not None:
                        stats.bad(f"{monoid.name} {act.table}: {problem}")
                        break
        if counts != self.expected:
            stats.bad(f"act counts per carrier {counts}, expected {self.expected}")


class Families(Workload):
    """Top reachable parameter of every family, and FAMILY_GOLDEN_PASSES
    passes over the 23 goldens; each instance is one op, built, verified
    and formatted in-process.  The four heavy instances take most of a
    round and set ops_per_s.  The golden instances make up most ops and
    set the latency quantiles.  The seed sets the order of the top
    instances, and the passes are spread evenly between them, so that the
    quantiles sample the machine's speed over the whole round."""

    def __init__(self, args):
        if args.corrupt:
            self.work = _work_dir()
        self.top = [(name, params, None) for name, params in (FAMILY_TOP_TINY if args.tiny else FAMILY_TOP)]
        self.passes = 1 if args.tiny else FAMILY_GOLDEN_PASSES
        self.goldens = _goldens(_golden_dir(self.work, args.corrupt))

    def round(self, rng, stats):
        top = list(self.top)
        rng.shuffle(top)
        items = []
        for i, item in enumerate(top):
            items.append(item)
            items += self.goldens * ((i + 1) * self.passes // len(top) - i * self.passes // len(top))
        for name, params, golden in items:
            start = perf()
            try:
                report = families.verify(families.build(name, params))
                lines = families.format_report(report)
            except Exception as exc:  # an op that raises is a failed op
                stats.raised(perf() - start, exc, f"{name} {params}")
                continue
            stats.done(perf() - start)
            if golden is None:
                problem = refs.family_report_problem(name, params, lines)
            elif ("\n".join(lines) + "\n").encode("ascii") != golden:
                problem = "differs from its golden"
            else:
                problem = None
            if problem is not None:
                stats.bad(f"{name} {params}: {problem}")


class Cli(Workload):
    """The actsep command on dumped files: `family run --golden` for every
    golden, `validate` on large files, and `check`, `min-index` and
    `separate` on mid-size acts.  Each call is a fresh interpreter, or
    `actsep.cli.main(argv)` in this process in the one-round mode, whose
    traced and untraced runs must compare like with like."""

    def __init__(self, args):
        self.in_process = args.traced or args.mode == "once"
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.work = _work_dir()
        goldens = _golden_dir(self.work, args.corrupt)
        golden_items = _goldens(goldens)
        validate = (("kozhukhov", {"n": 4}),) if args.tiny else CLI_VALIDATE
        search = (("kozhukhov", 4),) if args.tiny else CLI_SEARCH
        conditions = ("cs",) if args.tiny else refs.CONDITIONS
        self.calls: list[tuple[list[str], object]] = []
        for name, params, text in golden_items[:2] if args.tiny else golden_items:
            argv = ["family", "run", "--name", name]
            for key, value in params.items():
                argv += ["--param", f"{key}={value}"]
            self.calls.append((argv + ["--golden", str(goldens)], self._expect_stdout(text)))
        for name, params in validate:
            monoid, act, _ = self._dump(name, params)
            self.calls.append((["validate", "--monoid", monoid], self._expect_stdout(b"ok\n")))
            self.calls.append(
                (["validate", "--act", act, "--monoid-file", monoid], self._expect_stdout(b"ok\n"))
            )
        for name, n in search:
            monoid, act, instance = self._dump(name, {"n": n})
            table = instance.act.table
            files = ["--act", act, "--monoid-file", monoid]
            certs = self.work / f"{name}-certs"
            for condition in conditions:
                argv = ["check", *files, "--condition", condition, "--json", "--certificates", str(certs)]
                self.calls.append((argv, self._expect_check(table, condition, certs)))
            element = n if name != "star_semilattice" else n + 1
            forbidden = [x for x in range(n + 2) if x != element] if name == "star_semilattice" else [n + 1]
            where = ["--element", str(element), "--from", ",".join(map(str, forbidden))]
            self.calls.append((["min-index", *files, *where], self._expect_stdout(f"{n + 2}\n".encode())))
            out = self.work / f"{name}.cert"
            self.calls.append(
                (["separate", *files, *where, "--out", str(out)],
                 self._expect_separation(table, element, forbidden, n + 2, out))
            )

    def _dump(self, name, params):
        instance = families.build(name, params)
        directory = self.work / f"{name}-{_params(params)}"
        directory.mkdir(exist_ok=True)
        monoid = directory / f"{name}.monoid"
        act = directory / f"{name}.act"
        monoid.write_text(textio.write_monoid(instance.monoid), encoding="ascii")
        act.write_text(textio.write_act(instance.act), encoding="ascii")
        return str(monoid), str(act), instance

    # each expectation: before() runs ahead of the call, after() checks it
    @staticmethod
    def _expect_stdout(expected: bytes):
        def after(code, out):
            problems = [f"exit {code}, expected 0"] if code != 0 else []
            if out != expected:
                problems.append(f"stdout differs from the expected {len(expected)} bytes")
            return "; ".join(problems) or None

        return (None, after)

    @staticmethod
    def _expect_check(table, condition, certs: Path):
        def before():
            shutil.rmtree(certs, ignore_errors=True)

        def after(code, out):
            if code != 0:
                return f"exit {code}, expected 0"
            payload = json.loads(out)
            if payload["condition"] != condition.upper() or payload["holds"] is not True:
                return "condition not reported as holding"
            if payload["counterexample"] is not None:
                return "counterexample reported"
            instances = [(i["element"], tuple(i["forbidden"])) for i in payload["instances"]]
            if sorted(instances) != refs.condition_instances(table, condition):
                return "wrong instances"
            files = sorted(certs.glob("*.cert"))
            if len(files) != len(instances):
                return f"{len(files)} certificates for {len(instances)} instances"
            for path, item in zip(files, payload["instances"]):
                problem = refs.certificate_problem(
                    table, path.read_text(encoding="ascii"), item["element"], item["forbidden"], item["index"]
                )
                if problem is not None:
                    return f"{path.name}: {problem}"
            return None

        return (before, after)

    @staticmethod
    def _expect_separation(table, element, forbidden, index, out: Path):
        def before():
            out.unlink(missing_ok=True)

        def after(code, stdout):
            if code != 0 or stdout != b"":
                return f"exit {code}, stdout {stdout[:80]!r}"
            return refs.certificate_problem(table, out.read_text(encoding="ascii"), element, forbidden, index)

        return (before, after)

    def _call(self, argv):
        if not self.in_process:
            proc = subprocess.run(
                [sys.executable, "-m", "actsep.cli", *argv],
                capture_output=True,
                cwd=ROOT,
                env=self.env,
                timeout=120,
            )
            return proc.returncode, proc.stdout
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
        return code, out.getvalue().encode("ascii")

    def round(self, rng, stats):
        calls = list(self.calls)
        rng.shuffle(calls)
        for argv, (before, after) in calls:
            if before is not None:
                before()
            start = perf()
            try:
                code, out = self._call(argv)
            except Exception as exc:  # an op that raises is a failed op
                stats.raised(perf() - start, exc, " ".join(argv[:2]))
                continue
            stats.done(perf() - start)
            try:
                problem = after(code, out)
            except (ValueError, KeyError, OSError) as exc:
                problem = f"{type(exc).__name__}: {exc}"
            if problem is not None:
                stats.bad(f"actsep {' '.join(argv)}: {problem}")


class Lattice(Workload):
    """All right congruences of the regular act of every catalog monoid and
    three larger monoids, then the act/monoid correspondence on each
    two-sided quotient."""

    def __init__(self, args):
        entries = catalog.catalog_monoids()
        if args.tiny:
            self.monoids = [(e.name, e.monoid) for e in entries if e.monoid.order <= 3]
        else:
            self.monoids = [(e.name, e.monoid) for e in entries]
            for name, params in LATTICE_EXTRA:
                self.monoids.append((f"{name}-{_params(params)}", families.build(name, params).monoid))
        self.corrupt = args.corrupt

    def prepare(self):
        """Pin (right congruences, two-sided ones) per monoid with the naive
        generate-then-filter oracle from tests/oracles.py."""
        from types import SimpleNamespace

        from oracles import naive_congruences

        self.pins = {}
        for name, monoid in self.monoids:
            regular = SimpleNamespace(
                size=monoid.order, table=monoid.table, monoid=SimpleNamespace(order=monoid.order)
            )
            parts = naive_congruences(regular)
            two = sum(refs.is_left_compatible(monoid.table, p.block_of) for p in parts)
            self.pins[name] = (len(parts), two)
        if self.corrupt:
            name = self.monoids[0][0]
            self.pins[name] = (self.pins[name][0] + 1, self.pins[name][1])

    def round(self, rng, stats):
        order = list(self.monoids)
        rng.shuffle(order)
        for name, monoid in order:
            start = perf()
            try:
                congs = congruences.all_congruences(acts.regular_act(monoid))
                two = [c for c in congs if congruences.two_sided_violation(c) is None]
            except Exception as exc:  # an op that raises is a failed op
                stats.raised(perf() - start, exc, name)
                continue
            stats.busy += perf() - start
            if (len(congs), len(two)) != self.pins[name]:
                stats.bad(f"{name}: {len(congs)} congruences, {len(two)} two-sided, oracle {self.pins[name]}")
            for rho in two:
                start = perf()
                try:
                    report = separability.act_monoid_correspondence(monoid, rho)
                except Exception as exc:  # an op that raises is a failed op
                    stats.raised(perf() - start, exc, name)
                    continue
                stats.done(perf() - start)
                if not (
                    report.two_sided
                    and report.subacts_match_right_ideals
                    and report.equivalences_agree
                    and all(report.act_conditions.values())
                    and all(report.monoid_conditions.values())
                ):
                    stats.bad(f"{name}: correspondence fails on {rho.partition.block_of}")


WORKLOADS = {"corpus": Corpus, "families": Families, "cli": Cli, "lattice": Lattice}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--mode", choices=("setup", "run", "once"), default="run")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", help="file for the traced spans")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload](args)
    result: dict = {"setup_s": perf() - T0}
    try:
        if args.mode != "setup":
            workload.prepare()
            stats = Stats()
            rng = random.Random(args.seed)
            start = perf()
            rounds = 0
            while True:
                workload.round(rng, stats)
                rounds += 1
                stats.keep_latencies = len(stats.latencies) < LATENCY_CAP
                elapsed = perf() - start
                # stop at the round count whose total lies nearest --seconds
                if args.mode == "once" or elapsed + elapsed / rounds / 2 >= args.seconds:
                    break
            lat = stats.latencies if len(stats.latencies) > 1 else stats.latencies * 2
            _, p50, p75 = statistics.quantiles(lat, n=4)
            in_children = isinstance(workload, Cli) and not workload.in_process
            who = resource.RUSAGE_CHILDREN if in_children else resource.RUSAGE_SELF
            result.update(
                ops=stats.ops,
                failed=stats.failed,
                problems=stats.problems,
                rounds=rounds,
                busy_s=stats.busy,
                wall_s=perf() - start,
                ops_per_s=(stats.ops - stats.failed) / stats.busy if stats.busy else 0.0,
                call_p50_ms=p50 * 1000,
                call_p75_ms=p75 * 1000,
                peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024,
            )
            if tracer is not None:
                result["layers"] = tracer.metrics()
                if args.spans:
                    result["spans"] = tracer.write_spans(args.spans)
    finally:
        workload.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
