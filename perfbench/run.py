"""actsep benchmark: run one workload with one seed and print one JSON result.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root.  Each workload runs in child processes of
worker.py, one after another, with ACTSEP_MAX_SEARCH removed from their
environment.  `--trace 0` reports the end-to-end metrics of BENCHMARK.json;
`--trace 1` reports its per-layer metrics from two traced runs, whose exact
counts must agree, and one untraced run for the tracing overhead.  The last
line of standard output is the result; the line before it records the
environment.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("corpus", "families", "cli", "lattice")
FIXED_LIST = ("families", "cli", "lattice")  # the seed only sets their order
SETUP_SAMPLES = 15  # odd: half before the timed run, half after, one inside it
BUDGET_S = 170.0
REQUIRED = ("BENCHMARK.json", "src/actsep/__init__.py", "src/actsep/cli.py", "tests/oracles.py", "goldens/v1")


class BenchError(Exception):
    pass


def _child_env() -> dict[str, str]:
    """The caller's environment without the search-cap override, with
    bytecode cached under perfbench/out as an installed package would have
    it, whatever the caller set."""
    env = dict(os.environ)
    env.pop("ACTSEP_MAX_SEARCH", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args: list[str], deadline: float) -> dict:
    """Run worker.py to completion and return its JSON line."""
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        raise BenchError("time budget used up before " + " ".join(args))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT,
            env=_child_env(),
            stdout=subprocess.PIPE,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError("worker timed out: " + " ".join(args)) from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: " + " ".join(args))
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def _is_count(name: str) -> bool:
    return name.endswith((".calls", ".yielded", ".cap_aborts")) or name in (
        "separability.instances",
        "search_yielded",
    )


def count_differences(first: dict, second: dict) -> list[str]:
    names = {k for k in (*first, *second) if _is_count(k)}
    return sorted(k for k in names if first.get(k, 0) != second.get(k, 0))


def _median_time(code: str, samples: int = 5) -> float:
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        if subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_child_env()).returncode != 0:
            raise BenchError(f"python -c {code!r} failed")
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure(workload: str, seed: int, seconds: float, extra: list[str], deadline: float):
    """End-to-end metrics.  setup_s is the median of SETUP_SAMPLES set-ups,
    spread before and after the timed run and one inside it, so that a slow
    spell of the machine moves few of them."""
    base = ["--workload", workload, "--seed", str(seed), *extra]

    def set_up(count: int) -> list[float]:
        return [_worker(base + ["--mode", "setup"], deadline)["setup_s"] for _ in range(count)]

    before = set_up(SETUP_SAMPLES // 2)
    run = _worker(base + ["--mode", "run", "--seconds", str(seconds)], deadline)
    setups = before + [run["setup_s"]] + set_up(SETUP_SAMPLES // 2)
    metrics = {key: run[key] for key in ("ops_per_s", "peak_rss_mb", "call_p50_ms", "call_p75_ms")}
    metrics["setup_s"] = statistics.median(setups)
    info = {"rounds": run["rounds"], "setup_samples_s": setups, "busy_s": run["busy_s"], "wall_s": run["wall_s"]}
    return metrics, run["ops"], run["failed"], run["problems"], info


def trace(workload: str, seed: int, extra: list[str], deadline: float, per_layer: list[str]):
    """Per-layer metrics: one untraced round, then two traced rounds whose
    exact counts must agree.  All three call the cli in-process, so the
    overhead compares like with like."""
    base = ["--workload", workload, "--seed", str(seed), "--mode", "once", *extra]
    (OUT / "spans").mkdir(parents=True, exist_ok=True)
    plain = _worker(base, deadline)
    runs = [
        _worker(base + ["--traced", "--spans", str(OUT / "spans" / f"{workload}-{label}.tsv")], deadline)
        for label in ("a", "b")
    ]
    first, second = (r["layers"] for r in runs)
    differences = count_differences(first, second)
    traced_rate = statistics.mean(r["ops_per_s"] for r in runs)
    measured = {
        "trace.overhead_frac": plain["ops_per_s"] / traced_rate - 1 if traced_rate else 0.0,
        "cli.import_s": _median_time("import actsep.cli") - _median_time("pass"),
    }
    metrics = {}
    for name in per_layer:
        if name in measured:
            metrics[name] = measured[name]
        elif name.endswith(".self_s"):
            metrics[name] = statistics.mean(layers.get(name, 0.0) for layers in (first, second))
        else:
            metrics[name] = first.get(name, 0)
    everyone = [plain, *runs]
    problems = [p for r in everyone for p in r["problems"]]
    failed = sum(r["failed"] for r in everyone)
    if differences:
        problems.append("traced counts differ between two runs: " + ", ".join(differences[:10]))
        failed += 1
    info = {"spans": [r.get("spans") for r in runs], "counts": {k: v for k, v in first.items() if _is_count(k)}}
    return metrics, sum(r["ops"] for r in everyone), failed, problems, info


def _environment(workload: str, seed: int, seconds: float, trace_flag: int) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown (not a git checkout)"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "actsep").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace_flag,
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def benchmark(workload, seed, seconds, trace_flag, extra=()) -> tuple[dict, dict]:
    """(result line, record) for one invocation."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if trace_flag else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    deadline = time.monotonic() + BUDGET_S
    if trace_flag:
        values, ops, failed, problems, info = trace(workload, seed, list(extra), deadline, list(units))
    else:
        values, ops, failed, problems, info = measure(workload, seed, seconds, list(extra), deadline)
    failed = min(failed, ops)
    result = {
        "correct": failed == 0,
        "attempted": ops,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = _environment(workload, seed, seconds, trace_flag)
    record.update(ops=ops, failed=failed, failed_frac=failed / ops if ops else 1.0, problems=problems, **info)
    return result, record


def selftest() -> int:
    """Tiny runs of every workload: clean references pass, a corrupted one
    fails, traced counts repeat (across seeds for the fixed-list
    workloads), and every metric of BENCHMARK.json is reported."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    checks = []
    for workload in WORKLOADS:
        start = time.monotonic()
        plain, _ = benchmark(workload, 1, 0, 0, ["--tiny"])
        checks.append((f"{workload}: tiny run passes", plain["correct"] and plain["attempted"] > 0))
        checks.append((
            f"{workload}: every end-to-end metric reported",
            sorted(plain["metrics"]) == sorted(m["name"] for m in spec["end_to_end"]),
        ))
        traced, record = benchmark(workload, 1, 0, 1, ["--tiny"])
        checks.append((f"{workload}: traced run passes, counts repeat", traced["correct"]))
        checks.append((
            f"{workload}: every per-layer metric reported",
            sorted(traced["metrics"]) == sorted(m["name"] for m in spec["per_layer"]),
        ))
        if workload in FIXED_LIST:
            base = ["--workload", workload, "--mode", "once", "--tiny", "--traced"]
            other = _worker(base + ["--seed", "2"], time.monotonic() + BUDGET_S)["layers"]
            differences = count_differences(record["counts"], other)
            checks.append((f"{workload}: traced counts repeat across seeds", not differences))
        broken, record = benchmark(workload, 1, 0, 0, ["--tiny", "--corrupt"])
        checks.append((
            f"{workload}: corrupted reference reported as failure",
            not broken["correct"] and broken["failed"] > 0,
        ))
        print(f"# {workload}: {time.monotonic() - start:.1f} s; corrupted run said: {record['problems'][:1]}")
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    return 0 if all(ok for _, ok in checks) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        print(f"error: run from an actsep checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        result, record = benchmark(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / "results" / name).write_text(json.dumps({"result": result, "record": record}, indent=1) + "\n")
    for problem in record["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"record": {k: v for k, v in record.items() if k not in ("counts", "problems")}}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
