"""The gofboot benchmark: CLI workloads, end-to-end metrics, per-layer trace.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload boot-small --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table each
    python3 perfbench/run.py --compare BASE.jsonl HEAD.jsonl

A run generates its inputs from ``--seed``, then invokes the CLI in a
closed loop, one fresh interpreter at a time, for ``--seconds``. Every
invocation's exit code and output are checked. ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` alternates untraced and
traced invocations at ``--threads 1`` and reports the per-layer metrics.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import tracer
import workloads as wl

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench"
CHILD = BENCH_DIR / "child.py"

# The layers are the modules of src/gofboot that do work.
LAYERS = ("cli", "regression", "variance", "bootstrap", "diagnostics", "special", "simulation")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Stamp fields that identify the code under test rather than the environment.
CODE_FIELDS = ("commit", "dirty", "src_digest")
# A hung invocation that starts near the end of a run is killed early
# enough for the whole run to end within three minutes.
INVOCATION_TIMEOUT_S = 120.0


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# invocation
# ---------------------------------------------------------------------------


def invoke(argv: list[str], spans_path: str = "-") -> dict:
    """Run one CLI invocation in a fresh interpreter; return the child's report.

    A child that crashes or times out is reported with code -1 and its
    stderr, so it counts as a failed invocation.
    """
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), str(ROOT), spans_path, "--", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=INVOCATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return {"code": -1, "stdout": "", "error": f"timed out: {err[-500:]}"}
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"code": -1, "stdout": "", "error": f"child exit {proc.returncode}: {err[-500:]}"}
    try:
        return json.loads(lines[-1])
    except ValueError:
        return {"code": -1, "stdout": "", "error": f"unreadable child report: {lines[-1][:200]!r}"}


@dataclass
class Tally:
    """The problems found in each invocation of one run; [] for a correct one."""

    problems: list[list[str]] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.problems)

    @property
    def failed(self) -> int:
        return sum(1 for p in self.problems if p)


def check(workload, expected, seed: int, report: dict, first_stdout: str | None) -> list[str]:
    """All oracle checks on one invocation; [] when it is correct."""
    if report["code"] == -1:
        return [report["error"]]
    stdout = report["stdout"]
    problems = wl.check_output(workload, expected, report["code"], stdout)
    if seed == wl.DEFAULT_SEED:
        problems += wl.check_golden(workload, stdout)
    if first_stdout is not None and stdout != first_stdout:
        problems.append("output differs from the run's first completed invocation")
    return problems


def check_all(workload, expected, seed: int, reports: list[dict]) -> Tally:
    """Check every invocation of a run against the oracle and each other."""
    first = next((r["stdout"] for r in reports if r["code"] != -1), None)
    result = Tally()
    for report in reports:
        result.problems.append(check(workload, expected, seed, report, first))
    return result


def closed_loop(seconds: float, kinds: list[tuple], invoker=invoke) -> dict:
    """Invoke each (key, argv, spans_path or None) in turn until ``seconds`` pass.

    Every kind runs at least once. Returns {key: [report, ...]} in order.
    Spans of the i-th traced invocation go to ``spans_path`` with suffix i.
    """
    reports = {key: [] for key, _, _ in kinds}
    start = time.perf_counter()
    while True:
        for key, argv, spans in kinds:
            i = len(reports[key])
            reports[key].append(invoker(argv, f"{spans}.{i}" if spans else "-"))
        if time.perf_counter() - start >= seconds:
            return reports


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    for q in (0.99, 0.9, 0.75):
        if len(values) * (1.0 - q) >= 10:
            return f"p{round(q * 100)}={np.quantile(values, q):.6g}"
    return "no tail percentile (fewer than 10 samples beyond p75)"


def completed(reports: list[dict]) -> list[dict]:
    """The reports of invocations that ran to the end; exits if there are none,
    because a run without one has nothing to measure."""
    ok = [r for r in reports if r["code"] != -1]
    if not ok:
        raise SystemExit(f"no invocation completed: {reports[0]['error']}")
    return ok


def end_to_end_samples(workload, reports: list[dict]) -> dict[str, list[float]]:
    ok = completed(reports)
    return {
        "wall_s": [r["wall_s"] for r in ok],
        "work_per_s": [workload.work / r["wall_s"] for r in ok],
        "cpu_s": [r["cpu_s"] for r in ok],
        "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
        "setup_s": [r["setup_s"] for r in ok],
    }


# ---------------------------------------------------------------------------
# environment stamp
# ---------------------------------------------------------------------------


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _git(*args) -> str | None:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def _blas(config: dict) -> str:
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name')} {blas.get('version')}"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment_stamp() -> dict:
    """Where and on what a result was measured. Thread variables are read,
    never set: the benchmark runs in the caller's environment."""
    status = _git("status", "--porcelain", "--", "src")
    return {
        "commit": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "src_digest": _digest((ROOT / "src").rglob("*.py")),
        "bench_digest": _digest(
            [p for p in BENCH_DIR.rglob("*") if p.is_file() and "__pycache__" not in p.parts]
            + [ROOT / "BENCHMARK.json"]
        ),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(np.show_config(mode="dicts")),
        "scipy_blas": _blas(scipy.show_config(mode="dicts")),
        "env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def stamp_mismatch(a: dict, b: dict) -> list[str]:
    """Environment fields on which two stamps differ; code fields may differ."""
    keys = sorted((set(a) | set(b)) - set(CODE_FIELDS))
    return [f"{k}: {a.get(k)!r} != {b.get(k)!r}" for k in keys if a.get(k) != b.get(k)]


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def prepare(workload, seed: int, run_dir: Path):
    """Write the workload's CSV, if it reads one; return (path or None, expected)."""
    data = wl.generate(workload, seed)
    if data is None:
        return None, None
    csv_path = run_dir / f"{workload.name}.csv"
    wl.write_csv(csv_path, *data)
    return str(csv_path), wl.expected_for(data)


def run_workload(workload, seed: int, seconds: float, trace: bool, spec: dict, invoker=invoke):
    """Measure one workload; return (tally, metrics {name: value}, samples, notes)."""
    run_dir = WORK_DIR / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        csv_path, expected = prepare(workload, seed, run_dir)
        argv = workload.argv(csv_path, seed)
        if not trace:
            reports = closed_loop(seconds, [("plain", argv, None)], invoker)["plain"]
            samples = end_to_end_samples(workload, reports)
            metrics = {m["name"]: statistics.median(samples[m["name"]]) for m in spec["end_to_end"]}
            return check_all(workload, expected, seed, reports), metrics, samples, []
        return _traced_run(workload, expected, seed, seconds, csv_path, spec, run_dir, invoker)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _traced_run(workload, expected, seed, seconds, csv_path, spec, run_dir, invoker):
    # Tracing is single-process, so the traced form runs at --threads 1 and
    # its untraced baseline does too; results are identical for any value.
    trace_argv = workload.argv(csv_path, seed, threads=1)
    spans_base = run_dir / "spans"
    reports = closed_loop(
        seconds,
        [("plain", trace_argv, None), ("traced", trace_argv, str(spans_base))],
        invoker,
    )
    tally = check_all(workload, expected, seed, reports["plain"] + reports["traced"])

    kept = WORK_DIR / "spans" / f"{workload.name}.jsonl"
    kept.parent.mkdir(parents=True, exist_ok=True)
    tables = []
    with kept.open("w") as sink:
        for i, report in enumerate(reports["traced"]):
            path = Path(f"{spans_base}.{i}")
            if report["code"] == -1 or not path.exists():
                continue
            spans = tracer.read_spans(path)
            for span in spans:
                sink.write(json.dumps({"run": i, **span}) + "\n")
            tables.append(tracer.layer_table(spans, LAYERS))
    if not tables:
        tally.problems.append(["no traced invocation produced spans"])
        tables = [tracer.layer_table([], LAYERS)]

    samples = {key: [t[key] for t in tables] for key in tables[0]}
    plain_wall = [r["wall_s"] for r in completed(reports["plain"])]
    samples["trace.overhead_s"] = [w - statistics.median(plain_wall) for w in samples["trace.wall_s"]]
    metrics = {m["name"]: statistics.median(samples[m["name"]]) for m in spec["per_layer"]}
    notes = [
        f"spans: {kept.relative_to(ROOT)} ({len(tables)} traced invocations)",
        f"traced and baseline argv: {' '.join(trace_argv)}",
        f"untraced median wall at --threads 1: {statistics.median(plain_wall):.6f} s; "
        f"traced median wall: {statistics.median(samples['trace.wall_s']):.6f} s",
    ]
    if trace_argv != workload.argv(csv_path, seed):
        notes.append(
            "trace.overhead_s is against an untraced --threads 1 baseline; the "
            "workload's own process-pool wait shows only in its --trace 0 cpu_s vs wall_s"
        )
    return tally, metrics, samples, notes


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def print_block(workload, seed, trace, tally, metrics, samples, notes, spec, stamp) -> None:
    defs = spec["per_layer"] if trace else spec["end_to_end"]
    mode = "traced" if trace else "untraced"
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload.name)
    print(f"== {workload.name} (seed {seed}, {mode}): {why}")
    print("stamp: " + json.dumps(stamp, sort_keys=True))
    for m in defs:
        values = samples[m["name"]]
        q1, _, q3 = quartiles(values)
        line = (
            f"  {m['name']:<24} {metrics[m['name']]:>14.6g} {m['unit']:<8} "
            f"median of n={len(values)}, q1={q1:.6g} q3={q3:.6g} ({m['better']} is better)"
        )
        if not trace:
            line += " " + tail(values)
        elif m["name"] in wl.LAYER_TARGETS:
            line += f"  -> {wl.LAYER_TARGETS[m['name']]}"
        print(line)
    fail_ratio = tally.failed / tally.attempted
    print(f"  {'fail_ratio':<24} {fail_ratio:>14.6g} fraction {tally.failed}/{tally.attempted} invocations")
    if not trace:
        print(f"  work per invocation: {workload.work} {workload.work_unit}")
    for note in notes:
        print(f"  {note}")
    for i, problems in enumerate(tally.problems):
        for problem in problems:
            print(f"  FAIL invocation {i}: {problem}")


def record_run(path, stamp, workload, seed, trace, seconds, started, tally, metrics, samples) -> None:
    entry = {
        "stamp": stamp,
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "started_at": started,
        "finished_at": time.time(),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "samples": samples,
    }
    with open(path, "a") as handle:
        handle.write(json.dumps(entry) + "\n")


# ---------------------------------------------------------------------------
# compare mode
# ---------------------------------------------------------------------------


def _load_records(path) -> list[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def verdict(base: list[float], head: list[float], wins: int, pairs: int, better: str, bound: float) -> str:
    """improved / regressed / within bound / unresolved, by choosing-metrics §8."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(base), statistics.median(head)
    q1, _, q3 = quartiles(base)
    worse_by = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    if pairs >= 10 and wins >= 0.9 * pairs and sign * (med_a - med_b) > q3 - q1:
        return "improved"
    all_better = max(sign * v for v in head) < min(sign * v for v in base)
    if med_a and (q3 - q1) / abs(med_a) > bound and not all_better:
        return "unresolved"
    return "regressed" if worse_by > bound else "within bound"


def _spread_text(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


def compare(base_path, head_path, spec) -> int:
    """Print one row per (metric, workload) for two record files.

    Runs pair up by workload and seed, so record each pair with its own
    seed, alternating which side runs first. Refuses records whose
    environment stamps differ.
    """
    base, head = _load_records(base_path), _load_records(head_path)
    reference = base[0]["stamp"]
    for rec in base + head:
        diff = stamp_mismatch(reference, rec["stamp"])
        if diff:
            print("refusing to compare: environment stamps differ: " + "; ".join(diff))
            return 2
    for label, path, recs in (("base", base_path, base), ("head", head_path, head)):
        print(f"{label}: {path} (commit {recs[0]['stamp']['commit']}, src {recs[0]['stamp']['src_digest']})")
    print(f"{'metric':<12} {'workload':<13} {'base median [q1, q3]':<32} "
          f"{'head median [q1, q3]':<32} pairs base-first wins  verdict")
    for name in sorted({r["workload"] for r in base} & {r["workload"] for r in head}):
        runs_a = {r["seed"]: r for r in base if r["workload"] == name and not r["trace"]}
        runs_b = {r["seed"]: r for r in head if r["workload"] == name and not r["trace"]}
        seeds = sorted(set(runs_a) & set(runs_b))
        if not seeds:
            continue
        base_first = sum(runs_a[s]["started_at"] < runs_b[s]["started_at"] for s in seeds)
        prefix = f"{name:<13} "
        for m in spec["end_to_end"]:
            key, sign = m["name"], 1.0 if m["better"] == "lower" else -1.0
            a = [runs_a[s]["metrics"][key] for s in seeds]
            b = [runs_b[s]["metrics"][key] for s in seeds]
            wins = sum(sign * y < sign * x for x, y in zip(a, b))
            print(f"{key:<12} {prefix}{_spread_text(a):<32} {_spread_text(b):<32} "
                  f"{len(seeds):>5} {base_first:>10} {wins:>4}  "
                  f"{verdict(a, b, wins, len(seeds), m['better'], m['bound'])}")
        fails = [
            sum(r[s]["failed"] for s in seeds) / sum(r[s]["attempted"] for s in seeds)
            for r in (runs_a, runs_b)
        ]
        print(f"{'fail_ratio':<12} {prefix}{fails[0]:<32.6g} {fails[1]:<32.6g} "
              f"{len(seeds):>5} {base_first:>10} {'':>4}  "
              f"{'regressed' if fails[1] > fails[0] else 'within bound'}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must be an unsigned 64-bit integer")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=_seed, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="measurement time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append each run's full result as a JSON line here")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"), help="compare two record files")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gofboot" / "cli.py").is_file():
        print(f"error: no gofboot source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    if args.workload is None:
        parser.error("--workload is required")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    stamp = environment_stamp()
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        workload = wl.WORKLOADS[name]
        started = time.time()
        tally, metrics, samples, notes = run_workload(
            workload, args.seed, seconds, bool(args.trace), spec
        )
        print_block(workload, args.seed, args.trace, tally, metrics, samples, notes, spec, stamp)
        if args.record:
            record_run(args.record, stamp, workload, args.seed, args.trace, seconds,
                       started, tally, metrics, samples)
        summary["correct"] &= tally.failed == 0
        summary["attempted"] += tally.attempted
        summary["failed"] += tally.failed
        defs = spec["per_layer"] if args.trace else spec["end_to_end"]
        prefix = f"{name}." if len(names) > 1 else ""
        for m in defs:
            summary["metrics"][prefix + m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
