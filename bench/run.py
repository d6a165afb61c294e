"""The camfed benchmark.

    python3 bench/run.py --workload fleet --seed 0 --seconds 40 --trace 0

Runs whole experiments of one workload (see workloads.py), each in a fresh
interpreter as `camfed run` would be, until --seconds are spent (at least
MIN_RUNS of them); without --workload it does so for fleet, swarm and
sampled in turn, each ending in its own JSON line. Every run's artifacts are checked, and their digests must
agree across runs. The last line of stdout is one JSON object: `correct`,
`attempted` and `failed` client updates, and `metrics`. With --trace 0 the
metrics are the end-to-end ones, medians over the runs. With --trace 1 one
more run is traced and the metrics are its per-layer ones; its spans and a
full per-function table go to bench/_out/. Exits 1 when a check failed and 2
when there is no camfed source next to the benchmark.
"""

import os

# Inherited by every run: single-threaded BLAS, as camfed's CLI sets it.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import PER_LAYER
from workloads import WORKLOADS, build_config, updates_per_run

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "_out"

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("round_s", "s"),
              ("crosseval_s", "s"), ("peak_rss_mb", "MB"))
MIN_RUNS = 3            # untraced runs, for a median and a digest comparison
MIN_RUNS_TRACED = 2     # untraced runs before the traced one
TRACED_COST = 1.5       # a traced run takes up to this many untraced ones
START_LIMIT_S = 150.0   # no run starts later, so the whole command ends < 180 s
TAIL_LEVELS = (75, 90, 95, 99)
MIN_BEYOND = 10         # samples a reported percentile needs beyond it


def tail_percentile(n: int) -> int | None:
    """Highest of TAIL_LEVELS with at least MIN_BEYOND of n samples beyond it."""
    fitting = [p for p in TAIL_LEVELS if n * (100 - p) / 100 >= MIN_BEYOND]
    return max(fitting) if fitting else None


def percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def git_commit(root: Path) -> str:
    """HEAD's commit from .git in `root`, or "unknown" outside a checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def loop_ms(iterations: int = 200_000, repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop: how fast the machine is now.

    Other tenants of a shared machine can halve its speed for seconds at a
    time, which load averages inside the container do not show.
    """
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        total = 0
        for i in range(iterations):
            total += i
        times.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(times)


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "loop_ms_start": loop_ms(),
        "git_commit": git_commit(ROOT),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "workers": 1,
    }


def child_command(workload: str, seed: int, trace: bool) -> list:
    cmd = [sys.executable, str(BENCH / "experiment.py"),
           "--workload", workload, "--seed", str(seed)]
    return cmd + ["--trace"] if trace else cmd


def run_child(workload: str, seed: int, trace: bool, timeout: float) -> dict:
    """One experiment in a fresh interpreter; failures come back as data."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(child_command(workload, seed, trace),
                              stdout=subprocess.PIPE, text=True,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        return {"failures": [f"run timed out after {timeout:.0f} s"],
                "wall_s": time.perf_counter() - t0}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"failures": [f"run exited with code {proc.returncode}"],
                "wall_s": time.perf_counter() - t0}
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - t0
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """Untraced runs until `seconds` are spent, then the traced one if asked."""
    start = time.perf_counter()
    runs = []
    minimum = MIN_RUNS_TRACED if trace else MIN_RUNS
    while True:
        elapsed = time.perf_counter() - start
        est = statistics.median(r["wall_s"] for r in runs) if runs else 0.0
        reserve = TRACED_COST * est if trace else 0.0
        if len(runs) >= minimum and elapsed + est + reserve > seconds:
            break
        if runs and (runs[-1]["failures"] or elapsed + est > START_LIMIT_S):
            break
        runs.append(run_child(workload, seed, False,
                              START_LIMIT_S + 20 - elapsed))
    traced = None
    if trace and not runs[-1]["failures"]:
        elapsed = time.perf_counter() - start
        traced = run_child(workload, seed, True, START_LIMIT_S + 25 - elapsed)
    return runs, traced


def check_runs(runs: list, updates_per_run: int):
    """(attempted, failed, failure messages) over all runs.

    A run that failed a check counts all its updates as failed, and so does
    a run whose artifact digests differ from the first passing run's.
    """
    attempted = failed = 0
    messages = []
    reference = None
    for i, run in enumerate(runs, 1):
        problems = list(run["failures"])
        if not problems:
            if reference is None:
                reference = run["digests"]
            else:
                differ = sorted(k for k in reference
                                if run["digests"].get(k) != reference[k])
                if differ:
                    problems.append(f"digests of {differ} differ from the "
                                    "first run's")
        attempted += run.get("attempted", updates_per_run)
        if problems:
            failed += run.get("attempted", updates_per_run)
            messages += [f"run {i}: {p}" for p in problems]
        else:
            failed += run["aborted"]
    return attempted, failed, messages


def end_to_end(runs: list) -> dict:
    self_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "run_s": statistics.median(r["run_s"] for r in runs),
        "setup_s": statistics.median(s for r in runs for s in r["setup_s"]),
        "round_s": statistics.median(s for r in runs for s in r["round_s"]),
        "crosseval_s": statistics.median(r["crosseval_s"] for r in runs),
        "peak_rss_mb": max([self_mb] + [r["peak_rss_mb"] for r in runs]),
    }


def bench_workload(workload: str, seed: int, seconds: float,
                   trace: bool) -> int:
    """Run, check and report one workload; returns the exit code."""
    env = environment()
    config = build_config(workload, seed)
    runs, traced = run_workload(workload, seed, seconds, trace)
    passing = [r for r in runs if not r["failures"]]
    attempted, failed, failures = check_runs(
        runs + ([traced] if traced else []), updates_per_run(config))
    if trace and traced is None:
        failures.append("no traced run: an untraced run failed first")
    env["numpy"] = passing[0]["numpy"] if passing else "unknown"
    warnings = sorted({w for r in passing for w in r.get("warnings", ())})
    correct = not failures and bool(passing)

    print(f"workload {workload} seed {seed}: {len(runs)} untraced "
          f"runs in {sum(r['wall_s'] for r in runs):.1f} s")
    print("env " + json.dumps(env, sort_keys=True))
    metrics, units = {}, {}
    if passing:
        e2e = end_to_end(passing)
        rounds = [s for r in passing for s in r["round_s"]]
        setups = [s for r in passing for s in r["setup_s"]]
        notes = {"run_s": f"median of {len(passing)} runs",
                 "setup_s": f"median of {len(setups)} build_engine calls",
                 "round_s": f"median of {len(rounds)} rounds",
                 "crosseval_s": f"median of {len(passing)} runs",
                 "peak_rss_mb": "largest of this process and its runs"}
        p = tail_percentile(len(rounds))
        if p is not None:
            notes["round_s"] += f"; p{p} {percentile(rounds, p):.4f} s"
        for name, unit in END_TO_END:
            print(f"  {name:<12} {e2e[name]:>12.4f} {unit:<3} {notes[name]}")
        final_iou = statistics.fmean(r["final_iou"] for r in passing)
        print(f"  {'final_iou':<12} {final_iou:>12.4f}     mean last-round "
              "val IoU over clients (deterministic per seed)")
        if not trace:
            metrics, units = e2e, dict(END_TO_END)
    print(f"  {'failed_frac':<12} {failed / max(attempted, 1):>12.4f}     "
          f"{failed} of {attempted} client updates")
    if trace and traced is not None and not traced["failures"]:
        layers = dict(traced["layers"])
        untraced = statistics.median(r["run_s"] for r in passing)
        layers["trace.overhead"] = traced["run_s"] / untraced
        metrics = {name: layers[name] for name, _, _ in PER_LAYER}
        units = {name: unit for name, unit, _ in PER_LAYER}
        metric, floor = WORKLOADS[workload].reason
        print(f"  reason: {metric} = {layers[metric]:.3f} "
              f"({'holds' if layers[metric] >= floor else 'does not hold'}, "
              f"needs >= {floor})")
        print(f"  spans cover >= {layers['trace.round_coverage']:.3f} of every "
              f"round; tracing overhead {layers['trace.overhead']:.3f}x; "
              f"spans in {traced['spans_file']}")
    for w in warnings:
        print(f"  warning: {w}")
    for f in failures:
        print(f"  FAILED {f}")

    OUT.mkdir(exist_ok=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "env": env, "config": config.to_dict(),
              "correct": correct, "attempted": attempted, "failed": failed,
              "failures": failures, "warnings": warnings, "metrics": metrics,
              "runs": runs, "traced": traced}
    path = OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0 if correct else 1


def main(argv=None) -> int:
    if not (ROOT / "src" / "camfed" / "__init__.py").is_file():
        print(f"error: no camfed source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all"] + list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    codes = [bench_workload(name, args.seed, args.seconds, bool(args.trace))
             for name in names]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
