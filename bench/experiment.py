"""One run of a benchmark workload, in a fresh interpreter.

    python3 bench/experiment.py --workload fleet --seed 0 [--trace]

Calls `experiments.run_experiment`, the function `camfed run` calls, with
workers=1, and times its phases: `build_engine`, each `run_round` and
`cross_eval_matrix`. Without --trace only those three are wrapped; with it,
every public camfed function and method is, and the privacy and top-k audits
run. Then it checks the artifacts and prints one JSON object.
"""

import os

# Single-threaded BLAS, set before numpy loads, as camfed's CLI does.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import csv
import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy as np  # noqa: E402

from camfed import experiments  # noqa: E402
from layers import (BUILD_ENGINE, CROSS_EVAL, RUN_ROUND, Probe,  # noqa: E402
                    layer_metrics)
from tracer import Tracer, leftover_wrappers  # noqa: E402
from workloads import build_config  # noqa: E402

OUT = BENCH / "_out"
ARTIFACTS = ("rounds.csv", "cross_eval.csv", "checkpoint.bin")
# numpy 2 spells repr(np.float64(x)) like this; cross_eval.csv cells carry it
NP_REPR = "np.float64("
EXTRA_SETUPS = 2     # more build_engine samples per run, for a steadier median


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_outputs(config, engine, out_dir):
    """The output checks: (a message per failed check, warnings)."""
    failures, warnings = [], []
    if engine.round != config.rounds:
        failures.append(f"completed {engine.round} of {config.rounds} rounds")
    for rec in engine.records:
        if rec.selected and not rec.aborted and not math.isfinite(rec.train_loss):
            failures.append(f"round {rec.round} client {rec.client_id}: "
                            f"loss {rec.train_loss}")
        if not 0.0 <= rec.val_iou <= 1.0:
            failures.append(f"round {rec.round} client {rec.client_id}: "
                            f"val IoU {rec.val_iou}")
    with open(out_dir / "rounds.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != config.rounds * len(config.clients):
        failures.append(f"rounds.csv has {len(rows)} rows")
    up = sum(int(r["bits_up"]) for r in rows)
    down = sum(int(r["bits_down"]) for r in rows)
    ledger = engine.ledger
    if (up, down) != (ledger.total_up, ledger.total_down):
        failures.append(f"rounds.csv bits {up}/{down} != ledger "
                        f"{ledger.total_up}/{ledger.total_down}")
    if rows and int(rows[-1]["cum_bits"]) != ledger.total:
        failures.append(f"last cum_bits {rows[-1]['cum_bits']} != {ledger.total}")
    with open(out_dir / "cross_eval.csv", newline="", encoding="utf-8") as fh:
        raw = [v for row in list(csv.reader(fh))[1:] for v in row[1:]]
    cells = [float(v.removeprefix(NP_REPR).removesuffix(")")) for v in raw]
    if len(cells) != len(config.clients) ** 2:
        failures.append(f"cross_eval.csv has {len(cells)} cells")
    bad = [v for v in cells if not 0.0 <= v <= 1.0]
    if bad:
        failures.append(f"{len(bad)} cross-eval IoUs outside [0, 1]")
    wrapped = sum(v.startswith(NP_REPR) for v in raw)
    if wrapped:
        warnings.append(f"cross_eval.csv writes {wrapped} of {len(raw)} cells "
                        f"as numpy reprs ({NP_REPR}...), not plain numbers")
    return failures, warnings


def run(workload: str, seed: int, trace: bool) -> dict:
    config = build_config(workload, seed)
    out_dir = OUT / f"run-{workload}-{seed}-{os.getpid()}"
    if trace:
        tracer = Tracer()
        probe = Probe(tracer)
        tracer.hooks = probe.hooks()
    else:
        tracer = Tracer(only=(BUILD_ENGINE, RUN_ROUND, CROSS_EVAL))
    try:
        with tracer:
            start = time.perf_counter()
            engine, report = experiments.run_experiment(config, out_dir,
                                                        workers=1)
            run_s = time.perf_counter() - start
        left = leftover_wrappers()
        failures, warnings = check_outputs(config, engine, out_dir)
        digests = {name: _sha256(out_dir / name) for name in ARTIFACTS}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if left:
        failures.append(f"tracer left wrappers behind: {left}")

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = tracer.durations(BUILD_ENGINE)
    for _ in range(EXTRA_SETUPS):
        t0 = time.perf_counter()
        experiments.build_engine(config)
        setups.append(time.perf_counter() - t0)
    result = {
        "workload": workload, "seed": seed, "trace": trace,
        "numpy": np.__version__,
        "run_s": run_s,
        "setup_s": setups,
        "round_s": tracer.durations(RUN_ROUND),
        "crosseval_s": sum(tracer.durations(CROSS_EVAL)),
        "final_iou": statistics.fmean(c["final_iou"] for c in report["clients"]),
        "attempted": sum(r.selected for r in engine.records),
        "aborted": sum(r.aborted for r in engine.records),
        "digests": digests,
        "peak_rss_mb": peak_rss_mb,
        "failures": failures,
        "warnings": warnings,
    }
    if trace:
        result["failures"] += probe.audit_failures(config.topk_retention < 1.0)
        result["layers"] = layer_metrics(tracer, probe)
        result["layer_table"] = {name: {"calls": c, "s": busy, "self_s": own}
                                 for name, (c, busy, own)
                                 in sorted(tracer.table().items())}
        spans = OUT / f"spans-{workload}-seed{seed}.csv.gz"
        tracer.write(spans)
        result["spans_file"] = str(spans.relative_to(BENCH.parent))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    print(json.dumps(run(args.workload, args.seed, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
