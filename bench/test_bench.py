"""Tests of the benchmark's own code: python -m pytest bench/test_bench.py"""

import json
import re
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
from camfed import experiments  # noqa: E402
from camfed.experiments import ClientSpec, ExperimentConfig  # noqa: E402
from camfed.federation import Delta  # noqa: E402
from layers import PER_LAYER, Probe, layer_metrics  # noqa: E402
from tracer import Tracer, camfed_modules, leftover_wrappers, self_time  # noqa: E402
from workloads import WORKLOADS, build_config  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_self_time_subtracts_the_union_of_overlapping_children():
    # children cover [1, 6] (overlapping) and [8, 10] (clipped at the end)
    assert self_time(0.0, 10.0, [(3.0, 6.0), (1.0, 4.0), (8.0, 12.0)]) == 3.0
    assert self_time(0.0, 10.0, [(2.0, 3.0), (2.5, 2.7)]) == 9.0
    assert self_time(5.0, 6.0, [(0.0, 1.0)]) == 1.0
    assert self_time(0.0, 2.0, []) == 2.0


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail_percentile(39) is None
    assert run.tail_percentile(40) == 75
    assert run.tail_percentile(99) == 75
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(200) == 95
    assert run.tail_percentile(1000) == 99


def test_metric_names_and_units_follow_the_charset_and_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    layers = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert e2e == list(run.END_TO_END)
    assert layers == list(PER_LAYER)
    names = [n for n, _ in e2e] + [n for n, _, _ in layers]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for unit in [u for _, u in e2e] + [u for _, u, _ in layers]:
        assert UNIT.match(unit), unit
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert all(len(w.why) <= 200 for w in WORKLOADS.values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_argument_reaches_experiment_config(workload):
    assert build_config(workload, 1234).seed == 1234
    cmd = run.child_command(workload, 1234, trace=False)
    assert cmd[cmd.index("--seed") + 1] == "1234"


def _attributes():
    """Identity snapshot of every module and class attribute in camfed."""
    snap = {}
    for mod in camfed_modules():
        for attr, obj in vars(mod).items():
            snap[(mod.__name__, attr)] = obj
            if isinstance(obj, type) and obj.__module__.startswith("camfed"):
                for meth, fn in vars(obj).items():
                    snap[(mod.__name__, attr, meth)] = fn
    return snap


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    config = ExperimentConfig(
        clients=[ClientSpec(rig="car", n_points=5),
                 ClientSpec(rig="bus", n_points=5, cameras=[1])],
        rounds=1, topk_retention=0.5, scheme="fedcap")
    before = _attributes()
    tracer = Tracer()
    probe = Probe(tracer)
    tracer.hooks = probe.hooks()
    with tracer:
        assert leftover_wrappers()
        experiments.run_experiment(config, tmp_path / "out", workers=1)
    after = _attributes()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    assert leftover_wrappers() == []

    assert probe.audit_failures(topk_expected=True) == []
    assert probe.aggregated == 2 and probe.topk_calls == 2
    metrics = layer_metrics(tracer, probe)
    assert set(metrics) == {n for n, _, _ in PER_LAYER} - {"trace.overhead"}
    assert metrics["model.forward.train.s"] > 0
    assert metrics["model.forward.crosseval.s"] > 0
    assert 0.9 <= metrics["trace.round_coverage"] <= 1.0


def test_privacy_audit_flags_a_delta_that_addresses_a_private_index():
    probe = Probe(Tracer())
    probe.engine = types.SimpleNamespace(private_idx=np.array([5, 6]))
    public = np.array([0, 1, 2, 3, 4])
    clean = Delta(indices=np.array([0, 3]), values=np.ones(2), dense=False,
                  bits_upload=0)
    leak = Delta(indices=np.array([1, 5]), values=np.ones(2), dense=False,
                 bits_upload=0)
    probe._audit_aggregate(([(0, clean, 1.0), (1, leak, 1.0)], None, public))
    assert (probe.aggregated, probe.private_leaks) == (2, 1)


def test_runs_whose_digests_differ_count_as_failed():
    ok = {"failures": [], "digests": {"rounds.csv": "a"}, "attempted": 6,
          "aborted": 0}
    odd = dict(ok, digests={"rounds.csv": "b"})
    crashed = {"failures": ["run exited with code 1"]}
    attempted, failed, messages = run.check_runs([ok, odd, crashed], 6)
    assert (attempted, failed) == (18, 12)
    assert len(messages) == 2
