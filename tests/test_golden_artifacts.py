"""The five artifacts of the benchmark's workloads fleet, swarm and sampled
at seed 0, against the SHA-256s committed in `golden_artifacts.json`.

`run_experiment(..., workers=1)` writes `rounds.csv`, `cross_eval.csv`,
`report.json`, `checkpoint.bin` and `config.json`; a change that moves any
byte of any of them fails here, so a numeric change to training, evaluation
or the artifact formats cannot pass unannounced. The configs are read from
`bench/workloads.py`, which is imported and not edited. When the change is
meant, regenerate the file with

    PYTHONPATH=src python tests/test_golden_artifacts.py

and name the hashes that changed in CHANGES.md. Training runs through BLAS,
so the bytes depend on the numpy build and on its BLAS: the file records
numpy's version and BLAS name, version and OpenBLAS configuration, and a run
on another build says so, in the failure message or in a warning.
"""

import hashlib
import importlib
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

# set before numpy is first imported, as conftest.py does for pytest, so
# that regenerating the file runs BLAS on one thread too
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from camfed.experiments import run_experiment  # noqa: E402

GOLDEN = Path(__file__).with_name("golden_artifacts.json")
BENCH = Path(__file__).resolve().parent.parent / "bench"
WORKLOADS = ("fleet", "swarm", "sampled")
ARTIFACTS = ("rounds.csv", "cross_eval.csv", "report.json", "checkpoint.bin",
             "config.json")
SEED = 0
REGENERATE = "PYTHONPATH=src python tests/test_golden_artifacts.py"


def build() -> dict:
    """numpy's version and the BLAS it was built with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "openblas_configuration": blas.get("openblas configuration")}


def build_config(name: str):
    """The benchmark workload's ExperimentConfig at SEED."""
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("workloads").build_config(name, SEED)
    finally:
        sys.path.remove(str(BENCH))


def artifact_hashes(name: str) -> dict:
    """{artifact: sha} of one single-worker run of workload `name`."""
    with tempfile.TemporaryDirectory() as out:
        run_experiment(build_config(name), out, workers=1)
        return {a: hashlib.sha256(Path(out, a).read_bytes()).hexdigest()
                for a in ARTIFACTS}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", WORKLOADS)
def test_artifacts_match_golden_hashes(golden, name):
    want, got = golden["workloads"][name], artifact_hashes(name)
    changed = [a for a in ARTIFACTS if want[a] != got[a]]
    other = [f"{key} {golden['build'][key]!r}, here {value!r}"
             for key, value in build().items()
             if golden["build"][key] != value]
    builds = (f"the golden file was made on another build "
              f"({', '.join(other)}); " if other else "")
    assert not changed, (f"{name} at seed {SEED}: {', '.join(changed)} "
                         f"changed; {builds}if the change is meant, "
                         f"regenerate with `{REGENERATE}`")
    if other:
        warnings.warn(f"{name}: golden hashes match, but "
                      f"{builds.rstrip('; ')}")


if __name__ == "__main__":
    doc = {"seed": SEED, "build": build(),
           "workloads": {name: artifact_hashes(name) for name in WORKLOADS}}
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
