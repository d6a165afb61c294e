"""Every client's dataset for the presets uc1-uc5 at seed 0, against the
SHA-256s committed in `golden_datasets.json`.

A change that moves any byte of any client's `views` or `bev` fails here,
so a numeric change to the data cannot pass unannounced. When the change
is meant, regenerate the file with

    PYTHONPATH=src python tests/test_golden_datasets.py

and name the hashes that changed in CHANGES.md. The data is pure float64
elementwise arithmetic, so it depends on the numpy build but not on BLAS;
the file records the numpy version it was made with, and a run on another
version says so, in the failure message or in a warning.
"""

import hashlib
import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from camfed.experiments import PRESET_NAMES, build_engine, preset

GOLDEN = Path(__file__).with_name("golden_datasets.json")
SEED = 0
REGENERATE = "PYTHONPATH=src python tests/test_golden_datasets.py"


def sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def preset_hashes(name: str) -> list:
    """[{"views": sha, "bev": sha}] of each client of preset `name`, in
    client order, as `build_engine` builds them."""
    config = preset(name)
    config.seed = SEED
    return [{"views": sha256(c.dataset.views), "bev": sha256(c.dataset.bev)}
            for c in build_engine(config).clients]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_datasets_match_golden_hashes(golden, name):
    want, got = golden["presets"][name], preset_hashes(name)
    changed = [f"client {i} {key}" for i, (w, g) in enumerate(zip(want, got))
               for key in ("views", "bev") if w[key] != g[key]]
    if len(want) != len(got):
        changed.append(f"{len(got)} clients, golden has {len(want)}")
    other_numpy = golden["numpy"] != np.__version__
    version = (f"the golden file was made with numpy {golden['numpy']}, "
               f"this is numpy {np.__version__}; " if other_numpy else "")
    assert not changed, (f"{name} at seed {SEED}: {', '.join(changed)} "
                         f"changed; {version}if the change is meant, "
                         f"regenerate with `{REGENERATE}`")
    if other_numpy:
        warnings.warn(f"{name}: golden hashes match, but {version.rstrip('; ')}")


if __name__ == "__main__":
    doc = {"seed": SEED, "numpy": np.__version__,
           "presets": {name: preset_hashes(name) for name in PRESET_NAMES}}
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
