"""Every camfed name that the benchmark's per-layer metrics hook resolves
to an attribute, apart from a fixed list of names that are already dead.

A renamed or deleted function would otherwise leave its benchmark metric
reading zero without any error. The test reads `bench/layers.py` only.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"

# hooked names that no longer exist; their metrics read zero
DEAD = {"autodiff.add", "autodiff.tile_rows", "autodiff.slice_rows",
        "autodiff.reshape", "autodiff.scale", "autodiff.Tensor.backward",
        "federation.FederationEngine.evaluate_client", "masking.apply_mask",
        "model.save_checkpoint"}


@pytest.fixture(scope="module")
def layers():
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("layers")
    finally:
        sys.path.remove(str(BENCH))


def hooked_names(layers) -> set:
    """The span names the metrics read: the span table's and the hook
    constants (RUN_ROUND, FORWARD, ...)."""
    names = {span for span, _ in layers.SPAN_METRICS.values()}
    names |= {value for key, value in vars(layers).items()
              if key.isupper() and isinstance(value, str)}
    return names


def resolves(name: str) -> bool:
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"camfed.{module}")
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_every_hooked_name_resolves_but_the_dead_ones(layers):
    dead = DEAD | {f"autodiff.{op}.bwd" for op in layers.OPS}
    names = hooked_names(layers)
    assert "model.ToyBevt.forward_batch" in names
    assert {n for n in names if not resolves(n)} == dead
