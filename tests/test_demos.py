"""The demos import cleanly and use only engine attributes that exist.

Of the demos' main()s only world_tour's runs here, in a fraction of a
second: the others train and take minutes. Instead every demo module is
imported, and two stdlib-`ast` passes check the attributes a demo reads only
when it runs: those read on a name bound to a `build_engine(...)` result,
against a real FederationEngine, and those read on a camfed module bound by
an import (`from camfed import autodiff as ad` ... `ad.affine`), against that
module. The demos' helpers that read a client's data run on a small engine.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from camfed.experiments import ClientSpec, ExperimentConfig, build_engine
from camfed.metrics import iou
from camfed.model import ModelConfig

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def engine_attribute_reads(source: str) -> list:
    """(line, attribute) for each `name.attribute` read anywhere in the
    file, where `name` is assigned a build_engine(...) call somewhere in it."""
    nodes = list(ast.walk(ast.parse(source)))
    engines = {t.id for node in nodes
               if isinstance(node, ast.Assign)
               and isinstance(node.value, ast.Call)
               and isinstance(node.value.func, ast.Name)
               and node.value.func.id == "build_engine"
               for t in node.targets if isinstance(t, ast.Name)}
    return sorted((node.lineno, node.attr) for node in nodes
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in engines)


def _is_module(dotted: str) -> bool:
    try:
        importlib.import_module(dotted)
    except ImportError:
        return False
    return True


def module_attribute_reads(source: str) -> list:
    """(line, module, attribute) for each `name.attribute` read anywhere in
    the file, where an import binds `name` to a camfed module."""
    nodes = list(ast.walk(ast.parse(source)))
    modules = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "camfed":
                    # `import camfed.x` binds `camfed`; `import camfed.x as y`
                    # binds y to camfed.x
                    modules[a.asname or "camfed"] = (a.name if a.asname
                                                     else "camfed")
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.split(".")[0] == "camfed"):
            for a in node.names:
                dotted = f"{node.module}.{a.name}"
                if _is_module(dotted):
                    modules[a.asname or a.name] = dotted
    return sorted((node.lineno, modules[node.value.id], node.attr)
                  for node in nodes
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in modules)


@pytest.fixture(scope="module")
def engine():
    return build_engine(ExperimentConfig(
        rounds=1, warmup_rounds=0,
        clients=[ClientSpec("car", n_points=10), ClientSpec("bus", 15)],
        model=ModelConfig(feat_dim=8, bev_grid=(8, 8), encoder_hidden=8,
                          decoder_hidden=8, n_azimuth_bins=12,
                          n_elevation_bins=2)))


def test_demos_found():
    assert {p.name for p in DEMOS} >= {"federated_comparison.py",
                                       "network_effects.py"}


def load_demo(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports_without_running(path):
    assert callable(load_demo(path).main)


def test_demo_no_vehicle_floors_score_all_negative_logits(engine):
    demos = {p.stem: load_demo(p) for p in DEMOS}
    # the 2 and 3 test points one at a time, through the same metric
    want = {c.client_id: float(np.mean([
        iou(np.full(bev.shape, -1.0), bev, c.mask)
        for bev in c.dataset.test[1]])) for c in engine.clients}
    assert demos["federated_comparison"].no_vehicle_ious(engine) == want
    assert demos["network_effects"].no_vehicle_floor(engine) == np.mean(
        list(want.values()))


def test_world_tour_runs(capsys):
    [path] = [p for p in DEMOS if p.stem == "world_tour"]
    load_demo(path).main()
    out = capsys.readouterr().out
    assert "same seed, same scene: ok" in out
    # one scene, three rigs, each with some ray hits
    assert all(f"{name}: " in out for name in ("car", "bus", "truck"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_reads_only_existing_engine_attributes(path, engine):
    missing = [f"{path.name}:{line} engine.{attr}"
               for line, attr in engine_attribute_reads(path.read_text())
               if not hasattr(engine, attr)]
    assert missing == []


def test_checker_flags_a_removed_method(engine):
    source = ("def main():\n"
              "    engine = build_engine(cfg)\n"
              "    engine.run()\n"
              "    return [engine.evaluate_client(c) for c in engine.clients]\n")
    reads = engine_attribute_reads(source)
    assert reads == [(3, "run"), (4, "clients"), (4, "evaluate_client")]
    assert [a for _, a in reads if not hasattr(engine, a)] == ["evaluate_client"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_reads_only_existing_module_attributes(path):
    missing = [f"{path.name}:{line} {module}.{attr}"
               for line, module, attr in module_attribute_reads(
                   path.read_text())
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def test_checker_flags_a_removed_module_attribute():
    source = ("import camfed.world as w\n"
              "from camfed import autodiff as ad\n"
              "from camfed.model import ToyBevt\n"
              "def main(x, model):\n"
              "    rig = w.rig_from_preset('car')\n"
              "    model.forward_batch(x, rig)\n"
              "    return ad.add_n([ad.affine(x, x, x), ToyBevt.loss])\n")
    reads = module_attribute_reads(source)
    assert reads == [(5, "camfed.world", "rig_from_preset"),
                     (7, "camfed.autodiff", "add_n"),
                     (7, "camfed.autodiff", "affine")]
    assert [a for _, m, a in reads
            if not hasattr(importlib.import_module(m), a)] == ["add_n"]
