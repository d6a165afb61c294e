"""Import-time properties of camfed: every name a module, test or demo
imports is used (a stdlib-`ast` check), and BLAS is pinned to one thread
before numpy loads.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "camfed"
# the package's modules (by bare file name), the tests and the demos
CHECKED = {**{p.name: p for p in SRC.glob("*.py")},
           **{str(p.relative_to(ROOT)): p
              for d in ("tests", "demos") for p in (ROOT / d).glob("*.py")}}


def unused_imports(source: str) -> list:
    """Imported names that the module never reads, in name order.

    A name read anywhere in the module counts as used, and so does a name
    listed in `__all__` (a re-export).
    """
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {a.asname or a.name for a in node.names if a.name != "*"}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used |= {e.value for e in node.value.elts
                     if isinstance(e, ast.Constant)}
    return sorted(imported - used)


def test_checker_flags_unused_and_passes_used_names():
    source = ("import os.path\nimport numpy as np\n"
              "from dataclasses import dataclass, field\n"
              "from .model import ToyBevt\n__all__ = ['ToyBevt']\n"
              "@dataclass\nclass A:\n    x: np.ndarray\n")
    assert unused_imports(source) == ["field", "os"]


@pytest.mark.parametrize("module", sorted(CHECKED))
def test_no_unused_imports(module):
    assert unused_imports(CHECKED[module].read_text(encoding="utf-8")) == []


BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Prints OPENBLAS_NUM_THREADS as it stood when numpy was first imported.
NUMPY_IMPORT_PROBE = """
import importlib.abc, os, sys
seen = []

class Probe(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        return None

sys.meta_path.insert(0, Probe())
import camfed.cli
print(seen)
"""


def test_blas_pinned_before_numpy_loads():
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", NUMPY_IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    assert done.stdout.strip() == "['1']"
