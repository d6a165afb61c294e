"""camfed: deterministic federated-learning simulation for multi-camera
bird's-eye-view perception.

The package ships hand-differentiated float64 kernels, a synthetic
multi-camera world with analytic BEV ground truth, a desk-scale BEV
transformer with a public/private parameter partition registry, FoV-union
query masking, a federated round engine with selection / compression /
straggler simulation, evaluation metrics, and an experiment harness with
use-case presets.
"""

import ctypes
import os

# Single-threaded BLAS: the model's matrices are far too small for thread
# fan-out to pay off. Must happen before numpy loads, so before any import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# glibc's mallopt parameters and the values camfed sets. A training step
# frees a few MB of temporaries; by default glibc hands them back to the OS
# (trimming the heap top past M_TRIM_THRESHOLD, and serving each attention
# array above M_MMAP_THRESHOLD with its own mmap), so the next step faults
# them in again, ~1,100 minor faults per step. 32 MiB is the largest mmap
# threshold glibc accepts on 64-bit.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD = 256 << 20
_MMAP_THRESHOLD = 32 << 20


def _keep_heap_mapped() -> bool:
    """Raise glibc's trim and mmap thresholds so freed heap stays mapped.

    True when glibc accepted both; a silent no-op (False) on any other libc.
    Allocation placement changes, arithmetic does not: no output moves.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return False
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    trim = mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    mmap = mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    return trim == 1 and mmap == 1


_heap_kept_mapped = _keep_heap_mapped()

__version__ = "0.1.0"

from .model import ModelConfig, ToyBevt
from .world import CameraPose, CameraRig, rig_from_preset

__all__ = ["ModelConfig", "ToyBevt", "CameraPose", "CameraRig",
           "rig_from_preset", "__version__"]
