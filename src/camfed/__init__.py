"""camfed: deterministic federated-learning simulation for multi-camera
bird's-eye-view perception.

The package ships a small reverse-mode tensor engine, a synthetic
multi-camera world with analytic BEV ground truth, a desk-scale BEV
transformer with a public/private parameter partition registry, FoV-union
query masking, a federated round engine with selection / compression /
straggler simulation, evaluation metrics, and an experiment harness with
use-case presets.
"""

import os

# Single-threaded BLAS: the model's matrices are far too small for thread
# fan-out to pay off. Must happen before numpy loads, so before any import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"

from .model import ModelConfig, PartitionPolicy, ToyBevt
from .world import CameraPose, CameraRig, rig_from_preset

__all__ = ["ModelConfig", "PartitionPolicy", "ToyBevt", "CameraPose",
           "CameraRig", "rig_from_preset", "__version__"]
