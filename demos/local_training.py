"""Train the toy BEV transformer on one client's local data and watch the
masked cross-entropy fall.

Every fifth epoch prints the test IoU next to the IoU of a model that never
predicts a vehicle: it scores 1 on a test point with no vehicle in view
and 0 on any other. A test IoU at that baseline means the model still
predicts no vehicle anywhere; 30 epochs on one client do not leave it.

Run:  python demos/local_training.py
"""

import os

for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
    os.environ.setdefault(v, "1")

import numpy as np

from camfed.autodiff import bce_with_logits, bce_with_logits_backward
from camfed.masking import amcm_mask
from camfed.metrics import iou
from camfed.model import ModelConfig, ToyBevt, init_params
from camfed.optim import AdamW
from camfed.world import build_client_dataset, rig_from_preset


def main():
    config = ModelConfig()
    rig = rig_from_preset("car")
    dataset = build_client_dataset(rig, 120, seed=3)
    mask = amcm_mask(rig, config.bev_grid, config.world_extent)
    model = ToyBevt(config, init_params(config, seed=0))
    opt = AdamW(model.params.n)
    rng = np.random.default_rng(0)

    views, bev = dataset.train
    test_views, test_bev = dataset.test
    baseline = np.mean(iou(np.full_like(test_bev, -1.0), test_bev, mask))
    print(f"{len(bev)} train / {len(test_bev)} test points, "
          f"{model.params.n} parameters")
    for epoch in range(30):
        order = rng.permutation(len(bev))
        losses = []
        for lo in range(0, len(order), 4):
            idx = order[lo:lo + 4]
            logits, acts = model.forward_batch(views[idx], rig)
            model.backward(acts, bce_with_logits_backward(logits, bev[idx],
                                                          mask))
            opt.step(model.params, lr=5e-3)
            losses.append(bce_with_logits(logits, bev[idx], mask))
        if epoch % 5 == 4:
            scores = iou(model.forward_batch(test_views, rig)[0], test_bev,
                         mask)
            print(f"epoch {epoch + 1:3d}: loss {np.mean(losses):.4f}  "
                  f"test IoU {np.mean(scores):.4f} "
                  f"(no-vehicle baseline {baseline:.4f})")


if __name__ == "__main__":
    main()
