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

    no_vehicle = np.full(config.bev_grid, -1.0)
    baseline = np.mean([iou(no_vehicle, p.bev_gt, mask) for p in dataset.test])
    print(f"{len(dataset.train)} train / {len(dataset.test)} test points, "
          f"{model.params.n} parameters")
    for epoch in range(30):
        order = rng.permutation(len(dataset.train))
        losses = []
        for lo in range(0, len(order), 4):
            batch = [dataset.train[i] for i in order[lo:lo + 4]]
            logits, acts = model.forward_batch([p.views for p in batch], rig)
            targets = np.stack([p.bev_gt for p in batch])
            model.backward(acts, bce_with_logits_backward(logits, targets,
                                                          mask))
            opt.step(model.params, lr=5e-3)
            losses.append(bce_with_logits(logits, targets, mask))
        if epoch % 5 == 4:
            scores = [iou(model.forward(p.views, rig), p.bev_gt, mask)
                      for p in dataset.test]
            print(f"epoch {epoch + 1:3d}: loss {np.mean(losses):.4f}  "
                  f"test IoU {np.mean(scores):.4f} "
                  f"(no-vehicle baseline {baseline:.4f})")


if __name__ == "__main__":
    main()
