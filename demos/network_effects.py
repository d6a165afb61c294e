"""Communication accounting in action: top-k sparsification of uploads and
the cost of stragglers.

Run:  python demos/network_effects.py
"""

import os

for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
    os.environ.setdefault(v, "1")

import numpy as np

from camfed.experiments import ClientSpec, ExperimentConfig, build_engine
from camfed.federation import compress_topk, dense_delta
from camfed.metrics import iou
from camfed.model import ModelConfig


def tiny(**changes):
    base = dict(
        name="netdemo", scheme="fedavg", rounds=12, warmup_rounds=4,
        lr_u=1e-2, lr_v=1e-2, seed=9,
        clients=[ClientSpec(rig="car", n_points=10) for _ in range(6)],
        model=ModelConfig(feat_dim=8, bev_grid=(8, 8), n_heads=2,
                          encoder_hidden=8, decoder_hidden=8,
                          n_azimuth_bins=12, n_elevation_bins=2))
    base.update(changes)
    return ExperimentConfig(**base)


def no_vehicle_floor(engine) -> float:
    """Mean test IoU over clients of a model that predicts no vehicle."""
    return float(np.mean([np.mean(iou(np.full_like(c.dataset.test[1], -1.0),
                                      c.dataset.test[1], c.mask))
                          for c in engine.clients]))


def main():
    print("=== Top-k sparsification ===")
    rng = np.random.default_rng(0)
    delta = dense_delta(np.arange(1000, dtype=np.int64),
                        rng.standard_normal(1000))
    print(f"dense upload: {delta.bits_upload} bits")
    for rho in (0.5, 0.1, 0.01):
        sparse = compress_topk(delta, rho)
        kept = sparse.indices.size
        print(f"retention {rho:4}: keep {kept:4d} entries -> "
              f"{sparse.bits_upload} bits "
              f"({sparse.bits_upload / delta.bits_upload:.1%} of dense)")

    # stragglers do not change the data: one floor serves every ratio
    floor = no_vehicle_floor(build_engine(tiny()))
    print("\n=== Straggler ratios (6 clients, 12 rounds, "
          f"no-vehicle floor {floor:.3f}) ===")
    for ratio in (0.0, 0.5, 0.8):
        engine = build_engine(tiny(straggler_ratio=ratio))
        records = engine.run()
        dropped = sum(r.straggler for r in records)
        # the last round scored every client on the final parameters
        mean_iou = np.mean([r.val_iou for r in records
                            if r.round == engine.round])
        print(f"ratio {ratio:3}: {dropped:2d} dropped uploads, "
              f"mean final IoU {mean_iou:.3f}, "
              f"total traffic {engine.ledger.total:,} bits")

    print("\n=== Fixed communication budget ===")
    engine = build_engine(tiny(bits_budget=3_000_000))
    engine.run()
    print(f"budget 3,000,000 bits: stopped after {engine.round} rounds "
          f"at {engine.ledger.total:,} bits")


if __name__ == "__main__":
    main()
