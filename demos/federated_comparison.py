"""Run the three-client fleet use case under two personalization schemes
and compare per-client accuracy plus the cross-evaluation matrix.

The plain-averaging baseline shares every parameter; the camera-attentive
scheme keeps each client's positional-embedding segment private, so mount
geometry is learned per client instead of compromised across the fleet.

Run:  python demos/federated_comparison.py        (about two minutes)
"""

import os

for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
    os.environ.setdefault(v, "1")

import numpy as np

from camfed.experiments import build_engine, cross_eval_matrix, preset


def main():
    results = {}
    for scheme in ("fedavg", "fedcap"):
        cfg = preset("uc1", scale=40.0)   # half the default desk size
        cfg.scheme = scheme
        cfg.rounds = 40
        cfg.seed = 1
        engine = build_engine(cfg)
        engine.run()
        finals = engine.evaluate_clients()
        results[scheme] = finals
        print(f"{scheme}: per-client final IoU "
              f"{ {k: round(v, 3) for k, v in finals.items()} }")
        if scheme == "fedcap":
            matrix = cross_eval_matrix(engine)
            print("cross-evaluation (rows = testsets, cols = models):")
            print(np.round(matrix.values, 3))
            print(f"diagonal is the row maximum on "
                  f"{matrix.diagonal_is_row_max()}/3 rows")

    wins = sum(results["fedcap"][k] >= results["fedavg"][k] for k in range(3))
    print(f"\ncamera-attentive personalization matches or beats plain "
          f"averaging on {wins}/3 clients")


if __name__ == "__main__":
    main()
