"""Tour of the synthetic world: rigs, rendered views, BEV ground truth and
the field-of-view query mask.

Run:  python demos/world_tour.py
"""

import os

for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
    os.environ.setdefault(v, "1")

import numpy as np

from camfed.masking import amcm_mask
from camfed.world import (discs_of, draw_discs, rasterize_bev, render_views,
                          rig_from_preset)


def ascii_grid(grid, chars=".#"):
    return "\n".join("".join(chars[int(v)] for v in row) for row in grid)


def main():
    print("=== Camera rigs ===")
    for name in ("car", "bus", "truck", "infrastructure"):
        rig = rig_from_preset(name)
        cam = rig.cameras[0]
        print(f"{name:>15}: {len(rig)} cameras, height {cam.height} m, "
              f"pitch {cam.pitch} deg, yaws "
              f"{[c.yaw for c in rig.cameras]}")

    print("\n=== One scene, three vantage points ===")
    scene = ((6.0, 0.0, 1.2), (-4.0, 5.0, 1.0), (2.0, -8.0, 1.4))
    discs = discs_of([scene], extent=16.0)
    print(f"objects (x, y, radius): {scene}")
    for name in ("car", "bus", "truck"):
        [views] = render_views(discs, rig_from_preset(name))
        hits = int(views[..., 0].sum())
        elev = views[..., 2][views[..., 0] > 0]
        print(f"{name:>8}: {hits} ray hits, elevation channel range "
              f"[{elev.min():+.3f}, {elev.max():+.3f}]  "
              "(same scene, different mounting height)")

    print("\n=== BEV ground truth (16x16, 32 m square) ===")
    print(ascii_grid(rasterize_bev(discs, (16, 16), 16.0)[0]))

    print("\n=== FoV query mask: full rig vs front camera only ===")
    full = amcm_mask(rig_from_preset("car"), (16, 16), 16.0)
    mono = amcm_mask(rig_from_preset("car", camera_ids=[1]), (16, 16), 16.0)
    print(f"full rig active cells: {int(full.sum())}/256")
    print(f"front-only active cells: {int(mono.sum())}/256")
    print(ascii_grid(mono, chars=". "))

    print("\n=== Determinism ===")
    first = draw_discs([(np.random.default_rng(7), 1)])
    second = draw_discs([(np.random.default_rng(7), 1)])
    assert all(np.array_equal(a, b) for a, b in zip(first, second))
    print("same seed, same scene: ok")


if __name__ == "__main__":
    main()
