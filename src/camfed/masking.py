"""Field-of-view masking over the shared BEV query grid.

Every client uses a query grid of the same shape regardless of how many
cameras it carries; the mask marks which cells any camera can see. Masked
cells are excluded from the loss, which gives their query rows exactly zero
gradient, so clients with one camera and clients with four interoperate in
aggregation.
"""

import functools

import numpy as np

from .world import CameraRig, cell_centers, wrap_angle


def amcm_mask(rig: CameraRig, grid, extent: float) -> np.ndarray:
    """Active-cell mask: 1 iff a cell center falls in any camera's FoV wedge.

    A camera's wedge spans its yaw +- half its azimuth FoV and reaches every
    cell of the grid. Cell centers use the same layout as the BEV
    rasterizer. A cell whose center coincides with the ego has no defined
    bearing and is active by convention. Wedge edges are closed: a bearing
    exactly on the boundary counts as inside.

    A pure function of the frozen rig, the grid and the extent, so it is
    cached and read-only: clients with equal rigs share one mask.
    """
    return _amcm_mask(rig, tuple(grid), extent)


@functools.lru_cache(maxsize=64)
def _amcm_mask(rig: CameraRig, grid: tuple, extent: float) -> np.ndarray:
    if len(rig.cameras) == 0:
        raise ValueError("amcm_mask requires at least one camera")
    gx, gy = cell_centers(grid, extent)
    bearing = np.degrees(np.arctan2(gy, gx))
    mask = np.zeros(gx.shape, dtype=np.float64)
    for cam in rig.cameras:
        inside = np.abs(wrap_angle(bearing - cam.yaw)) <= cam.fov_azimuth / 2.0
        mask[inside] = 1.0
    mask[(gx == 0.0) & (gy == 0.0)] = 1.0
    mask.setflags(write=False)
    return mask
