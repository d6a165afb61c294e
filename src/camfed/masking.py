"""Field-of-view masking over the shared BEV query grid.

Every client uses a query grid of the same shape regardless of how many
cameras it carries; the mask marks which cells any camera can see. Masked
cells are excluded from the loss and their query gradients are zeroed, so
clients with one camera and clients with four interoperate in aggregation.
"""

import numpy as np

from .world import CameraRig, cell_centers, wrap_angle


def amcm_mask(rig: CameraRig, grid, extent: float,
              max_range: float | None = None) -> np.ndarray:
    """Active-cell mask: 1 iff a cell center falls in any camera's FoV wedge.

    A camera's wedge spans its yaw +- half its azimuth FoV, out to max_range.
    Cell centers use the same layout as the BEV rasterizer. A cell whose
    center coincides with the ego has no defined bearing and is active by
    convention. Wedge edges are closed: a bearing exactly on the boundary
    counts as inside.
    """
    if len(rig.cameras) == 0:
        raise ValueError("amcm_mask requires at least one camera")
    if max_range is None:
        max_range = extent * 2.0 ** 0.5   # cover the square's corners
    gx, gy = cell_centers(grid, extent)
    rng = np.hypot(gx, gy)
    bearing = np.degrees(np.arctan2(gy, gx))
    mask = np.zeros(gx.shape, dtype=np.float64)
    for cam in rig.cameras:
        inside = np.abs(wrap_angle(bearing - cam.yaw)) <= cam.fov_azimuth / 2.0
        inside &= rng <= max_range
        mask[inside] = 1.0
    mask[rng == 0.0] = 1.0
    return mask


def apply_mask(query_grad: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Zero gradient rows of masked-off query cells; active rows untouched.

    `query_grad` has shape (h, w, d) or (h*w, d); the mask is (h, w).
    """
    g = np.asarray(query_grad, dtype=np.float64)
    m = np.asarray(mask, dtype=np.float64)
    if g.ndim == 3:
        if g.shape[:2] != m.shape:
            raise ValueError(f"mask shape {m.shape} does not match grad {g.shape}")
        return g * m[:, :, None]
    if g.ndim == 2:
        if g.shape[0] != m.size:
            raise ValueError(f"mask size {m.size} does not match grad rows {g.shape[0]}")
        return g * m.reshape(-1, 1)
    raise ValueError("query_grad must be (h, w, d) or (h*w, d)")
