"""Synthetic multi-camera scenes with analytic bird's-eye-view ground truth.

A client's data heterogeneity has two engineered axes: camera pose (height
and pitch shift where hits land on the elevation axis of the view features)
and camera count (fewer cameras leave more azimuth coverage empty). Scenes
are discs on a flat ground plane; views are ray-cast feature grids rather
than images, which keeps everything differentiable-model-sized while
preserving the geometry dependence.

Conventions
-----------
World frame: ego at the origin, +x forward, +y left, angles CCW in degrees.
Each camera has `n_azimuth_bins` ray bins spanning the full circle in its own
yaw-rotated frame; only bins whose center angle lies inside the camera's
field of view cast rays (closed edge), the rest stay zero. A hit writes four
channels [presence, 1/(1+d), elevation angle normalized, radius/d clipped]
into the elevation bin selected by the camera-frame elevation of the object
base, so camera height and pitch both move features around.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

# Per-vehicle-type mount parameters: height (m), pitch (deg).
# Every preset rig carries four cameras at yaws 0 / 100 / -100 / 180 degrees.
_PRESET_MOUNTS = {
    "car": (1.8, 0.0),
    "bus": (3.2, -5.0),
    "truck": (4.8, -5.0),
    "infrastructure": (8.2, -10.0),
}
_PRESET_YAWS = (0.0, 100.0, -100.0, 180.0)
_CAMERA_NAMES = ("front", "left", "right", "rear")

# Camera-frame elevation range (degrees) binned into n_elevation_bins rows.
ELEVATION_RANGE = (-72.0, 0.0)

DEFAULT_EXTENT = 16.0
DEFAULT_RADIUS_RANGE = (0.5, 1.5)
DEFAULT_N_OBJECTS = (1, 5)


@dataclass(frozen=True)
class CameraPose:
    height: float
    roll: float = 0.0
    pitch: float = 0.0
    yaw: float = 0.0
    fov_azimuth: float = 100.0
    n_azimuth_bins: int = 24
    n_elevation_bins: int = 4

    def __post_init__(self):
        if self.height <= 0:
            raise ValueError("camera height must be positive")
        if not (0.0 < self.fov_azimuth <= 360.0):
            raise ValueError("fov_azimuth must be in (0, 360]")
        if self.n_azimuth_bins < 1 or self.n_elevation_bins < 1:
            raise ValueError("bin counts must be >= 1")


@dataclass(frozen=True)
class CameraRig:
    cameras: tuple
    name: str = "custom"

    def __post_init__(self):
        if not (1 <= len(self.cameras) <= 8):
            raise ValueError("a rig carries between 1 and 8 cameras")

    def __len__(self):
        return len(self.cameras)


@dataclass(frozen=True)
class Scene:
    """Disc obstacles (x, y, radius) inside a square of half-width `extent`."""
    objects: tuple
    extent: float

    def __post_init__(self):
        if self.extent <= 0:
            raise ValueError("extent must be positive")
        for x, y, r in self.objects:
            if r <= 0:
                raise ValueError("object radius must be positive")
            if abs(x) > self.extent or abs(y) > self.extent:
                raise ValueError("object center outside world extent")


@dataclass
class DataPoint:
    views: np.ndarray   # (L, A, E, C) float64
    bev_gt: np.ndarray  # (h, w) {0,1} float64


@dataclass
class ClientDataset:
    points: list
    n_train: int

    @property
    def train(self):
        return self.points[: self.n_train]

    @property
    def test(self):
        return self.points[self.n_train:]


def rig_from_preset(name: str, camera_ids=None, fov_azimuth: float = 100.0,
                    n_azimuth_bins: int = 24, n_elevation_bins: int = 4) -> CameraRig:
    """Build one of the four standard rigs.

    `camera_ids` selects a subset by 1-based index (1 front, 2 left, 3 right,
    4 rear); None keeps all four cameras.
    """
    if name not in _PRESET_MOUNTS:
        raise ValueError(f"unknown rig preset {name!r}; "
                         f"expected one of {sorted(_PRESET_MOUNTS)}")
    height, pitch = _PRESET_MOUNTS[name]
    ids = list(range(1, 5)) if camera_ids is None else list(camera_ids)
    if not ids or any(i not in (1, 2, 3, 4) for i in ids):
        raise ValueError("camera_ids must be a non-empty subset of 1..4")
    cams = tuple(
        CameraPose(height=height, roll=0.0, pitch=pitch, yaw=_PRESET_YAWS[i - 1],
                   fov_azimuth=fov_azimuth, n_azimuth_bins=n_azimuth_bins,
                   n_elevation_bins=n_elevation_bins)
        for i in ids
    )
    return CameraRig(cameras=cams, name=name)


def sample_scene(rng: np.random.Generator, n_objects=DEFAULT_N_OBJECTS,
                 extent: float = DEFAULT_EXTENT,
                 radius_range=DEFAULT_RADIUS_RANGE) -> Scene:
    """Draw a scene with a uniform object count in the inclusive range."""
    if extent <= 0:
        raise ValueError("extent must be positive")
    lo, hi = n_objects
    n = int(rng.integers(lo, hi + 1))
    objects = []
    for _ in range(n):
        x = float(rng.uniform(-extent, extent))
        y = float(rng.uniform(-extent, extent))
        r = float(rng.uniform(radius_range[0], radius_range[1]))
        objects.append((x, y, r))
    return Scene(objects=tuple(objects), extent=extent)


def azimuth_bin_angles(n_bins: int) -> np.ndarray:
    """Camera-frame bin center angles in degrees, covering (-180, 180)."""
    return -180.0 + (np.arange(n_bins) + 0.5) * (360.0 / n_bins)


def in_fov_bins(cam: CameraPose, n_bins: int) -> np.ndarray:
    """Which of the n_bins azimuth bins lie inside the camera's FoV (closed edge)."""
    return np.abs(azimuth_bin_angles(n_bins)) <= cam.fov_azimuth / 2.0


def wrap_angle(deg):
    """Wrap degrees into (-180, 180]."""
    wrapped = np.remainder(np.asarray(deg, dtype=np.float64) + 180.0, 360.0) - 180.0
    return np.where(wrapped == -180.0, 180.0, wrapped)


@functools.lru_cache(maxsize=64)
def _rig_rays(rig: CameraRig):
    """Every in-FoV ray of `rig`, in camera then bin order: camera index,
    bin index and the unit direction (ux, uy), as read-only arrays.

    A pure function of the frozen rig, so it is cached: every data point of
    a client shares one table.
    """
    cams, bins, ux, uy = [], [], [], []
    for ci, cam in enumerate(rig.cameras):
        phis = azimuth_bin_angles(cam.n_azimuth_bins)
        for bi in np.flatnonzero(in_fov_bins(cam, cam.n_azimuth_bins)):
            bearing = float(wrap_angle(cam.yaw + phis[bi]))
            cams.append(ci)
            bins.append(int(bi))
            ux.append(math.cos(math.radians(bearing)))
            uy.append(math.sin(math.radians(bearing)))
    table = (np.array(cams, dtype=np.intp), np.array(bins, dtype=np.intp),
             np.array(ux, dtype=np.float64), np.array(uy, dtype=np.float64))
    for a in table:
        a.setflags(write=False)
    return table


def _nearest_hits(scene: Scene, ux: np.ndarray, uy: np.ndarray):
    """Entry distance and radius of the nearest disc along each ray (ux, uy).

    All rays meet all discs in one pass. A ray that hits no disc gets
    (inf, 0.0); distance 0.0 means the ego sits inside a disc; of discs at
    equal distance the first in `scene.objects` wins.
    """
    if not scene.objects:
        return np.full(ux.shape, math.inf), np.zeros(ux.shape)
    ox, oy, r = np.array(scene.objects, dtype=np.float64).T
    along = ux[:, None] * ox + uy[:, None] * oy        # (rays, discs)
    c2 = ox * ox + oy * oy
    r2 = r * r
    perp2 = c2 - along * along
    d = along - np.sqrt(np.maximum(r2 - perp2, 0.0))
    d[(along <= 0.0) | (perp2 > r2)] = math.inf
    d[:, c2 <= r2] = 0.0                             # ego inside the disc
    nearest = d.argmin(axis=1)                       # first minimum on ties
    dist = d[np.arange(len(d)), nearest]
    return dist, np.where(np.isfinite(dist), r[nearest], 0.0)


def ray_hit(scene: Scene, bearing_deg: float):
    """Nearest disc along the bearing: (entry distance, disc radius).

    Returns (inf, 0.0) when no disc is hit; distance 0.0 when the ego sits
    inside a disc.
    """
    ux = np.array([math.cos(math.radians(bearing_deg))])
    uy = np.array([math.sin(math.radians(bearing_deg))])
    d, r = _nearest_hits(scene, ux, uy)
    return float(d[0]), float(r[0])


def elevation_bin(elev_cam_deg: float, n_bins: int) -> int:
    lo, hi = ELEVATION_RANGE
    frac = (elev_cam_deg - lo) / (hi - lo)
    return min(max(math.floor(frac * n_bins), 0), n_bins - 1)


N_VIEW_CHANNELS = 4


def render_views(scene: Scene, rig: CameraRig) -> np.ndarray:
    """Ray-cast the scene into an (L, A, E, N_VIEW_CHANNELS) feature grid.

    The elevation channel stores atan2(-height, d) / (pi/2); the elevation
    bin is chosen from the camera-frame angle atan2(-height, d) - pitch, so
    both mounting height and pitch reshape the features.
    """
    first = rig.cameras[0]
    n_a, n_e = first.n_azimuth_bins, first.n_elevation_bins
    views = np.zeros((len(rig), n_a, n_e, N_VIEW_CHANNELS), dtype=np.float64)
    cams, bins, ux, uy = _rig_rays(rig)
    dists, radii = _nearest_hits(scene, ux, uy)
    hit = np.flatnonzero(np.isfinite(dists))
    for ci, bi, d, radius in zip(cams[hit].tolist(), bins[hit].tolist(),
                                 dists[hit].tolist(), radii[hit].tolist()):
        cam = rig.cameras[ci]
        elev_world = math.degrees(math.atan2(-cam.height, d))
        elev_cam = elev_world - cam.pitch
        eb = elevation_bin(elev_cam, cam.n_elevation_bins)
        views[ci, bi, eb, 0] = 1.0
        views[ci, bi, eb, 1] = 1.0 / (1.0 + d)
        views[ci, bi, eb, 2] = math.radians(elev_world) / (math.pi / 2.0)
        views[ci, bi, eb, 3] = min(radius / d, 1.0) if d > 0 else 1.0
    return views


def cell_centers(grid, extent: float):
    """(gx, gy): x and y of every BEV cell center, each shaped `grid`.

    Row i -> y, column j -> x, ego at the grid center; the rasterizer, the
    FoV mask and the model's query-cell features all share this layout.
    """
    h, w = grid
    ys = -extent + (np.arange(h) + 0.5) * (2.0 * extent / h)
    xs = -extent + (np.arange(w) + 0.5) * (2.0 * extent / w)
    return np.meshgrid(xs, ys)


@functools.lru_cache(maxsize=64)
def _grid_centers(grid: tuple, extent: float):
    """`cell_centers`, computed once per (grid, extent) and read-only."""
    centers = cell_centers(grid, extent)
    for a in centers:
        a.setflags(write=False)
    return centers


def rasterize_bev(scene: Scene, grid, extent: float) -> np.ndarray:
    """Binary occupancy grid: cell = 1 iff its center lies inside any disc."""
    if grid[0] < 4 or grid[1] < 4:
        raise ValueError("grid dims must be >= 4")
    gx, gy = _grid_centers(tuple(grid), extent)
    out = np.zeros(gx.shape, dtype=np.float64)
    for ox, oy, r in scene.objects:
        out[(gx - ox) ** 2 + (gy - oy) ** 2 <= r * r] = 1.0
    return out


def build_client_dataset(rig: CameraRig, n_points: int, seed: int,
                         grid=(16, 16), extent: float = DEFAULT_EXTENT,
                         n_objects=DEFAULT_N_OBJECTS,
                         radius_range=DEFAULT_RADIUS_RANGE) -> ClientDataset:
    """Generate a deterministic dataset; first 80% of points are the train split."""
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed) & (2**63 - 1)]))
    points = []
    for _ in range(n_points):
        scene = sample_scene(rng, n_objects=n_objects, extent=extent,
                             radius_range=radius_range)
        points.append(DataPoint(views=render_views(scene, rig),
                                bev_gt=rasterize_bev(scene, grid, extent)))
    return ClientDataset(points=points, n_train=int(0.8 * n_points))
