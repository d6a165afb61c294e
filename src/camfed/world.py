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
A rig splits the full circle of each camera's own yaw-rotated frame into
`n_azimuth_bins` ray bins. Only bins whose center angle lies inside the
camera's field of view (closed edge) cast rays, and each such (camera, bin)
pair is one token: `rig_tokens` lists them, and a rendered view holds one
row per token. A hit writes four channels [presence, 1/(1+d), elevation
angle normalized, radius/d clipped] into the elevation bin selected by the
camera-frame elevation of the object base, so camera height and pitch both
move features around.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

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

    def __post_init__(self):
        if self.height <= 0:
            raise ValueError("camera height must be positive")
        if not (0.0 < self.fov_azimuth <= 360.0):
            raise ValueError("fov_azimuth must be in (0, 360]")


def pose_rotation(roll_deg: float, pitch_deg: float, yaw_deg: float) -> np.ndarray:
    """Camera-to-vehicle rotation, composed as Rz(yaw) @ Ry(pitch) @ Rx(roll)."""
    r, p, y = (math.radians(a) for a in (roll_deg, pitch_deg, yaw_deg))
    cr, sr = math.cos(r), math.sin(r)
    cp, sp = math.cos(p), math.sin(p)
    cy, sy = math.cos(y), math.sin(y)
    rx = np.array([[1, 0, 0], [0, cr, -sr], [0, sr, cr]], dtype=np.float64)
    ry = np.array([[cp, 0, sp], [0, 1, 0], [-sp, 0, cp]], dtype=np.float64)
    rz = np.array([[cy, -sy, 0], [sy, cy, 0], [0, 0, 1]], dtype=np.float64)
    return rz @ ry @ rx


@dataclass(frozen=True)
class CameraRig:
    """Cameras sharing one bin grid: `n_azimuth_bins` over each camera's
    full circle and `n_elevation_bins` over ELEVATION_RANGE."""
    cameras: tuple
    name: str = "custom"
    n_azimuth_bins: int = 24
    n_elevation_bins: int = 4

    def __post_init__(self):
        if not (1 <= len(self.cameras) <= 8):
            raise ValueError("a rig carries between 1 and 8 cameras")
        if self.n_azimuth_bins < 1 or self.n_elevation_bins < 1:
            raise ValueError("bin counts must be >= 1")

    def __len__(self):
        return len(self.cameras)


@dataclass(frozen=True)
class Scene:
    """Disc obstacles (x, y, radius) inside a square of half-width `extent`."""
    objects: tuple
    extent: float

    def __post_init__(self):
        if not 0 < self.extent < math.inf:
            raise ValueError("extent must be positive and finite")
        discs = np.array(self.objects, dtype=np.float64).reshape(
            len(self.objects), 3)
        _check_discs(*discs.T, True, self.extent)


class Discs(NamedTuple):
    """Scenes as padded disc arrays, each shaped (scenes, discs): the x, y
    and radius of every disc, and which entries are real discs.

    Padding is a zero-radius disc at the ego: no ray enters it (every ray
    meets it at distance 0 along), but it holds the ego and any cell
    centred on the ego, so those tests mask it out.
    """
    x: np.ndarray
    y: np.ndarray
    r: np.ndarray
    real: np.ndarray


def _check_discs(x, y, r, real, extent: float) -> None:
    """Reject a real disc whose radius is not positive and finite or whose
    centre lies outside the square of half-width `extent`; written so that
    nan fails every test."""
    if np.any(real & ~((r > 0.0) & (r < math.inf))):
        raise ValueError("object radius must be positive and finite")
    if np.any(real & ~((np.abs(x) <= extent) & (np.abs(y) <= extent))):
        raise ValueError("object center outside world extent")


@dataclass
class ClientDataset:
    """A client's scenes as two stacks, one row per scene: `views` (n,
    n_tokens, E, C) from render_views and `bev` (n, h, w) {0,1}. `train` (the
    first `n_train` rows) and `test` are (views, bev) row-slice views."""
    views: np.ndarray
    bev: np.ndarray
    n_train: int

    @property
    def train(self):
        return self.views[: self.n_train], self.bev[: self.n_train]

    @property
    def test(self):
        return self.views[self.n_train:], self.bev[self.n_train:]


def rig_from_preset(name: str, camera_ids=None, n_azimuth_bins: int = 24,
                    n_elevation_bins: int = 4) -> CameraRig:
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
    cams = tuple(CameraPose(height=height, roll=0.0, pitch=pitch,
                            yaw=_PRESET_YAWS[i - 1]) for i in ids)
    return CameraRig(cameras=cams, name=name, n_azimuth_bins=n_azimuth_bins,
                     n_elevation_bins=n_elevation_bins)


def draw_discs(draws, n_objects=DEFAULT_N_OBJECTS,
               extent: float = DEFAULT_EXTENT,
               radius_range=DEFAULT_RADIUS_RANGE) -> Discs:
    """Draw scenes straight into `Discs` padded to `n_objects[1]` discs (at
    least one): for each (rng, n_scenes) in `draws`, in order, n_scenes
    scenes one after another from rng.

    A scene takes two generator calls: `integers` draws its uniform disc
    count in the inclusive range, and `random` a u in [0, 1) for the x, y
    and radius of each disc, mapped by `low + span * u` in float64. That is
    the arithmetic `Generator.uniform(low, high)` does on the same draws, so
    the values and the generator's final state are those of one scalar
    `uniform` draw each.
    """
    if extent <= 0:
        raise ValueError("extent must be positive")
    xy_low, r_low = -extent, radius_range[0]
    xy_span, r_span = extent - xy_low, radius_range[1] - r_low
    if r_span < 0:
        raise ValueError("radius_range must be (low, high) with low <= high")
    if not (math.isfinite(xy_span) and math.isfinite(r_span)):
        raise ValueError("extent and radius_range must span finite ranges")
    lo, hi = n_objects
    if not 0 <= lo <= hi:
        raise ValueError("n_objects must be (low, high) with 0 <= low <= high")
    draws = [(rng, int(n)) for rng, n in draws]
    u = np.zeros((sum(n for _, n in draws), max(hi, 1), 3))
    counts = np.empty(len(u), dtype=np.intp)
    rngs = itertools.chain.from_iterable(itertools.repeat(rng, n)
                                         for rng, n in draws)
    for row, rng in enumerate(rngs):
        counts[row] = k = rng.integers(lo, hi + 1)
        rng.random(out=u[row, :k])
    real = np.arange(u.shape[1]) < counts[:, None]
    x = np.where(real, xy_low + xy_span * u[..., 0], 0.0)
    y = np.where(real, xy_low + xy_span * u[..., 1], 0.0)
    r = np.where(real, r_low + r_span * u[..., 2], 0.0)
    _check_discs(x, y, r, real, extent)
    return Discs(x, y, r, real)


def sample_scene(rng: np.random.Generator, n_objects=DEFAULT_N_OBJECTS,
                 extent: float = DEFAULT_EXTENT,
                 radius_range=DEFAULT_RADIUS_RANGE) -> Scene:
    """Draw a scene with a uniform object count in the inclusive range:
    `draw_discs` of one scene, as a `Scene`, with the same values and the
    same generator calls."""
    x, y, r, real = draw_discs([(rng, 1)], n_objects, extent, radius_range)
    k = int(real[0].sum())
    return Scene(objects=tuple(zip(x[0, :k].tolist(), y[0, :k].tolist(),
                                   r[0, :k].tolist())), extent=extent)


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


class RigTokens(NamedTuple):
    """The tokens of a rig: one row per in-FoV (camera, azimuth bin), in
    camera then bin order, as `rig_tokens` returns them."""
    camera: np.ndarray  # camera index, (n,)
    ux: np.ndarray      # ground bearing cos, (n,)
    uy: np.ndarray      # ground bearing sin, (n,)
    rays: np.ndarray    # vehicle-frame 3-D ray direction, (n, 3)


@functools.lru_cache(maxsize=64)
def rig_tokens(rig: CameraRig) -> RigTokens:
    """Every token of `rig`, as read-only arrays.

    The rays are the model's only geometric input: mount height is
    deliberately not one, so a client's embedding parameters are the only
    place where that part of the calibration can live. A pure function of
    the frozen rig, so it is cached: every data point and model of a rig
    shares one table.
    """
    phis = azimuth_bin_angles(rig.n_azimuth_bins)
    rad = np.radians(phis)
    dirs_cam = np.stack([np.cos(rad), np.sin(rad), np.zeros_like(rad)], axis=1)
    cams, ux, uy, rays = [], [], [], []
    for ci, cam in enumerate(rig.cameras):
        keep = in_fov_bins(cam, rig.n_azimuth_bins)
        rays.append((dirs_cam @ pose_rotation(cam.roll, cam.pitch,
                                              cam.yaw).T)[keep])
        for bi in np.flatnonzero(keep):
            bearing = float(wrap_angle(cam.yaw + phis[bi]))
            cams.append(ci)
            ux.append(math.cos(math.radians(bearing)))
            uy.append(math.sin(math.radians(bearing)))
    if not cams:
        raise ValueError("no azimuth bin falls inside any camera FoV")
    table = RigTokens(np.array(cams, dtype=np.intp),
                      np.array(ux, dtype=np.float64),
                      np.array(uy, dtype=np.float64), np.vstack(rays))
    for a in table:
        a.setflags(write=False)
    return table


def _padded_discs(scenes: list) -> Discs:
    """`Discs` of the scenes, padded to the largest disc count (at least
    one)."""
    counts = [len(s.objects) for s in scenes]
    n = max(counts + [1])
    pad = [(0.0, 0.0, 0.0)]
    discs = np.array([list(s.objects) + pad * (n - k)
                      for s, k in zip(scenes, counts)],
                     dtype=np.float64).reshape(len(scenes), n, 3)
    real = np.arange(n) < np.array(counts, dtype=np.intp)[:, None]
    return Discs(discs[..., 0], discs[..., 1], discs[..., 2], real)


def _as_discs(scenes):
    """`scenes` as `Discs`, and whether it was one `Scene` (a stack of
    one); `Discs` pass as they are."""
    if isinstance(scenes, Discs):
        return scenes, False
    one = isinstance(scenes, Scene)
    return _padded_discs([scenes] if one else list(scenes)), one


def _nearest_hits(discs: Discs, ux: np.ndarray, uy: np.ndarray):
    """Entry distance and radius of each scene's nearest disc along each ray
    (ux, uy), both shaped (scenes, rays).

    All rays meet all discs of all scenes in one pass. A ray that hits no
    disc gets (inf, 0.0); distance 0.0 means the ego sits inside a disc; of
    discs at equal distance the first in the scene wins.
    """
    ox, oy, r, real = discs
    ox, oy = ox[:, None, :], oy[:, None, :]          # (scenes, 1, discs)
    along = ux[:, None] * ox + uy[:, None] * oy      # (scenes, rays, discs)
    c2 = ox * ox + oy * oy
    r2 = (r * r)[:, None, :]
    perp2 = c2 - along * along
    d = along - np.sqrt(np.maximum(r2 - perp2, 0.0))
    np.copyto(d, math.inf, where=(along <= 0.0) | (perp2 > r2))
    np.copyto(d, 0.0, where=(c2 <= r2) & real[:, None, :])  # ego inside
    nearest = d.argmin(axis=2)                       # first minimum on ties
    dist = d.min(axis=2)
    radius = r[np.arange(len(r))[:, None], nearest]
    return dist, np.where(np.isfinite(dist), radius, 0.0)


def ray_hit(scene: Scene, bearing_deg: float):
    """Nearest disc along the bearing: (entry distance, disc radius).

    Returns (inf, 0.0) when no disc is hit; distance 0.0 when the ego sits
    inside a disc.
    """
    ux = np.array([math.cos(math.radians(bearing_deg))])
    uy = np.array([math.sin(math.radians(bearing_deg))])
    d, r = _nearest_hits(_padded_discs([scene]), ux, uy)
    return float(d[0, 0]), float(r[0, 0])


def elevation_bin(elev_cam_deg, n_bins: int) -> np.ndarray:
    """Row of each camera-frame elevation (degrees) among `n_bins` equal
    bins over ELEVATION_RANGE; angles outside it go to the nearest end."""
    lo, hi = ELEVATION_RANGE
    frac = (np.asarray(elev_cam_deg, dtype=np.float64) - lo) / (hi - lo)
    return np.clip(np.floor(frac * n_bins), 0, n_bins - 1).astype(np.intp)


N_VIEW_CHANNELS = 4


def render_views(scenes, rig: CameraRig) -> np.ndarray:
    """Ray-cast a scene into an (n_tokens, E, N_VIEW_CHANNELS) feature
    grid, one row per `rig_tokens` row; a sequence of scenes, or `Discs`,
    gets one grid per scene, stacked on a leading axis (a scene is a stack
    of one).

    The elevation channel stores atan2(-height, d) / (pi/2); the elevation
    bin is chosen from the camera-frame angle atan2(-height, d) - pitch, so
    both mounting height and pitch reshape the features. `math.atan2` is
    taken per hit because numpy's `arctan2` differs from it in the last bit
    of some values; the rest is the same float64 arithmetic in arrays.
    """
    discs, one = _as_discs(scenes)
    tokens = rig_tokens(rig)
    views = np.zeros((len(discs.real), len(tokens.camera),
                      rig.n_elevation_bins, N_VIEW_CHANNELS), dtype=np.float64)
    dists, radii = _nearest_hits(discs, tokens.ux, tokens.uy)
    si, ti = np.nonzero(np.isfinite(dists))
    d, radius = dists[si, ti], radii[si, ti]
    cams = tokens.camera[ti]
    heights = np.array([c.height for c in rig.cameras])[cams]
    pitches = np.array([c.pitch for c in rig.cameras])[cams]
    elev_world = np.degrees(np.array(
        list(map(math.atan2, (-heights).tolist(), d.tolist())),
        dtype=np.float64))
    eb = elevation_bin(elev_world - pitches, rig.n_elevation_bins)
    ratio = np.divide(radius, d, out=np.ones_like(d), where=d > 0)
    views[si, ti, eb] = np.stack(
        [np.ones_like(d), 1.0 / (1.0 + d),
         np.radians(elev_world) / (math.pi / 2.0),
         np.minimum(ratio, 1.0)], axis=1)
    return views[0] if one else views


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


def rasterize_bev(scenes, grid, extent: float) -> np.ndarray:
    """Binary occupancy grid: cell = 1 iff its center lies inside any disc.

    A sequence of scenes, or `Discs`, gets one grid per scene, stacked on a
    leading axis (a scene is a stack of one).
    """
    if grid[0] < 4 or grid[1] < 4:
        raise ValueError("grid dims must be >= 4")
    discs, one = _as_discs(scenes)
    gx, gy = _grid_centers(tuple(grid), extent)
    ox, oy, r, real = (a[..., None] for a in discs)
    # a cell's squared distance is its column's dx^2 plus its row's dy^2:
    # the same float64 operations as one cell at a time
    dx2 = (gx[0] - ox) ** 2                        # (scenes, discs, w)
    dy2 = (gy[:, 0] - oy) ** 2                     # (scenes, discs, h)
    inside = dy2[..., :, None] + dx2[..., None, :] <= (r * r)[..., None]
    inside &= real[..., None]
    out = inside.any(axis=1).astype(np.float64)
    return out[0] if one else out


# scenes per ray cast and raster in `build_client_datasets`: bounds the
# (scenes, rays, discs) and (scenes, discs, h, w) broadcasts
_SCENES_PER_BLOCK = 64


def build_client_datasets(specs, grid=(16, 16),
                          extent: float = DEFAULT_EXTENT) -> list:
    """One deterministic dataset per (rig, n_points, seed) in `specs`, in
    order; the first 80% of a client's points are its train split.

    Each client draws its scenes one after another from its own stream.
    Clients on equal rigs are built together: `draw_discs` draws the rig's
    scenes, client after client, straight into one set of padded disc
    arrays, which are cast and rasterized in blocks of at most
    `_SCENES_PER_BLOCK` rows; each block's rows are copied into the arrays
    of the clients they belong to. No `Scene` is made and nothing is padded
    again. A scene's rows do not depend on the other scenes of its block,
    so every dataset is the one its client would get alone.
    """
    specs = [(rig, int(n), int(seed)) for rig, n, seed in specs]
    if any(n < 1 for _, n, _ in specs):
        raise ValueError("n_points must be >= 1")
    datasets = [ClientDataset(
        views=np.empty((n, len(rig_tokens(rig).camera), rig.n_elevation_bins,
                        N_VIEW_CHANNELS)),
        bev=np.empty((n, *grid)), n_train=int(0.8 * n))
        for rig, n, _ in specs]
    groups = {}
    for idx, (rig, _, _) in enumerate(specs):
        groups.setdefault(rig, []).append(idx)
    for rig, members in groups.items():
        discs = draw_discs(
            [(np.random.default_rng(np.random.SeedSequence([specs[idx][2]])),
              specs[idx][1]) for idx in members], extent=extent)
        # rows [start, end) of the rig's scenes are one client's
        ends = list(itertools.accumulate(specs[idx][1] for idx in members))
        for lo in range(0, ends[-1], _SCENES_PER_BLOCK):
            hi = min(lo + _SCENES_PER_BLOCK, ends[-1])
            block = Discs(*(a[lo:hi] for a in discs))
            views = render_views(block, rig)
            bev = rasterize_bev(block, grid, extent)
            for idx, start, end in zip(members, [0] + ends, ends):
                a, b = max(lo, start), min(hi, end)
                if a < b:
                    ds = datasets[idx]
                    ds.views[a - start:b - start] = views[a - lo:b - lo]
                    ds.bev[a - start:b - start] = bev[a - lo:b - lo]
    return datasets


def build_client_dataset(rig: CameraRig, n_points: int, seed: int,
                         grid=(16, 16),
                         extent: float = DEFAULT_EXTENT) -> ClientDataset:
    """One client's dataset: `build_client_datasets` of one spec."""
    return build_client_datasets([(rig, n_points, seed)], grid, extent)[0]
