"""Desk-scale BEV transformer and the public/private partition registry.

The model keeps the five component roles of a camera-to-BEV perception
transformer: a per-token feature encoder, a geometry-driven positional
embedding, cross-attention from a learnable BEV query grid onto the camera
tokens, a refinement MLP, and a per-cell decoder. Each role owns one named
parameter segment, so personalization schemes are just choices of which
segments stay private on a client:

    fedavg  -> nothing private (plain global averaging)
    fedrep  -> encoder private (local representation heads)
    fedtp   -> attention private (personalized attention)
    fedcap  -> pos_embed private (camera-geometry personalization)

Tokens are (camera, azimuth-bin) pairs; the elevation axis of the rendered
views is folded into the token channel dimension.
"""

import functools
import json
import math
import struct
from dataclasses import MISSING, asdict, dataclass, fields
from types import MappingProxyType
from typing import NamedTuple, get_args

import numpy as np

from . import autodiff as ad
from .params import ParamStore
from .world import CameraRig, azimuth_bin_angles, cell_centers, in_fov_bins

SEGMENT_NAMES = ("encoder", "pos_embed", "bev_query", "attention", "refine", "decoder")

SCHEME_PRIVATE_SEGMENTS = {
    "fedavg": frozenset(),
    "fedrep": frozenset({"encoder"}),
    "fedtp": frozenset({"attention"}),
    "fedcap": frozenset({"pos_embed"}),
}


_TYPE_NAMES = {int: "an int", float: "a real number", bool: "true or false",
               str: "a string", list: "a list", type(None): "null"}


def _has_type(value, kind) -> bool:
    if kind is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if kind is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is type(None):
        return value is None
    return isinstance(value, kind)


def check_field_types(obj, where: str = "") -> None:
    """Raise ValueError naming the first field of dataclass `obj` whose
    value does not have its annotated type.

    An int field takes an int but not a bool, a float field any real number
    but a bool, and an `X | None` field also None. A config read from JSON
    can carry a string or a list anywhere; this turns that into one message.
    """
    for f in fields(obj):
        value = getattr(obj, f.name)
        kinds = get_args(f.type) or (f.type,)
        if not any(_has_type(value, kind) for kind in kinds):
            expected = " or ".join(_TYPE_NAMES.get(k, k.__name__)
                                   for k in kinds)
            raise ValueError(f"{where}{f.name} must be {expected}, "
                             f"got {value!r}")


def check_keys(doc: dict, cls, what: str, required=None,
               where: str = "") -> None:
    """Raise ValueError naming the keys of `doc` that are no field of
    dataclass `cls`, then the `required` keys it lacks (by default the
    fields without a default), as "<where>unknown <what> keys: [...]"."""
    names = {f.name for f in fields(cls)}
    if required is None:
        required = {f.name for f in fields(cls)
                    if f.default is MISSING and f.default_factory is MISSING}
    for kind, keys in (("unknown", set(doc) - names),
                       ("missing", set(required) - set(doc))):
        if keys:
            raise ValueError(f"{where}{kind} {what} keys: {sorted(keys)}")


@dataclass(frozen=True)
class ModelConfig:
    feat_dim: int = 16
    bev_grid: tuple = (16, 16)
    n_heads: int = 2
    encoder_hidden: int = 32
    decoder_hidden: int = 32
    pos_hidden: int = 16
    n_azimuth_bins: int = 24
    n_elevation_bins: int = 4
    n_view_channels: int = 4
    max_cameras: int = 4
    world_extent: float = 16.0

    def __post_init__(self):
        grid = self.bev_grid
        if not (isinstance(grid, tuple) and len(grid) == 2
                and all(_has_type(n, int) for n in grid)):
            raise ValueError(f"bev_grid must be a pair of ints, got {grid!r}")
        check_field_types(self)
        for f in fields(self):
            if f.type is int and getattr(self, f.name) < 1:
                raise ValueError(f"{f.name} must be >= 1")
        if not (math.isfinite(self.world_extent) and self.world_extent > 0):
            raise ValueError("world_extent must be finite and > 0")
        if self.feat_dim % self.n_heads != 0:
            raise ValueError("feat_dim must be divisible by n_heads")
        if self.bev_grid[0] < 4 or self.bev_grid[1] < 4:
            raise ValueError("bev_grid dims must be >= 4")

    @property
    def token_dim(self) -> int:
        return self.n_elevation_bins * self.n_view_channels

    @property
    def n_query_cells(self) -> int:
        return self.bev_grid[0] * self.bev_grid[1]

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Inverse of to_dict; every field must be present, and no other."""
        if not isinstance(d, dict):
            raise ValueError(f"model must be an object, got {d!r}")
        check_keys(d, cls, "model", required=[f.name for f in fields(cls)])
        grid = d["bev_grid"]
        return cls(**{**d, "bev_grid": (tuple(grid) if isinstance(grid, list)
                                        else grid)})


@dataclass(frozen=True)
class PartitionPolicy:
    scheme: str
    private_segments: frozenset

    @classmethod
    def from_scheme(cls, scheme: str) -> "PartitionPolicy":
        key = scheme.lower()
        if key not in SCHEME_PRIVATE_SEGMENTS:
            raise ValueError(f"unknown scheme {scheme!r}; "
                             f"expected one of {sorted(SCHEME_PRIVATE_SEGMENTS)}")
        return cls(scheme=key, private_segments=SCHEME_PRIVATE_SEGMENTS[key])


# ---------------------------------------------------------------------------
# Camera geometry: per-token ray features in the vehicle frame
# ---------------------------------------------------------------------------

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


def camera_ray_directions(n_bins: int) -> np.ndarray:
    """Unit ray directions per azimuth bin in the camera's own frame, (A, 3)."""
    phis = np.radians(azimuth_bin_angles(n_bins))
    return np.stack([np.cos(phis), np.sin(phis), np.zeros_like(phis)], axis=1)


def rig_key(rig: CameraRig) -> tuple:
    """The camera geometry a forward pass reads from `rig`, as a dict key.

    Two rigs with equal keys give every data point the same logits.
    """
    return tuple((c.height, c.roll, c.pitch, c.yaw, c.fov_azimuth,
                  c.n_azimuth_bins) for c in rig.cameras)


N_POS_FEATURES = 3


def ray_features(rig: CameraRig, n_bins: int) -> np.ndarray:
    """Per-token ray directions in the vehicle frame, (L*A, 3).

    These are the embedding MLP's only input: mount height is deliberately
    not one, so a client's embedding parameters are the only place where
    that part of the calibration can live. Two rigs that differ only in
    height produce identical embedding inputs but differently distributed
    view features, which is what makes the embedding worth personalizing.
    """
    dirs_cam = camera_ray_directions(n_bins)
    return np.vstack([dirs_cam @ pose_rotation(c.roll, c.pitch, c.yaw).T
                      for c in rig.cameras])


N_CELL_FEATURES = 5


def cell_features(config: "ModelConfig") -> np.ndarray:
    """Fixed geometry of each BEV query cell, (n_cells, 5).

    Rows are [x/e, y/e, cos(bearing), sin(bearing), 1/(1+range)]; the
    inverse range lives on the same scale as the rendered distance channel,
    so a cell can compare its own range against retrieved hits directly.
    """
    e = config.world_extent
    gx, gy = cell_centers(config.bev_grid, e)
    rng = np.hypot(gx, gy)
    safe = np.maximum(rng, 1e-12)
    cb = np.where(rng > 0, gx / safe, 0.0)
    sb = np.where(rng > 0, gy / safe, 0.0)
    feats = np.stack([gx / e, gy / e, cb, sb, 1.0 / (1.0 + rng)], axis=-1)
    return feats.reshape(-1, N_CELL_FEATURES)


# ---------------------------------------------------------------------------
# Parameter layout
# ---------------------------------------------------------------------------

def _mlp_entries(prefix: str, dims: list) -> list:
    out = []
    for i in range(len(dims) - 1):
        out.append((f"{prefix}.w{i + 1}", (dims[i], dims[i + 1])))
        out.append((f"{prefix}.b{i + 1}", (dims[i + 1],)))
    return out


def build_layout(config: ModelConfig) -> dict:
    """Map segment name -> ordered list of (key, shape) arrays."""
    f = config.feat_dim
    return {
        "encoder": _mlp_entries("encoder", [config.token_dim, config.encoder_hidden, f]),
        "pos_embed": _mlp_entries("pos_embed",
                                  [N_POS_FEATURES, config.pos_hidden, f]),
        "bev_query": [("bev_query.q", (config.n_query_cells, f))],
        "attention": [("attention.wc", (N_CELL_FEATURES, f)),
                      ("attention.wq", (f, f)), ("attention.wk", (f, f)),
                      ("attention.wv", (f, f)), ("attention.wo", (f, f)),
                      ("attention.bo", (f,))],
        "refine": _mlp_entries("refine", [f, f, f]),
        "decoder": _mlp_entries("decoder", [f, config.decoder_hidden, 1]),
    }


def init_params(config: ModelConfig, seed: int) -> ParamStore:
    """Deterministic init: Xavier-uniform weights, zero biases, query in +-0.1."""
    layout = build_layout(config)
    seg_sizes = [(name, sum(int(np.prod(shape)) for _, shape in layout[name]))
                 for name in SEGMENT_NAMES]
    store = ParamStore(seg_sizes)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed) & (2**63 - 1), 77]))
    for name in SEGMENT_NAMES:
        offset = store.slice_of(name).start
        for key, shape in layout[name]:
            size = int(np.prod(shape))
            sl = slice(offset, offset + size)
            if key == "bev_query.q":
                store.values[sl] = rng.uniform(-0.1, 0.1, size)
            elif len(shape) == 2:
                bound = math.sqrt(6.0 / (shape[0] + shape[1]))
                store.values[sl] = rng.uniform(-bound, bound, size)
            else:
                store.values[sl] = 0.0
            offset += size
    return store


def split_params(store: ParamStore, policy: PartitionPolicy):
    """Disjoint (public, private) flat-index views covering every parameter."""
    private = store.indices(policy.private_segments)
    public = store.indices([s.name for s in store.segments
                            if s.name not in policy.private_segments])
    return np.sort(public), np.sort(private)


# ---------------------------------------------------------------------------
# The model
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _plan(config: ModelConfig):
    """What every model of `config` shares, built once per config and
    read-only: {key: (flat slice, shape)} of each parameter array, the
    (name, length) of each segment, and the query-cell features."""
    layout = build_layout(config)
    offsets, seg_sizes, offset = {}, [], 0
    for name in SEGMENT_NAMES:
        start = offset
        for key, shape in layout[name]:
            size = int(np.prod(shape))
            offsets[key] = (slice(offset, offset + size), shape)
            offset += size
        seg_sizes.append((name, offset - start))
    cells = cell_features(config)
    cells.setflags(write=False)
    return MappingProxyType(offsets), tuple(seg_sizes), cells


_RIG_GEOMETRY = {}


def _rig_geometry(rig: CameraRig, n_bins: int):
    """(ray features of the active bins, active-bin mask) for a rig.

    Only bins inside a camera's field of view become attention tokens; the
    remaining bins never carry content and a real camera would not produce
    them at all. Computed once per (`rig_key`, n_bins) and shared,
    read-only, by every model and thread.
    """
    key = (rig_key(rig), n_bins)
    geometry = _RIG_GEOMETRY.get(key)
    if geometry is None:
        active = np.concatenate([in_fov_bins(c, n_bins) for c in rig.cameras])
        if not active.any():
            raise ValueError("no azimuth bin falls inside any camera FoV")
        geometry = (ray_features(rig, n_bins)[active], active)
        for a in geometry:
            a.setflags(write=False)
        _RIG_GEOMETRY[key] = geometry
    return geometry


class Activations(NamedTuple):
    """What `ToyBevt.backward` reads of one `forward_batch`: each stage's
    input rows, hidden relu outputs and layer-norm outputs."""
    batch: int
    tokens: np.ndarray          # encoder input, (batch*n_tok, token_dim)
    enc_hidden: np.ndarray
    pos_in: np.ndarray          # ray features of the active bins, (n_tok, 3)
    pos_hidden: np.ndarray
    tok: np.ndarray             # layer-normed tokens, (batch*n_tok, f)
    tok_inv_std: np.ndarray
    query: np.ndarray           # query rows anchored to their cells, (n_cells, f)
    attn_kept: tuple
    context: np.ndarray         # attention output before wo, (batch*n_cells, f)
    q2: np.ndarray
    q2_inv_std: np.ndarray
    refine_hidden: np.ndarray
    qs: np.ndarray
    qs_inv_std: np.ndarray
    dec_hidden: np.ndarray


class ToyBevt:
    """Five-stage camera-to-BEV model over a ParamStore.

    `forward_batch` runs the stages straight through on the store's current
    values and returns the logits with the `Activations` that `backward`
    reads; `backward` writes every parameter's gradient into store.grads.
    """

    def __init__(self, config: ModelConfig, params: ParamStore | None = None,
                 seed: int | None = None):
        self.config = config
        self._offsets, seg_sizes, self._cell_features = _plan(config)
        if params is None:
            params = init_params(config, 0 if seed is None else seed)
        if seg_sizes != tuple((s.name, s.length) for s in params.segments):
            raise ValueError("ParamStore layout does not match model config")
        self.params = params
        self._shaped = {}

    def _arrays(self, flat: np.ndarray) -> dict:
        """{key: view of `flat` shaped as that parameter}.

        The store updates its values and grads in place, so the views are
        made once per array, and again only for an array not seen before.
        """
        made = self._shaped.get(id(flat))
        if made is None or made[0] is not flat:
            if len(self._shaped) > 1:
                self._shaped.clear()
            made = self._shaped[id(flat)] = (flat, {
                key: flat[sl].reshape(shape)
                for key, (sl, shape) in self._offsets.items()})
        return made[1]

    def forward(self, views: np.ndarray, rig: CameraRig) -> np.ndarray:
        """Per-cell logits over the BEV grid, shape bev_grid.

        Logits are produced for every cell, so the output shape is
        rig-independent; a FoV mask gates only the loss and the metrics.
        """
        return self.forward_batch([views], rig)[0][0]

    def forward_batch(self, views_list: list, rig: CameraRig):
        """(logits, Activations) for several data points of the same rig;
        the logits are (len(views_list), *bev_grid).

        The positional branch and the query rows are shared across the
        batch and added to the per-sample rows by broadcasting; the
        row-wise stages (encoder, refine, decoder) run on the stacked rows.
        """
        cfg = self.config
        n_cams = views_list[0].shape[0]
        if n_cams > cfg.max_cameras:
            raise ValueError(f"rig has {n_cams} cameras, model allows "
                             f"{cfg.max_cameras}")
        if len(rig) != n_cams:
            raise ValueError("views and rig disagree on camera count")

        pos_in, active = _rig_geometry(rig, cfg.n_azimuth_bins)
        batch, f = len(views_list), cfg.feat_dim
        p = self._arrays(self.params.values)
        tokens = np.concatenate(
            [v.reshape(len(active), cfg.token_dim)[active]
             for v in views_list], axis=0)
        enc_hidden = ad.relu(ad.affine(tokens, p["encoder.w1"],
                                       p["encoder.b1"]))
        enc = ad.affine(enc_hidden, p["encoder.w2"], p["encoder.b2"])
        pos_hidden = ad.relu(ad.affine(pos_in, p["pos_embed.w1"],
                                       p["pos_embed.b1"]))
        pos = ad.affine(pos_hidden, p["pos_embed.w2"], p["pos_embed.b2"])
        tok, tok_inv_std = ad.layer_norm(
            (enc.reshape(batch, -1, f) + pos).reshape(-1, f))

        # anchor each query row to its cell; the batch shares the rows
        query = p["bev_query.q"] + ad.matmul(self._cell_features,
                                             p["attention.wc"])
        qp = ad.matmul(query, p["attention.wq"])
        kp = ad.matmul(tok, p["attention.wk"])
        vp = ad.matmul(tok, p["attention.wv"])
        context, attn_kept = ad.batched_cross_attention(qp, kp, vp,
                                                        cfg.n_heads, batch)
        attended = ad.affine(context, p["attention.wo"], p["attention.bo"])
        q2, q2_inv_std = ad.layer_norm(
            (attended.reshape(batch, -1, f) + query).reshape(-1, f))

        refine_hidden = ad.relu(ad.affine(q2, p["refine.w1"],
                                          p["refine.b1"]))
        refined = ad.affine(refine_hidden, p["refine.w2"], p["refine.b2"])
        refined += q2
        qs, qs_inv_std = ad.layer_norm(refined)
        dec_hidden = ad.relu(ad.affine(qs, p["decoder.w1"], p["decoder.b1"]))
        logits = ad.affine(dec_hidden, p["decoder.w2"], p["decoder.b2"])
        return logits.reshape(batch, *cfg.bev_grid), Activations(
            batch, tokens, enc_hidden, pos_in, pos_hidden, tok, tok_inv_std,
            query, attn_kept, context, q2, q2_inv_std, refine_hidden, qs,
            qs_inv_std, dec_hidden)

    def backward(self, acts: Activations, dlogits: np.ndarray) -> None:
        """Write the gradient of every parameter into params.grads, given
        a `forward_batch`'s activations and the loss gradient of its logits.

        Overwrites whatever params.grads held. A query cell that the loss
        masks out gets exactly zero gradient: each query row reaches only
        its own cell's logit (attention mixes the keys, not the queries,
        and every later stage is row-wise).
        """
        a = acts
        p = self._arrays(self.params.values)
        gp = self._arrays(self.params.grads)
        f = self.config.feat_dim

        g = ad.affine_backward(dlogits.reshape(-1, 1), a.dec_hidden,
                               p["decoder.w2"], gp["decoder.w2"],
                               gp["decoder.b2"])
        g = ad.affine_backward(ad.relu_backward(g, a.dec_hidden), a.qs,
                               p["decoder.w1"], gp["decoder.w1"],
                               gp["decoder.b1"])
        g_refined = ad.layer_norm_backward(g, a.qs, a.qs_inv_std)
        g = ad.affine_backward(g_refined, a.refine_hidden, p["refine.w2"],
                               gp["refine.w2"], gp["refine.b2"])
        g = g_refined + ad.affine_backward(
            ad.relu_backward(g, a.refine_hidden), a.q2, p["refine.w1"],
            gp["refine.w1"], gp["refine.b1"])
        g_attended = ad.layer_norm_backward(g, a.q2, a.q2_inv_std)

        g = ad.affine_backward(g_attended, a.context, p["attention.wo"],
                               gp["attention.wo"], gp["attention.bo"])
        g_qp, g_kp, g_vp = ad.batched_cross_attention_backward(g, a.attn_kept)
        g_tok = ad.matmul_backward(g_vp, a.tok, p["attention.wv"],
                                   gp["attention.wv"])
        g_tok = g_tok + ad.matmul_backward(g_kp, a.tok, p["attention.wk"],
                                           gp["attention.wk"])
        g_query = gp["bev_query.q"]
        np.add(g_attended.reshape(a.batch, -1, f).sum(axis=0),
               ad.matmul_backward(g_qp, a.query, p["attention.wq"],
                                  gp["attention.wq"]), out=g_query)
        ad.matmul_backward(g_query, self._cell_features, p["attention.wc"],
                           gp["attention.wc"], da=False)

        g_sum = ad.layer_norm_backward(g_tok, a.tok, a.tok_inv_std)
        g = ad.affine_backward(g_sum.reshape(a.batch, -1, f).sum(axis=0),
                               a.pos_hidden, p["pos_embed.w2"],
                               gp["pos_embed.w2"], gp["pos_embed.b2"])
        ad.affine_backward(ad.relu_backward(g, a.pos_hidden), a.pos_in,
                           p["pos_embed.w1"], gp["pos_embed.w1"],
                           gp["pos_embed.b1"], dx=False)
        g = ad.affine_backward(g_sum, a.enc_hidden, p["encoder.w2"],
                               gp["encoder.w2"], gp["encoder.b2"])
        ad.affine_backward(ad.relu_backward(g, a.enc_hidden), a.tokens,
                           p["encoder.w1"], gp["encoder.w1"],
                           gp["encoder.b1"], dx=False)
        # a -0.0 becomes +0.0, as if each gradient were added onto zeros
        self.params.grads += 0.0


# ---------------------------------------------------------------------------
# Checkpoints: JSON header + little-endian float64 payload
# ---------------------------------------------------------------------------

_CKPT_FORMAT = "camfed-checkpoint-v1"


def save_checkpoint(path, store: ParamStore, config: ModelConfig,
                    extra_arrays: dict | None = None,
                    meta: dict | None = None) -> None:
    """Write the store plus named extra vectors in a self-describing file."""
    arrays = [("values", np.asarray(store.values, dtype=np.float64))]
    for name in sorted(extra_arrays or {}):
        arrays.append((name, np.asarray(extra_arrays[name], dtype=np.float64)))
    header = {
        "format": _CKPT_FORMAT,
        "segments": store.segment_table(),
        "config": config.to_dict(),
        "meta": meta or {},
        "arrays": [{"name": n, "length": int(a.size)} for n, a in arrays],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for _, a in arrays:
            fh.write(a.astype("<f8").tobytes())


def _check_header(header: dict) -> None:
    missing = {"segments", "config", "meta", "arrays"} - set(header)
    if missing:
        raise ValueError(f"checkpoint header lacks {sorted(missing)}")
    if not (isinstance(header["meta"], dict)
            and isinstance(header["arrays"], list)):
        raise ValueError("checkpoint meta must be an object and arrays a list")
    segments = header["segments"]
    if not (isinstance(segments, list) and all(
            isinstance(s, list) and len(s) == 3 and isinstance(s[0], str)
            and all(_has_type(n, int) for n in s[1:]) for s in segments)):
        raise ValueError("checkpoint segments must be [name, offset, length] "
                         "triples")
    for spec in header["arrays"]:
        if not (isinstance(spec, dict) and isinstance(spec.get("name"), str)
                and _has_type(spec.get("length"), int)
                and spec["length"] >= 0):
            raise ValueError(f"checkpoint array entry {spec!r} needs a name "
                             "and a non-negative int length")


def load_checkpoint(path):
    """Read a checkpoint; returns (ParamStore, ModelConfig, extras, meta).

    A header that is not an object with `segments` ([name, offset, length]
    triples), `config`, `meta` (an object) and `arrays` (each named, with a
    non-negative int length), a file cut short, or one carrying bytes past
    its last array is a ValueError.
    """
    with open(path, "rb") as fh:
        prefix = fh.read(8)
        if len(prefix) != 8:
            raise ValueError("not a recognized checkpoint file")
        (hlen,) = struct.unpack("<Q", prefix)
        header = json.loads(fh.read(hlen).decode("utf-8"))
        if not isinstance(header, dict) or header.get("format") != _CKPT_FORMAT:
            raise ValueError("not a recognized checkpoint file")
        _check_header(header)
        arrays = {}
        for spec in header["arrays"]:
            raw = fh.read(spec["length"] * 8)
            if len(raw) != spec["length"] * 8:
                raise ValueError(f"checkpoint truncated in array {spec['name']!r}")
            arrays[spec["name"]] = np.frombuffer(raw, dtype="<f8").astype(np.float64)
        if fh.read(1):
            raise ValueError("checkpoint has trailing bytes")
    config = ModelConfig.from_dict(header["config"])
    seg_sizes = [(name, length) for name, _, length in header["segments"]]
    store = ParamStore(seg_sizes, values=arrays.pop("values"))
    return store, config, arrays, header["meta"]
