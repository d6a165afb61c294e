"""Experiment configuration, use-case presets, and artifact-producing runs.

A run is a pure function of (config, seed): it writes a config echo, a
fixed-schema per-round CSV, a summary report JSON, a cross-evaluation CSV
(when there are at least two clients) and a final checkpoint. Byte-identical
inputs give byte-identical artifacts.

CSV schema (one row per client per round):
    round,client_id,selected,straggler,train_loss,val_iou,bits_up,bits_down,cum_bits
cum_bits is the global cumulative up+down total at the end of the row's
round, so it repeats across a round's rows.
"""

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .federation import ClientState, FederationEngine
from .metrics import (CrossEvalMatrix, EvalReport, cross_evaluate,
                      rounds_to_target)
from .model import (ModelConfig, PartitionPolicy, check_field_types,
                    check_keys, save_checkpoint)
from .seeding import derive_seed
from .world import N_VIEW_CHANNELS, build_client_dataset, rig_from_preset

CSV_HEADER = ("round,client_id,selected,straggler,train_loss,val_iou,"
              "bits_up,bits_down,cum_bits")

# Full fleet-scale client dataset sizes are divided by this by default.
DEFAULT_SCALE = 20.0


@dataclass
class ClientSpec:
    rig: str
    n_points: int
    cameras: list | None = None       # 1-based subset, None = all four
    local_epochs: int = 1
    seed: int | None = None           # derived from the master seed if None


@dataclass
class ExperimentConfig:
    clients: list
    name: str = "custom"
    scheme: str = "fedcap"
    rounds: int = 60
    warmup_rounds: int = 20
    lr_u: float = 5e-3
    lr_v: float = 5e-3
    batch_size: int = 4
    select_m: int | None = None
    topk_retention: float = 1.0
    straggler_ratio: float = 0.0
    amcm: bool = True
    optimizer: str = "adamw"
    bits_budget: int | None = None
    checkpoint_every: int | None = None
    seed: int = 0
    model: ModelConfig = field(default_factory=ModelConfig)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """Reject settings of the wrong type or out of range.

        Runs at construction and again in `build_engine` and `sweep`, so a
        field set after construction is checked before any dataset is
        built. The README lists every field's valid range.
        """
        check_field_types(self)
        if not self.clients:
            raise ValueError("config needs a non-empty 'clients' list")
        if self.model.n_view_channels != N_VIEW_CHANNELS:
            raise ValueError(f"model.n_view_channels must be {N_VIEW_CHANNELS}"
                             f" (the rendered channels), got "
                             f"{self.model.n_view_channels}")
        for idx, spec in enumerate(self.clients):
            check_field_types(spec, f"client {idx}: ")
            if spec.cameras is not None and not all(
                    type(i) is int for i in spec.cameras):
                raise ValueError(f"client {idx}: cameras must be a list of "
                                 f"ints, got {spec.cameras!r}")
            try:
                rig = rig_from_preset(spec.rig, camera_ids=spec.cameras)
            except ValueError as err:
                raise ValueError(f"client {idx}: {err}") from None
            if len(rig) > self.model.max_cameras:
                raise ValueError(f"client {idx}: rig has {len(rig)} cameras, "
                                 f"more than model.max_cameras "
                                 f"{self.model.max_cameras}")
            if spec.local_epochs < 1:
                raise ValueError(f"client {idx}: local_epochs must be >= 1")
            if spec.n_points < 2:
                raise ValueError(f"client {idx}: n_points must be >= 2")
        PartitionPolicy.from_scheme(self.scheme)
        if self.optimizer not in ("adamw", "sgd"):
            raise ValueError(f"optimizer must be 'adamw' or 'sgd', "
                             f"got {self.optimizer!r}")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.warmup_rounds < 0:
            raise ValueError("warmup_rounds must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        for name in ("lr_u", "lr_v"):
            lr = getattr(self, name)
            if not (math.isfinite(lr) and lr >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {lr}")
        if not (0.0 < self.topk_retention <= 1.0):
            raise ValueError("topk_retention must be in (0, 1]")
        if not (0.0 <= self.straggler_ratio < 1.0):
            raise ValueError("straggler_ratio must be in [0, 1)")
        if self.select_m is not None and not (
                1 <= self.select_m <= len(self.clients)):
            raise ValueError(f"select_m must be in 1..{len(self.clients)} "
                             f"(the number of clients), got {self.select_m}")
        for name in ("bits_budget", "checkpoint_every"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be null or >= 1, got {value}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ValueError(f"config must be an object, got {doc!r}")
        doc = dict(doc)
        # a missing 'clients' gets the message below, not a missing-key one
        check_keys(doc, cls, "config", required=())
        if not isinstance(doc.get("clients"), list):
            raise ValueError("config needs a non-empty 'clients' list")
        clients = []
        for idx, c in enumerate(doc["clients"]):
            if not isinstance(c, dict):
                raise ValueError(f"client {idx} must be an object, got {c!r}")
            check_keys(c, ClientSpec, "client", where=f"client {idx}: ")
            clients.append(ClientSpec(**c))
        doc["clients"] = clients
        if "model" in doc:
            doc["model"] = ModelConfig.from_dict(doc["model"])
        return cls(**doc)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def save_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def scaled(n_full: int, scale: float) -> int:
    """A full-scale dataset size divided by `scale`, rounded, at least 2."""
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be finite and > 0, got {scale}")
    return max(2, round(n_full / scale))


def preset(name: str, scale: float = DEFAULT_SCALE) -> ExperimentConfig:
    """Desk-scale analogs of the five federated use cases.

    uc1: two fleet operators (bus, truck) plus a large virtual car client.
    uc2: four operators with more balanced data.
    uc3: 24 small connected-vehicle clients, capped at 100 rounds.
    uc4: three car clients with 1 / 3 / 4 cameras (the masking use case).
    uc5: 58 single-scenario vehicle clients for the straggler study.
    """
    make = lambda rig, n, **kw: ClientSpec(rig=rig, n_points=scaled(n, scale),
                                           local_epochs=2, **kw)
    if name == "uc1":
        return ExperimentConfig(
            name="uc1", rounds=60, warmup_rounds=20,
            clients=[make("bus", 1388), make("truck", 1448), make("car", 6372)])
    if name == "uc2":
        return ExperimentConfig(
            name="uc2", rounds=60, warmup_rounds=20,
            clients=[make("bus", 1388), make("truck", 1448),
                     make("car", 2140), make("car", 1384)])
    if name == "uc3":
        clients = ([make("bus", 320) for _ in range(3)]
                   + [make("truck", 320) for _ in range(4)]
                   + [make("car", 320) for _ in range(17)])
        return ExperimentConfig(name="uc3", rounds=100, warmup_rounds=20,
                                clients=clients)
    if name == "uc4":
        return ExperimentConfig(
            name="uc4", rounds=60, warmup_rounds=20,
            clients=[make("car", 1152, cameras=[1]),
                     make("car", 1896, cameras=[1, 2, 3]),
                     make("car", 1560, cameras=[1, 2, 3, 4])])
    if name == "uc5":
        clients = ([make("bus", 160) for _ in range(11)]
                   + [make("truck", 160) for _ in range(7)]
                   + [make("car", 160) for _ in range(40)])
        return ExperimentConfig(name="uc5", rounds=40, warmup_rounds=10,
                                scheme="fedavg", clients=clients)
    raise ValueError(f"unknown preset {name!r}; expected uc1..uc5")


PRESET_NAMES = ("uc1", "uc2", "uc3", "uc4", "uc5")


# ---------------------------------------------------------------------------
# Building and running
# ---------------------------------------------------------------------------

def build_engine(config: ExperimentConfig) -> FederationEngine:
    """Materialize datasets and client states, returning a ready engine
    that reads its settings from `config`.

    Settings are checked first, fields set after construction included.
    """
    config.validate()
    mc = config.model
    clients = []
    for idx, spec in enumerate(config.clients):
        seed = spec.seed if spec.seed is not None else derive_seed(
            config.seed, "client", idx)
        rig = rig_from_preset(spec.rig, camera_ids=spec.cameras,
                              n_azimuth_bins=mc.n_azimuth_bins,
                              n_elevation_bins=mc.n_elevation_bins)
        dataset = build_client_dataset(rig, spec.n_points, seed=seed,
                                       grid=mc.bev_grid,
                                       extent=mc.world_extent)
        clients.append(ClientState(client_id=idx, rig=rig, dataset=dataset,
                                   seed=seed, local_epochs=spec.local_epochs))
    return FederationEngine(config, clients)


def write_rounds_csv(records, ledger, path) -> None:
    # cumulative totals per round, in round order
    cum = {}
    running = 0
    for r, _, up, down in ledger.entries:
        running += up + down
        cum[r] = running
    last = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for rec in records:
            last = cum.get(rec.round, last)
            row = [str(rec.round), str(rec.client_id),
                   str(int(rec.selected)), str(int(rec.straggler)),
                   repr(rec.train_loss), repr(rec.val_iou),
                   str(rec.bits_up), str(rec.bits_down), str(last)]
            fh.write(",".join(row) + "\n")


def summarize(engine: FederationEngine) -> dict:
    """Per-client EvalReports plus run-level telemetry, as a JSON-able dict."""
    config = engine.config
    per_client = []
    for c in engine.clients:
        recs = [r for r in engine.records if r.client_id == c.client_id]
        iou_series = [r.val_iou for r in recs]
        losses = [r.train_loss for r in recs if not np.isnan(r.train_loss)]
        bits_up = sum(r.bits_up for r in recs)
        bits_down = sum(r.bits_down for r in recs)
        per_client.append(EvalReport(
            client_id=c.client_id,
            final_iou=iou_series[-1] if iou_series else float("nan"),
            final_train_loss=losses[-1] if losses else float("nan"),
            rounds_used=engine.round,
            rounds_to_target_95=rounds_to_target(iou_series)
            if iou_series else 0,
            bits_up_total=bits_up, bits_down_total=bits_down))
    return {
        "name": config.name,
        "scheme": config.scheme,
        "seed": config.seed,
        "rounds_completed": engine.round,
        "total_bits_up": engine.ledger.total_up,
        "total_bits_down": engine.ledger.total_down,
        "clients": [dataclasses.asdict(r) for r in per_client],
    }


def cross_eval_matrix(engine: FederationEngine) -> CrossEvalMatrix:
    return cross_evaluate(engine.personalized_models(), engine.clients)


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


def run_experiment(config: ExperimentConfig, out_dir, workers: int = 1):
    """Execute the round loop and write all artifacts into out_dir.

    Returns (engine, report dict).
    """
    _check_workers(workers)
    engine = build_engine(config)      # rejects bad settings before any write
    os.makedirs(out_dir, exist_ok=True)
    config.save_json(os.path.join(out_dir, "config.json"))

    def checkpoint_hook(eng):
        every = config.checkpoint_every
        if every and eng.round % every == 0 and eng.round < config.rounds:
            _write_checkpoint(eng, os.path.join(
                out_dir, f"checkpoint_round_{eng.round}.bin"))

    try:
        engine.run(workers=workers, on_round=checkpoint_hook)
    finally:
        # partial CSV is still written if a round raised mid-run
        write_rounds_csv(engine.records, engine.ledger,
                         os.path.join(out_dir, "rounds.csv"))
    report = summarize(engine)
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if len(engine.clients) >= 2:
        cross_eval_matrix(engine).to_csv(os.path.join(out_dir, "cross_eval.csv"))
    _write_checkpoint(engine, os.path.join(out_dir, "checkpoint.bin"))
    return engine, report


def _write_checkpoint(engine: FederationEngine, path) -> None:
    config = engine.config
    extras = {f"private:{c.client_id}": c.private_values
              for c in engine.clients}
    save_checkpoint(path, engine.store, config.model, extra_arrays=extras,
                    meta={"round": engine.round, "scheme": config.scheme,
                          "config": config.to_dict()})


# each sweepable setting and the type of its values
SWEEPABLE = {"local_epochs": int, "topk_retention": float,
             "straggler_ratio": float, "select_m": int}


def sweep(config: ExperimentConfig, axis: str, values, out_dir,
          workers: int = 1) -> list:
    """One run per axis value with derived seeds; merged summary CSV.

    Every value's config is checked before the first run starts, so a bad
    later value costs no training and leaves no directory behind.
    """
    _check_workers(workers)
    if axis not in SWEEPABLE:
        raise ValueError(f"axis must be one of {tuple(SWEEPABLE)}")
    if not values:
        raise ValueError("sweep needs at least one value")
    whole = SWEEPABLE[axis] is int
    configs = []
    for i, value in enumerate(values):
        # a run labelled 1.9 must not quietly run with 1
        if whole and not float(value).is_integer():
            raise ValueError(f"{axis} takes whole numbers, got {value}")
        setting = int(value) if whole else float(value)
        cfg = ExperimentConfig.from_dict(config.to_dict())
        if axis == "local_epochs":
            for c in cfg.clients:
                c.local_epochs = setting
        else:
            setattr(cfg, axis, setting)
        cfg.seed = derive_seed(config.seed, "sweep", i)
        cfg.name = f"{config.name}-{axis}-{value}"
        cfg.validate()
        configs.append((value, cfg))
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for value, cfg in configs:
        sub = os.path.join(out_dir, f"{axis}_{value}")
        engine, report = run_experiment(cfg, sub, workers=workers)
        mean_iou = float(np.mean([c["final_iou"] for c in report["clients"]]))
        rows.append((value, cfg.seed, report["rounds_completed"], mean_iou,
                     report["total_bits_up"] + report["total_bits_down"]))
    with open(os.path.join(out_dir, "sweep.csv"), "w", encoding="utf-8") as fh:
        fh.write(f"{axis},seed,rounds_completed,mean_final_iou,total_bits\n")
        for value, seed, rounds, mean_iou, bits in rows:
            fh.write(f"{value},{seed},{rounds},{repr(mean_iou)},{bits}\n")
    return rows
