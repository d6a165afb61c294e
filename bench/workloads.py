"""The benchmark's workloads: camfed presets cut to a few rounds.

A workload is a preset plus overrides, and a function of the benchmark's
seed, which becomes `ExperimentConfig.seed`. Rounds are cut from the presets'
40-60 so that a whole experiment, set-up and cross-evaluation included, runs
several times within one benchmark run. The learning rate stays at its base
value, because every cut run ends inside the preset's warm-up.
"""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    rounds: int
    why: str
    overrides: dict = field(default_factory=dict)
    # camera subsets that the car clients take in turn (None: all four)
    car_cameras: tuple = ()
    # (per-layer metric, lowest value) that holds at seed state when the
    # workload stresses the layer `why` names
    reason: tuple = ()


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="fleet", preset="uc1", rounds=3,
            why="uc1 bus, truck and large car client, full participation, "
                "dense: local training (forward, backward, AdamW) dominates",
            reason=("trace.train_share", 0.80)),
        Workload(
            name="swarm", preset="uc5", rounds=3,
            why="uc5 with 58 equal small clients, top-k 0.1 and 30% "
                "stragglers: per-client fixed costs, top-k and a 58x58 "
                "cross-eval show",
            overrides={"topk_retention": 0.1, "straggler_ratio": 0.3},
            reason=("trace.crosseval_over_round", 1.0)),
        Workload(
            name="sampled", preset="uc5", rounds=24,
            why="uc5 clients, 6 sampled per round, cars with 1, 3 or 4 "
                "cameras: forward-only evaluation of every client dominates",
            overrides={"select_m": 6},
            car_cameras=([1], [1, 2, 3], None),
            reason=("trace.eval_share", 0.35)),
    )
}


def build_config(name: str, seed: int):
    """The workload's ExperimentConfig for the given benchmark seed."""
    from camfed.experiments import preset

    workload = WORKLOADS[name]
    config = preset(workload.preset)
    config.name = workload.name
    config.rounds = workload.rounds
    config.seed = int(seed)
    for key, value in workload.overrides.items():
        setattr(config, key, value)
    if workload.car_cameras:
        cars = [c for c in config.clients if c.rig == "car"]
        for i, spec in enumerate(cars):
            cams = workload.car_cameras[i % len(workload.car_cameras)]
            spec.cameras = None if cams is None else list(cams)
    return config


def updates_per_run(config) -> int:
    """Client updates one run attempts: selected clients summed over rounds."""
    per_round = config.select_m or len(config.clients)
    return config.rounds * per_round
