"""Command-line entry point.

Subcommands:
    run        execute one experiment from a JSON config
    preset     print or write one of the uc1..uc5 preset configs
    sweep      run a config once per value of a sweepable parameter
    cross-eval rebuild models from a checkpoint and write the
               personalization cross-evaluation matrix

Set CAMFED_LOG_LEVEL (DEBUG/INFO/WARNING) to control verbosity.
"""

import argparse
import json
import logging
import os
import sys

from .experiments import (DEFAULT_SCALE, PRESET_NAMES, SWEEPABLE,
                          ExperimentConfig, build_engine, cross_eval_matrix,
                          preset, run_experiment, scaled, sweep)
from .model import load_checkpoint

log = logging.getLogger("camfed")


def _apply_seed_and_scale(config, seed, scale):
    if seed is not None:
        config.seed = int(seed)
    if scale is not None and scale != 1.0:
        for spec in config.clients:
            spec.n_points = scaled(spec.n_points, scale)
    return config


def cmd_run(args) -> int:
    config = _apply_seed_and_scale(ExperimentConfig.from_json(args.config),
                                   args.seed, args.scale)
    log.info("running %s (%d clients, %d rounds) -> %s",
             config.name, len(config.clients), config.rounds, args.out)
    engine, report = run_experiment(config, args.out, workers=args.workers)
    mean_iou = sum(c["final_iou"] for c in report["clients"]) / len(report["clients"])
    print(f"completed {report['rounds_completed']} rounds; "
          f"mean final IoU {mean_iou:.4f}; artifacts in {args.out}")
    return 0


def cmd_preset(args) -> int:
    config = preset(args.name, scale=args.scale)
    if args.emit:
        config.save_json(args.emit)
        print(f"wrote {args.emit}")
    else:
        print(json.dumps(config.to_dict(), indent=2, sort_keys=True))
    return 0


def _sweep_value(axis: str, text: str):
    """One --values item, parsed as the type of the axis's setting."""
    kind = SWEEPABLE[axis]
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{axis} takes {'whole' if kind is int else 'real'}"
                         f" numbers, got {text!r}") from None


def cmd_sweep(args) -> int:
    config = _apply_seed_and_scale(ExperimentConfig.from_json(args.config),
                                   args.seed, args.scale)
    values = [_sweep_value(args.axis, v)
              for v in args.values.split(",") if v != ""]
    rows = sweep(config, args.axis, values, args.out, workers=args.workers)
    for value, seed, rounds, mean_iou, bits in rows:
        print(f"{args.axis}={value}: rounds={rounds} "
              f"mean_iou={mean_iou:.4f} bits={bits}")
    return 0


def cmd_cross_eval(args) -> int:
    store, _, extras, meta = load_checkpoint(args.checkpoint)
    if "config" not in meta:
        raise ValueError("checkpoint meta has no run config")
    config = ExperimentConfig.from_dict(meta["config"])
    engine = build_engine(config)
    engine.store.values[:] = store.values
    for c in engine.clients:
        key = f"private:{c.client_id}"
        if key not in extras:
            raise ValueError(f"checkpoint has no {key} array")
        c.private_values = extras[key]
    os.makedirs(args.out, exist_ok=True)
    matrix = cross_eval_matrix(engine)
    path = os.path.join(args.out, "cross_eval.csv")
    matrix.to_csv(path)
    diag = matrix.diagonal_is_row_max()
    print(f"wrote {path}; diagonal is row max on {diag}/{len(matrix.client_ids)} rows")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="camfed",
        description="Deterministic federated learning simulator for "
                    "multi-camera BEV perception")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--scale", type=float, default=None,
                       help="divide client dataset sizes by this factor")
    p_run.add_argument("--workers", type=int, default=1)
    p_run.add_argument("--out", required=True)
    p_run.set_defaults(func=cmd_run)

    p_preset = sub.add_parser("preset", help="emit a use-case preset config")
    p_preset.add_argument("name", choices=PRESET_NAMES)
    p_preset.add_argument("--emit", default=None)
    p_preset.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    p_preset.set_defaults(func=cmd_preset)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--axis", required=True, choices=SWEEPABLE)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values")
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--scale", type=float, default=None)
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_ce = sub.add_parser("cross-eval",
                          help="cross-evaluation matrix from a checkpoint")
    p_ce.add_argument("--checkpoint", required=True)
    p_ce.add_argument("--out", required=True)
    p_ce.set_defaults(func=cmd_cross_eval)
    return parser


def _log_level() -> int:
    name = os.environ.get("CAMFED_LOG_LEVEL", "WARNING")
    level = logging.getLevelName(name.upper())   # an int for known names
    if not isinstance(level, int):
        raise ValueError(f"unknown CAMFED_LOG_LEVEL {name!r}")
    return level


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        logging.basicConfig(level=_log_level(),
                            format="%(levelname)s %(name)s: %(message)s")
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
