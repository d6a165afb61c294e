"""Per-layer metrics of a traced run, and the audits that ride on the trace.

Each metric is `<module>.<function>.<stat>`: `.s` is busy time (sum of span
durations), `.self_s` busy time minus the child spans inside it, and a bare
count is a number of calls or items. Times are totals over one traced run.
"""

import math
import statistics

import numpy as np

from tracer import self_time

OPS = ("affine", "matmul", "add", "relu", "layer_norm", "tile_rows",
       "slice_rows", "reshape", "scale", "batched_cross_attention",
       "bce_with_logits")

RUN_ROUND = "federation.FederationEngine.run_round"
LOCAL_UPDATE = "federation.FederationEngine.local_update"
EVALUATE = "federation.FederationEngine.evaluate_client"
AGGREGATE = "federation.aggregate"
COMPRESS = "federation.compress_topk"
SURVIVORS = "netsim.StragglerPlan.survivors"
ACCOUNT = "netsim.CommLedger.account"
CROSS_EVAL = "experiments.cross_eval_matrix"
CROSS_EVALUATE = "metrics.cross_evaluate"
FORWARD = "model.ToyBevt.forward_batch"
TAPE = "autodiff.Tensor.backward"
BUILD_ENGINE = "experiments.build_engine"

# which forward a model.forward_batch span is, by its nearest caller
FORWARD_KINDS = {LOCAL_UPDATE: "train", EVALUATE: "eval",
                 CROSS_EVALUATE: "crosseval"}

# metric -> (span name, stat) for metrics read straight off the span table
SPAN_METRICS = {
    "world.build_client_dataset.s": ("world.build_client_dataset", "s"),
    "world.render_views.s": ("world.render_views", "s"),
    "world.rasterize_bev.s": ("world.rasterize_bev", "s"),
    "world.points": ("world.render_views", "calls"),
    **{f"autodiff.{op}.fwd_s": (f"autodiff.{op}", "s") for op in OPS},
    **{f"autodiff.{op}.bwd_s": (f"autodiff.{op}.bwd", "s") for op in OPS},
    "autodiff.tape_s": (TAPE, "self_s"),
    "model.backward.s": ("model.ToyBevt.backward", "s"),
    "optim.adamw_step.s": ("optim.AdamW.step", "s"),
    "optim.adamw_steps": ("optim.AdamW.step", "calls"),
    "federation.evaluate_client.s": (EVALUATE, "s"),
    "metrics.iou.s": ("metrics.iou", "s"),
    "metrics.cross_evaluate.s": (CROSS_EVALUATE, "s"),
    "model.build.s": ("model.ToyBevt.__init__", "s"),
    "model.builds": ("model.ToyBevt.__init__", "calls"),
    "params.store_builds": ("params.ParamStore.__init__", "calls"),
    "optim.adamw_init.s": ("optim.AdamW.__init__", "s"),
    "federation.local_update.s": (LOCAL_UPDATE, "s"),
    "federation.local_update.self_s": (LOCAL_UPDATE, "self_s"),
    "federation.compress_topk.s": (COMPRESS, "s"),
    "federation.aggregate.s": (AGGREGATE, "s"),
    "netsim.survivors.s": (SURVIVORS, "s"),
    "masking.amcm_mask.s": ("masking.amcm_mask", "s"),
    "masking.apply_mask.s": ("masking.apply_mask", "s"),
    "experiments.build_engine.s": (BUILD_ENGINE, "s"),
    "experiments.write_rounds_csv.s": ("experiments.write_rounds_csv", "s"),
    "model.save_checkpoint.s": ("model.save_checkpoint", "s"),
}

_COLUMN = {"calls": 0, "s": 1, "self_s": 2}

_HIGHER_IS_BETTER = {"federation.useful_update_frac", "trace.round_coverage"}
# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = tuple(
    (name, unit, "higher" if name in _HIGHER_IS_BETTER else "lower")
    for name, unit in
    [(name, "count" if stat == "calls" else "s")
     for name, (_, stat) in SPAN_METRICS.items()]
    + [("model.forward.train.s", "s"), ("model.forward.eval.s", "s"),
       ("model.forward.crosseval.s", "s"),
       ("federation.train_steps", "count"),
       ("metrics.crosseval_forwards", "count"),
       ("autodiff.nodes_per_step", "count"),
       ("federation.topk_kept_frac", "ratio"),
       ("federation.useful_update_frac", "ratio"),
       ("federation.critical_share", "ratio"),
       ("netsim.stragglers", "count"), ("netsim.bits_up", "bit"),
       ("netsim.bits_down", "bit"),
       ("trace.round_coverage", "ratio"), ("trace.train_share", "ratio"),
       ("trace.eval_share", "ratio"),
       ("trace.crosseval_over_round", "ratio"), ("trace.spans", "count"),
       ("trace.overhead", "ratio")])


class Probe:
    """Counters and audits fed by tracer hooks during a traced run.

    The audits: every delta reaching `aggregate` addresses only indices in
    its `public_idx` and none in the engine's `private_idx`, and every top-k
    compressed delta keeps exactly ceil(retention * n) entries.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.engine = None
        self.aggregated = 0
        self.private_leaks = 0
        self.topk_calls = 0
        self.topk_seen = 0
        self.topk_kept = 0
        self.topk_mismatches = 0
        self.stragglers = 0
        self.bits_up = 0
        self.bits_down = 0

    def hooks(self) -> dict:
        return {
            RUN_ROUND: (self._enter_round, None),
            LOCAL_UPDATE: (self._enter_client, self._leave_client),
            EVALUATE: (self._enter_client, self._leave_client),
            AGGREGATE: (self._audit_aggregate, None),
            COMPRESS: (None, self._audit_topk),
            SURVIVORS: (None, self._count_stragglers),
            ACCOUNT: (self._count_bits, None),
        }

    def _enter_round(self, args):
        self.engine = args[0]
        self.tracer.round = self.engine.round + 1

    def _enter_client(self, args):
        self.tracer.client = args[1].client_id

    def _leave_client(self, args, out):
        self.tracer.client = None

    def _audit_aggregate(self, args):
        entries, public_idx = args[0], args[2]
        private_idx = self.engine.private_idx
        for _, delta, _ in entries:
            self.aggregated += 1
            if (not np.isin(delta.indices, public_idx).all()
                    or np.isin(delta.indices, private_idx).any()):
                self.private_leaks += 1

    def _audit_topk(self, args, out):
        delta, retention = args[0], args[1]
        n = delta.values.size
        self.topk_calls += 1
        self.topk_seen += n
        self.topk_kept += out.indices.size
        if out.indices.size != math.ceil(retention * n):
            self.topk_mismatches += 1

    def _count_stragglers(self, args, out):
        self.stragglers += len(args[1]) - len(out)

    def _count_bits(self, args):
        self.bits_up += int(args[3])
        self.bits_down += int(args[4])

    def audit_failures(self, topk_expected: bool) -> list:
        """Audit findings as messages; empty when every audit passed."""
        out = []
        if self.aggregated == 0:
            out.append("privacy audit saw no aggregated delta")
        if self.private_leaks:
            out.append(f"{self.private_leaks} aggregated deltas address "
                       "indices outside public_idx or inside private_idx")
        if topk_expected and self.topk_calls == 0:
            out.append("top-k audit saw no compressed delta")
        if self.topk_mismatches:
            out.append(f"{self.topk_mismatches} compressed deltas keep other "
                       "than ceil(retention * n) entries")
        return out


def layer_metrics(tracer, probe) -> dict:
    """Every per-layer metric but trace.overhead, from one traced run."""
    table = tracer.table()
    get = lambda name, stat: table.get(name, (0, 0.0, 0.0))[_COLUMN[stat]]
    m = {metric: get(name, stat) for metric, (name, stat) in SPAN_METRICS.items()}

    fwd = {"train": [0, 0.0], "eval": [0, 0.0], "crosseval": [0, 0.0]}
    updates_by_round = {}
    coverage = []  # share of each round inside its child spans
    names, starts, ends = tracer.names, tracer.starts, tracer.ends
    for i, name in enumerate(names):
        if name == FORWARD:
            kind = FORWARD_KINDS.get(tracer.ancestor(i, FORWARD_KINDS))
            if kind is not None:
                fwd[kind][0] += 1
                fwd[kind][1] += ends[i] - starts[i]
        elif name == LOCAL_UPDATE:
            updates_by_round.setdefault(tracer.rounds[i], []).append(
                ends[i] - starts[i])
    for kind, (_, busy) in fwd.items():
        m[f"model.forward.{kind}.s"] = busy
    m["federation.train_steps"] = fwd["train"][0]
    m["metrics.crosseval_forwards"] = fwd["crosseval"][0]

    bwd_calls = sum(table[f"autodiff.{op}.bwd"][0] for op in OPS
                    if f"autodiff.{op}.bwd" in table)
    tapes = get(TAPE, "calls")
    m["autodiff.nodes_per_step"] = bwd_calls / tapes if tapes else 0.0

    m["federation.topk_kept_frac"] = (probe.topk_kept / probe.topk_seen
                                      if probe.topk_seen else 1.0)
    updates = get(LOCAL_UPDATE, "calls")
    m["federation.useful_update_frac"] = (probe.aggregated / updates
                                          if updates else 0.0)
    shares = [max(d) / sum(d) for d in updates_by_round.values() if sum(d) > 0]
    m["federation.critical_share"] = statistics.median(shares) if shares else 0.0
    m["netsim.stragglers"] = probe.stragglers
    m["netsim.bits_up"] = probe.bits_up
    m["netsim.bits_down"] = probe.bits_down

    round_s = tracer.durations(RUN_ROUND)
    children = {}
    for i, p in enumerate(tracer.parents):
        if p >= 0 and names[p] == RUN_ROUND:
            children.setdefault(p, []).append((starts[i], ends[i]))
    for i, name in enumerate(names):
        if name == RUN_ROUND and ends[i] > starts[i]:
            dur = ends[i] - starts[i]
            coverage.append(
                1.0 - self_time(starts[i], ends[i], children.get(i, ())) / dur)
    all_rounds = sum(round_s)
    m["trace.round_coverage"] = min(coverage) if coverage else 0.0
    m["trace.train_share"] = (get(LOCAL_UPDATE, "s") / all_rounds
                              if all_rounds else 0.0)
    m["trace.eval_share"] = get(EVALUATE, "s") / all_rounds if all_rounds else 0.0
    m["trace.crosseval_over_round"] = (get(CROSS_EVAL, "s")
                                       / statistics.median(round_s)
                                       if round_s else 0.0)
    m["trace.spans"] = len(names)
    return m
