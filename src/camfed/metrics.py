"""Evaluation: BEV IoU, cross-client evaluation matrices, convergence
diagnostics and rounds-to-target accounting.
"""

from dataclasses import dataclass

import numpy as np

from .autodiff import EmptySupportError, _sigmoid
from .model import ToyBevt, rig_key


def iou(pred_logits: np.ndarray, gt: np.ndarray, mask: np.ndarray,
        threshold: float = 0.5) -> float:
    """Vehicle-class intersection-over-union on the unmasked cells.

    Predictions are sigmoid(logit) >= threshold. An empty union (no
    predicted and no true cells) counts as a perfect 1.0.
    """
    z = np.asarray(pred_logits, dtype=np.float64)
    if z.shape != gt.shape or z.shape != mask.shape:
        raise ValueError("iou: shape mismatch")
    active = mask == 1.0
    if not active.any():
        raise EmptySupportError("iou: every cell is masked out")
    pred = _sigmoid(z) >= threshold
    truth = gt == 1.0
    inter = np.sum(pred & truth & active)
    union = np.sum((pred | truth) & active)
    if union == 0:
        return 1.0
    return float(inter / union)


EVAL_CHUNK = 8


def mean_ious(model: ToyBevt, clients: list) -> list:
    """Mean IoU of `model` on each client's test split, in input order.

    A client is anything with `rig`, `mask` and `dataset.test`; one without
    test points gets nan. Clients with equal rig geometry and mask form one
    group, whose test points run through forward_batch EVAL_CHUNK at a time
    whichever client they belong to: a point's logits do not depend on its
    batch-mates, and the bound keeps each forward's arrays small. Each
    forward's activations are dropped as soon as it returns.
    """
    groups = {}
    for k, c in enumerate(clients):
        key = (rig_key(c.rig), c.mask.shape, c.mask.tobytes())
        groups.setdefault(key, []).append(k)
    scores = [[] for _ in clients]
    for members in groups.values():
        rig, mask = clients[members[0]].rig, clients[members[0]].mask
        jobs = [(k, p) for k in members for p in clients[k].dataset.test]
        for lo in range(0, len(jobs), EVAL_CHUNK):
            chunk = jobs[lo:lo + EVAL_CHUNK]
            # index the pair, so the activations go before the next forward
            logits = model.forward_batch([p.views for _, p in chunk], rig)[0]
            for (k, p), lg in zip(chunk, logits):
                scores[k].append(iou(lg, p.bev_gt, mask))
    return [float(np.mean(s)) if s else float("nan") for s in scores]


@dataclass
class CrossEvalMatrix:
    """IoU of every personalized model (column) on every testset (row)."""
    client_ids: list
    values: np.ndarray

    def diagonal_is_row_max(self) -> int:
        """Number of rows whose diagonal entry is strictly greater than every
        other entry of the row; a tie is not a win."""
        return sum(bool((row[i] > np.delete(row, i)).all())
                   for i, row in enumerate(self.values))

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            header = ["testset"] + [f"model_{c}" for c in self.client_ids]
            fh.write(",".join(header) + "\n")
            for i, cid in enumerate(self.client_ids):
                row = [f"testset_{cid}"] + [repr(float(v)) for v in self.values[i]]
                fh.write(",".join(row) + "\n")


def cross_evaluate(models, clients: list) -> CrossEvalMatrix:
    """Evaluate each client's personalized model on every client's testset.

    `models` yields (owners, model) pairs, as
    `FederationEngine.personalized_models()` does, and every client owns
    exactly one model. Entry (i, j) scores client j's model with testset
    i's rig geometry and mask: a model visiting a foreign rig keeps its own
    personalization, which is exactly the mismatch being measured. Each
    model's column is computed once and written for every owner.
    """
    if not clients:
        raise ValueError("cross_evaluate needs at least one client")
    if len({c.mask.shape for c in clients}) != 1:
        raise ValueError("testset grids have incompatible shapes")
    column = {c.client_id: j for j, c in enumerate(clients)}
    values = np.zeros((len(clients), len(clients)))
    for owners, model in models:
        owned = [column[c.client_id] for c in owners]
        values[:, owned] = np.asarray(mean_ious(model, clients))[:, None]
    return CrossEvalMatrix(client_ids=[c.client_id for c in clients],
                           values=values)


def convergence_diagnostic(series, warmup: int = 0) -> float:
    """Log-log least-squares slope of the series against round index.

    A series decaying like c / sqrt(t) fits slope -0.5; a flat series fits
    slope 0. Only the post-warmup window is fitted.
    """
    y = np.asarray(series, dtype=np.float64)
    if y.size < 20:
        raise ValueError("need a series of at least 20 rounds")
    window = y[warmup:]
    if np.any(window <= 0.0):
        raise ValueError("series values must be positive for a log-log fit")
    t = np.arange(warmup + 1, y.size + 1, dtype=np.float64)
    lx, ly = np.log(t), np.log(window)
    lx = lx - lx.mean()
    return float((lx * (ly - ly.mean())).sum() / (lx * lx).sum())


def rounds_to_target(iou_series, fraction: float = 0.95) -> int:
    """First round (1-based) reaching `fraction` of the final IoU."""
    y = np.asarray(iou_series, dtype=np.float64)
    if y.size == 0:
        raise ValueError("empty series")
    target = fraction * y[-1]
    for i, v in enumerate(y):
        if v >= target:
            return i + 1
    return int(y.size)


@dataclass
class EvalReport:
    """Per-client end-of-run summary."""
    client_id: int
    final_iou: float
    final_train_loss: float
    rounds_used: int
    rounds_to_target_95: int
    bits_up_total: int
    bits_down_total: int
