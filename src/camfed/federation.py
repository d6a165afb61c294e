"""Federated round engine: partitioned local updates, weighted delta
aggregation, client selection, top-k compression and straggler handling.

One round = broadcast the shared slice -> selected clients train locally
(one optimizer step per batch: lr_u on the public slice, lr_v on the private
slice) and return a `ClientUpdate` -> upload compressed deltas -> drop
stragglers -> weighted aggregation of survivors. A client's private slice
never leaves the client: deltas carry flat public indices only, which makes
that auditable.

Everything is a pure function of (configuration, master seed): every random
draw comes from a stream keyed by round and purpose, so client-level
parallelism cannot change results.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .autodiff import bce_with_logits, bce_with_logits_backward
from .masking import amcm_mask
from .metrics import mean_ious
from .model import PartitionPolicy, ToyBevt, init_params, split_params
from .netsim import CommLedger, StragglerPlan
from .optim import AdamW, NonFiniteGradientError, sgd_step
from .params import ParamStore
from .seeding import derive_rng, derive_seed
from .world import CameraRig, ClientDataset

VALUE_BITS = 64
INDEX_BITS = 32


@dataclass
class Delta:
    """A client's public-slice update, addressed by flat parameter index."""
    indices: np.ndarray      # int64, strictly increasing
    values: np.ndarray       # float64, parallel to indices
    dense: bool
    bits_upload: int

    def __post_init__(self):
        if self.indices.shape != self.values.shape:
            raise ValueError("indices and values must be parallel")
        if self.indices.size > 1 and not np.all(np.diff(self.indices) > 0):
            raise ValueError("delta indices must be strictly increasing")


def dense_delta(public_idx: np.ndarray, diff: np.ndarray) -> Delta:
    return Delta(indices=public_idx.astype(np.int64), values=diff,
                 dense=True, bits_upload=VALUE_BITS * int(diff.size))


def compress_topk(delta: Delta, retention: float) -> Delta:
    """Keep the ceil(retention * n) largest-magnitude entries.

    Ties break toward the lower index, and a nan magnitude ranks below
    every number. retention == 1 is a dense passthrough. One O(n)
    partition finds the k-th largest magnitude; every entry above it stays,
    and so do the lowest-index entries tied with it, until k are kept.
    """
    if not (0.0 < retention <= 1.0):
        raise ValueError("retention must be in (0, 1]")
    if retention == 1.0:
        return delta
    n = delta.values.size
    k = int(math.ceil(retention * n))
    key = -np.abs(delta.values)         # ascending key; nan sorts last
    kth = np.partition(key, k - 1)[k - 1]
    if np.isnan(kth):
        above, tied = ~np.isnan(key), np.isnan(key)
    else:
        above, tied = key < kth, key == kth
    tied[np.flatnonzero(tied)[k - np.count_nonzero(above):]] = False
    keep = np.flatnonzero(above | tied)
    return Delta(indices=delta.indices[keep], values=delta.values[keep],
                 dense=False, bits_upload=k * (INDEX_BITS + VALUE_BITS))


def client_selection(client_ids, m: int, rng: np.random.Generator):
    """Uniform sample without replacement of m clients, returned sorted."""
    ids = sorted(client_ids)
    if not (1 <= m <= len(ids)):
        raise ValueError(f"selection size {m} out of range 1..{len(ids)}")
    if m == len(ids):
        return ids
    chosen = rng.choice(np.asarray(ids), size=m, replace=False)
    return sorted(int(c) for c in chosen)


def lr_schedule(round_no: int, base_lr: float, warmup_rounds: int,
                total_rounds: int) -> float:
    """Constant through warm-up, then cosine annealing down to zero at T."""
    if round_no > total_rounds:
        raise ValueError("round_no exceeds total_rounds")
    if total_rounds <= warmup_rounds or round_no <= warmup_rounds:
        return base_lr
    progress = (round_no - warmup_rounds) / (total_rounds - warmup_rounds)
    return base_lr * (1.0 + math.cos(math.pi * progress)) / 2.0


def aggregate(entries, base_values: np.ndarray,
              public_idx: np.ndarray) -> np.ndarray:
    """Weighted-mean update of the shared slice from client deltas.

    entries: (client_id, Delta, weight) triples; summation runs in client-id
    order so results do not depend on arrival order. Weights are divided by
    the survivors' weight sum, which leaves the base point fixed when all
    deltas vanish.
    """
    if not entries:
        raise ValueError("aggregate needs at least one delta")
    if any(w <= 0 for _, _, w in entries):
        raise ValueError("aggregation weights must be positive")
    entries = sorted(entries, key=lambda e: e[0])
    denom = float(sum(w for _, _, w in entries))
    acc = np.zeros_like(base_values)
    for _, delta, weight in entries:
        acc[delta.indices] += (weight / denom) * delta.values
    out = base_values.copy()
    out[public_idx] += acc[public_idx]
    return out


@dataclass
class ClientState:
    client_id: int                      # the client's index in the config
    rig: CameraRig
    dataset: ClientDataset
    seed: int
    local_epochs: int = 1
    private_values: np.ndarray | None = None
    mask: np.ndarray | None = None


@dataclass
class ClientUpdate:
    """The result of one client's local epochs, applied by `run_round`."""
    delta: Delta
    private_values: np.ndarray
    loss: float
    grad_norm: float


@dataclass
class RoundRecord:
    round: int
    client_id: int
    selected: bool
    straggler: bool
    train_loss: float
    val_iou: float
    bits_up: int
    bits_down: int
    grad_norm: float = float("nan")
    aborted: bool = False


class FederationEngine:
    """Runs the communication rounds for one experiment.

    Every run setting is read from `config`, a validated
    `experiments.ExperimentConfig`; `clients` holds one `ClientState` per
    `config.clients` entry, in order, so a client's id is its index.
    `experiments.build_engine` makes both.
    """

    def __init__(self, config, clients: list):
        self.config = config
        self.clients = clients
        mc = config.model
        self.store = init_params(mc, derive_seed(config.seed, "init"))
        self.public_idx, self.private_idx = split_params(
            self.store, PartitionPolicy.from_scheme(config.scheme))
        self.round = 0
        self.ledger = CommLedger()
        self.records: list = []
        for c in clients:
            c.private_values = self.store.values[self.private_idx].copy()
            c.mask = (amcm_mask(c.rig, mc.bev_grid, mc.world_extent)
                      if config.amcm else np.ones(mc.bev_grid))

    # -- local training -------------------------------------------------------

    def personal_store(self, client: ClientState) -> ParamStore:
        """A copy of the engine's parameters carrying `client`'s private
        slice: the parameters of the client's personalized model."""
        store = self.store.clone()
        store.values[self.private_idx] = client.private_values
        return store

    def _batch_backward(self, model: ToyBevt, client: ClientState,
                        batch) -> float:
        """The batch's loss; its gradient is left in model.params.grads."""
        logits, acts = model.forward_batch([p.views for p in batch],
                                           client.rig)
        targets = np.stack([p.bev_gt for p in batch])
        model.backward(acts, bce_with_logits_backward(logits, targets,
                                                      client.mask))
        return bce_with_logits(logits, targets, client.mask)

    def local_update(self, client: ClientState, lr_u: float, lr_v: float,
                     round_no: int) -> ClientUpdate:
        """One client's epochs for the round, returned as a ClientUpdate.

        Trains a copy of the client's personalized model (the engine's
        public values with the client's private slice). Each batch's single
        backward pass feeds one optimizer step at a per-index rate: lr_u on
        the public slice, lr_v on the private slice. The optimizer state
        starts fresh every round. Writes nothing to the client or the
        engine, so clients can train in any order or in parallel.
        """
        local = self.personal_store(client)
        model = ToyBevt(self.config.model, local)
        step = (AdamW(self.store.n).step if self.config.optimizer == "adamw"
                else sgd_step)
        lr = np.empty(self.store.n)
        lr[self.public_idx] = lr_u
        lr[self.private_idx] = lr_v
        rng = derive_rng(self.config.seed, "batch", round_no, client.seed)
        train = client.dataset.train
        batch_size = self.config.batch_size
        losses, grad_norms = [], []
        for _ in range(client.local_epochs):
            order = rng.permutation(len(train))
            for lo in range(0, len(order), batch_size):
                batch = [train[i] for i in order[lo:lo + batch_size]]
                loss = self._batch_backward(model, client, batch)
                if not math.isfinite(loss):
                    raise NonFiniteGradientError("non-finite training loss")
                losses.append(loss)
                grad_norms.append(float(np.linalg.norm(local.grads)))
                step(local, lr)
        diff = local.values[self.public_idx] - self.store.values[self.public_idx]
        return ClientUpdate(
            delta=dense_delta(self.public_idx, diff),
            private_values=local.values[self.private_idx].copy(),
            loss=float(np.mean(losses)), grad_norm=float(np.mean(grad_norms)))

    # -- evaluation -----------------------------------------------------------

    def personalized_models(self):
        """Yield (clients, ToyBevt): one personalized model per distinct
        private slice, with the clients that share it, in client order.

        Clients with equal private slices (all of them under fedavg) have
        the same personalized model. Each model is built only when the
        caller asks for the next one.
        """
        by_slice = {}
        for c in self.clients:
            by_slice.setdefault(c.private_values.tobytes(), []).append(c)
        for members in by_slice.values():
            yield members, ToyBevt(self.config.model,
                                   self.personal_store(members[0]))

    def evaluate_clients(self) -> dict:
        """{client_id: mean IoU of its personalized model on its test split},
        one `mean_ious` call per personalized model."""
        ious = {}
        for members, model in self.personalized_models():
            ious.update(zip((c.client_id for c in members),
                            mean_ious(model, members)))
        return {c.client_id: ious[c.client_id] for c in self.clients}

    # -- the round loop ---------------------------------------------------------

    def run_round(self, workers: int = 1) -> list:
        """Advance one communication round; returns this round's records."""
        cfg = self.config
        if self.round >= cfg.rounds:
            raise ValueError("experiment already ran its rounds")
        t = self.round + 1
        lr_u = lr_schedule(t, cfg.lr_u, cfg.warmup_rounds, cfg.rounds)
        lr_v = lr_schedule(t, cfg.lr_v, cfg.warmup_rounds, cfg.rounds)

        ids = [c.client_id for c in self.clients]
        m = cfg.select_m if cfg.select_m is not None else len(ids)
        selected = client_selection(ids, m, derive_rng(cfg.seed, "select", t))

        def train(cid):
            try:
                return self.local_update(self.clients[cid], lr_u, lr_v, t)
            except NonFiniteGradientError:
                return None

        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                updates = dict(zip(selected, pool.map(train, selected)))
        else:
            updates = dict(zip(selected, map(train, selected)))

        uploaders = [cid for cid in selected if updates[cid] is not None]
        for cid in uploaders:           # stragglers keep their new slice too
            self.clients[cid].private_values = updates[cid].private_values
        survivors = StragglerPlan(cfg.straggler_ratio,
                                  cfg.seed).survivors(uploaders, t)
        deltas = {cid: compress_topk(updates[cid].delta, cfg.topk_retention)
                  for cid in uploaders}

        # each survivor's weight is its dataset size
        entries = [(cid, deltas[cid],
                    float(len(self.clients[cid].dataset.points)))
                   for cid in survivors]
        if entries:
            self.store.values = aggregate(entries, self.store.values,
                                          self.public_idx)

        bits_down_each = VALUE_BITS * int(self.public_idx.size)
        val_iou = self.evaluate_clients()
        nan = float("nan")
        records = []
        for c in self.clients:
            cid = c.client_id
            sel, u = cid in updates, updates.get(cid)
            bits_up = deltas[cid].bits_upload if cid in survivors else 0
            bits_down = bits_down_each if sel else 0
            if sel:
                self.ledger.account(t, cid, bits_up, bits_down)
            records.append(RoundRecord(
                round=t, client_id=cid, selected=sel,
                straggler=u is not None and cid not in survivors,
                train_loss=nan if u is None else u.loss,
                val_iou=val_iou[cid], bits_up=bits_up,
                bits_down=bits_down,
                grad_norm=nan if u is None else u.grad_norm,
                aborted=sel and u is None))
        self.records.extend(records)
        self.round = t
        return records

    def run(self, workers: int = 1, on_round=None) -> list:
        """Run rounds until `config.rounds` or the bit budget is exhausted.

        `on_round(engine)` fires after each completed round (checkpointing,
        progress reporting).
        """
        while self.round < self.config.rounds:
            self.run_round(workers=workers)
            if on_round is not None:
                on_round(self)
            if self.ledger.over_budget(self.config.bits_budget):
                break
        return self.records
