"""Simulated network behavior: straggler drops and exact bit accounting.

A straggler is a selected client whose upload is dropped for the round; it
still receives the broadcast (download is counted) but contributes nothing
to aggregation. Straggler draws are i.i.d. per round by default; the
"persistent" mode instead fixes a straggler set once per experiment.
"""

from dataclasses import dataclass, field

import numpy as np

from .seeding import derive_rng


@dataclass
class NetworkProfile:
    straggler_ratio: float = 0.0
    mode: str = "iid"                      # "iid" | "persistent"
    overrides: dict = field(default_factory=dict)   # client_id -> drop prob
    bits_budget: int | None = None

    def __post_init__(self):
        if not (0.0 <= self.straggler_ratio < 1.0):
            raise ValueError("straggler_ratio must be in [0, 1)")
        if self.mode not in ("iid", "persistent"):
            raise ValueError("mode must be 'iid' or 'persistent'")
        if not all(0.0 <= p <= 1.0 for p in self.overrides.values()):
            raise ValueError("override drop probabilities must be in [0, 1]")


def sample_stragglers(selected, ratio: float, rng: np.random.Generator):
    """Drop floor(ratio * |selected|) clients uniformly without replacement.

    Returns the surviving ids in ascending order. Because ratio < 1, at
    least one client survives whenever any was selected.
    """
    if not (0.0 <= ratio < 1.0):
        raise ValueError("ratio must be in [0, 1)")
    ids = sorted(selected)
    n_drop = int(np.floor(ratio * len(ids)))
    if n_drop == 0:
        return ids
    dropped = set(rng.choice(np.asarray(ids), size=n_drop, replace=False).tolist())
    return [c for c in ids if c not in dropped]


class StragglerPlan:
    """Round-by-round straggler filter for one experiment."""

    def __init__(self, profile: NetworkProfile, all_client_ids, master_seed: int):
        self.profile = profile
        self.master_seed = master_seed
        self.permanent = frozenset()
        if profile.mode == "persistent" and profile.straggler_ratio > 0.0:
            rng = derive_rng(master_seed, "straggle-persistent")
            ids = sorted(all_client_ids)
            n = int(np.floor(profile.straggler_ratio * len(ids)))
            if n > 0:
                self.permanent = frozenset(
                    rng.choice(np.asarray(ids), size=n, replace=False).tolist())

    def survivors(self, selected, round_no: int):
        """Selected ids that get their upload through this round (sorted)."""
        p = self.profile
        ids = sorted(selected)
        if p.mode == "persistent":
            return [c for c in ids if c not in self.permanent]
        rng = derive_rng(self.master_seed, "straggle", round_no)
        forced_alive, forced_drop, pooled = [], [], []
        for c in ids:
            if c in p.overrides:
                (forced_drop if rng.random() < p.overrides[c] else
                 forced_alive).append(c)
            else:
                pooled.append(c)
        alive = sample_stragglers(pooled, p.straggler_ratio, rng) if pooled else []
        return sorted(forced_alive + alive)


class CommLedger:
    """Exact integer accounting of per-round, per-client traffic."""

    def __init__(self):
        self.entries = []          # (round, client_id, bits_up, bits_down)
        self.total_up = 0
        self.total_down = 0

    def account(self, round_no: int, client_id: int,
                bits_up: int, bits_down: int) -> None:
        if bits_up < 0 or bits_down < 0:
            raise ValueError("bit counts must be non-negative")
        self.entries.append((round_no, client_id, int(bits_up), int(bits_down)))
        self.total_up += int(bits_up)
        self.total_down += int(bits_down)

    @property
    def total(self) -> int:
        return self.total_up + self.total_down

    def over_budget(self, budget: int | None) -> bool:
        return budget is not None and self.total >= budget
