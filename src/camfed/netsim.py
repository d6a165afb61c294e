"""Simulated network behavior: straggler drops and exact bit accounting.

A straggler is a selected client whose upload is dropped for the round; it
still receives the broadcast (download is counted) but contributes nothing
to aggregation. Straggler draws are i.i.d. per round.
"""

import numpy as np

from .seeding import derive_rng


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

    def __init__(self, ratio: float, master_seed: int):
        self.ratio = ratio
        self.master_seed = master_seed

    def survivors(self, selected, round_no: int):
        """Selected ids that get their upload through this round (sorted)."""
        rng = derive_rng(self.master_seed, "straggle", round_no)
        return sample_stragglers(selected, self.ratio, rng)


class CommLedger:
    """Exact integer running totals of the traffic of a run.

    Each round's per-client bits live in the engine's RoundRecords; the
    ledger keeps the totals that the bit budget is checked against.
    """

    def __init__(self):
        self.total_up = 0
        self.total_down = 0

    def account(self, round_no: int, client_id: int,
                bits_up: int, bits_down: int) -> None:
        """Add one client's traffic in round `round_no` to the totals."""
        if bits_up < 0 or bits_down < 0:
            raise ValueError("bit counts must be non-negative")
        self.total_up += int(bits_up)
        self.total_down += int(bits_down)

    @property
    def total(self) -> int:
        return self.total_up + self.total_down

    def over_budget(self, budget: int | None) -> bool:
        return budget is not None and self.total >= budget
