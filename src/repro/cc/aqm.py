"""Active queue management at the RLC downlink buffer: RED-style ECN.

The default buffer behaviour is srsENB's drop-tail (no marker attached).
With ``SimConfig.aqm == "red"`` each UE's RLC transmitter gets an
:class:`EcnMarker`: an arriving SDU whose queue occupancy sits in the
``[min, max)`` threshold band is CE-marked with linearly ramping
probability, and always marked at or above ``max``.  Setting
``min == max`` (the ``--ecn-k K`` CLI shorthand, modelled on the
cloud-dcn-ecn k10/k30/k60 sweep) degenerates to DCTCP's deterministic
step marking at K queued SDUs -- no randomness drawn at all, so the k
sweep is exactly reproducible.

The marker's RNG is seeded per UE from the simulation seed and built at
its first draw (a step marker holds only the seed), keeping runs
deterministic and the whole object graph picklable for checkpoints.
"""

from __future__ import annotations

import random


class EcnMarker:
    """RED-style ECN marking decision for one RLC transmit queue."""

    def __init__(
        self,
        min_sdus: int,
        max_sdus: int,
        mark_prob: float = 1.0,
        seed: int = 0,
    ) -> None:
        if min_sdus < 1:
            raise ValueError(f"ecn min threshold >= 1 SDU: {min_sdus}")
        if max_sdus < min_sdus:
            raise ValueError(
                f"ecn max threshold >= min: {max_sdus} < {min_sdus}"
            )
        if not 0.0 < mark_prob <= 1.0:
            raise ValueError(f"mark_prob in (0, 1]: {mark_prob}")
        self.min_sdus = min_sdus
        self.max_sdus = max_sdus
        self.mark_prob = mark_prob
        self._seed = seed
        self._rng: random.Random | None = None

    def should_mark(self, queued_sdus: int) -> bool:
        """Mark the SDU arriving at a queue of ``queued_sdus`` entries?"""
        if queued_sdus < self.min_sdus:
            return False
        if queued_sdus >= self.max_sdus:
            return True  # step marking when min == max
        ramp = (queued_sdus - self.min_sdus + 1) / (
            self.max_sdus - self.min_sdus + 1
        )
        if self._rng is None:
            self._rng = random.Random(self._seed)
        return self._rng.random() < ramp * self.mark_prob

    def __repr__(self) -> str:
        return (
            f"EcnMarker(min={self.min_sdus}, max={self.max_sdus}, "
            f"p={self.mark_prob})"
        )
