"""GBR (Guaranteed Bit Rate) reservation layer over any MAC scheduler.

Paper Table 1 / §7: delay-critical traffic (VoLTE) rides a *dedicated
GBR bearer* and is therefore isolated from the best-effort traffic
OutRAN schedules.  This wrapper reproduces that isolation: before the
wrapped scheduler allocates the TTI, UEs whose GBR token buckets have
fallen behind their guaranteed rate are granted RBs first (best-channel
RBs, up to their deficit); the remaining grid goes to the inner
scheduler untouched.

The wrapper works over PF, OutRAN, or anything else -- demonstrating the
paper's claim that OutRAN composes with the existing QoS machinery
rather than replacing it.
"""

from __future__ import annotations

import numpy as np

from repro.mac.kernels import as_table
from repro.mac.scheduler import MacScheduler, UeTable


class GbrConfig:
    """Per-UE guaranteed bit rate contract."""

    __slots__ = ("rate_bps", "bucket_cap_bits", "tokens_bits")

    def __init__(self, rate_bps: float, bucket_cap_s: float = 0.1) -> None:
        if rate_bps <= 0:
            raise ValueError(f"GBR rate must be positive: {rate_bps}")
        self.rate_bps = rate_bps
        self.bucket_cap_bits = rate_bps * bucket_cap_s
        self.tokens_bits = 0.0

    def accrue(self, tti_us: int) -> None:
        """Earn tokens for one TTI, capped at the bucket size."""
        self.tokens_bits = min(
            self.tokens_bits + self.rate_bps * tti_us / 1e6,
            self.bucket_cap_bits,
        )

    def consume(self, bits: float) -> None:
        self.tokens_bits = max(self.tokens_bits - bits, 0.0)

    @property
    def deficit_bits(self) -> float:
        """Tokens owed: positive when the guarantee is behind."""
        return self.tokens_bits


class GbrReservingScheduler(MacScheduler):
    """Serve GBR deficits first, then delegate to the inner scheduler."""

    def __init__(
        self,
        inner: MacScheduler,
        guarantees: dict[int, GbrConfig],
    ) -> None:
        """``guarantees`` maps UE index -> :class:`GbrConfig`."""
        self.inner = inner
        self.guarantees = dict(guarantees)

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"gbr[{self.inner.name}]"

    @property
    def oracle_columns(self) -> tuple[str, ...]:  # type: ignore[override]
        return self.inner.oracle_columns

    def allocate(self, rates: np.ndarray, ues: UeTable, now_us: int) -> np.ndarray:
        table = as_table(ues)
        num_rbs = rates.shape[1]
        owner = np.full(num_rbs, -1, dtype=np.int64)
        reserved = np.zeros(num_rbs, dtype=bool)
        # 1. Reserve best RBs for backlogged GBR users behind their rate.
        for ue_index, contract in self.guarantees.items():
            if not table.active[ue_index] or contract.deficit_bits <= 0:
                continue
            order = np.argsort(-rates[ue_index])
            needed = contract.deficit_bits
            for rb in order:
                if needed <= 0:
                    break
                if reserved[rb] or rates[ue_index, rb] <= 0:
                    continue
                owner[rb] = ue_index
                reserved[rb] = True
                needed -= rates[ue_index, rb]
        # 2. The inner scheduler fills the unreserved remainder.
        if not reserved.all():
            free = ~reserved
            inner_owner = self.inner.allocate(rates[:, free], table, now_us)
            owner[np.nonzero(free)[0]] = inner_owner
        return owner

    def on_tti_end(self, ues: UeTable, served_bits: np.ndarray, tti_us: int) -> None:
        for ue_index, contract in self.guarantees.items():
            contract.accrue(tti_us)
            contract.consume(float(served_bits[ue_index]))
        self.inner.on_tti_end(ues, served_bits, tti_us)
