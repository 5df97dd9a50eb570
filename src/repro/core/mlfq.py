"""Per-UE Multi-Level Feedback Queue (intra-user flow scheduler).

Section 4.2: OutRAN keeps one MLFQ *per user buffer* (not per egress port
as in datacenter PIAS).  K strict-priority queues P1..PK; a new flow's
packets enter P1 and a flow is demoted to the next queue when its
cumulative sent-bytes cross a threshold.  Because all flows of one UE share
the same wireless channel, reordering them costs no spectral efficiency or
user fairness.

The structure here is the generic queue; the RLC UM/AM entities own one
instance each and feed it RLC SDUs tagged with the level computed by the
PDCP flow table.  Segmented-SDU promotion (section 4.4) is supported via
:meth:`MlfqQueue.push_promoted`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generic, Iterator, Optional, Sequence, TypeVar

DEFAULT_NUM_QUEUES = 4
#: Default demotion thresholds (bytes) tuned for the LTE-cellular flow-size
#: distribution (90% of flows < 35.9 KB): short flows finish in P1/P2.
DEFAULT_THRESHOLDS = (20_000, 100_000, 1_000_000)


@dataclass(frozen=True)
class MlfqConfig:
    """Number of priority queues and the K-1 demotion thresholds."""

    num_queues: int = DEFAULT_NUM_QUEUES
    thresholds: tuple[int, ...] = DEFAULT_THRESHOLDS

    def __post_init__(self) -> None:
        if self.num_queues < 1:
            raise ValueError(f"need at least one queue, got {self.num_queues}")
        if len(self.thresholds) != self.num_queues - 1:
            raise ValueError(
                f"{self.num_queues} queues need {self.num_queues - 1} "
                f"thresholds, got {len(self.thresholds)}"
            )
        if any(t <= 0 for t in self.thresholds):
            raise ValueError(f"thresholds must be positive: {self.thresholds}")
        if list(self.thresholds) != sorted(self.thresholds):
            raise ValueError(f"thresholds must be increasing: {self.thresholds}")

    def level_for_bytes(self, sent_bytes: int) -> int:
        """Map cumulative sent-bytes to a level (0 = highest priority)."""
        for level, threshold in enumerate(self.thresholds):
            if sent_bytes < threshold:
                return level
        return self.num_queues - 1

    @classmethod
    def single_queue(cls) -> "MlfqConfig":
        """Degenerate FIFO configuration (legacy xNodeB behaviour)."""
        return cls(num_queues=1, thresholds=())


T = TypeVar("T")


class _Item(Generic[T]):
    __slots__ = ("payload", "nbytes")

    def __init__(self, payload: T, nbytes: int) -> None:
        self.payload = payload
        self.nbytes = nbytes


class MlfqQueue(Generic[T]):
    """K strict-priority FIFO queues of byte-sized items.

    Items are arbitrary payloads (RLC SDUs in the simulator) with a byte
    length.  ``level`` 0 is served first.  A *promoted* slot ahead of level
    0 holds segmented SDUs that must ship next to stay inside the
    receiver's reassembly window (section 4.4).
    """

    def __init__(self, config: Optional[MlfqConfig] = None) -> None:
        self.config = config or MlfqConfig()
        # Plain lists: an empty one owns no storage (a deque allocates a
        # 64-slot block), and the RLC capacity bounds what pop(0) moves.
        self._queues: list[list[_Item[T]]] = [
            [] for _ in range(self.config.num_queues)
        ]
        self._promoted: list[_Item[T]] = []
        self._total_bytes = 0
        self._total_items = 0
        # Incremental per-level byte counters: buffer status reports read
        # the per-level occupancy every TTI for every backlogged UE, so
        # it must be O(K), not a scan over every queued SDU.
        self._level_bytes: list[int] = [0] * self.config.num_queues
        self._promoted_bytes = 0

    # -- enqueue ---------------------------------------------------------

    def push(self, payload: T, nbytes: int, level: int) -> None:
        """Append an item to the tail of queue ``level``."""
        self._admit(nbytes, level).append(_Item(payload, nbytes))

    def push_front(self, payload: T, nbytes: int, level: int) -> None:
        """Prepend an item at the head of queue ``level``.

        Used by strict (non-promoting) MLFQ to return the unsent remainder
        of a segmented SDU to its own queue, where higher-priority arrivals
        can still delay it -- the failure mode section 4.4 fixes.
        """
        self._admit(nbytes, level).insert(0, _Item(payload, nbytes))

    def _admit(self, nbytes: int, level: int) -> list[_Item[T]]:
        """Check and count an item entering ``level``; return its queue."""
        if not 0 <= level < self.config.num_queues:
            raise ValueError(
                f"level {level} outside 0..{self.config.num_queues - 1}"
            )
        if nbytes < 0:
            raise ValueError(f"negative size: {nbytes}")
        self._total_bytes += nbytes
        self._total_items += 1
        self._level_bytes[level] += nbytes
        return self._queues[level]

    def push_promoted(self, payload: T, nbytes: int) -> None:
        """Place an item ahead of every queue (segmented-SDU promotion)."""
        if nbytes < 0:
            raise ValueError(f"negative size: {nbytes}")
        self._promoted.append(_Item(payload, nbytes))
        self._total_bytes += nbytes
        self._total_items += 1
        self._promoted_bytes += nbytes

    # -- dequeue ---------------------------------------------------------

    def pop(self) -> tuple[T, int]:
        """Remove and return ``(payload, nbytes)`` of the head item."""
        if self._promoted:
            item = self._promoted.pop(0)
            self._promoted_bytes -= item.nbytes
        else:
            for level, queue in enumerate(self._queues):
                if queue:
                    item = queue.pop(0)
                    self._level_bytes[level] -= item.nbytes
                    break
            else:
                raise IndexError("pop from empty MlfqQueue")
        self._total_bytes -= item.nbytes
        self._total_items -= 1
        return item.payload, item.nbytes

    def peek(self) -> tuple[T, int]:
        """Return ``(payload, nbytes)`` of the head item without removing."""
        if self._promoted:
            item = self._promoted[0]
        else:
            for queue in self._queues:
                if queue:
                    item = queue[0]
                    break
            else:
                raise IndexError("peek at empty MlfqQueue")
        return item.payload, item.nbytes

    # -- inspection ------------------------------------------------------

    def __len__(self) -> int:
        return self._total_items

    def __bool__(self) -> bool:
        return self._total_items > 0

    @property
    def total_bytes(self) -> int:
        """Queued bytes across all levels."""
        return self._total_bytes

    def level_bytes(self) -> list[int]:
        """Queued bytes per level; index 0 includes promoted items."""
        out = list(self._level_bytes)
        out[0] += self._promoted_bytes
        return out

    def head_level(self) -> Optional[int]:
        """Level of the highest-priority non-empty queue (None if empty).

        This is the per-UE "priority" the Buffer Status Report carries up
        to the MAC for inter-user scheduling (Appendix B).  Promoted
        segments count as level 0.
        """
        if self._promoted:
            return 0
        for level, queue in enumerate(self._queues):
            if queue:
                return level
        return None

    def items(self) -> Iterator[tuple[T, int, int]]:
        """Yield ``(payload, nbytes, level)`` in service order."""
        for item in self._promoted:
            yield item.payload, item.nbytes, 0
        for level, queue in enumerate(self._queues):
            for item in queue:
                yield item.payload, item.nbytes, level

    # -- maintenance -----------------------------------------------------

    def reconfigure(self, config: MlfqConfig) -> None:
        """Swap the demotion thresholds at runtime (Near-RT RIC control).

        The queue *count* is structural -- queued items hold level
        indices into ``_queues`` -- so changing it mid-run is rejected.
        Already-queued items keep the level they were classified at; the
        new thresholds apply to packets classified after the swap.
        """
        if config.num_queues != self.config.num_queues:
            raise ValueError(
                f"cannot change queue count at runtime: "
                f"{self.config.num_queues} -> {config.num_queues}"
            )
        self.config = config

    def boost_all(self) -> None:
        """Move every queued item to the top queue, preserving order.

        Together with :meth:`repro.core.flow_table.FlowTable.reset_all`
        this implements the "priority boost" safeguard of section 6.3.
        """
        merged = [item for queue in self._queues for item in queue]
        self._queues = [merged] + [[] for _ in self._queues[1:]]
        self._level_bytes = [sum(self._level_bytes)] + [0] * (
            self.config.num_queues - 1
        )

    def tail_level(self) -> Optional[int]:
        """Level of the item that would be served last (None when empty)."""
        for level in range(self.config.num_queues - 1, -1, -1):
            if self._queues[level]:
                return level
        if self._promoted:
            return 0
        return None

    def drop_tail(self) -> Optional[tuple[T, int]]:
        """Drop the item that would be served *last*; None when empty.

        Used when the per-UE buffer overflows: shedding the lowest-priority
        tail keeps short flows intact, mirroring how srsENB sheds from the
        single FIFO tail.
        """
        for level in range(self.config.num_queues - 1, -1, -1):
            queue = self._queues[level]
            if queue:
                item = queue.pop()
                self._level_bytes[level] -= item.nbytes
                break
        else:
            if not self._promoted:
                return None
            item = self._promoted.pop()
            self._promoted_bytes -= item.nbytes
        self._total_bytes -= item.nbytes
        self._total_items -= 1
        return item.payload, item.nbytes
