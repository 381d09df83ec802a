"""Structural-resource bookkeeping for the out-of-order core.

The processor model computes, for each dynamic instruction in program order,
the cycles at which it is fetched, dispatched, issued, completed and
committed.  Structural limits (reorder-buffer entries, physical registers,
cache ports) all share the same shape: *the Nth most recent holder must have
released the resource before a new one can be acquired*.  These helper
classes express that shape directly so the pipeline code stays readable.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

__all__ = ["WindowResource", "ThroughputLimiter"]


class WindowResource:
    """A pool of ``capacity`` slots acquired in order and released at known cycles.

    Used for the reorder buffer (an instruction needs a free ROB entry to
    dispatch; the entry frees when the instruction 32 places earlier commits)
    and for the physical register files (64 integer + 64 floating-point
    registers, allocated at dispatch and freed at commit).
    """

    def __init__(self, capacity: int, name: str = "") -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self._capacity = capacity
        self._release_cycles: Deque[int] = deque()
        self.name = name or "window"
        self.stall_events = 0

    @property
    def capacity(self) -> int:
        """Number of slots."""
        return self._capacity

    @property
    def occupancy(self) -> int:
        """Slots currently recorded as held (not yet expired by ``acquire``)."""
        return len(self._release_cycles)

    def earliest_acquire(self, requested_cycle: int) -> int:
        """Earliest cycle at or after ``requested_cycle`` when a slot is free."""
        if len(self._release_cycles) < self._capacity:
            return requested_cycle
        # The oldest outstanding holder frees its slot at its release cycle.
        return max(requested_cycle, self._release_cycles[0])

    def acquire(self, requested_cycle: int, release_cycle: int) -> int:
        """Acquire a slot no earlier than ``requested_cycle``.

        ``release_cycle`` is when this holder will free the slot (its commit
        cycle).  Returns the actual acquisition cycle, which may be later
        than requested if the pool was full.
        """
        actual = self.earliest_acquire(requested_cycle)
        # Validate before touching the window: a rejected call changes nothing.
        if release_cycle < actual:
            raise ValueError("release_cycle must not precede the acquisition cycle")
        if actual > requested_cycle:
            self.stall_events += 1
        if len(self._release_cycles) >= self._capacity:
            self._release_cycles.popleft()
        self._release_cycles.append(release_cycle)
        return actual

    def reset(self) -> None:
        """Forget all holders."""
        self._release_cycles.clear()
        self.stall_events = 0


class ThroughputLimiter:
    """Enforces an 'at most N events per cycle' constraint (fetch, issue, commit widths).

    The limiter remembers the cycles of the last ``width`` events; a new event
    requested at cycle ``c`` must not share a cycle with ``width`` earlier
    events, so its actual cycle is ``max(c, cycle_of_event[n - width] + 1)``
    — conveniently the same sliding-window shape as :class:`WindowResource`
    with a +1.
    """

    def __init__(self, width: int, name: str = "") -> None:
        if width < 1:
            raise ValueError("width must be positive")
        self._width = width
        self._recent: Deque[int] = deque()
        self.name = name or "limiter"

    @property
    def width(self) -> int:
        """Maximum events per cycle."""
        return self._width

    def next_slot(self, requested_cycle: int) -> int:
        """Earliest cycle at or after ``requested_cycle`` with bandwidth available."""
        if len(self._recent) < self._width:
            return requested_cycle
        return max(requested_cycle, self._recent[0] + 1)

    def record(self, requested_cycle: int) -> int:
        """Claim a slot; returns the cycle actually granted."""
        actual = self.next_slot(requested_cycle)
        if len(self._recent) >= self._width:
            self._recent.popleft()
        self._recent.append(actual)
        return actual

    def reset(self) -> None:
        """Forget the recent events."""
        self._recent.clear()
