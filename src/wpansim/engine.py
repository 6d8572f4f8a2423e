"""Deterministic discrete-event core: virtual clock, event queue, seeded RNG.

An event is a delayed call: `schedule(time, action, *args)` queues
`action(*args)` for `time`; `every(period, action, *args)` queues one event
that the loop pushes again, `period` later, after each call.
`run_until(end, dispatch)` hands each live event due by `end` to dispatch in
(time, seq) order, then sets the clock to `end`, which may not be before the
clock; its summary counts each event scheduled since the loop was made,
once: processed, cancelled while still queued, or still queued.  Integer
microseconds keep MAC timings (320 us backoff unit, 15.36 ms beacon base)
exact and traces platform-stable.
"""

from __future__ import annotations

import heapq
from typing import Callable, NamedTuple

SimTime = int  # microseconds since run start


class SimulationError(RuntimeError):
    """Fatal misuse of the simulator (scheduling in the past, bad frame kind)."""


class Event:
    __slots__ = ("time", "seq", "action", "args", "cancelled", "period")

    def __init__(self, time: SimTime, seq: int, action: Callable, args: tuple) -> None:
        self.time = time
        self.seq = seq
        self.action = action  # called as action(*args) when the event is due
        self.args = args
        self.cancelled = False
        self.period: SimTime = 0  # > 0: re-armed after each call


class RunSummary(NamedTuple):
    total_processed: int
    scheduled: int
    cancelled: int
    unprocessed: int


class EventLoop:
    """Priority event queue with FIFO tie-break among equal timestamps."""

    def __init__(self) -> None:
        self.now: SimTime = 0
        self._heap: list[tuple[int, int, Event]] = []
        self._seq = 0  # also the count of events scheduled
        self._processed = 0
        self._cancelled = 0  # taken off the queue without running

    def schedule(self, time: SimTime, action: Callable, *args) -> Event:
        if time < self.now:
            raise SimulationError(
                f"event {action.__qualname__} scheduled at t={time} us in the "
                f"past (clock is {self.now} us)")
        ev = Event(time, self._seq, action, args)
        self._seq += 1
        heapq.heappush(self._heap, (time, ev.seq, ev))
        return ev

    def every(self, period: SimTime, action: Callable, *args) -> Event:
        """Call action(*args) each `period` from now on, as one event:
        cancelling it stops every later occurrence."""
        if period <= 0:
            raise SimulationError(f"{action.__qualname__} period must be > 0 us")
        ev = self.schedule(self.now + period, action, *args)
        ev.period = period
        return ev

    def cancel(self, ev: Event) -> None:
        ev.cancelled = True

    def run_until(self, end: SimTime, dispatch) -> RunSummary:
        """Dispatch each live event with time <= end; see the module docstring."""
        if end < self.now:
            raise SimulationError(
                f"run_until({end} us) ends before the clock ({self.now} us)")
        processed = 0
        while self._heap and self._heap[0][0] <= end:
            _, _, ev = heapq.heappop(self._heap)
            if ev.cancelled:
                self._cancelled += 1
                continue
            self.now = ev.time
            processed += 1
            dispatch(ev)
            if ev.period and not ev.cancelled:
                ev.time += ev.period  # next seq: after what the call scheduled
                ev.seq = self._seq
                self._seq += 1
                heapq.heappush(self._heap, (ev.time, ev.seq, ev))
        self.now = end
        self._processed += processed
        queued_cancelled = sum(ev.cancelled for _, _, ev in self._heap)
        return RunSummary(self._processed, self._seq,
                          self._cancelled + queued_cancelled,
                          len(self._heap) - queued_cancelled)


_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def _mix(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class RngStream:
    """SplitMix64 stream, one per node.

    The stream state is seeded by double-mixing (run seed, stream id), so
    streams are decorrelated and adding a node does not perturb the draws of
    any other node.  Pure integer arithmetic keeps the sequence identical
    across platforms.
    """

    def __init__(self, seed: int, stream_id: int) -> None:
        self._state = _mix((seed ^ _mix((stream_id + 1) * _GOLDEN)) & _MASK)

    def _next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return _mix(self._state)

    def draw_uniform(self, n: int) -> int:
        """Uniform integer in [0, n-1]; rejection sampling avoids modulo bias."""
        if not 1 <= n <= 1 << 64:  # above 2**64 no draw is ever accepted
            raise SimulationError(f"draw_uniform range must be 1..2**64, got {n}")
        if n == 1:
            return 0  # no state consumed for the degenerate range
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            r = self._next_u64()
            if r < limit:
                return r % n
