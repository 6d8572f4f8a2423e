import math

import pytest

from wpansim.engine import EventLoop, RngStream, SimulationError


def _call(ev):
    ev.action(*ev.args)


def _noop(*args):
    pass


def test_schedule_now_runs_next():
    loop = EventLoop()
    seen = []
    loop.schedule(0, lambda: seen.append(loop.now))
    loop.run_until(10, _call)
    assert seen == [0]


def test_equal_times_fifo_order():
    loop = EventLoop()
    order = []
    events = [loop.schedule(5, order.append, tag) for tag in "abc"]
    assert [ev.seq for ev in events] == [0, 1, 2]
    loop.run_until(5, _call)
    assert order == ["a", "b", "c"]


def test_schedule_in_past_is_fatal():
    loop = EventLoop()
    loop.schedule(10, _noop)
    loop.run_until(10, _call)
    with pytest.raises(SimulationError, match="_noop scheduled at t=5 us"):
        loop.schedule(5, _noop)


def test_run_until_before_the_clock_is_fatal():
    # Used to wind the clock back to 5, after which an event at 7, already
    # in the past, was accepted and ran.
    loop = EventLoop()
    loop.schedule(8, _noop)
    loop.run_until(10, _call)
    with pytest.raises(SimulationError, match=r"run_until\(5 us\) ends before "
                                              r"the clock \(10 us\)"):
        loop.run_until(5, _call)
    assert loop.now == 10
    assert loop.run_until(10, _call).total_processed == 1  # end == now is fine


def test_run_until_empty_queue():
    loop = EventLoop()
    summary = loop.run_until(10_000_000, _call)
    assert summary.total_processed == 0
    assert loop.now == 10_000_000


def test_run_until_single_event_clock_ends_at_end():
    # The queue drains at 1 s; the clock still moves on to the run's end.
    loop = EventLoop()
    loop.schedule(1_000_000, _noop)
    summary = loop.run_until(10_000_000, _call)
    assert summary.total_processed == 1
    assert loop.now == 10_000_000


def test_events_beyond_end_left_pending():
    loop = EventLoop()
    loop.schedule(1, _noop)
    loop.schedule(100, _noop)
    summary = loop.run_until(10, _call)
    assert summary.total_processed == 1
    assert summary.unprocessed == 1
    assert loop.now == 10


def test_event_accounting_with_cancellation():
    loop = EventLoop()
    ran = []
    ev1 = loop.schedule(1, ran.append, 1)
    loop.schedule(2, ran.append, 2)
    loop.cancel(ev1)
    loop.cancel(ev1)  # double-cancel counts once
    summary = loop.run_until(10, _call)
    assert ran == [2]
    assert summary.scheduled == 2
    assert summary.cancelled == 1
    assert summary.total_processed == 1
    assert summary.scheduled == summary.total_processed + summary.cancelled


def _trampoline_every(loop, period, action, *args):
    """Periodic calls as a self-rescheduling one-shot, one new event a call."""
    def tick():
        action(*args)
        _trampoline_every(loop, period, action, *args)

    loop.schedule(loop.now + period, tick)


@pytest.mark.parametrize("every", [EventLoop.every, _trampoline_every])
def test_every_runs_after_the_same_instant_events_its_call_scheduled(every):
    # Each tick schedules a one-shot for the next tick's instant; the one-shot
    # was queued first, so it runs first, as with the trampoline.
    loop = EventLoop()
    order = []

    def tick():
        order.append(("tick", loop.now))
        loop.schedule(loop.now + 10, order.append, ("shot", loop.now + 10))
        loop.schedule(loop.now, order.append, ("now", loop.now))

    every(loop, 10, tick)
    loop.run_until(35, _call)
    assert order == [("tick", 10), ("now", 10), ("shot", 20), ("tick", 20),
                     ("now", 20), ("shot", 30), ("tick", 30), ("now", 30)]


def test_every_rearms_past_the_run_end_and_counts_it_unprocessed():
    # Each call re-arms the event once; the occurrence after the run's end
    # stays queued, and the next run processes it.
    loop = EventLoop()
    times = []
    ev = loop.every(10, lambda: times.append(loop.now))
    assert (ev.time, ev.seq) == (10, 0)
    summary = loop.run_until(50, _call)
    assert times == [10, 20, 30, 40, 50]  # the end itself is included
    assert (ev.time, ev.seq) == (60, 5)
    assert (summary.scheduled, summary.total_processed) == (6, 5)
    assert (summary.cancelled, summary.unprocessed, loop.now) == (0, 1, 50)
    assert loop.run_until(60, _call).total_processed == 6  # since the loop was made
    assert times[-1] == 60


def test_every_period_must_be_positive():
    loop = EventLoop()
    for period in (0, -10):
        with pytest.raises(SimulationError, match="_noop period must be > 0 us"):
            loop.every(period, _noop)
    assert loop.run_until(100, _call).scheduled == 0


@pytest.mark.parametrize("cancel_at", [0, 10, 15, 20])
def test_cancelling_a_periodic_event_stops_every_later_occurrence(cancel_at):
    # Cancelled before the first call, from its own call at 10 or 20, or from
    # another event between two calls.  Only a cancel that finds an
    # occurrence still queued counts as cancelled: one from its own call
    # comes after the occurrence ran.
    loop = EventLoop()
    times = []

    def tick():
        times.append(loop.now)
        if loop.now == cancel_at:
            loop.cancel(ev)

    ev = loop.every(10, tick)
    if cancel_at == 0:
        loop.cancel(ev)
    elif cancel_at % 10:
        loop.schedule(cancel_at, loop.cancel, ev)
    summary = loop.run_until(1_000, _call)
    assert times == [t for t in (10, 20) if t <= cancel_at]
    assert summary.cancelled == {0: 1, 10: 0, 15: 1, 20: 0}[cancel_at]
    assert summary.unprocessed == 0
    # The first occurrence and one per call that did not cancel, plus the
    # one-shot that cancels at 15.
    assert summary.scheduled == {0: 1, 10: 1, 15: 3, 20: 2}[cancel_at]
    assert summary.scheduled == summary.total_processed + summary.cancelled


def test_a_stepped_loop_ends_each_step_at_its_end_and_counts_each_event_once():
    # `own` repeats every 10 and cancels itself from its call at 20; `other`
    # repeats every 15, and a one-shot at 25 cancels it while its occurrence
    # at 30 is queued.  The counts are since the loop was made.
    loop = EventLoop()

    def tick():
        if loop.now == 20:
            loop.cancel(own)

    own = loop.every(10, tick)
    other = loop.every(15, _noop)
    loop.schedule(25, loop.cancel, other)
    steps = []
    for end in (5, 20, 27, 40):
        s = loop.run_until(end, _call)
        assert loop.now == end
        assert s.scheduled == s.total_processed + s.cancelled + s.unprocessed
        steps.append((end, s.scheduled, s.total_processed, s.cancelled,
                      s.unprocessed))
    # (end, scheduled, processed, cancelled, unprocessed): at 27 the
    # occurrence at 30 is cancelled and still queued, at 40 it was skipped.
    assert steps == [(5, 3, 0, 0, 3), (20, 5, 3, 0, 2), (27, 5, 4, 1, 0),
                     (40, 5, 4, 1, 0)]


def test_draw_uniform_degenerate_range():
    # Range 1 gives 0 and consumes no state: the next draw is the one a fresh
    # stream would make first.
    s = RngStream(1, 0)
    assert all(s.draw_uniform(1) == 0 for _ in range(5))
    assert s.draw_uniform(1000) == RngStream(1, 0).draw_uniform(1000)


def test_draw_uniform_rejects_a_draw_in_the_biased_tail():
    # 2**64 % 3 == 1: the top 64-bit value would make 0 one count likelier
    # than 1 and 2, so it is drawn again.
    s = RngStream(1, 0)
    raw = iter([(1 << 64) - 1, 5])
    s._next_u64 = lambda: next(raw)
    assert s.draw_uniform(3) == 5 % 3


def test_draw_uniform_zero_is_fatal():
    with pytest.raises(SimulationError):
        RngStream(1, 0).draw_uniform(0)


def test_draw_uniform_replay_identical():
    a = RngStream(42, 3)
    b = RngStream(42, 3)
    assert [a.draw_uniform(100) for _ in range(50)] == \
           [b.draw_uniform(100) for _ in range(50)]


def test_streams_independent_of_each_other():
    solo = RngStream(42, 1)
    expected = [solo.draw_uniform(1000) for _ in range(20)]
    a = RngStream(42, 1)
    other = RngStream(42, 2)
    got = []
    for _ in range(20):
        got.append(a.draw_uniform(1000))
        other.draw_uniform(1000)  # interleaved draws must not perturb stream 1
    assert got == expected


def test_draw_uniform_chi_square_n8():
    # 1e5 draws over 8 bins: each count within 5 sigma of 12500,
    # sigma = sqrt(N p (1-p)) = sqrt(1e5 * 0.125 * 0.875) = 104.58.
    s = RngStream(2024, 0)
    counts = [0] * 8
    n = 100_000
    for _ in range(n):
        counts[s.draw_uniform(8)] += 1
    bound = 5 * math.sqrt(n * 0.125 * 0.875)
    assert bound < 524
    for c in counts:
        assert abs(c - 12_500) < bound, counts
