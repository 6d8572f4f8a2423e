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


def test_run_until_empty_queue():
    loop = EventLoop()
    summary = loop.run_until(10_000_000, _call)
    assert summary.total_processed == 0
    assert summary.clock == 0


def test_run_until_single_event_clock_stops_at_last():
    loop = EventLoop()
    loop.schedule(1_000_000, _noop)
    summary = loop.run_until(10_000_000, _call)
    assert summary.total_processed == 1
    assert summary.clock == 1_000_000


def test_events_beyond_end_left_pending():
    loop = EventLoop()
    loop.schedule(1, _noop)
    loop.schedule(100, _noop)
    summary = loop.run_until(10, _call)
    assert summary.total_processed == 1
    assert summary.unprocessed == 1
    assert summary.clock == 10


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


def test_draw_uniform_degenerate_range():
    s = RngStream(1, 0)
    assert all(s.draw_uniform(1) == 0 for _ in range(5))


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
