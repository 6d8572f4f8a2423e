import copy
from itertools import combinations, pairwise

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import make_cfg
from reference import boundaries_match
from wpansim import coverage
from wpansim.coverage import (CELL_M, ORACLE_STEP_M, association_map, gap_analysis,
                              line_spans, overlap_intervals, static_gap_oracle,
                              uncovered_intervals)
from wpansim.harness import sweep
from wpansim.scenario import NodeClass, NodeConfig, NodeRole, Trajectory
from wpansim.scenario_file import ScenarioError
from wpansim.trace import TraceRecord, read_trace, write_trace


def _row(t, kind, x, detail=None, node=9):
    return TraceRecord(time_us=t, node_id=node, event_kind=kind,
                       pos_x_m=x, detail=detail)


def test_always_associated_yields_no_gaps():
    rows = [_row(100_000 * k, "RX", 0.1 * k) for k in range(150)]
    assert gap_analysis(rows, 0.0, 15.0, 9) == []


def test_synthetic_failure_window_reported_exactly():
    rows = []
    for k in range(150):
        x = 0.1 * k
        if 5.0 <= x < 6.0:
            rows.append(_row(100_000 * k, "SEND_OUTCOME", x, "no_ack"))
        else:
            rows.append(_row(100_000 * k, "RX", x))
    gaps = gap_analysis(rows, 0.0, 15.0, 9)
    assert len(gaps) == 1
    assert gaps[0][0] == pytest.approx(5.0)
    assert gaps[0][1] == pytest.approx(6.0)


def test_success_in_cell_overrides_failure():
    rows = [
        _row(0, "SEND_OUTCOME", 5.05, "no_ack"),
        _row(1_000, "RX", 5.08),
    ]
    assert gap_analysis(rows, 0.0, 15.0, 9) == []


def test_evidence_free_cells_inside_gap_are_bridged():
    rows = [
        _row(0, "RX", 1.0),
        _row(1, "OUTAGE_LOSS", 2.05),
        # nothing at all around x = 2.15
        _row(2, "OUTAGE_LOSS", 2.25),
        _row(3, "RX", 3.0),
    ]
    gaps = gap_analysis(rows, 0.0, 15.0, 9)
    assert len(gaps) == 1
    assert gaps[0][0] == pytest.approx(2.0)
    assert gaps[0][1] == pytest.approx(2.3)


def test_broadcast_delivered_rows_are_not_success_evidence():
    rows = [TraceRecord(time_us=k, node_id=9, event_kind="SEND_OUTCOME",
                        frame_kind="probe_req", src=9, dst=0xFFFF,
                        pos_x_m=5.0 + 0.01 * k, detail="delivered")
            for k in range(5)]
    rows.append(_row(100, "OUTAGE_LOSS", 5.02))
    gaps = gap_analysis(rows, 0.0, 15.0, 9)
    assert gaps and gaps[0][0] == pytest.approx(5.0)


def test_only_a_send_that_ended_without_its_ack_is_failure_evidence():
    # A data send that failed CCA, or was delivered, says nothing about
    # coverage; one that ended without its ack is failure evidence.
    rows = [TraceRecord(time_us=k, node_id=9, event_kind="SEND_OUTCOME",
                        frame_kind="data", src=9, dst=1, pos_x_m=x, detail=outcome)
            for k, (x, outcome) in enumerate(((5.05, "cca_fail"), (7.05, "delivered"),
                                              (9.05, "no_ack")))]
    assert gap_analysis(rows, 0.0, 15.0, 9) == [(pytest.approx(9.0), pytest.approx(9.1))]


def test_empty_trace_no_gaps():
    assert gap_analysis([], 0.0, 15.0, 9) == []


def test_association_map_segments_follow_the_handover_done_rows():
    rows = [
        _row(0, "MOVE", 0.0),
        _row(1, "HANDOVER_DONE", 0.5, (1, 100)),
        _row(2, "HANDOVER_DONE", 1.0, (2, 50), node=3),  # not the mobile's
        _row(3, "HANDOVER_DONE", 2.0, (1, 80)),  # same parent: one segment
        _row(4, "MOVE", 3.0),
        _row(5, "HANDOVER_DONE", 4.0, (2, 60)),  # new parent: split here
        _row(6, "MOVE", 5.0),  # the mobile's last row ends the last segment
        _row(7, "MOVE", 9.0, node=3),
    ]
    assert association_map(rows, 9) == [(0.5, 4.0, 1), (4.0, 5.0, 2)]


def test_association_map_without_a_handover_done_is_empty():
    rows = [_row(0, "MOVE", 0.0), _row(1, "HANDOVER_FAIL", 1.0, "no_responses"),
            _row(2, "HANDOVER_DONE", 1.5, (1, 10), node=3)]
    assert association_map(rows, 9) == []
    assert association_map([], 9) == []


def test_trace_with_wrong_column_count_is_a_format_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time_us,node_id,event_kind\n1,2,RX\n")
    with pytest.raises(ValueError):
        read_trace(path)


def test_trace_round_trip(tmp_path):
    rows = [TraceRecord(5, 1, "TX_START", "data", 1, 2, 7, 4.0, None, None,
                        1.25, None),
            TraceRecord(9, 2, "RX", "data", 1, 2, 7, 4.0, -61.2, 80, 2.5, None),
            TraceRecord(12, 9, "HANDOVER_DONE", "", None, None, None, None,
                        None, None, 2.5, (2, 10688))]
    path = tmp_path / "t.csv"
    write_trace(path, rows)
    back = read_trace(path)
    assert back == rows


def test_boundaries_match_tolerance():
    assert boundaries_match([(2.0, 4.0)], [(2.05, 3.95)], 0.1)
    assert boundaries_match([(2.0, 4.1)], [(2.0, 4.0)], 0.1)  # exactly tol
    assert not boundaries_match([(2.0, 4.2)], [(2.0, 4.0)], 0.1)
    assert not boundaries_match([(2.0, 4.0)], [], 0.1)


def test_static_oracle_against_hand_geometry():
    cfg = make_cfg("""
[phy]
tx_power = 0 dBm
rx_sensitivity = -73 dBm
pl0 = 54 dB
path_loss_exponent = 3.5

[node 1]
role = coordinator
class = stationary
x = 0 m

[node 9]
role = end_device
class = mobile

[trajectory]
waypoint = 0 m, 0 m, 0 s
waypoint = 10 m, 0 m, 10 s
""")
    gaps = static_gap_oracle(cfg, 0.0)
    # single node at origin, range 10^(19/35) = 3.4903 m: one trailing gap
    assert len(gaps) == 1
    assert gaps[0][0] == pytest.approx(3.50, abs=0.011)
    assert gaps[0][1] == pytest.approx(10.0)


def test_static_oracle_follows_a_sloped_trajectory_run_right_to_left():
    # From (10 m, 10 m) back to the origin: y = x.  Node 1 at the origin has
    # range 3.4903 m, so the mobile is covered while x * sqrt(2) < 3.4903.
    # The oracle's y model used to give every x the first waypoint's y here.
    trajectory = Trajectory([(10.0, 10.0, 0), (0.0, 0.0, 10_000_000)])
    assert [coverage._trajectory_y_at(trajectory, x) for x in (0.0, 5.0, 10.0)] \
        == [0.0, 5.0, 10.0]
    # Past the x range, as the oracle's last step can land: the nearer end's y.
    assert coverage._trajectory_y_at(trajectory, 10.004) == 10.0
    # A vertical first segment gives its end's y, and x then reads the next.
    bent = Trajectory([(5.0, 10.0, 0), (5.0, 5.0, 5_000_000), (0.0, 0.0, 10_000_000)])
    assert [coverage._trajectory_y_at(bent, x) for x in (5.0, 2.5, 0.0)] == [5.0, 2.5, 0.0]
    cfg = make_cfg("""
[phy]
tx_power = 0 dBm
rx_sensitivity = -73 dBm
pl0 = 54 dB
path_loss_exponent = 3.5

[node 1]
role = coordinator
class = stationary
x = 0 m

[node 9]
role = end_device
class = mobile
""")
    cfg.trajectory = trajectory
    gaps = static_gap_oracle(cfg, 0.0)
    assert len(gaps) == 1
    assert gaps[0][0] == pytest.approx(3.4903 / 2 ** 0.5, abs=0.011)
    assert gaps[0][1] == pytest.approx(10.0)


def test_line_spans_leave_out_a_chord_off_the_trajectory(default_cfg):
    # Node 3 at 30 m covers none of the trajectory's 0..15 m.
    far = default_cfg.clone()
    far.nodes[2].x = 30.0
    assert line_spans(far, 4.0) == line_spans(default_cfg, 4.0)[:2]
    assert all(0.0 <= lo < hi <= 15.0 for lo, hi in line_spans(far, 4.0))


def test_coverage_geometry_without_a_mobile_adds_no_receive_gain(default_cfg):
    no_mobile = default_cfg.clone()
    no_mobile.nodes = no_mobile.stationary_nodes()
    for power in (0.0, 4.0):
        assert line_spans(no_mobile, power) == line_spans(default_cfg, power)
        assert static_gap_oracle(no_mobile, power) == static_gap_oracle(default_cfg, power)


def test_overlap_intervals_analytic(default_cfg):
    assert overlap_intervals(default_cfg, 0.0) == []
    at6 = overlap_intervals(default_cfg, 6.0)
    assert len(at6) == 2
    # node pair midpoints are 3.0 and 12.0; overlaps sit symmetrically
    for (lo, hi), mid in zip(at6, (3.0, 12.0)):
        assert lo < mid < hi
        assert hi - lo == pytest.approx(2 * (5.179 - 4.5), abs=0.01)
    # Nodes 4 m apart: the three pairwise overlaps chain into one interval.
    close = copy.deepcopy(default_cfg)
    for node, x in zip(close.stationary_nodes(), (0.0, 4.0, 8.0)):
        node.x = x
    [(lo, hi)] = overlap_intervals(close, 6.0)
    assert lo == 0.0 and hi == pytest.approx(4.0 + 5.179, abs=0.01)


def _pair_overlaps(cfg, power):
    """The lengths of the chords' pairwise overlaps, slivers included."""
    return [min(s[1], t[1]) - max(s[0], t[0])
            for s, t in combinations(line_spans(cfg, power), 2)
            if max(s[0], t[0]) < min(s[1], t[1])]


def test_overlap_drops_subresolution_slivers(default_cfg):
    # at 4 dBm the calibrated layout overlaps by ~0.08 m, under the 0.1 m floor
    assert overlap_intervals(default_cfg, 4.0) == []
    slivers = _pair_overlaps(default_cfg, 4.0)
    assert slivers and all(0.0 < n < CELL_M for n in slivers)


def _shifted_y(cfg, dy):
    """cfg with every stationary node and every waypoint moved dy metres in y."""
    moved = copy.deepcopy(cfg)
    for node in moved.nodes:
        node.y += dy
    moved.trajectory = Trajectory([(x, y + dy, t)
                                   for x, y, t in cfg.trajectory.waypoints])
    return moved


def test_overlap_intervals_cut_at_the_trajectory_line(default_cfg):
    # Moving the layout and the walk together leaves the geometry unchanged;
    # cutting the circles at y = 0 instead would shrink both overlaps away.
    moved = _shifted_y(default_cfg, 2.0)
    for power in (4.0, 6.0):
        assert line_spans(moved, power) == line_spans(default_cfg, power)
        assert _pair_overlaps(moved, power)  # the 4 dBm slivers too
    assert len(overlap_intervals(moved, 6.0)) == 2


def test_overlap_intervals_reject_a_trajectory_off_one_line(default_cfg):
    sloped = copy.deepcopy(default_cfg)
    (x0, y0, t0), (x1, _, t1) = default_cfg.trajectory.waypoints
    sloped.trajectory = Trajectory([(x0, y0, t0), (x1, 1.0, t1)])
    with pytest.raises(ScenarioError, match="waypoint 2 "):
        overlap_intervals(sloped, 6.0)


@st.composite
def _line_layouts(draw, base):
    """A scenario with 2-6 stations around one horizontal trajectory line."""
    cfg = copy.deepcopy(base)
    line_y = draw(st.floats(-5.0, 5.0))
    cfg.nodes = [NodeConfig(k) for k in range(1, draw(st.integers(2, 6)) + 1)]
    for node in cfg.nodes:  # routers, stationary by default
        node.x = draw(st.floats(-3.0, 13.0))
        node.y = line_y + draw(st.floats(-4.0, 4.0))
    mobile = NodeConfig(9)
    mobile.role, mobile.node_class = NodeRole.END_DEVICE, NodeClass.MOBILE
    cfg.nodes.append(mobile)
    cfg.trajectory = Trajectory([(0.0, line_y, 0), (10.0, line_y, 10_000_000)])
    return cfg, draw(st.sampled_from(cfg.phy.power_levels_dbm))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_shared_spans_agree_with_the_oracle(default_cfg, data):
    cfg, power = data.draw(_line_layouts(default_cfg))
    lo, hi = cfg.trajectory.x_bounds()
    gaps = uncovered_intervals(line_spans(cfg, power), lo, hi)
    # The sampler cannot resolve a gap or a covered island under two steps.
    edges = [lo, *(b for gap in gaps for b in gap), hi]
    assume(all(b - a == 0.0 or b - a >= 2 * ORACLE_STEP_M
               for a, b in pairwise(edges)))
    assert boundaries_match(gaps, static_gap_oracle(cfg, power), ORACLE_STEP_M)


def test_static_gap_oracle_does_not_use_the_shared_spans(default_cfg,
                                                         monkeypatch):
    want = {power: static_gap_oracle(default_cfg, power) for power in (0.0, 4.0)}
    assert len(want[0.0]) == 2 and want[4.0] == []

    def refuse(*args, **kwargs):
        raise AssertionError("static_gap_oracle read the shared geometry")

    monkeypatch.setattr(coverage, "line_spans", refuse)
    monkeypatch.setattr(coverage, "uncovered_intervals", refuse)
    for power, gaps in want.items():
        assert static_gap_oracle(default_cfg, power) == gaps


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_trace_gaps_agree_with_the_oracle(default_cfg, data):
    cfg, power = data.draw(_line_layouts(default_cfg))
    lo, hi = cfg.trajectory.x_bounds()
    oracle = static_gap_oracle(cfg, power)
    # The 0.1 m raster cannot resolve a gap, or a covered island between or
    # beside gaps, shorter than two cells: such draws are skipped.
    lengths = [b - a for a, b in pairwise([lo, *(b for g in oracle for b in g), hi])]
    assume(all(n >= 2 * CELL_M for n in lengths[1::2]))
    assume(all(n == 0.0 or n >= 2 * CELL_M for n in lengths[0::2]))
    gaps = sweep(cfg, [power]).levels[0].report.gaps
    assert boundaries_match(gaps, oracle, CELL_M), (gaps, oracle)
