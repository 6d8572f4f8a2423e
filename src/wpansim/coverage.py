"""Coverage-gap extraction from traces, plus the static geometry views.

Gaps are meter-denominated: a stretch of the trajectory is a gap when the
trace shows the mobile failing every exchange there (failed unicast sends,
probe rounds with no responses, ticks with no parent) and succeeding in
none.  Boundaries are reported at 0.1 m resolution.  The independent check
is a brute-force link-budget sampler along the trajectory at 0.01 m.
gap_analysis reads the rows of the mobile its caller names: the sweep's
run's mobile, or for `wpansim gaps` the lowest node id with MOVE rows.
line_spans owns the static geometry, each station's chord of the trajectory's
line; calibration's gaps and the sweep's overlaps read it, the sampler does not.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .mac import SendOutcome
from .phy import PhyParams, comm_range_m, heard, link_rx_power
from .scenario_file import ScenarioError
from .trace import TraceKind, TraceRecord

CELL_M = 0.1
ORACLE_STEP_M = 0.01

_FAIL_KINDS = (TraceKind.OUTAGE_LOSS, TraceKind.HANDOVER_FAIL)


def gap_analysis(rows: list[TraceRecord], x_lo: float, x_hi: float,
                 mobile_id: int) -> list[tuple[float, float]]:
    """Extract out-of-communication x-intervals from a run trace.

    Rasterizes mobile-node evidence onto 0.1 m cells: a cell is part of a
    gap iff it holds failure evidence and no successful exchange.  Failure
    means an OUTAGE_LOSS or HANDOVER_FAIL row, or a send that ended without
    its ack (the SEND_OUTCOME row, the only one whose detail is no_ack).
    Success means the mobile actually received a frame (broadcast or
    unacknowledged sends prove nothing about reachability).  Cells with no
    evidence between failing cells are bridged; gap edges are trimmed to
    the outermost failing cells.
    """
    n_cells = max(1, round((x_hi - x_lo) / CELL_M))
    # 0 = no evidence, 1 = success, 2 = failure (success wins in a cell)
    cells = [0] * n_cells

    def cell_of(x: float) -> int:
        i = int((x - x_lo) / CELL_M)
        return min(max(i, 0), n_cells - 1)

    for r in rows:
        if r.node_id != mobile_id:
            continue
        if r.event_kind == TraceKind.RX:
            cells[cell_of(r.pos_x_m)] = 1
        elif r.event_kind in _FAIL_KINDS or r.detail == SendOutcome.NO_ACK:
            i = cell_of(r.pos_x_m)
            if cells[i] == 0:
                cells[i] = 2

    gaps: list[tuple[float, float]] = []
    first = last = None  # the open gap's outermost failing cells
    for k, cell in enumerate([*cells, 1]):  # a success past the end closes the last
        if cell == 2:
            if first is None:
                first = k
            last = k
        elif cell == 1 and first is not None:
            gaps.append((x_lo + first * CELL_M, x_lo + (last + 1) * CELL_M))
            first = None
    return gaps


def gap_bounds(trajectory) -> tuple[float, float]:
    """The x range gap_analysis reads along; the x may never decrease.

    Gap cells are keyed by x alone, so a trajectory that turns back would
    merge its passes into one set of gaps.
    """
    waypoints = trajectory.waypoints
    for k, (prev, cur) in enumerate(zip(waypoints, waypoints[1:]), start=2):
        if cur[0] < prev[0]:
            raise ScenarioError(
                f"trajectory waypoint {k} (x = {cur[0]:g} m) is below waypoint "
                f"{k - 1} (x = {prev[0]:g} m); coverage gaps need an x that "
                f"never decreases")
    return trajectory.x_bounds()


def static_gap_oracle(cfg, power_dbm: float) -> list[tuple[float, float]]:
    """Brute-force reference: sample reception along the trajectory.

    Walks x across the trajectory span in ORACLE_STEP_M increments and marks the
    positions where no stationary node is within communication range at the
    given power.  Independent of the event-driven machinery.
    """
    params: PhyParams = cfg.phy
    stations = cfg.stationary_nodes()
    x_lo, x_hi = cfg.trajectory.x_bounds()
    n = round((x_hi - x_lo) / ORACLE_STEP_M)
    gaps: list[tuple[float, float]] = []
    run_start: float | None = None
    for k in range(n + 1):
        x = x_lo + k * ORACLE_STEP_M
        y = _trajectory_y_at(cfg.trajectory, x)
        covered = False
        for node in stations:
            dist = ((x - node.x) ** 2 + (y - node.y) ** 2) ** 0.5
            if heard(link_rx_power(dist, power_dbm, params), params):
                covered = True
                break
        if not covered and run_start is None:
            run_start = x
        elif covered and run_start is not None:
            gaps.append((run_start, last_x))
            run_start = None
        last_x = x
    if run_start is not None:
        gaps.append((run_start, last_x))
    return gaps


def _trajectory_y_at(trajectory, x: float) -> float:
    """y at x on the first segment whose x range holds x, whichever way it
    runs; off every segment, the y of the waypoint nearest in x."""
    wp = trajectory.waypoints
    for (x0, y0, _), (x1, y1, _) in zip(wp, wp[1:]):
        if min(x0, x1) <= x <= max(x0, x1):
            if x1 == x0:
                return y1
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    return min(wp, key=lambda w: abs(w[0] - x))[1]


def line_spans(cfg, power_dbm: float) -> list[tuple[float, float]]:
    """Each stationary node's chord (x - h, x + h) of the trajectory's line.

    h = sqrt(r^2 - dy^2) for the one range r at power_dbm and offset dy from
    the line; chords are clipped to the trajectory's x bounds, empty ones
    dropped.  Waypoints that differ in y raise a ScenarioError.
    """
    waypoints = cfg.trajectory.waypoints
    line_y = waypoints[0][1]
    for k, (wx, wy, _) in enumerate(waypoints[1:], start=2):
        if wy != line_y:
            raise ScenarioError(
                f"trajectory waypoint {k} ({wx:g} m, {wy:g} m) leaves the line "
                f"y = {line_y:g} m of waypoint 1; coverage geometry needs every "
                f"waypoint at the same y")
    x_lo, x_hi = cfg.trajectory.x_bounds()
    r = comm_range_m(power_dbm, cfg.phy)
    spans: list[tuple[float, float]] = []
    for node in cfg.stationary_nodes():
        dy = node.y - line_y
        if r <= abs(dy):
            continue
        half = (r * r - dy * dy) ** 0.5
        lo, hi = max(x_lo, node.x - half), min(x_hi, node.x + half)
        if lo < hi:
            spans.append((lo, hi))
    return spans


def uncovered_intervals(spans, lo: float,
                        hi: float) -> list[tuple[float, float]]:
    """Intervals of [lo, hi] that no span covers; spans may differ in length."""
    gaps, cursor = [], lo
    for a, b in sorted(spans):
        if min(a, hi) > cursor:
            gaps.append((cursor, min(a, hi)))
        cursor = max(cursor, b)
    if cursor < hi:
        gaps.append((cursor, hi))
    return gaps


def overlap_intervals(cfg, power_dbm: float) -> list[tuple[float, float]]:
    """x-intervals where two or more stationary nodes are in range at once:
    pairwise overlaps of line_spans, merged, without those shorter than the
    0.1 m reporting resolution."""
    pairs = [(max(s[0], t[0]), min(s[1], t[1]))
             for s, t in combinations(line_spans(cfg, power_dbm), 2)]
    return [(a, b) for a, b in _merge([p for p in pairs if p[0] < p[1]])
            if b - a >= CELL_M]


def _merge(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    out: list[tuple[float, float]] = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def association_map(rows: list[TraceRecord],
                    mobile_id: int) -> list[tuple[float, float, int]]:
    """Trajectory segments annotated with the parent that served them.

    A segment opens at a HANDOVER_DONE row to a new parent and ends where
    the next one opens, or at the mobile's last row.
    """
    segments: list[tuple[float, float, int]] = []
    start = parent = last_x = None
    for r in rows:
        if r.node_id != mobile_id:
            continue
        last_x = r.pos_x_m
        # detail: (parent, latency)
        if r.event_kind == TraceKind.HANDOVER_DONE and r.detail[0] != parent:
            if parent is not None:
                segments.append((start, last_x, parent))
            start, parent = last_x, r.detail[0]
    if parent is not None:
        segments.append((start, last_x, parent))
    return segments


class CoverageReport(NamedTuple):
    gaps: list[tuple[float, float]]
    overlaps: list[tuple[float, float]]
    associations: list[tuple[float, float, int]]  # (start, end, parent)
