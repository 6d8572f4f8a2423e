"""Recover propagation constants and node placements from coverage targets.

The source material fixes the coverage picture (gaps at the lowest level,
gap-free at the fourth) but omits every propagation constant, so they are
fitted: a coarse-to-fine grid search over path-loss exponent, reference
loss, receiver sensitivity and the three stationary x positions.  Scoring a
candidate layout (kernels.best_layout) is the hot loop.  The radii depend
only on the exponent and the sum pl0 + sensitivity, so the targets identify
that sum but not its split; the search reports the first split it meets.

Search ranges: exponent 1.5..6.0 step 0.1, pl0 30..70 dB step 1,
sensitivity -100..-70 dBm step 1, positions -3..18 m step 0.5.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from . import kernels
from .scenario import NodeClass
from .scenario_file import ScenarioConfig, ScenarioError

N_RANGE = (1.5, 6.0, 0.1)
PL0_RANGE = (30.0, 70.0, 1.0)
SENS_RANGE = (-100.0, -70.0, 1.0)
X_RANGE = (-3.0, 18.0, 0.5)

# Tie-break weight: among layouts with equal boundary error, prefer less
# coverage overlap at the gap-free level.
OVERLAP_WEIGHT = 1e-3

_INVALID = 1e300


@dataclass
class CalibrationTargets:
    gap1: tuple[float, float] = (2.0, 4.0)
    gap2: tuple[float, float] = (11.0, 13.0)
    gap_level_dbm: float = 0.0
    must_gap_dbm: float = 3.0  # highest level that must still show a gap
    gap_free_dbm: float = 4.0
    tolerance_m: float = 0.5


@dataclass
class CalibrationResult:
    ok: bool
    path_loss_exponent: float = 0.0
    pl0_db: float = 0.0
    rx_sensitivity_dbm: float = 0.0
    positions: tuple[float, ...] = ()
    max_boundary_error_m: float = float("inf")
    achieved_gaps: list[tuple[float, float]] = field(default_factory=list)
    range_at_gap_level_m: float = 0.0
    searched: bool = True
    candidates_scored: int = 0

    def report_lines(self, targets: CalibrationTargets) -> list[str]:
        lines = [
            "calibration report",
            "  mode: "
            + ("grid search" if self.searched
               else "supplied values already meet targets"),
            f"  status: {'ok' if self.ok else 'INFEASIBLE'}",
            f"  path_loss_exponent = {self.path_loss_exponent:g}",
            f"  pl0 = {self.pl0_db:g} dB",
            f"  rx_sensitivity = {self.rx_sensitivity_dbm:g} dBm",
            f"  pl0 + rx_sensitivity = {self.pl0_db + self.rx_sensitivity_dbm:g} dBm "
            "(only this sum is identified by the coverage targets)",
            f"  stationary x positions = "
            + ", ".join(f"{x:g} m" for x in self.positions),
            f"  max boundary error = {self.max_boundary_error_m:.3f} m "
            f"(tolerance {targets.tolerance_m:g} m)",
            "  achieved gaps at "
            f"{targets.gap_level_dbm:g} dBm: "
            + (", ".join(f"({a:.3f}, {b:.3f}) m" for a, b in self.achieved_gaps)
               or "none"),
            f"  communication range at {targets.gap_level_dbm:g} dBm: "
            f"{self.range_at_gap_level_m:.2f} m",
        ]
        if not 10.0 <= self.range_at_gap_level_m <= 75.0:
            lines.append(
                "  note: fitted range sits outside the nominal 10-75 m "
                "envelope; the coverage-trace geometry takes precedence")
        return lines


def _radius(level: float, pl0: float, sens: float, n: float) -> float:
    return 10.0 ** ((level - pl0 - sens) / (10.0 * n))


def _grid(lo: float, hi: float, step: float) -> list[float]:
    count = int(round((hi - lo) / step))
    return [lo + i * step for i in range(count + 1)]


def _coverage_gaps(xs, radius, lo, hi):
    """Uncovered intervals of [lo, hi] for equal-radius nodes on the line."""
    spans = sorted((x - radius, x + radius) for x in xs)
    gaps = []
    cursor = lo
    for a, b in spans:
        if a > cursor:
            gaps.append((cursor, min(a, hi)))
        cursor = max(cursor, b)
        if cursor >= hi:
            break
    if cursor < hi:
        gaps.append((cursor, hi))
    return [(a, b) for a, b in gaps if b > a]


def layout_metrics(n: float, pl0: float, sens: float, xs, targets: CalibrationTargets,
                   bounds: tuple[float, float]):
    """(valid, max boundary error, achieved gaps) for one concrete layout."""
    lo, hi = bounds
    r_gap = _radius(targets.gap_level_dbm, pl0, sens, n)
    r_must = _radius(targets.must_gap_dbm, pl0, sens, n)
    r_free = _radius(targets.gap_free_dbm, pl0, sens, n)
    gaps = _coverage_gaps(xs, r_gap, lo, hi)
    if len(gaps) != 2:
        return False, float("inf"), gaps
    if _coverage_gaps(xs, r_free, lo, hi):
        return False, float("inf"), gaps
    if not _coverage_gaps(xs, r_must, lo, hi):
        return False, float("inf"), gaps
    want = (*targets.gap1, *targets.gap2)
    got = (*gaps[0], *gaps[1])
    err = max(abs(a - b) for a, b in zip(want, got))
    return True, err, gaps


def search(cfg: ScenarioConfig,
           targets: CalibrationTargets | None = None) -> CalibrationResult:
    """Fit propagation constants and placements to the coverage targets.

    Raises ScenarioError unless cfg has exactly three stationary nodes, the
    layout the coverage targets describe.
    """
    targets = targets or CalibrationTargets()
    bounds = cfg.trajectory.x_bounds()
    b0, b1 = targets.gap1
    b2, b3 = targets.gap2

    current = sorted(n.x for n in cfg.nodes
                     if n.node_class is NodeClass.STATIONARY)
    if len(current) != 3:
        raise ScenarioError(
            f"calibration fits exactly 3 stationary nodes, the scenario "
            f"defines {len(current)}")
    valid, err, gaps = layout_metrics(
        cfg.phy.path_loss_exponent, cfg.phy.pl0_db,
        cfg.phy.rx_sensitivity_dbm, current, targets, bounds)
    if valid and err <= targets.tolerance_m:
        return CalibrationResult(
            True, cfg.phy.path_loss_exponent, cfg.phy.pl0_db,
            cfg.phy.rx_sensitivity_dbm, tuple(current), err, gaps,
            _radius(targets.gap_level_dbm, cfg.phy.pl0_db,
                    cfg.phy.rx_sensitivity_dbm,
                    cfg.phy.path_loss_exponent),
            searched=False)

    x_lo, x_hi, x_step = X_RANGE
    nx = int(round((x_hi - x_lo) / x_step)) + 1

    best = (_INVALID, 0.0, 0.0, 0.0)  # score, x1, x2, x3
    best_params = (0.0, 0.0, 0.0)
    scored = 0
    # The radii repeat whenever (n, pl0 + sens) does, and best_layout is a
    # pure function of them, so each triple is scored once.  The strict "<"
    # below still keeps the first hit in (n, pl0, sens) scan order.
    layouts = {}

    def scan(n_vals, pl0_vals, sens_vals):
        nonlocal best, best_params, scored
        for n in n_vals:
            for pl0 in pl0_vals:
                for sens in sens_vals:
                    r0 = _radius(targets.gap_level_dbm, pl0, sens, n)
                    r3 = _radius(targets.must_gap_dbm, pl0, sens, n)
                    r4 = _radius(targets.gap_free_dbm, pl0, sens, n)
                    scored += 1
                    res = layouts.get((r0, r3, r4))
                    if res is None:
                        res = kernels.best_layout(
                            r0, r3, r4, x_lo, x_step, nx, b0, b1, b2, b3,
                            bounds[0], bounds[1], OVERLAP_WEIGHT)
                        layouts[(r0, r3, r4)] = res
                    if res[0] < best[0]:
                        best = res
                        best_params = (n, pl0, sens)

    # Coarse pass on a decimated grid, then a fine pass around the winner
    # at the full resolution of the search ranges.
    scan(_grid(N_RANGE[0], N_RANGE[1], 0.5),
         _grid(PL0_RANGE[0], PL0_RANGE[1], 4.0),
         _grid(SENS_RANGE[0], SENS_RANGE[1], 3.0))
    if best[0] < _INVALID:
        n0, pl00, s0 = best_params
        scan([v for v in _grid(max(N_RANGE[0], n0 - 0.5),
                               min(N_RANGE[1], n0 + 0.5), N_RANGE[2])],
             [v for v in _grid(max(PL0_RANGE[0], pl00 - 4.0),
                               min(PL0_RANGE[1], pl00 + 4.0), PL0_RANGE[2])],
             [v for v in _grid(max(SENS_RANGE[0], s0 - 3.0),
                               min(SENS_RANGE[1], s0 + 3.0), SENS_RANGE[2])])

    if best[0] >= _INVALID:
        return CalibrationResult(False, candidates_scored=scored)

    n, pl0, sens = best_params
    xs = (best[1], best[2], best[3])
    valid, err, gaps = layout_metrics(n, pl0, sens, xs, targets, bounds)
    ok = valid and err <= targets.tolerance_m
    return CalibrationResult(
        ok, n, pl0, sens, xs, err, gaps,
        _radius(targets.gap_level_dbm, pl0, sens, n),
        searched=True, candidates_scored=scored)


def apply_to_config(cfg: ScenarioConfig, result: CalibrationResult,
                    targets: CalibrationTargets) -> ScenarioConfig:
    """Return a copy of cfg carrying the calibrated constants and layout."""
    out = copy.deepcopy(cfg)
    out.phy.path_loss_exponent = result.path_loss_exponent
    out.phy.pl0_db = result.pl0_db
    out.phy.rx_sensitivity_dbm = result.rx_sensitivity_dbm
    out.phy.tx_power_dbm = targets.gap_free_dbm
    stationary = sorted(
        (node for node in out.nodes if node.node_class is NodeClass.STATIONARY),
        key=lambda node: node.node_id)
    if len(stationary) != len(result.positions):
        raise ValueError(
            f"calibrated layout has {len(result.positions)} positions but the "
            f"scenario defines {len(stationary)} stationary nodes")
    for node, x in zip(stationary, sorted(result.positions)):
        node.x = x
        node.y = 0.0
    return out
