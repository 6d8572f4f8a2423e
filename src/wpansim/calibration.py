"""Recover propagation constants and node placements from coverage targets.

The source material fixes the coverage picture (gaps at the lowest level,
gap-free at the fourth) but omits every propagation constant, so they are
fitted: a coarse-to-fine grid search over path-loss exponent, reference
loss, receiver sensitivity and the three stationary x positions.  Scoring a
candidate layout (kernels.best_layout) is the hot loop.  The search is a
branch and bound: a floor on the score from the gap-level radius and the
position grid skips every candidate that cannot beat the best fit so far,
and the kernel gets that best as its bound; the result is the exhaustive
scan's, field for field.  The radii depend only on the exponent and the
numerators level - pl0 - sensitivity, so the targets identify pl0 +
sensitivity but not its split; each scan pass evaluates the radii once per
exponent and distinct triple of numerators, and reports the first split it
meets.
The verdict on a fit drops the kernel's equal radii: layout_metrics scores
the scenario apply_to_config writes through coverage.line_spans.

Search ranges: exponent 1.5..6.0 step 0.1, pl0 30..70 dB step 1,
sensitivity -100..-70 dBm step 1, positions -3..18 m step 0.5.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from . import kernels
from .coverage import line_spans, uncovered_intervals
from .kernels import _INVALID
from .phy import comm_range_m
from .scenario_file import ScenarioConfig, ScenarioError

N_RANGE = (1.5, 6.0, 0.1)
PL0_RANGE = (30.0, 70.0, 1.0)
SENS_RANGE = (-100.0, -70.0, 1.0)
X_RANGE = (-3.0, 18.0, 0.5)

# Tie-break weight: among layouts with equal boundary error, prefer less
# coverage overlap at the gap-free level.
OVERLAP_WEIGHT = 1e-3


class CalibrationTargets(NamedTuple):
    gap1: tuple[float, float] = (2.0, 4.0)
    gap2: tuple[float, float] = (11.0, 13.0)
    gap_level_dbm: float = 0.0
    must_gap_dbm: float = 3.0  # highest level that must still show a gap
    gap_free_dbm: float = 4.0
    tolerance_m: float = 0.5


class CalibrationResult(NamedTuple):
    """One fit and the targets it was judged against."""

    ok: bool
    targets: CalibrationTargets
    path_loss_exponent: float = 0.0
    pl0_db: float = 0.0
    rx_sensitivity_dbm: float = 0.0
    positions: tuple[float, ...] = ()
    max_boundary_error_m: float = float("inf")
    achieved_gaps: Sequence[tuple[float, float]] = ()
    range_at_gap_level_m: float = 0.0
    searched: bool = True

    def report_lines(self) -> list[str]:
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
            f"(tolerance {self.targets.tolerance_m:g} m)",
            f"  achieved gaps at {self.targets.gap_level_dbm:g} dBm: "
            + (", ".join(f"({a:.3f}, {b:.3f}) m" for a, b in self.achieved_gaps)
               or "none"),
            f"  communication range at {self.targets.gap_level_dbm:g} dBm: "
            f"{self.range_at_gap_level_m:.2f} m",
        ]
        if not 10.0 <= self.range_at_gap_level_m <= 75.0:
            lines.append(
                "  note: fitted range sits outside the nominal 10-75 m "
                "envelope; the coverage-trace geometry takes precedence")
        return lines


def _grid(lo: float, hi: float, step: float) -> list[float]:
    count = int(round((hi - lo) / step))
    return [lo + i * step for i in range(count + 1)]


def _score_floor(x_lo: float, x_step: float, nx: int, b1: float, b2: float):
    """floor(r0): a lower bound on every score best_layout can return for
    gap-level radius r0 on the grid x_lo + i * x_step (i < nx) with
    middle-node targets (b1, b2); 1e300 if it can return no layout.

    The grid points X = x_lo + i * x_step are computed as the kernel
    computes them, and x_last is the last one.  In exact arithmetic, with
    c = (b1 + b2) / 2 and h = (b2 - b1) / 2:

    - No layout exists if 4 r0 > x_last - x_lo: the middle node needs a
      gap at the gap level against a left node at x_lo or later and a
      right node at x_last or earlier, so x2 - x_lo > 2 r0 and
      x_last - x2 > 2 r0.
    - Every score is at least the kernel's e2 =
      max(|x2 - r0 - b1|, |x2 + r0 - b2|) for its x2.  The two arguments
      are (x2 - c) -+ (r0 - h), and max(|a - d|, |a + d|) = |a| + |d|, so
      e2 = |x2 - c| + |2 r0 - (b2 - b1)| / 2.  x2 is a grid point, so
      |x2 - c| >= delta, the least |X - c| over the grid: the floor is
      delta + |2 r0 - (b2 - b1)| / 2.  delta is 0 when c is a grid point.

    Both are computed less a slack of 1e-9 * (scale + r0), with scale =
    1 + |x_lo| + |x_last| + |b1| + |b2|.  With unit roundoff u = 2**-53
    and M = scale + r0, |X| <= |x_lo| + |x_last|, |c| + |h| <= |b1| + |b2|
    and every value involved is at most 2 M in magnitude.  The kernel's
    x +- r0 and e2 are within 4 u M of their exact values for its X.
    Here c is within u M of exact (b1 + b2 rounds once, * 0.5 is exact),
    each X - c within 3 u M, so delta within 3 u M; the e2 term within
    3 u M (b2 - b1 and the subtraction round, r0 + r0, 4 r0 and * 0.5
    are exact); their sum and the slack's subtraction round once each,
    within 2 u M apiece.  Together under 14 u M < 2e-15 M, a millionth of
    the slack, which is itself computed within a relative 7 u.  So no
    score the kernel computes is below the floor computed here.  A
    non-finite r0 gives nan, which is no floor.
    """
    x_last = x_lo + (nx - 1) * x_step
    width = x_last - x_lo
    span = b2 - b1
    mid = (b1 + b2) * 0.5
    delta = min(abs(x_lo + i * x_step - mid) for i in range(nx))
    scale = 1.0 + abs(x_lo) + abs(x_last) + abs(b1) + abs(b2)

    def floor(r0: float) -> float:
        slack = 1e-9 * (scale + r0)
        if r0 * 4.0 > width + slack:
            return _INVALID
        return abs(r0 + r0 - span) * 0.5 + delta - slack
    return floor


def layout_metrics(cfg: ScenarioConfig, targets: CalibrationTargets):
    """(valid, max boundary error, achieved gaps) for the scenario as configured,
    scored through coverage.line_spans, so y offsets count."""
    lo, hi = cfg.trajectory.x_bounds()

    def gaps_at(level):
        return uncovered_intervals(line_spans(cfg, level), lo, hi)

    gaps = gaps_at(targets.gap_level_dbm)
    if len(gaps) != 2:
        return False, float("inf"), gaps
    if gaps_at(targets.gap_free_dbm):
        return False, float("inf"), gaps
    if not gaps_at(targets.must_gap_dbm):
        return False, float("inf"), gaps
    want = (*targets.gap1, *targets.gap2)
    got = (*gaps[0], *gaps[1])
    err = max(abs(a - b) for a, b in zip(want, got))
    return True, err, gaps


def _verdict(cfg: ScenarioConfig, n: float, pl0: float, sens: float, xs,
             targets: CalibrationTargets, searched: bool) -> CalibrationResult:
    """The result for one fit, scored on the scenario apply_to_config writes."""
    fit = CalibrationResult(False, targets, n, pl0, sens, tuple(xs),
                            searched=searched)
    fitted = apply_to_config(cfg, fit, targets)
    valid, err, gaps = layout_metrics(fitted, targets)
    return fit._replace(
        ok=valid and err <= targets.tolerance_m, max_boundary_error_m=err,
        achieved_gaps=gaps,
        range_at_gap_level_m=comm_range_m(targets.gap_level_dbm, fitted.phy))


def search(cfg: ScenarioConfig,
           targets: CalibrationTargets | None = None) -> CalibrationResult:
    """Fit propagation constants and placements to the coverage targets.

    Raises ScenarioError unless cfg has exactly three stationary nodes, the
    layout the coverage targets describe, and a trajectory on one line
    (checked by coverage.line_spans).
    The search is skipped if the scenario as configured, and as written back,
    already meets the targets.  "ok" always describes the written scenario.

    The grid search is a branch and bound with the same result, field for
    field, as scoring every candidate in scan order under the strict "<":
    a candidate is skipped if _score_floor, which needs only its gap-level
    radius, shows that no score best_layout could return for it is below
    best[0], the least score returned so far; that score would not have
    replaced best.

    The kernel is called at most once per distinct radius triple, with
    bound = best[0], so it returns a layout only if it beats the best.
    A set of the triples seen is enough: after a triple's call best[0] is
    at most its score (the kernel either returned that score and it
    replaced a worse best, or found nothing below best[0]), and best[0]
    only falls, so the triple can never win again.

    Each pass groups its (pl0, sens) pairs by the three radius numerators
    level - pl0 - sens, as phy.comm_range_m computes them, and scores only
    the first pair of each group in scan order, with the same expressions.
    A later pair of a group has the same radius triple for every n: where
    the first pair was skipped by the floor, best[0] has only fallen since,
    so the floor skips the later one too; otherwise the triple is in seen
    by then.  So the kernel is called on the same triples, in the same
    order, as when every pair is scored.  Keying on pl0 + sens would not
    do: at a level that is not a whole dBm, pairs with one sum can round to
    different numerators.
    """
    targets = targets or CalibrationTargets()
    bounds = cfg.trajectory.x_bounds()
    b0, b1 = targets.gap1
    b2, b3 = targets.gap2

    current = sorted(n.x for n in cfg.stationary_nodes())
    if len(current) != 3:
        raise ScenarioError(
            f"calibration fits exactly 3 stationary nodes, the scenario "
            f"defines {len(current)}")
    valid, err, _ = layout_metrics(cfg, targets)
    if valid and err <= targets.tolerance_m:
        supplied = _verdict(cfg, cfg.phy.path_loss_exponent, cfg.phy.pl0_db,
                            cfg.phy.rx_sensitivity_dbm, current, targets,
                            searched=False)
        if supplied.ok:
            return supplied

    x_lo, x_hi, x_step = X_RANGE
    nx = int(round((x_hi - x_lo) / x_step)) + 1

    best = (_INVALID, 0.0, 0.0, 0.0)  # score, x1, x2, x3
    best_params = (0.0, 0.0, 0.0)
    floor = _score_floor(x_lo, x_step, nx, b1, b2)
    seen = set()
    gap, must, free = (targets.gap_level_dbm, targets.must_gap_dbm,
                       targets.gap_free_dbm)

    def scan(n_vals, pl0_vals, sens_vals):
        nonlocal best, best_params
        # The radius numerators of each distinct split, as phy.comm_range_m
        # computes them, with the first (pl0, sens) pair in scan order that
        # gives them.
        splits = {}
        for pl0 in pl0_vals:
            for sens in sens_vals:
                key = (gap - pl0 - sens, must - pl0 - sens, free - pl0 - sens)
                if key not in splits:
                    splits[key] = (*key, pl0, sens)
        for n in n_vals:
            ten_n = 10.0 * n
            for e0, e3, e4, pl0, sens in splits.values():
                r0 = 10.0 ** (e0 / ten_n)
                if floor(r0) >= best[0]:
                    continue
                r3 = 10.0 ** (e3 / ten_n)
                r4 = 10.0 ** (e4 / ten_n)
                if (r0, r3, r4) in seen:
                    continue
                seen.add((r0, r3, r4))
                res = kernels.best_layout(
                    r0, r3, r4, x_lo, x_step, nx, b0, b1, b2, b3,
                    bounds[0], bounds[1], OVERLAP_WEIGHT, best[0])
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
        scan(_grid(max(N_RANGE[0], n0 - 0.5), min(N_RANGE[1], n0 + 0.5),
                   N_RANGE[2]),
             _grid(max(PL0_RANGE[0], pl00 - 4.0), min(PL0_RANGE[1], pl00 + 4.0),
                   PL0_RANGE[2]),
             _grid(max(SENS_RANGE[0], s0 - 3.0), min(SENS_RANGE[1], s0 + 3.0),
                   SENS_RANGE[2]))

    if best[0] >= _INVALID:
        return CalibrationResult(False, targets)

    return _verdict(cfg, *best_params, best[1:], targets, searched=True)


def apply_to_config(cfg: ScenarioConfig, result: CalibrationResult,
                    targets: CalibrationTargets) -> ScenarioConfig:
    """Return an independent copy of cfg carrying the calibrated constants,
    with the stationary nodes at the fitted x positions on the trajectory's
    line; cfg is left as it was."""
    out = cfg.clone()
    out.phy.path_loss_exponent = result.path_loss_exponent
    out.phy.pl0_db = result.pl0_db
    out.phy.rx_sensitivity_dbm = result.rx_sensitivity_dbm
    out.phy.tx_power_dbm = targets.gap_free_dbm
    stationary = sorted(out.stationary_nodes(), key=lambda node: node.node_id)
    if len(stationary) != len(result.positions):
        raise ValueError(
            f"calibrated layout has {len(result.positions)} positions but the "
            f"scenario defines {len(stationary)} stationary nodes")
    line_y = cfg.trajectory.waypoints[0][1]
    for node, x in zip(stationary, sorted(result.positions)):
        node.x = x
        node.y = line_y
    return out
