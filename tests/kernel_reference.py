"""Reference calibration code, kept only as the oracles of the
differential tests in test_calibration.py.  Do not edit their scoring: the
optimised code must match them bit for bit, ties included.  Their input
checks follow the package's.

``best_layout`` is the body of ``wpansim.kernels.best_layout`` before it
learned to score only each x2's feasible window.  It scores all nx
positions on each side for every x2.

``search`` is the body of ``wpansim.calibration.search`` before it learned
to prune by the best fit so far.  It memoises each radius triple's layout
and calls the kernel with its default bound for every new triple.
"""

from wpansim import kernels
from wpansim.calibration import (N_RANGE, OVERLAP_WEIGHT, PL0_RANGE,
                                 SENS_RANGE, X_RANGE, CalibrationResult,
                                 CalibrationTargets, _grid, _verdict,
                                 layout_metrics)
from wpansim.scenario_file import ScenarioConfig, ScenarioError

_INVALID = 1e300


def _radius(level, pl0, sens, n):
    return 10.0 ** ((level - pl0 - sens) / (10.0 * n))


def best_layout(r0, r3, r4, x_lo, x_step, nx,
                b0, b1, b2, b3, lo, hi, w):
    """Grid-score three stationary positions against coverage targets.

    r0/r3/r4: communication radii at the gap level, the highest level that
    must still show a gap, and the gap-free level.  b0..b3 are the target
    gap boundaries at the gap level, (lo, hi) the trajectory bounds.  A
    layout is valid iff at the gap level it yields exactly the two target
    gaps (edges covered), the gap-free level closes both, and the level
    below keeps at least one open.  Score is the worst per-side boundary
    error plus w times the pairwise overlap length at the gap-free level;
    lowest score wins, first hit wins ties.

    Returns (score, x1, x2, x3); score >= 1e300 means no valid layout.
    """
    best_score = _INVALID
    best_x1 = 0.0
    best_x2 = 0.0
    best_x3 = 0.0

    for i2 in range(nx):
        x2 = x_lo + i2 * x_step
        e2 = abs(x2 - r0 - b1)
        e2b = abs(x2 + r0 - b2)
        if e2b > e2:
            e2 = e2b
        if e2 >= best_score:
            continue

        # Left node: boundary target b0, must cover the lo edge and leave a
        # gap against the middle node at the gap level but not at r4.
        l_any = _INVALID
        l_any_x = 0.0
        l_g3 = _INVALID
        l_g3_x = 0.0
        for i1 in range(nx):
            x1 = x_lo + i1 * x_step
            if x1 - r0 > lo:
                continue
            if x1 + r0 >= x2 - r0:
                continue
            if x1 + r4 < x2 - r4:
                continue
            ov = (x1 + r4) - (x2 - r4)
            s = abs(x1 + r0 - b0) + w * ov
            if s < l_any:
                l_any = s
                l_any_x = x1
            if x1 + r3 < x2 - r3 and s < l_g3:
                l_g3 = s
                l_g3_x = x1
        if l_any >= _INVALID:
            continue

        # Right node: boundary target b3, must cover the hi edge.
        r_any = _INVALID
        r_any_x = 0.0
        r_g3 = _INVALID
        r_g3_x = 0.0
        for i3 in range(nx):
            x3 = x_lo + i3 * x_step
            if x3 + r0 < hi:
                continue
            if x2 + r0 >= x3 - r0:
                continue
            if x3 - r4 > x2 + r4:
                continue
            ov = (x2 + r4) - (x3 - r4)
            s = abs(x3 - r0 - b3) + w * ov
            if s < r_any:
                r_any = s
                r_any_x = x3
            if x2 + r3 < x3 - r3 and s < r_g3:
                r_g3 = s
                r_g3_x = x3
        if r_any >= _INVALID:
            continue

        # The level below the gap-free one must keep a gap on at least one
        # side: take the better of (gap forced left) and (gap forced right).
        if l_g3 < _INVALID:
            sa = e2
            if l_g3 > sa:
                sa = l_g3
            if r_any > sa:
                sa = r_any
            if sa < best_score:
                best_score = sa
                best_x1 = l_g3_x
                best_x2 = x2
                best_x3 = r_any_x
        if r_g3 < _INVALID:
            sb = e2
            if l_any > sb:
                sb = l_any
            if r_g3 > sb:
                sb = r_g3
            if sb < best_score:
                best_score = sb
                best_x1 = l_any_x
                best_x2 = x2
                best_x3 = r_g3_x

    return best_score, best_x1, best_x2, best_x3


def search(cfg: ScenarioConfig,
           targets: CalibrationTargets | None = None) -> CalibrationResult:
    """Fit propagation constants and placements to the coverage targets.

    Raises ScenarioError unless cfg has exactly three stationary nodes, the
    layout the coverage targets describe, and a trajectory on one line
    (checked by coverage.line_spans).
    The search is skipped if the scenario as configured, and as written back,
    already meets the targets.  "ok" always describes the written scenario.
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
    # The radii repeat whenever (n, pl0 + sens) does, and best_layout is a
    # pure function of them, so each triple is scored once.  The strict "<"
    # below still keeps the first hit in (n, pl0, sens) scan order.
    layouts = {}

    def scan(n_vals, pl0_vals, sens_vals):
        nonlocal best, best_params
        for n in n_vals:
            for pl0 in pl0_vals:
                for sens in sens_vals:
                    r0 = _radius(targets.gap_level_dbm, pl0, sens, n)
                    r3 = _radius(targets.must_gap_dbm, pl0, sens, n)
                    r4 = _radius(targets.gap_free_dbm, pl0, sens, n)
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
        scan(_grid(max(N_RANGE[0], n0 - 0.5), min(N_RANGE[1], n0 + 0.5),
                   N_RANGE[2]),
             _grid(max(PL0_RANGE[0], pl00 - 4.0), min(PL0_RANGE[1], pl00 + 4.0),
                   PL0_RANGE[2]),
             _grid(max(SENS_RANGE[0], s0 - 3.0), min(SENS_RANGE[1], s0 + 3.0),
                   SENS_RANGE[2]))

    if best[0] >= _INVALID:
        return CalibrationResult(False, targets)

    return _verdict(cfg, *best_params, best[1:], targets, searched=True)
