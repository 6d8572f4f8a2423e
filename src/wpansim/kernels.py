"""Layout-scoring kernel: the hot loop of the calibration grid search.

The output is pinned bit for bit by tests/data/best_layout_golden.csv, so
keep the evaluation order of every expression (IEEE binary64) when editing.
"""

# Recorded in the benchmark's results file (wpbench/worker.py).
BACKEND = "pure-python"

_INVALID = 1e300


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
