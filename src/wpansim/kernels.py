"""Layout-scoring kernel: the hot loop of the calibration grid search.

The search passes the best score found so far as `bound`, so a call only
looks for a layout that beats it.  The output is pinned bit for bit by
tests/data/best_layout_golden.csv and by a differential test against the
full scan (tests/kernel_reference.py), with the default bound and with
drawn ones, so keep the evaluation order of every expression (IEEE
binary64) when editing.
"""

from bisect import bisect_left, bisect_right

# Recorded in the benchmark's results file (wpbench/worker.py).
BACKEND = "pure-python"

_INVALID = 1e300


def best_layout(r0, r3, r4, x_lo, x_step, nx,
                b0, b1, b2, b3, lo, hi, w, bound=_INVALID):
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
    Only scores strictly below `bound` (at most 1e300, the default) count:
    the scan's best score starts at `bound`, and a layout replaces it only
    if it scores strictly less.  So the result is the one the default
    bound gives, ties included, if that scores below `bound`, and
    (bound, 0.0, 0.0, 0.0) otherwise.

    Only each x2's feasible window of x1 and x3 is scored.  The grid is
    xs[i] = x_lo + i * x_step with x_step > 0, so xs is non-decreasing in
    i, and so is xs[i] + c for any finite c: IEEE rounding is monotone.
    Every constraint compares such a list entry (x1 + r0, x3 - r4, ...)
    against a value fixed by x2 or by the call, so the indices that pass
    it are a prefix or a suffix of the grid, and bisect on the same list
    finds its end by making the very comparison the full scan makes:
    bisect_left(v, t) counts the v[i] < t, bisect_right(v, t) the
    v[i] <= t.  A window is the meet of such ends; an x2 whose left or
    right window is empty scores nothing there, and the pruning below
    skips it, as the full scan skips it.  Inside
    a window the scores are the same expressions on the same values
    ((x1 + r4) - (x2 - r4) is p4[i1] - m4[i2]), scanned in the same order
    with the same strict "<", so the result is bit-identical, ties
    included, for finite arguments.

    Pruning by the best score: every layout with middle x2 scores at
    least e2, so an x2 whose e2 is already >= best_score cannot win under
    the strict "<" and is skipped before its windows are scanned.  (Every
    such layout also scores at least l_any and r_any, as sa >= l_g3 >=
    l_any, the g3 window being part of the left one, and sb >= l_any; but
    skipping on those as well made the search no faster.)  An x2 whose
    left or right window scored nothing (l_any or r_any still 1e300) wins
    nothing either, as best_score <= bound <= 1e300.
    """
    xs = [x_lo + i * x_step for i in range(nx)]
    p0 = [x + r0 for x in xs]
    m0 = [x - r0 for x in xs]
    p3 = [x + r3 for x in xs]
    m3 = [x - r3 for x in xs]
    p4 = [x + r4 for x in xs]
    m4 = [x - r4 for x in xs]

    best_score = bound
    best_x1 = 0.0
    best_x2 = 0.0
    best_x3 = 0.0

    # The left node must cover lo (x1 - r0 <= lo: i1 < l_end), the right
    # node hi (x3 + r0 >= hi: i3 >= r_start).
    l_end = bisect_right(m0, lo)
    r_start = bisect_left(p0, hi)
    if l_end == 0 or r_start == nx:
        return best_score, best_x1, best_x2, best_x3
    # x2 outside these bounds leaves a side window empty: the left one
    # needs x1 + r0 < x2 - r0 for i1 = 0 and x1 + r4 >= x2 - r4 for
    # i1 = l_end - 1, the right one x3 - r4 <= x2 + r4 for i3 = r_start
    # and x3 - r0 > x2 + r0 for i3 = nx - 1.
    i2_lo = max(bisect_right(m0, p0[0]), bisect_left(p4, m4[r_start]))
    i2_hi = min(bisect_right(m4, p4[l_end - 1]), bisect_left(p0, m0[-1]))

    for i2 in range(i2_lo, i2_hi):
        e2 = abs(m0[i2] - b1)
        e2b = abs(p0[i2] - b2)
        if e2b > e2:
            e2 = e2b
        if e2 >= best_score:
            continue

        # Left node: boundary target b0, must cover the lo edge and leave a
        # gap against the middle node at the gap level but not at r4.
        # Window [a, b): x1 + r4 >= x2 - r4 and x1 + r0 < x2 - r0; the
        # gap also stays open at r3 (x1 + r3 < x2 - r3) on [a, g).
        t4 = m4[i2]
        a = bisect_left(p4, t4)
        b = bisect_left(p0, m0[i2], 0, l_end)
        g = bisect_left(p3, m3[i2], a, b)
        l_any = _INVALID
        l_any_x = 0.0
        l_g3 = _INVALID
        l_g3_x = 0.0
        for i1 in range(a, b):
            s = abs(p0[i1] - b0) + w * (p4[i1] - t4)
            if s < l_any:
                l_any = s
                l_any_x = xs[i1]
            if i1 < g and s < l_g3:
                l_g3 = s
                l_g3_x = xs[i1]

        # Right node: boundary target b3, must cover the hi edge.  Window
        # [c, d): x3 - r0 > x2 + r0 and x3 - r4 <= x2 + r4; the gap stays
        # open at r3 (x2 + r3 < x3 - r3) on [h, d).
        u4 = p4[i2]
        c = bisect_right(m0, p0[i2], r_start)
        d = bisect_right(m4, u4)
        h = bisect_right(m3, p3[i2], c, d)
        r_any = _INVALID
        r_any_x = 0.0
        r_g3 = _INVALID
        r_g3_x = 0.0
        for i3 in range(c, d):
            s = abs(m0[i3] - b3) + w * (u4 - m4[i3])
            if s < r_any:
                r_any = s
                r_any_x = xs[i3]
            if i3 >= h and s < r_g3:
                r_g3 = s
                r_g3_x = xs[i3]

        # The level below the gap-free one must keep a gap on at least one
        # side: take the better of (gap forced left) and (gap forced right).
        # A side with no such layout scores _INVALID, which is never below
        # best_score (at most bound).
        sa = e2
        if l_g3 > sa:
            sa = l_g3
        if r_any > sa:
            sa = r_any
        if sa < best_score:
            best_score = sa
            best_x1 = l_g3_x
            best_x2 = xs[i2]
            best_x3 = r_any_x
        sb = e2
        if l_any > sb:
            sb = l_any
        if r_g3 > sb:
            sb = r_g3
        if sb < best_score:
            best_score = sb
            best_x1 = l_any_x
            best_x2 = xs[i2]
            best_x3 = r_g3_x

    return best_score, best_x1, best_x2, best_x3
