"""Reference code the tests check the package against; nothing in src/ uses it.

``to_csv`` formats one trace row at a time, the plain spelling of what
``wpansim.trace.write_trace`` writes in chunks with its formatted-value
caches.  ``boundaries_match`` compares gap lists within a tolerance.
"""

from wpansim.trace import TraceRecord


def to_csv(row: TraceRecord) -> str:
    """One trace row as CSV, without the line end."""
    return ",".join((
        str(row.time_us),
        str(row.node_id),
        row.event_kind,
        row.frame_kind,
        "" if row.src is None else str(row.src),
        "" if row.dst is None else str(row.dst),
        "" if row.seq is None else str(row.seq),
        "" if row.power_dbm is None else f"{row.power_dbm:.1f}",
        "" if row.rx_power_dbm is None else f"{row.rx_power_dbm:.1f}",
        "" if row.lq is None else str(row.lq),
        f"{row.pos_x_m:.2f}",
        row.outcome,
    ))


def boundaries_match(a: list[tuple[float, float]], b: list[tuple[float, float]],
                     tol: float) -> bool:
    """True iff both gap lists agree pairwise within tol on every boundary."""
    if len(a) != len(b):
        return False
    eps = 1e-9  # trace boundaries are cell multiples; keep exactly-tol diffs in
    return all(abs(ga[0] - gb[0]) <= tol + eps and abs(ga[1] - gb[1]) <= tol + eps
               for ga, gb in zip(a, b))

