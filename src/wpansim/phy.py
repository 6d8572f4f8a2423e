"""Channel plan, data-rate tables, beacon arithmetic and the link budget.

Propagation is a deterministic log-distance model:

    PL(d) = pl0 + 10 * n * log10(d / 1 m)            [dB]
    rx    = tx - PL(d)                               [dBm]

No fading or shadowing: coverage is a sharp threshold phenomenon, which is
what makes gap boundaries exactly reproducible.  Link quality maps the
received margin over sensitivity linearly onto 0..255, saturating at
`lq_saturation_margin` dB above sensitivity.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .engine import SimTime
from .record import Record

MIN_DISTANCE_M = 0.1  # distances below this are clamped


class Band(NamedTuple):
    name: str
    data_rate_kbps: int
    channels: range
    beacon_base_us: SimTime  # the beacon interval at beacon order 0, exact


B2400 = Band("2400", 250, range(11, 27), 15_360)
B915 = Band("915", 40, range(1, 11), 24_000)
B868 = Band("868", 20, range(0, 1), 48_000)

BANDS = {"2400": B2400, "915": B915, "868": B868}

NO_BEACONS = 15  # beacon order value meaning non-beacon mode


class PhyParams(Record):
    def __init__(self) -> None:
        self.tx_power_dbm = 0.0
        self.rx_sensitivity_dbm = -70.0
        self.pl0_db = 52.0
        self.path_loss_exponent = 3.3
        self.lq_saturation_margin_db = 40.0
        self.phy_overhead_bytes = 6
        self.power_levels_dbm = (0.0, 2.0, 3.0, 4.0, 5.0, 6.0)


def beacon_interval(bo: int, band: Band) -> SimTime:
    """Beacon interval base(band) * 2**bo in integer microseconds."""
    if not 0 <= bo <= 14:
        raise ValueError(f"beacon order {bo} outside 0..14 "
                         "(15 means non-beacon mode, not an interval)")
    return band.beacon_base_us << bo


def heard(rx_dbm: float, params: PhyParams) -> bool:
    """The one reception rule: heard iff rx strictly exceeds sensitivity."""
    return rx_dbm > params.rx_sensitivity_dbm


def lq_from_rx_power(rx_dbm: float, params: PhyParams) -> int:
    """Map received power onto the 0..255 link-quality scale.

    0 iff rx <= sensitivity, 255 iff rx >= sensitivity + saturation margin;
    linear in dB in between, rounded half up.  The interior is clamped to
    1..254 so the endpoint identities hold exactly.
    """
    if not heard(rx_dbm, params):
        return 0
    s = params.rx_sensitivity_dbm
    m = params.lq_saturation_margin_db
    if rx_dbm >= s + m:
        return 255
    q = 255.0 * (rx_dbm - s) / m
    return min(254, max(1, math.floor(q + 0.5)))


def frame_airtime(frame_bytes: int, band: Band) -> SimTime:
    """Over-the-air duration in integer microseconds, rounded up."""
    if frame_bytes < 1:
        raise ValueError("frame must be at least 1 byte")
    bits = frame_bytes * 8
    return -(-bits * 1000 // band.data_rate_kbps)


def link_rx_power(distance_m: float, tx_dbm: float, params: PhyParams) -> float:
    """The one link budget: received power in dBm at `distance_m`."""
    d = max(distance_m, MIN_DISTANCE_M)
    pl_db = params.pl0_db + 10.0 * params.path_loss_exponent * math.log10(d)
    # + 0.0: -0 dBm over a 0 dB loss is 0.0, not -0.0, which traces print apart.
    return (tx_dbm + 0.0) - pl_db


def comm_range_m(tx_dbm: float, params: PhyParams) -> float:
    """Distance at which received power equals sensitivity exactly.

    Reception requires strictly more than sensitivity, so this radius is an
    open bound: a receiver exactly here is out of range.  A radius past the
    largest float (a tiny path-loss exponent) is math.inf: it covers the
    whole line.
    """
    margin = tx_dbm - params.pl0_db - params.rx_sensitivity_dbm
    try:
        return 10.0 ** (margin / (10.0 * params.path_loss_exponent))
    except OverflowError:
        return math.inf
