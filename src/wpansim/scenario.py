"""Node configuration, mobility and the per-node energy ledger."""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .engine import SimTime, SimulationError
from .record import Record


class NodeRole(Enum):
    COORDINATOR = "coordinator"
    ROUTER = "router"
    END_DEVICE = "end_device"


class NodeClass(Enum):
    STATIONARY = "stationary"
    MOBILE = "mobile"


class NodeConfig(Record):
    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.role = NodeRole.ROUTER
        self.node_class = NodeClass.STATIONARY
        self.x = 0.0
        self.y = 0.0
        self.tx_power_dbm: float | None = None  # None -> scenario-wide default
        # None -> mobiles sleep, stationary nodes don't
        self.sleep_when_idle: bool | None = None

    @property
    def may_parent(self) -> bool:
        """Only a coordinator or a router may be the mobile's parent."""
        return self.role in (NodeRole.COORDINATOR, NodeRole.ROUTER)

    @property
    def sleeps(self) -> bool:
        if self.sleep_when_idle is None:
            return self.node_class is NodeClass.MOBILE
        return self.sleep_when_idle


class Trajectory(Record):
    """Piecewise-linear path: waypoints of (x m, y m, arrival time us)."""

    def __init__(self, waypoints: list[tuple[float, float, SimTime]]) -> None:
        self.waypoints = waypoints
        if not waypoints:
            raise ValueError("trajectory needs at least one waypoint")
        times = [w[2] for w in waypoints]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("waypoint arrival offsets must strictly increase")

    def position_at(self, t: SimTime) -> tuple[float, float]:
        wp = self.waypoints
        if t <= wp[0][2]:
            return wp[0][0], wp[0][1]
        for (x0, y0, t0), (x1, y1, t1) in zip(wp, wp[1:]):
            if t <= t1:
                # multiply before dividing: exact at waypoints, stable between
                frac_num = t - t0
                frac_den = t1 - t0
                return (x0 + (x1 - x0) * frac_num / frac_den,
                        y0 + (y1 - y0) * frac_num / frac_den)
        return wp[-1][0], wp[-1][1]

    def x_bounds(self) -> tuple[float, float]:
        xs = [w[0] for w in self.waypoints]
        return min(xs), max(xs)


class RadioMode(NamedTuple):
    """A radio state; modes compare, hash and sort by value (`name` first)."""

    name: str  # the mode's text in energy.csv
    hears: bool = False  # listening or receiving
    tx_power_dbm: float | None = None  # None unless transmitting


SLEEP = RadioMode("sleep")
LISTEN = RadioMode("listen", hears=True)
RX = RadioMode("rx", hears=True)


_TX_MODES: dict[str, RadioMode] = {}  # built once per name, not per frame; immutable


def tx_mode(power_dbm: float) -> RadioMode:
    """Transmit mode keyed by the exact power: repr round-trips, so each
    power keeps its own ledger row and levels never merge."""
    name = f"tx@{power_dbm!r}"
    if name not in _TX_MODES:
        _TX_MODES[name] = RadioMode(name, tx_power_dbm=power_dbm)
    return _TX_MODES[name]


class CurrentModel(Record):
    """Radio supply currents in mA; transmit current ramps linearly in dBm."""

    def __init__(self) -> None:
        self.tx_current_0dbm_ma = 30.0
        self.tx_current_per_dbm_ma = 1.5
        self.rx_current_ma = 30.0
        self.idle_current_ma = 30.0
        self.sleep_current_ma = 0.003

    def tx_current_ma(self, power_dbm: float) -> float:
        return self.tx_current_0dbm_ma + self.tx_current_per_dbm_ma * power_dbm

    def current_ma(self, mode: RadioMode) -> float:
        if mode.tx_power_dbm is not None:
            return self.tx_current_ma(mode.tx_power_dbm)
        return {SLEEP: self.sleep_current_ma, LISTEN: self.idle_current_ma,
                RX: self.rx_current_ma}[mode]


class EnergyLedger:
    """A node's radio: its current mode and its time per mode, exact in
    microseconds.  The only record of either; energy is derived from it."""

    def __init__(self, mode: RadioMode) -> None:
        self.mode_times: dict[RadioMode, int] = {}
        self.mode = mode
        self._since: SimTime = 0
        self._closed = False

    def transition(self, mode: RadioMode, t: SimTime) -> None:
        """Close the current mode interval at t and switch to `mode`."""
        if self._closed:
            raise SimulationError("energy ledger already closed")
        if t < self._since:
            raise SimulationError(
                f"energy transition at t={t} precedes open interval start {self._since}")
        self.mode_times[self.mode] = self.mode_times.get(self.mode, 0) + (t - self._since)
        self.mode = mode
        self._since = t

    def close(self, t: SimTime) -> None:
        self.transition(self.mode, t)
        self._closed = True

    def total_time(self) -> int:
        return sum(self.mode_times.values())

    def energy_mj(self, currents: CurrentModel, voltage: float) -> float:
        return sum(self.breakdown_mj(currents, voltage).values())

    def breakdown_mj(self, currents: CurrentModel,
                     voltage: float) -> dict[RadioMode, float]:
        return {mode: currents.current_ma(mode) * voltage * t / 1_000_000
                for mode, t in sorted(self.mode_times.items())}
