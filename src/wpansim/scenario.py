"""Node configuration, mobility and the per-node energy ledger."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .engine import SimTime, SimulationError


class NodeRole(Enum):
    COORDINATOR = "coordinator"
    ROUTER = "router"
    END_DEVICE = "end_device"


class NodeClass(Enum):
    STATIONARY = "stationary"
    MOBILE = "mobile"


@dataclass
class NodeConfig:
    node_id: int
    role: NodeRole
    node_class: NodeClass = NodeClass.STATIONARY
    x: float = 0.0
    y: float = 0.0
    antenna_gain_db: float = 0.0
    tx_power_dbm: float | None = None  # None -> scenario-wide default
    sleep_when_idle: bool | None = None  # None -> mobiles sleep, stationary don't

    @property
    def sleeps(self) -> bool:
        if self.sleep_when_idle is None:
            return self.node_class is NodeClass.MOBILE
        return self.sleep_when_idle


@dataclass
class Trajectory:
    """Piecewise-linear path: waypoints of (x m, y m, arrival time us)."""

    waypoints: list[tuple[float, float, SimTime]]

    def __post_init__(self) -> None:
        if not self.waypoints:
            raise ValueError("trajectory needs at least one waypoint")
        times = [w[2] for w in self.waypoints]
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

    @property
    def end_time(self) -> SimTime:
        return self.waypoints[-1][2]

    def x_bounds(self) -> tuple[float, float]:
        xs = [w[0] for w in self.waypoints]
        return min(xs), max(xs)


@dataclass
class CurrentModel:
    """Radio supply currents in mA; transmit current ramps linearly in dBm."""

    tx_current_0dbm_ma: float = 30.0
    tx_current_per_dbm_ma: float = 1.5
    rx_current_ma: float = 30.0
    idle_current_ma: float = 30.0
    sleep_current_ma: float = 0.003

    def tx_current_ma(self, power_dbm: float) -> float:
        return self.tx_current_0dbm_ma + self.tx_current_per_dbm_ma * power_dbm

    def current_ma(self, mode: str) -> float:
        if mode.startswith("tx@"):
            return self.tx_current_ma(float(mode[3:]))
        if mode == "rx":
            return self.rx_current_ma
        if mode == "listen":
            return self.idle_current_ma
        if mode == "sleep":
            return self.sleep_current_ma
        raise ValueError(f"unknown radio mode {mode!r}")


MODE_SLEEP = "sleep"
MODE_LISTEN = "listen"
MODE_RX = "rx"


def tx_mode(power_dbm: float) -> str:
    return f"tx@{power_dbm:.1f}"


class EnergyLedger:
    """Accumulates per-mode radio time for one node, exact in microseconds."""

    def __init__(self, start: SimTime = 0, mode: str = MODE_LISTEN) -> None:
        self.mode_times: dict[str, int] = {}
        self._mode = mode
        self._since: SimTime = start
        self._start: SimTime = start
        self._closed = False

    @property
    def mode(self) -> str:
        return self._mode

    def transition(self, mode: str, t: SimTime) -> None:
        """Close the current mode interval at t and switch to `mode`."""
        if self._closed:
            raise SimulationError("energy ledger already closed")
        if t < self._since:
            raise SimulationError(
                f"energy transition at t={t} precedes open interval start {self._since}")
        self.mode_times[self._mode] = self.mode_times.get(self._mode, 0) + (t - self._since)
        self._mode = mode
        self._since = t

    def close(self, t: SimTime) -> None:
        if not self._closed:
            self.transition(self._mode, t)
            self._closed = True

    def total_time(self) -> int:
        return sum(self.mode_times.values())

    def energy_mj(self, currents: CurrentModel, voltage: float) -> float:
        return sum(currents.current_ma(mode) * voltage * t / 1_000_000
                   for mode, t in sorted(self.mode_times.items()))

    def breakdown_mj(self, currents: CurrentModel, voltage: float) -> dict[str, float]:
        return {mode: currents.current_ma(mode) * voltage * t / 1_000_000
                for mode, t in sorted(self.mode_times.items())}


@dataclass
class EnergyReport:
    """Per-node energy breakdown for one completed run."""

    seed: int
    duration_us: SimTime
    trajectory_key: tuple
    per_node_mj: dict[int, float] = field(default_factory=dict)
    per_node_modes: dict[int, dict[str, float]] = field(default_factory=dict)
    per_node_mode_times: dict[int, dict[str, int]] = field(default_factory=dict)


def build_energy_report(seed: int, duration_us: SimTime, trajectory: Trajectory,
                        ledgers: dict[int, EnergyLedger],
                        currents: CurrentModel, voltage: float) -> EnergyReport:
    report = EnergyReport(seed=seed, duration_us=duration_us,
                          trajectory_key=tuple(trajectory.waypoints))
    for node_id, ledger in sorted(ledgers.items()):
        report.per_node_mj[node_id] = ledger.energy_mj(currents, voltage)
        report.per_node_modes[node_id] = ledger.breakdown_mj(currents, voltage)
        report.per_node_mode_times[node_id] = dict(sorted(ledger.mode_times.items()))
    return report


def energy_delta_pct(baseline: EnergyReport, proposed: EnergyReport,
                     node_id: int) -> float:
    """Percentage saving of proposed vs baseline, (base - prop) / base * 100.

    Refuses to compare runs that do not share seed, duration and trajectory.
    """
    if (baseline.seed != proposed.seed
            or baseline.duration_us != proposed.duration_us
            or baseline.trajectory_key != proposed.trajectory_key):
        raise ValueError("energy comparison requires paired runs "
                         "(same seed, duration and trajectory)")
    base = baseline.per_node_mj[node_id]
    prop = proposed.per_node_mj[node_id]
    if base == 0.0:
        return 0.0
    return (base - prop) / base * 100.0
