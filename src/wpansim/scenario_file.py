"""Scenario file schema: strict key-value sections with explicit units.

Format: INI-like sections of `key = value` lines, `#` comments, blank lines
ignored.  Every physical quantity carries a unit suffix (`100 ms`, `-70 dBm`,
`7.5 m`, `30 mA`, `20 B`).  Unknown sections or keys are rejected with the
offending line number; so are missing or wrong units.  A scenario file plus
a seed fully determines a run.

Sections and keys (defaults in parentheses):

    [run]        duration (15 s), seed (42)
    [phy]        band (2400), channel (11), tx_power (dBm), power_levels,
                 rx_sensitivity (dBm), pl0 (dB), path_loss_exponent,
                 lq_saturation_margin (40 dB), phy_overhead (6 B)
    [csma]       mac_min_be (3), mac_max_be (5), max_csma_backoffs (4),
                 max_frame_retries (3), unit_backoff (320 us),
                 ack_wait (864 us), turnaround (192 us)
    [mac]        beacon_order (15), mac_header (9 B), ack_header (5 B)
    [node <id>]  role, class, x (m), y (m), antenna_gain (dB),
                 tx_power (dBm, optional override), sleep (on/off)
    [trajectory] waypoint = <x> m, <y> m, <t> s   (repeatable, ordered),
                 move_tick (100 ms)
    [traffic]    period (100 ms), payload (20 B)
    [tpc]        enabled, lq_target (64), lq_hysteresis (16), window (1 s)
    [handover]   mode (broadcast|scan), probe_window (50 ms),
                 probe_retry (200 ms), scan_response_timeout (50 ms),
                 lq_retrigger_cooldown (500 ms), ack_fail_threshold (2),
                 degraded_ack_fail_threshold (1)
    [energy]     supply_voltage (3.0 V), tx_current_0dbm (30 mA),
                 tx_current_per_dbm (1.5 mA), rx_current (30 mA),
                 idle_current (30 mA), sleep_current (0.003 mA)
    [sweep]      powers = 0 2 3 4 5 6 dBm
    [compare]    reference_latency_delta (1.2 s),
                 reference_energy_delta (42.8 %)

Range checks: duration >= 0, traffic period and move_tick > 0, and
mac_header + payload (or the largest control payload) <= 127 B, as is
ack_header (aMaxPHYPacketSize).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from pathlib import Path

from .mac import CONTROL_PAYLOAD, CsmaParams
from .phy import BANDS, Band, PhyParams
from .scenario import CurrentModel, NodeClass, NodeConfig, NodeRole, Trajectory


class ScenarioError(Exception):
    def __init__(self, message: str, line: int | None = None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


_TIME_UNITS = {"us": 1, "ms": 1_000, "s": 1_000_000}
_CURRENT_UNITS = {"mA": 1.0, "uA": 0.001}

# Smallest accepted value of these times, in us.  The period and the move
# tick reschedule an event after themselves, so zero would stop the clock.
_MIN_TIME_US = {("run", "duration"): 0, ("traffic", "period"): 1,
                ("trajectory", "move_tick"): 1}

MAX_FRAME_BYTES = 127  # aMaxPHYPacketSize: MAC header plus payload


def _parse_quantity(text: str, dimension: str, key: str, line: int):
    parts = text.split()
    if dimension == "time":
        if len(parts) != 2 or parts[1] not in _TIME_UNITS:
            raise ScenarioError(
                f"key '{key}': expected '<number> us|ms|s', got {text!r}", line)
        return int(round(_number(parts[0], key, line) * _TIME_UNITS[parts[1]]))
    if dimension in ("power", "gain", "length", "voltage", "percent", "current", "bytes"):
        unit = {"power": "dBm", "gain": "dB", "length": "m", "voltage": "V",
                "percent": "%", "bytes": "B"}.get(dimension)
        if dimension == "current":
            if len(parts) != 2 or parts[1] not in _CURRENT_UNITS:
                raise ScenarioError(
                    f"key '{key}': expected '<number> mA|uA', got {text!r}", line)
            return _number(parts[0], key, line) * _CURRENT_UNITS[parts[1]]
        if len(parts) != 2 or parts[1] != unit:
            raise ScenarioError(
                f"key '{key}': expected '<number> {unit}', got {text!r}", line)
        value = _number(parts[0], key, line)
        return int(value) if dimension == "bytes" else value
    raise AssertionError(dimension)


def _number(text: str, key: str, line: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise ScenarioError(f"key '{key}': {text!r} is not a number", line) from None


def _parse_int(text: str, key: str, line: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ScenarioError(f"key '{key}': {text!r} is not an integer", line) from None


def _parse_bool(text: str, key: str, line: int) -> bool:
    t = text.strip().lower()
    if t in ("on", "true", "yes", "1"):
        return True
    if t in ("off", "false", "no", "0"):
        return False
    raise ScenarioError(f"key '{key}': expected on/off, got {text!r}", line)


def _parse_power_list(text: str, key: str, line: int) -> tuple[float, ...]:
    parts = text.replace(",", " ").split()
    if len(parts) < 2 or parts[-1] != "dBm":
        raise ScenarioError(
            f"key '{key}': expected '<numbers...> dBm', got {text!r}", line)
    return tuple(_number(p, key, line) for p in parts[:-1])


@dataclass
class MacConfig:
    beacon_order: int = 15
    mac_header_bytes: int = 9
    ack_header_bytes: int = 5


@dataclass
class TpcConfig:
    enabled: bool = True
    lq_target: int = 64
    lq_hysteresis: int = 16
    window_us: int = 1_000_000


@dataclass
class HandoverConfig:
    mode: str = "broadcast"  # broadcast | scan
    probe_window_us: int = 50_000
    probe_retry_us: int = 200_000
    scan_response_timeout_us: int = 50_000
    lq_retrigger_cooldown_us: int = 500_000
    ack_fail_threshold: int = 2
    degraded_ack_fail_threshold: int = 1


@dataclass
class TrafficConfig:
    period_us: int = 100_000
    payload_bytes: int = 20


@dataclass
class ScenarioConfig:
    duration_us: int = 15_000_000
    seed: int = 42
    band: Band = BANDS["2400"]
    channel: int = 11
    phy: PhyParams = field(default_factory=PhyParams)
    csma: CsmaParams = field(default_factory=CsmaParams)
    mac: MacConfig = field(default_factory=MacConfig)
    nodes: list[NodeConfig] = field(default_factory=list)
    trajectory: Trajectory = field(default_factory=lambda: Trajectory(
        [(0.0, 0.0, 0), (15.0, 0.0, 15_000_000)]))
    move_tick_us: int = 100_000
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    tpc: TpcConfig = field(default_factory=TpcConfig)
    handover: HandoverConfig = field(default_factory=HandoverConfig)
    currents: CurrentModel = field(default_factory=CurrentModel)
    supply_voltage: float = 3.0
    sweep_powers: tuple[float, ...] = (0.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    reference_latency_delta_us: int = 1_200_000
    reference_energy_delta_pct: float = 42.8

    def stationary_nodes(self) -> list[NodeConfig]:
        return [n for n in self.nodes if n.node_class is NodeClass.STATIONARY]

    def mobile_node(self) -> NodeConfig | None:
        mobiles = [n for n in self.nodes if n.node_class is NodeClass.MOBILE]
        return mobiles[0] if mobiles else None

    def clone(self, *, seed: int | None = None, power_override: float | None = None,
              tpc_enabled: bool | None = None, handover_mode: str | None = None,
              duration_us: int | None = None,
              mobile_power: float | None = None) -> "ScenarioConfig":
        cfg = copy.deepcopy(self)
        if seed is not None:
            cfg.seed = seed
        if duration_us is not None:
            cfg.duration_us = duration_us
        if power_override is not None:
            cfg.phy.tx_power_dbm = power_override
            for node in cfg.nodes:
                node.tx_power_dbm = None  # everyone follows the override
        if tpc_enabled is not None:
            cfg.tpc.enabled = tpc_enabled
        if handover_mode is not None:
            cfg.handover.mode = handover_mode
        if mobile_power is not None:
            for node in cfg.nodes:
                if node.node_class is NodeClass.MOBILE:
                    node.tx_power_dbm = mobile_power
        return cfg


_ROLES = {r.value: r for r in NodeRole}
_CLASSES = {c.value: c for c in NodeClass}

# section -> key -> handler tag
_SCHEMA: dict[str, dict[str, str]] = {
    "run": {"duration": "time", "seed": "int"},
    "phy": {"band": "band", "channel": "int", "tx_power": "power",
            "power_levels": "power_list", "rx_sensitivity": "power",
            "pl0": "gain", "path_loss_exponent": "float",
            "lq_saturation_margin": "gain", "phy_overhead": "bytes"},
    "csma": {"mac_min_be": "int", "mac_max_be": "int", "max_csma_backoffs": "int",
             "max_frame_retries": "int", "unit_backoff": "time",
             "ack_wait": "time", "turnaround": "time"},
    "mac": {"beacon_order": "int", "mac_header": "bytes", "ack_header": "bytes"},
    "node": {"role": "role", "class": "class", "x": "length", "y": "length",
             "antenna_gain": "gain", "tx_power": "power", "sleep": "bool"},
    "trajectory": {"waypoint": "waypoint", "move_tick": "time"},
    "traffic": {"period": "time", "payload": "bytes"},
    "tpc": {"enabled": "bool", "lq_target": "int", "lq_hysteresis": "int",
            "window": "time"},
    "handover": {"mode": "handover_mode", "probe_window": "time",
                 "probe_retry": "time", "scan_response_timeout": "time",
                 "lq_retrigger_cooldown": "time", "ack_fail_threshold": "int",
                 "degraded_ack_fail_threshold": "int"},
    "energy": {"supply_voltage": "voltage", "tx_current_0dbm": "current",
               "tx_current_per_dbm": "current", "rx_current": "current",
               "idle_current": "current", "sleep_current": "current"},
    "sweep": {"powers": "power_list"},
    "compare": {"reference_latency_delta": "time",
                "reference_energy_delta": "percent"},
}


def parse_scenario(text: str, source: str = "<scenario>") -> ScenarioConfig:
    cfg = ScenarioConfig()
    cfg.nodes = []
    waypoints: list[tuple[float, float, int]] = []
    section: str | None = None
    node: NodeConfig | None = None
    seen_sections: set[str] = set()
    key_lines: dict[str, int] = {}  # "section.key" -> line that set it

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            header = stripped[1:-1].strip()
            parts = header.split()
            name = parts[0]
            if name == "node":
                if len(parts) != 2:
                    raise ScenarioError("node section needs an id: [node <id>]", lineno)
                node_id = _parse_int(parts[1], "node id", lineno)
                if any(n.node_id == node_id for n in cfg.nodes):
                    raise ScenarioError(f"duplicate node id {node_id}", lineno)
                node = NodeConfig(node_id=node_id, role=NodeRole.ROUTER)
                cfg.nodes.append(node)
                section = "node"
            elif name in _SCHEMA:
                if len(parts) != 1:
                    raise ScenarioError(f"section [{header}] takes no argument", lineno)
                if name in seen_sections:
                    raise ScenarioError(f"duplicate section [{name}]", lineno)
                seen_sections.add(name)
                section = name
                node = None
            else:
                raise ScenarioError(f"unknown section [{header}]", lineno)
            continue
        if "=" not in stripped:
            raise ScenarioError(f"expected 'key = value', got {stripped!r}", lineno)
        if section is None:
            raise ScenarioError("key outside any section", lineno)
        key, value = (p.strip() for p in stripped.split("=", 1))
        schema = _SCHEMA[section]
        if key not in schema:
            raise ScenarioError(f"unknown key '{key}' in section [{section}]", lineno)
        _apply(cfg, node, waypoints, section, key, schema[key], value, lineno)
        key_lines[f"{section}.{key}"] = lineno

    if waypoints:
        try:
            cfg.trajectory = Trajectory(waypoints)
        except ValueError as exc:
            raise ScenarioError(f"trajectory: {exc}") from None
    _validate(cfg, source, key_lines)
    return cfg


def _apply(cfg: ScenarioConfig, node: NodeConfig | None, waypoints: list,
           section: str, key: str, tag: str, value: str, lineno: int) -> None:
    if tag == "time":
        parsed = _parse_quantity(value, "time", key, lineno)
        floor = _MIN_TIME_US.get((section, key))
        if floor is not None and parsed < floor:
            raise ScenarioError(f"key '{key}': must be "
                                f"{'positive' if floor else 'zero or more'}, "
                                f"got {value!r}", lineno)
    elif tag in ("power", "gain", "length", "voltage", "percent", "current", "bytes"):
        parsed = _parse_quantity(value, tag, key, lineno)
    elif tag == "int":
        parsed = _parse_int(value, key, lineno)
    elif tag == "float":
        parsed = _number(value, key, lineno)
    elif tag == "bool":
        parsed = _parse_bool(value, key, lineno)
    elif tag == "power_list":
        parsed = _parse_power_list(value, key, lineno)
    elif tag == "band":
        if value not in BANDS:
            raise ScenarioError(f"key 'band': unknown band {value!r} "
                                f"(choices: {', '.join(BANDS)})", lineno)
        parsed = BANDS[value]
    elif tag == "role":
        if value not in _ROLES:
            raise ScenarioError(f"key 'role': unknown role {value!r}", lineno)
        parsed = _ROLES[value]
    elif tag == "class":
        if value not in _CLASSES:
            raise ScenarioError(f"key 'class': unknown class {value!r}", lineno)
        parsed = _CLASSES[value]
    elif tag == "handover_mode":
        if value not in ("broadcast", "scan"):
            raise ScenarioError(f"key 'mode': expected broadcast|scan, got {value!r}",
                                lineno)
        parsed = value
    elif tag == "waypoint":
        fields = [f.strip() for f in value.split(",")]
        if len(fields) != 3:
            raise ScenarioError("key 'waypoint': expected '<x> m, <y> m, <t> s'", lineno)
        x = _parse_quantity(fields[0], "length", "waypoint.x", lineno)
        y = _parse_quantity(fields[1], "length", "waypoint.y", lineno)
        t = _parse_quantity(fields[2], "time", "waypoint.t", lineno)
        waypoints.append((x, y, t))
        return
    else:
        raise AssertionError(tag)

    if section == "run":
        setattr(cfg, {"duration": "duration_us", "seed": "seed"}[key], parsed)
    elif section == "phy":
        if key == "band":
            cfg.band = parsed
        elif key == "channel":
            cfg.channel = parsed
        else:
            attr = {"tx_power": "tx_power_dbm", "power_levels": "power_levels_dbm",
                    "rx_sensitivity": "rx_sensitivity_dbm", "pl0": "pl0_db",
                    "path_loss_exponent": "path_loss_exponent",
                    "lq_saturation_margin": "lq_saturation_margin_db",
                    "phy_overhead": "phy_overhead_bytes"}[key]
            setattr(cfg.phy, attr, parsed)
    elif section == "csma":
        attr = {"mac_min_be": "mac_min_be", "mac_max_be": "mac_max_be",
                "max_csma_backoffs": "max_csma_backoffs",
                "max_frame_retries": "max_frame_retries",
                "unit_backoff": "unit_backoff_us", "ack_wait": "ack_wait_us",
                "turnaround": "turnaround_us"}[key]
        setattr(cfg.csma, attr, parsed)
    elif section == "mac":
        attr = {"beacon_order": "beacon_order", "mac_header": "mac_header_bytes",
                "ack_header": "ack_header_bytes"}[key]
        setattr(cfg.mac, attr, parsed)
    elif section == "node":
        assert node is not None
        if key == "role":
            node.role = parsed
        elif key == "class":
            node.node_class = parsed
        elif key == "x":
            node.x = parsed
        elif key == "y":
            node.y = parsed
        elif key == "antenna_gain":
            node.antenna_gain_db = parsed
        elif key == "tx_power":
            node.tx_power_dbm = parsed
        elif key == "sleep":
            node.sleep_when_idle = parsed
    elif section == "trajectory":
        cfg.move_tick_us = parsed
    elif section == "traffic":
        setattr(cfg.traffic, {"period": "period_us", "payload": "payload_bytes"}[key],
                parsed)
    elif section == "tpc":
        setattr(cfg.tpc, {"enabled": "enabled", "lq_target": "lq_target",
                          "lq_hysteresis": "lq_hysteresis", "window": "window_us"}[key],
                parsed)
    elif section == "handover":
        setattr(cfg.handover,
                {"mode": "mode", "probe_window": "probe_window_us",
                 "probe_retry": "probe_retry_us",
                 "scan_response_timeout": "scan_response_timeout_us",
                 "lq_retrigger_cooldown": "lq_retrigger_cooldown_us",
                 "ack_fail_threshold": "ack_fail_threshold",
                 "degraded_ack_fail_threshold": "degraded_ack_fail_threshold"}[key],
                parsed)
    elif section == "energy":
        if key == "supply_voltage":
            cfg.supply_voltage = parsed
        else:
            attr = {"tx_current_0dbm": "tx_current_0dbm_ma",
                    "tx_current_per_dbm": "tx_current_per_dbm_ma",
                    "rx_current": "rx_current_ma", "idle_current": "idle_current_ma",
                    "sleep_current": "sleep_current_ma"}[key]
            setattr(cfg.currents, attr, parsed)
    elif section == "sweep":
        cfg.sweep_powers = parsed
    elif section == "compare":
        if key == "reference_latency_delta":
            cfg.reference_latency_delta_us = parsed
        else:
            cfg.reference_energy_delta_pct = parsed


def _validate(cfg: ScenarioConfig, source: str, key_lines: dict[str, int]) -> None:
    coordinators = [n for n in cfg.nodes if n.role is NodeRole.COORDINATOR]
    if len(coordinators) > 1:
        raise ScenarioError(f"{source}: more than one coordinator configured")
    if cfg.stationary_nodes() and not coordinators:
        raise ScenarioError(f"{source}: stationary nodes present but no coordinator")
    mobiles = [n for n in cfg.nodes if n.node_class is NodeClass.MOBILE]
    if len(mobiles) > 1:
        raise ScenarioError(f"{source}: at most one mobile node is supported")
    for n in mobiles:
        if n.role is not NodeRole.END_DEVICE:
            raise ScenarioError(f"{source}: mobile node {n.node_id} must be an end_device")
    if cfg.csma.mac_min_be > cfg.csma.mac_max_be:
        raise ScenarioError(f"{source}: mac_min_be exceeds mac_max_be")
    if cfg.phy.tx_power_dbm not in cfg.phy.power_levels_dbm:
        raise ScenarioError(
            f"{source}: tx_power {cfg.phy.tx_power_dbm} dBm not in power_levels")
    if not 0 <= cfg.mac.beacon_order <= 15:
        raise ScenarioError(f"{source}: beacon_order must be 0..15")
    if cfg.channel not in cfg.band.channels:
        raise ScenarioError(
            f"{source}: channel {cfg.channel} not in band {cfg.band.name}")
    header = cfg.mac.mac_header_bytes
    payload = max(cfg.traffic.payload_bytes, *CONTROL_PAYLOAD.values())
    if header + payload > MAX_FRAME_BYTES:
        line = max(key_lines.get("mac.mac_header", 0),
                   key_lines.get("traffic.payload", 0))
        raise ScenarioError(
            f"{source}: largest frame, mac_header {header} B + payload "
            f"{payload} B, exceeds the {MAX_FRAME_BYTES} B frame limit", line or None)
    if cfg.mac.ack_header_bytes > MAX_FRAME_BYTES:
        raise ScenarioError(
            f"{source}: ack_header {cfg.mac.ack_header_bytes} B exceeds the "
            f"{MAX_FRAME_BYTES} B frame limit", key_lines.get("mac.ack_header"))


def load_scenario(path: str | Path) -> ScenarioConfig:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {p}: {exc}") from None
    return parse_scenario(text, source=str(p))


def _fmt_time(us: int) -> str:
    if us % 1_000_000 == 0:
        return f"{us // 1_000_000} s"
    if us % 1_000 == 0:
        return f"{us // 1_000} ms"
    return f"{us} us"


def render_scenario(cfg: ScenarioConfig, header: str = "",
                    notes: dict[str, str] | None = None) -> str:
    """Serialize a config back to scenario-file text (round-trips parse)."""
    notes = notes or {}

    def line(section: str, key: str, value: str) -> str:
        note = notes.get(f"{section}.{key}")
        return f"{key} = {value}" + (f"    # {note}" if note else "")

    out: list[str] = []
    if header:
        out.extend(f"# {h}" for h in header.splitlines())
        out.append("")
    out.append("[run]")
    out.append(line("run", "duration", _fmt_time(cfg.duration_us)))
    out.append(line("run", "seed", str(cfg.seed)))
    out.append("")
    out.append("[phy]")
    out.append(line("phy", "band", cfg.band.name))
    out.append(line("phy", "channel", str(cfg.channel)))
    out.append(line("phy", "tx_power", f"{cfg.phy.tx_power_dbm:g} dBm"))
    levels = " ".join(f"{p:g}" for p in cfg.phy.power_levels_dbm)
    out.append(line("phy", "power_levels", f"{levels} dBm"))
    out.append(line("phy", "rx_sensitivity", f"{cfg.phy.rx_sensitivity_dbm:g} dBm"))
    out.append(line("phy", "pl0", f"{cfg.phy.pl0_db:g} dB"))
    out.append(line("phy", "path_loss_exponent", f"{cfg.phy.path_loss_exponent:g}"))
    out.append(line("phy", "lq_saturation_margin",
                    f"{cfg.phy.lq_saturation_margin_db:g} dB"))
    out.append(line("phy", "phy_overhead", f"{cfg.phy.phy_overhead_bytes} B"))
    out.append("")
    out.append("[csma]")
    out.append(line("csma", "mac_min_be", str(cfg.csma.mac_min_be)))
    out.append(line("csma", "mac_max_be", str(cfg.csma.mac_max_be)))
    out.append(line("csma", "max_csma_backoffs", str(cfg.csma.max_csma_backoffs)))
    out.append(line("csma", "max_frame_retries", str(cfg.csma.max_frame_retries)))
    out.append(line("csma", "unit_backoff", _fmt_time(cfg.csma.unit_backoff_us)))
    out.append(line("csma", "ack_wait", _fmt_time(cfg.csma.ack_wait_us)))
    out.append(line("csma", "turnaround", _fmt_time(cfg.csma.turnaround_us)))
    out.append("")
    out.append("[mac]")
    out.append(line("mac", "beacon_order", str(cfg.mac.beacon_order)))
    out.append(line("mac", "mac_header", f"{cfg.mac.mac_header_bytes} B"))
    out.append(line("mac", "ack_header", f"{cfg.mac.ack_header_bytes} B"))
    out.append("")
    for node in cfg.nodes:
        out.append(f"[node {node.node_id}]")
        out.append(line("node", "role", node.role.value))
        out.append(line("node", "class", node.node_class.value))
        if node.node_class is NodeClass.STATIONARY:
            out.append(line("node", "x", f"{node.x:g} m"))
            out.append(line("node", "y", f"{node.y:g} m"))
        if node.antenna_gain_db:
            out.append(line("node", "antenna_gain", f"{node.antenna_gain_db:g} dB"))
        if node.tx_power_dbm is not None:
            out.append(line("node", "tx_power", f"{node.tx_power_dbm:g} dBm"))
        if node.sleep_when_idle is not None:
            out.append(line("node", "sleep", "on" if node.sleep_when_idle else "off"))
        out.append("")
    out.append("[trajectory]")
    for x, y, t in cfg.trajectory.waypoints:
        out.append(line("trajectory", "waypoint",
                        f"{x:g} m, {y:g} m, {_fmt_time(t)}"))
    out.append(line("trajectory", "move_tick", _fmt_time(cfg.move_tick_us)))
    out.append("")
    out.append("[traffic]")
    out.append(line("traffic", "period", _fmt_time(cfg.traffic.period_us)))
    out.append(line("traffic", "payload", f"{cfg.traffic.payload_bytes} B"))
    out.append("")
    out.append("[tpc]")
    out.append(line("tpc", "enabled", "on" if cfg.tpc.enabled else "off"))
    out.append(line("tpc", "lq_target", str(cfg.tpc.lq_target)))
    out.append(line("tpc", "lq_hysteresis", str(cfg.tpc.lq_hysteresis)))
    out.append(line("tpc", "window", _fmt_time(cfg.tpc.window_us)))
    out.append("")
    out.append("[handover]")
    out.append(line("handover", "mode", cfg.handover.mode))
    out.append(line("handover", "probe_window", _fmt_time(cfg.handover.probe_window_us)))
    out.append(line("handover", "probe_retry", _fmt_time(cfg.handover.probe_retry_us)))
    out.append(line("handover", "scan_response_timeout",
                    _fmt_time(cfg.handover.scan_response_timeout_us)))
    out.append(line("handover", "lq_retrigger_cooldown",
                    _fmt_time(cfg.handover.lq_retrigger_cooldown_us)))
    out.append(line("handover", "ack_fail_threshold",
                    str(cfg.handover.ack_fail_threshold)))
    out.append(line("handover", "degraded_ack_fail_threshold",
                    str(cfg.handover.degraded_ack_fail_threshold)))
    out.append("")
    out.append("[energy]")
    out.append(line("energy", "supply_voltage", f"{cfg.supply_voltage:g} V"))
    out.append(line("energy", "tx_current_0dbm",
                    f"{cfg.currents.tx_current_0dbm_ma:g} mA"))
    out.append(line("energy", "tx_current_per_dbm",
                    f"{cfg.currents.tx_current_per_dbm_ma:g} mA"))
    out.append(line("energy", "rx_current", f"{cfg.currents.rx_current_ma:g} mA"))
    out.append(line("energy", "idle_current", f"{cfg.currents.idle_current_ma:g} mA"))
    out.append(line("energy", "sleep_current", f"{cfg.currents.sleep_current_ma:g} mA"))
    out.append("")
    out.append("[sweep]")
    powers = " ".join(f"{p:g}" for p in cfg.sweep_powers)
    out.append(line("sweep", "powers", f"{powers} dBm"))
    out.append("")
    out.append("[compare]")
    out.append(line("compare", "reference_latency_delta",
                    _fmt_time(cfg.reference_latency_delta_us)))
    out.append(line("compare", "reference_energy_delta",
                    f"{cfg.reference_energy_delta_pct:g} %"))
    out.append("")
    return "\n".join(out)
