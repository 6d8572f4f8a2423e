"""Scenario file schema: strict key-value sections with explicit units.

Format: INI-like sections of `key = value` lines, `#` comments, blank lines
ignored.  Every physical quantity carries a unit suffix (`100 ms`, `-70 dBm`,
`7.5 m`, `30 mA`, `20 B`); a current is always in mA, and a switch is `on`
or `off`.  Unknown sections or keys are rejected with the offending line
number; so are missing or wrong units, and a key other than `waypoint` set
twice in one section.  A scenario file plus a seed fully determines a run.

Sections and keys (defaults in parentheses):

    [run]        duration (15 s), seed (42)
    [phy]        band (2400), channel (11), tx_power (0 dBm),
                 power_levels (0 2 3 4 5 6 dBm), rx_sensitivity (-70 dBm),
                 pl0 (52 dB), path_loss_exponent (3.3),
                 lq_saturation_margin (40 dB), phy_overhead (6 B)
    [csma]       mac_min_be (3), mac_max_be (5), max_csma_backoffs (4),
                 max_frame_retries (3), unit_backoff (320 us),
                 ack_wait (864 us), turnaround (192 us)
    [mac]        beacon_order (15), mac_header (9 B), ack_header (5 B)
    [node <id>]  role (router), class (stationary), x (m), y (m),
                 tx_power (dBm, optional override), sleep (on/off)
    [trajectory] waypoint = <x> m, <y> m, <t> s   (repeatable, ordered),
                 move_tick (100 ms)
    [traffic]    period (100 ms), payload (20 B)
    [tpc]        enabled (on), lq_target (64), lq_hysteresis (16)
    [handover]   mode (broadcast|scan), probe_window (50 ms),
                 probe_retry (200 ms), scan_response_timeout (50 ms),
                 lq_retrigger_cooldown (500 ms), ack_fail_threshold (2),
                 degraded_ack_fail_threshold (1)
    [energy]     supply_voltage (3.0 V), tx_current_0dbm (30 mA),
                 tx_current_per_dbm (1.5 mA), rx_current (30 mA),
                 idle_current (30 mA), sleep_current (0.003 mA)
    [sweep]      powers (every level of power_levels, in its order)
    [compare]    reference_latency_delta (1.2 s),
                 reference_energy_delta (42.8 %)

Rules: a node id is a unicast short address, 0..0xFFFD (0xFFFE and the
broadcast address 0xFFFF are reserved).  A rule on one key alone is part of
that key's kind in _SCHEMA and is checked at its line as it is parsed:
every number is finite; every time and byte count is zero or more and
whole (a time in us); the traffic period, move_tick and probe_retry are
positive (waypoint arrival times need only strictly increase, checked
after the last line at the last waypoint); mac_max_be is 3..8, mac_min_be
0 or more, max_csma_backoffs 0..5 and max_frame_retries 0..7 (IEEE
802.15.4-2006, Table 86); beacon_order is 0..15; lq_target and
lq_hysteresis are 0..255, the LQ scale; ack_fail_threshold and
degraded_ack_fail_threshold are 1 or more; ack_header is at most 127 B
(aMaxPHYPacketSize); a power list names each level once; the rx, idle and
sleep currents are 0 mA or more; supply_voltage, path_loss_exponent and
lq_saturation_margin are positive.  After the last line, _validate checks
the rules that tie keys together, or that cover the node list, at a line at
fault (of keys tied together, the last one set): the node roles, and a
mobile node sets no x or y (its position comes from [trajectory]);
mac_min_be <= mac_max_be; tx_power and every level of a [sweep] powers line
are among power_levels (a file without that line leaves sweep_powers None,
and sweep runs every level of power_levels); the linear TX current is
0 mA or more at every level of power_levels and at each node's tx_power
override; the channel is in its band; mac_header + payload (or the largest
control payload) <= 127 B; and no frame is empty: phy_overhead + ack_header
and phy_overhead + mac_header + payload are at least 1 B.
"""

from __future__ import annotations

import math
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, NamedTuple

from .mac import CONTROL_PAYLOAD, CsmaParams
from .phy import BANDS, PhyParams
from .record import Record
from .scenario import CurrentModel, NodeClass, NodeConfig, NodeRole, Trajectory


class ScenarioError(Exception):
    def __init__(self, message: str, line: int | None = None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


MAX_FRAME_BYTES = 127  # aMaxPHYPacketSize: MAC header plus payload
MAX_NODE_ID = 0xFFFD  # the last unicast short address


def _number(text: str, key: str, line: int, scale: float = 1.0) -> float:
    """float(text) times scale; nan, inf and an overflowing product are errors."""
    try:
        value = float(text) * scale
    except ValueError:
        raise ScenarioError(f"key '{key}': {text!r} is not a number", line) from None
    if not math.isfinite(value):
        raise ScenarioError(
            f"key '{key}': {text!r} is nan, infinite or out of range", line)
    return value


def float_text(value: float) -> str:
    """`value` as `:g` text when that reads back as the same float, else repr."""
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


def _parse_int(text: str, key: str, line: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ScenarioError(f"key '{key}': {text!r} is not an integer", line) from None


def _parse_power_list(text: str, key: str, line: int) -> tuple[float, ...]:
    parts = text.replace(",", " ").split()
    if len(parts) < 2 or parts[-1] != "dBm":
        raise ScenarioError(
            f"key '{key}': expected '<numbers...> dBm', got {text!r}", line)
    return tuple(_number(p, key, line) for p in parts[:-1])


def _scaled(text: str, units: dict[str, float], key: str, line: int) -> float:
    """'<number> <unit>' with a unit from `units`, times that unit's scale."""
    parts = text.split()
    if len(parts) != 2 or parts[1] not in units:
        raise ScenarioError(
            f"key '{key}': expected '<number> {'|'.join(units)}', got {text!r}", line)
    return _number(parts[0], key, line, units[parts[1]])


def _whole(units: dict[str, int], what: str) -> Callable[[str, str, int], int]:
    """Parses '<number> <unit>' that is a whole number of `what`.  The decimal
    times the unit's scale may miss it by an ulp (1.001 ms: 1000.9999999999999)."""
    def parse(text: str, key: str, line: int) -> int:
        value = _scaled(text, units, key, line)
        if abs(value - round(value)) > 4 * math.ulp(value):
            raise ScenarioError(
                f"key '{key}': {text!r} is not a whole number of {what}", line)
        return round(value)
    return parse


class MacConfig(Record):
    def __init__(self) -> None:
        self.beacon_order = 15
        self.mac_header_bytes = 9
        self.ack_header_bytes = 5


class TpcConfig(Record):
    def __init__(self) -> None:
        self.enabled = True
        self.lq_target = 64
        self.lq_hysteresis = 16


class HandoverConfig(Record):
    def __init__(self) -> None:
        self.mode = "broadcast"  # broadcast | scan
        self.probe_window_us = 50_000
        self.probe_retry_us = 200_000
        self.scan_response_timeout_us = 50_000
        self.lq_retrigger_cooldown_us = 500_000
        self.ack_fail_threshold = 2
        self.degraded_ack_fail_threshold = 1


class TrafficConfig(Record):
    def __init__(self) -> None:
        self.period_us = 100_000
        self.payload_bytes = 20


class ScenarioConfig(Record):
    """A whole scenario, each value at its default until the parser sets it."""

    def __init__(self) -> None:
        self.duration_us = 15_000_000
        self.seed = 42
        self.band = BANDS["2400"]
        self.channel = 11
        self.phy = PhyParams()
        self.csma = CsmaParams()
        self.mac = MacConfig()
        self.nodes: list[NodeConfig] = []
        self.trajectory = Trajectory([(0.0, 0.0, 0), (15.0, 0.0, 15_000_000)])
        self.move_tick_us = 100_000
        self.traffic = TrafficConfig()
        self.tpc = TpcConfig()
        self.handover = HandoverConfig()
        self.currents = CurrentModel()
        self.supply_voltage = 3.0
        # None: no [sweep] powers line, and sweep runs phy.power_levels_dbm
        self.sweep_powers: tuple[float, ...] | None = None
        self.reference_latency_delta_us = 1_200_000
        self.reference_energy_delta_pct = 42.8

    def stationary_nodes(self) -> list[NodeConfig]:
        return [n for n in self.nodes if n.node_class is NodeClass.STATIONARY]

    def mobile_node(self) -> NodeConfig | None:
        mobiles = [n for n in self.nodes if n.node_class is NodeClass.MOBILE]
        return mobiles[0] if mobiles else None

    def clone(self, *, seed: int | None = None) -> "ScenarioConfig":
        """An independent copy (see Record.copy), with `seed` if given."""
        cfg = self.copy()
        if seed is not None:
            cfg.seed = seed
        return cfg


class _Kind(NamedTuple):
    """How values of one kind are read from and written to a scenario file."""

    parse: Callable[[str, str, int], Any]  # (text, key, line) -> value
    render: Callable[[Any], str]


_TIME_UNITS = {"us": 1, "ms": 1_000, "s": 1_000_000}


def _fmt_time(us: int) -> str:
    if us % 1_000_000 == 0:
        return f"{us // 1_000_000} s"
    if us % 1_000 == 0:
        return f"{us // 1_000} ms"
    return f"{us} us"


def _limited(kind: _Kind, ok: Callable[[Any], bool], message: str) -> _Kind:
    """`kind` with a rule on its value alone, checked as the line is parsed:
    a value that fails `ok` is rejected with `message`, its `{}` the key."""
    def parse(text: str, key: str, line: int) -> Any:
        value = kind.parse(text, key, line)
        if not ok(value):
            raise ScenarioError(f"{message.format(key)}, got {text!r}", line)
        return value
    return _Kind(parse, kind.render)


def _quantity(unit: str) -> _Kind:
    return _Kind(lambda text, key, line: _scaled(text, {unit: 1}, key, line),
                 lambda value: f"{float_text(value)} {unit}")


def _choice(choices: dict[str, Any], error: str) -> _Kind:
    """One of the names in `choices`; `error` formats a rejected name."""
    names = {value: name for name, value in choices.items()}

    def parse(text: str, key: str, line: int) -> Any:
        if text not in choices:
            raise ScenarioError(f"key '{key}': " + error.format(text), line)
        return choices[text]
    return _Kind(parse, names.__getitem__)


_ZERO_OR_MORE, _POSITIVE = "key '{}': must be zero or more", "key '{}': must be positive"
# Waypoint arrival times need only strictly increase; other times are zero
# or more, and a time rescheduled after itself is positive, as zero would
# stop the clock.
_ANY_TIME = _Kind(_whole(_TIME_UNITS, "us"), _fmt_time)
_TIME = _limited(_ANY_TIME, lambda us: us >= 0, _ZERO_OR_MORE)
_POSITIVE_TIME = _limited(_ANY_TIME, lambda us: us > 0, _POSITIVE)
_DBM, _DB, _METRES, _VOLTS, _PERCENT, _CURRENT = map(
    _quantity, ("dBm", "dB", "m", "V", "%", "mA"))
# lq_saturation_margin is positive, or every heard frame would map to LQ 255.
_POSITIVE_DB, _POSITIVE_VOLTS = (_limited(kind, lambda v: v > 0, "{} is not positive")
                                 for kind in (_DB, _VOLTS))
_MODE_CURRENT = _limited(_CURRENT, lambda ma: ma >= 0, "{} below 0 mA")
_BYTES = _limited(_Kind(_whole({"B": 1}, "bytes"), lambda value: f"{value} B"),
                  lambda n: n >= 0, _ZERO_OR_MORE)
_INT = _Kind(_parse_int, str)
# The CSMA ranges of IEEE 802.15.4-2006, Table 86, and the LQ scale.
_MAX_BE, _BACKOFFS, _RETRIES, _LQ = (
    _limited(_INT, range(lo, hi + 1).__contains__, f"{{}} outside {lo}..{hi}")
    for lo, hi in ((3, 8), (0, 5), (0, 7), (0, 255)))
# A path-loss exponent of zero divides by zero in phy.comm_range_m, and a
# negative one makes the loss fall with distance.
_POSITIVE_FLOAT = _limited(_Kind(_number, float_text), lambda v: v > 0, _POSITIVE)
# The no-ack streak is counted before it is compared, so 0 or less acts as 1.
_THRESHOLD = _limited(_INT, lambda v: v >= 1, "key '{}': must be 1 or more")
_POWERS = _limited(_Kind(_parse_power_list,
                         lambda value: " ".join(map(float_text, value)) + " dBm"),
                   lambda levels: len(set(levels)) == len(levels),
                   "key '{}': names a level twice")
_BAND = _choice(BANDS, f"unknown band {{!r}} (choices: {', '.join(BANDS)})")
_ROLE = _choice({r.value: r for r in NodeRole}, "unknown role {!r}")
_CLASS = _choice({c.value: c for c in NodeClass}, "unknown class {!r}")
_MODE = _choice({"broadcast": "broadcast", "scan": "scan"},
                "expected broadcast|scan, got {!r}")
_BOOL = _choice({"on": True, "off": False}, "expected on/off, got {!r}")


def _parse_waypoint(text: str, key: str, line: int) -> tuple[float, float, int]:
    fields = [f.strip() for f in text.split(",")]
    if len(fields) != 3:
        raise ScenarioError("key 'waypoint': expected '<x> m, <y> m, <t> s'", line)
    return (_METRES.parse(fields[0], "waypoint.x", line),
            _METRES.parse(fields[1], "waypoint.y", line),
            _ANY_TIME.parse(fields[2], "waypoint.t", line))


_WAYPOINT = _Kind(_parse_waypoint,
                  lambda w: f"{float_text(w[0])} m, {float_text(w[1])} m, "
                            f"{_fmt_time(w[2])}")

# The whole schema, in file order: section -> key -> (attribute path, kind).
# Paths are dotted attributes of ScenarioConfig, or of NodeConfig for
# [node <id>]; `waypoint` repeats, one line per entry of its list.
_SCHEMA: dict[str, dict[str, tuple[str, _Kind]]] = {
    "run": {"duration": ("duration_us", _TIME), "seed": ("seed", _INT)},
    "phy": {"band": ("band", _BAND), "channel": ("channel", _INT),
            "tx_power": ("phy.tx_power_dbm", _DBM),
            "power_levels": ("phy.power_levels_dbm", _POWERS),
            "rx_sensitivity": ("phy.rx_sensitivity_dbm", _DBM),
            "pl0": ("phy.pl0_db", _DB),
            "path_loss_exponent": ("phy.path_loss_exponent", _POSITIVE_FLOAT),
            "lq_saturation_margin": ("phy.lq_saturation_margin_db", _POSITIVE_DB),
            "phy_overhead": ("phy.phy_overhead_bytes", _BYTES)},
    "csma": {"mac_min_be": ("csma.mac_min_be",  # at most mac_max_be: _validate
                            _limited(_INT, lambda v: v >= 0, _ZERO_OR_MORE)),
             "mac_max_be": ("csma.mac_max_be", _MAX_BE),
             "max_csma_backoffs": ("csma.max_csma_backoffs", _BACKOFFS),
             "max_frame_retries": ("csma.max_frame_retries", _RETRIES),
             "unit_backoff": ("csma.unit_backoff_us", _TIME),
             "ack_wait": ("csma.ack_wait_us", _TIME),
             "turnaround": ("csma.turnaround_us", _TIME)},
    "mac": {"beacon_order": ("mac.beacon_order", _limited(
                _INT, range(16).__contains__, "{} must be 0..15")),
            "mac_header": ("mac.mac_header_bytes", _BYTES),
            "ack_header": ("mac.ack_header_bytes", _limited(
                _BYTES, lambda n: n <= MAX_FRAME_BYTES,
                f"{{}} exceeds the {MAX_FRAME_BYTES} B frame limit"))},
    "node": {"role": ("role", _ROLE), "class": ("node_class", _CLASS),
             "x": ("x", _METRES), "y": ("y", _METRES),
             "tx_power": ("tx_power_dbm", _DBM), "sleep": ("sleep_when_idle", _BOOL)},
    "trajectory": {"waypoint": ("trajectory.waypoints", _WAYPOINT),
                   "move_tick": ("move_tick_us", _POSITIVE_TIME)},
    "traffic": {"period": ("traffic.period_us", _POSITIVE_TIME),
                "payload": ("traffic.payload_bytes", _BYTES)},
    "tpc": {"enabled": ("tpc.enabled", _BOOL), "lq_target": ("tpc.lq_target", _LQ),
            "lq_hysteresis": ("tpc.lq_hysteresis", _LQ)},
    "handover": {"mode": ("handover.mode", _MODE),
                 "probe_window": ("handover.probe_window_us", _TIME),
                 "probe_retry": ("handover.probe_retry_us", _POSITIVE_TIME),
                 "scan_response_timeout": ("handover.scan_response_timeout_us", _TIME),
                 "lq_retrigger_cooldown": ("handover.lq_retrigger_cooldown_us", _TIME),
                 "ack_fail_threshold": ("handover.ack_fail_threshold", _THRESHOLD),
                 "degraded_ack_fail_threshold":
                     ("handover.degraded_ack_fail_threshold", _THRESHOLD)},
    "energy": {"supply_voltage": ("supply_voltage", _POSITIVE_VOLTS),
               "tx_current_0dbm": ("currents.tx_current_0dbm_ma", _CURRENT),
               "tx_current_per_dbm": ("currents.tx_current_per_dbm_ma", _CURRENT),
               "rx_current": ("currents.rx_current_ma", _MODE_CURRENT),
               "idle_current": ("currents.idle_current_ma", _MODE_CURRENT),
               "sleep_current": ("currents.sleep_current_ma", _MODE_CURRENT)},
    "sweep": {"powers": ("sweep_powers", _POWERS)},
    "compare": {"reference_latency_delta": ("reference_latency_delta_us", _TIME),
                "reference_energy_delta": ("reference_energy_delta_pct", _PERCENT)},
}


def _set(target: Any, path: str, value: Any) -> None:
    owner, _, attr = path.rpartition(".")
    setattr(attrgetter(owner)(target) if owner else target, attr, value)


def parse_scenario(text: str, source: str = "<scenario>") -> ScenarioConfig:
    cfg = ScenarioConfig()
    waypoints: list[tuple[float, float, int]] = []
    section: str | None = None
    node: NodeConfig | None = None
    seen_sections: set[str] = set()
    # "section.key" -> the line that set it; "node <id>" -> its header line
    key_lines: dict[str, int] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            header = stripped[1:-1].strip()
            parts = header.split()
            if not parts:
                raise ScenarioError("empty section name []", lineno)
            name = parts[0]
            if name == "node":
                if len(parts) != 2:
                    raise ScenarioError("node section needs an id: [node <id>]", lineno)
                node_id = _parse_int(parts[1], "node id", lineno)
                if not 0 <= node_id <= MAX_NODE_ID:
                    raise ScenarioError(
                        f"node id {node_id} is not a unicast short address "
                        f"(0..{MAX_NODE_ID:#x})", lineno)
                if any(n.node_id == node_id for n in cfg.nodes):
                    raise ScenarioError(f"duplicate node id {node_id}", lineno)
                node = NodeConfig(node_id)
                cfg.nodes.append(node)
                key_lines[f"node {node_id}"] = lineno
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
        path, kind = schema[key]
        # A section or node id never repeats, so a name seen is a key set twice.
        name = f"{section}.{key}" if node is None else f"node {node.node_id}.{key}"
        if name in key_lines and kind is not _WAYPOINT:
            raise ScenarioError(f"key '{key}' already set at line "
                                f"{key_lines[name]} of this section", lineno)
        parsed = kind.parse(value, key, lineno)
        if kind is _WAYPOINT:
            waypoints.append(parsed)
        else:
            _set(cfg if node is None else node, path, parsed)
        key_lines[name] = lineno

    if waypoints:
        try:
            cfg.trajectory = Trajectory(waypoints)
        except ValueError as exc:
            raise ScenarioError(f"trajectory: {exc}",
                                key_lines["trajectory.waypoint"]) from None
    _validate(cfg, source, key_lines)
    return cfg


def _validate(cfg: ScenarioConfig, source: str, key_lines: dict[str, int]) -> None:
    def header_line(node: NodeConfig) -> int:
        return key_lines[f"node {node.node_id}"]

    coordinators = [n for n in cfg.nodes if n.role is NodeRole.COORDINATOR]
    if len(coordinators) > 1:
        raise ScenarioError(f"{source}: more than one coordinator configured",
                            header_line(coordinators[1]))
    stationary = cfg.stationary_nodes()
    if stationary and not coordinators:
        raise ScenarioError(f"{source}: stationary nodes present but no coordinator",
                            header_line(stationary[0]))
    mobiles = [n for n in cfg.nodes if n.node_class is NodeClass.MOBILE]
    if len(mobiles) > 1:
        raise ScenarioError(f"{source}: at most one mobile node is supported",
                            header_line(mobiles[1]))
    for n in mobiles:
        if n.role is not NodeRole.END_DEVICE:
            raise ScenarioError(f"{source}: mobile node {n.node_id} must be an end_device",
                                header_line(n))
        xy_lines = [key_lines.get(f"node {n.node_id}.{k}") for k in "xy"]
        if any(xy_lines):
            raise ScenarioError(f"{source}: mobile node {n.node_id} takes its position "
                                "from [trajectory], not x or y",
                                min(filter(None, xy_lines)))

    def last_line(*keys: str) -> int:
        # Every default passes each rule below, so a rule that fails has a
        # key of its own set in the file.
        return max(key_lines.get(k, 0) for k in keys)

    if cfg.csma.mac_min_be > cfg.csma.mac_max_be:
        raise ScenarioError(f"{source}: mac_min_be {cfg.csma.mac_min_be} above "
                            f"mac_max_be {cfg.csma.mac_max_be}",
                            last_line("csma.mac_min_be", "csma.mac_max_be"))
    levels = cfg.phy.power_levels_dbm
    if cfg.phy.tx_power_dbm not in levels:
        raise ScenarioError(
            f"{source}: tx_power {cfg.phy.tx_power_dbm} dBm not in power_levels",
            last_line("phy.tx_power", "phy.power_levels"))
    unknown = [p for p in cfg.sweep_powers or () if p not in levels]
    if unknown:
        raise ScenarioError(
            f"{source}: sweep powers {unknown} not in power_levels",
            last_line("sweep.powers", "phy.power_levels"))
    currents = cfg.currents
    powers = [(p, "phy.power_levels") for p in levels] + [
        (n.tx_power_dbm, f"node {n.node_id}.tx_power") for n in cfg.nodes
        if n.tx_power_dbm is not None]
    for power, key in powers:
        if currents.tx_current_ma(power) < 0:
            raise ScenarioError(
                f"{source}: tx current at {power:g} dBm is "
                f"{currents.tx_current_ma(power):g} mA, below 0 mA",
                last_line(key, "energy.tx_current_0dbm", "energy.tx_current_per_dbm"))
    if cfg.channel not in cfg.band.channels:
        raise ScenarioError(
            f"{source}: channel {cfg.channel} not in band {cfg.band.name}",
            last_line("phy.channel", "phy.band"))

    header = cfg.mac.mac_header_bytes
    payload = max(cfg.traffic.payload_bytes, *CONTROL_PAYLOAD.values())
    if header + payload > MAX_FRAME_BYTES:
        raise ScenarioError(
            f"{source}: largest frame, mac_header {header} B + payload "
            f"{payload} B, exceeds the {MAX_FRAME_BYTES} B frame limit",
            last_line("mac.mac_header", "traffic.payload"))
    # Byte counts are never negative and control payloads are 1 B or more,
    # so only an ack or a data frame can be empty.
    overhead = cfg.phy.phy_overhead_bytes
    for frame, size, keys in (
            ("ack", cfg.mac.ack_header_bytes, ["mac.ack_header"]),
            ("data", header + cfg.traffic.payload_bytes,
             ["mac.mac_header", "traffic.payload"])):
        if overhead + size < 1:
            raise ScenarioError(f"{source}: {frame} frame of 0 B, phy_overhead "
                                f"included", last_line("phy.phy_overhead", *keys))


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Parses a UTF-8 scenario file.  A leading byte-order mark, which some
    editors write, is cut from the bytes before they are decoded, so a bad
    byte's offset indexes `data` (utf-8-sig would count it past the mark)."""
    p = Path(path)
    try:
        data = p.read_bytes().removeprefix(b"\xef\xbb\xbf")
        text = data.decode("utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {p}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{p}: byte {data[exc.start]:#04x} is not UTF-8",
                            data[:exc.start].count(b"\n") + 1) from None
    return parse_scenario(text, source=str(p))


def _shows(target, key: str, value: Any) -> bool:
    """A node's x/y only for a stationary node, and an optional value (a
    node's override, [sweep] powers) only when set."""
    if key in ("x", "y"):
        return target.node_class is NodeClass.STATIONARY
    return value is not None


def render_scenario(cfg: ScenarioConfig, header: str = "",
                    notes: dict[str, str] | None = None) -> str:
    """Serialize a config back to scenario-file text (round-trips parse)."""
    notes = notes or {}
    out = [f"# {h}" for h in header.splitlines()]
    if header:
        out.append("")
    for section, schema in _SCHEMA.items():
        blocks = ([(f"node {n.node_id}", n) for n in cfg.nodes] if section == "node"
                  else [(section, cfg)])
        for title, target in blocks:
            out.append(f"[{title}]")
            for key, (path, kind) in schema.items():
                value = attrgetter(path)(target)
                if not _shows(target, key, value):
                    continue
                note = notes.get(f"{section}.{key}")
                suffix = f"    # {note}" if note else ""
                for v in value if kind is _WAYPOINT else [value]:  # a line per waypoint
                    out.append(f"{key} = {kind.render(v)}{suffix}")
            out.append("")
    return "\n".join(out)
