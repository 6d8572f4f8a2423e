"""Spans around the package's public functions, patched in from outside.

Each function is replaced by a wrapper under every name it is looked up by:
`wpansim.mac` holds its own `link_rx_power`, `harness` its own
`write_trace`, `gap_analysis` and `search`, and `calibration` reads
`kernels.best_layout` at call time.  `phy.in_range` calls
`phy.link_rx_power` through the module, so wrapping that name counts the
link budgets computed through `in_range` as well.  Nothing under `src/` is
changed, and `uninstall` puts every original back.

A span's self time is its duration minus the durations of its direct
children, computed as spans close, so memory stays flat over a long run.
The raw spans (name, start, end, parent) of the first traced op are kept in
memory, up to SPAN_LOG_LIMIT of them, and written out when the run ends.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from pathlib import Path

SPAN_LOG_LIMIT = 50_000


def _busy_for(tracer, args, result):
    tracer.notes["history_scans"] += 1
    tracer.notes["history_len_sum"] += len(args[0].transmissions)
    tracer.notes["cca_busy"] += bool(result)


def _interferers(tracer, args, result):
    tracer.notes["history_scans"] += 1
    tracer.notes["history_len_sum"] += len(args[0].transmissions)


def _write_trace(tracer, args, result):
    tracer.notes["trace_rows"] += len(args[1])
    tracer.notes["trace_bytes"] += Path(args[0]).stat().st_size


def _best_layout(tracer, args, result):
    radii = args[:3]
    if radii in tracer.radii_seen:
        tracer.notes["radius_repeats"] += 1
    else:
        tracer.radii_seen.add(radii)


def _search_starts(tracer, args):
    tracer.radii_seen = set()


# (module, attribute path, span name, note after the call, hook before it)
TARGETS = (
    ("wpansim.engine", "EventLoop.run_until", "engine.run_until", None, None),
    ("wpansim.engine", "EventLoop.schedule", "engine.schedule", None, None),
    ("wpansim.sim", "Simulation.run", "sim.run", None, None),
    ("wpansim.sim", "Simulation._dispatch", "sim.dispatch", None, None),
    ("wpansim.sim", "Simulation.emit", "sim.emit", None, None),
    ("wpansim.sim", "Simulation.begin_transmission", "sim.begin_transmission", None, None),
    ("wpansim.sim", "Simulation.deliver", "sim.deliver", None, None),
    ("wpansim.phy", "link_rx_power", "phy.link_rx_power", None, None),
    ("wpansim.mac", "link_rx_power", "phy.link_rx_power", None, None),
    ("wpansim.mac", "Channel.audible", "mac.audible", None, None),
    ("wpansim.mac", "Channel.busy_for", "mac.busy_for", _busy_for, None),
    ("wpansim.mac", "Channel.interferers", "mac.interferers", _interferers, None),
    ("wpansim.net", "StationaryController.on_frame", "net.on_frame", None, None),
    ("wpansim.net", "MobileController.on_frame", "net.on_frame", None, None),
    ("wpansim.net", "MobileController.tpc_update", "net.tpc_update", None, None),
    ("wpansim.scenario", "Trajectory.position_at", "scenario.position_at", None, None),
    ("wpansim.scenario", "EnergyLedger.transition", "scenario.ledger_transition",
     None, None),
    ("wpansim.scenario_file", "parse_scenario", "scenario_file.parse", None, None),
    ("wpansim", "parse_scenario", "scenario_file.parse", None, None),
    ("wpansim.scenario_file", "ScenarioConfig.clone", "scenario_file.clone", None, None),
    ("wpansim.trace", "write_trace", "trace.write", _write_trace, None),
    ("wpansim.harness", "write_trace", "trace.write", _write_trace, None),
    ("wpansim.coverage", "gap_analysis", "coverage.gap_analysis", None, None),
    ("wpansim.harness", "gap_analysis", "coverage.gap_analysis", None, None),
    ("wpansim.coverage", "overlap_intervals", "coverage.overlap", None, None),
    ("wpansim.harness", "overlap_intervals", "coverage.overlap", None, None),
    ("wpansim.coverage", "association_map", "coverage.association_map", None, None),
    ("wpansim.harness", "association_map", "coverage.association_map", None, None),
    ("wpansim.kernels", "best_layout", "calibration.best_layout", _best_layout, None),
    ("wpansim.calibration", "search", "calibration.search", None, _search_starts),
    ("wpansim.harness", "search", "calibration.search", None, _search_starts),
    ("wpansim.harness", "sweep", "harness.sweep", None, None),
    ("wpansim.harness", "compare", "harness.compare", None, None),
)


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.notes: Counter = Counter()
        self.radii_seen: set = set()
        self.log: list[list] = []  # [name, start, end, parent index]
        self.logging = False
        self.missing: list[str] = []
        self._stack: list[list] = [[0.0, -1]]  # [child seconds, log index]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, note, before):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, log, clock, tracer = self._stack, self.log, time.perf_counter, self

        def traced(*args, **kwargs):
            frame = [0.0, -1]
            if tracer.logging and len(log) < SPAN_LOG_LIMIT:
                frame[1] = len(log)
                log.append([name, 0.0, 0.0, stack[-1][1]])
            if before is not None:
                before(tracer, args)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stack[-1][0] += duration
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[0]
                if frame[1] >= 0:
                    log[frame[1]][1] = start
                    log[frame[1]][2] = end
            if note is not None:
                note(tracer, args, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, path, name, note, before in TARGETS:
            owner = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            if not hasattr(owner, attr):
                if f"{module_name}.{path}" not in self.missing:
                    self.missing.append(f"{module_name}.{path}")
                continue
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, note, before))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def total(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def per_call(self, name: str, scale: float) -> float:
        calls = self.calls(name)
        return self.total(name) / calls * scale if calls else 0.0

    def write_log(self, path: Path) -> None:
        lines = ["index,name,start_s,end_s,parent"]
        lines += [f"{n},{name},{start!r},{end!r},{parent}"
                  for n, (name, start, end, parent) in enumerate(self.log)]
        path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# name -> (unit, better); the values come from per_layer_metrics below.
PER_LAYER = {
    "engine.self_us_per_event": ("us", "lower"),
    "engine.schedule_us": ("us", "lower"),
    "engine.events_per_op": ("count/op", "lower"),
    "engine.cancelled_share": ("share", "lower"),
    "sim.emit_us": ("us", "lower"),
    "sim.emit_calls_per_op": ("count/op", "lower"),
    "sim.begin_transmission_us": ("us", "lower"),
    "sim.deliver_us": ("us", "lower"),
    "phy.link_budget_calls_per_tx": ("count/tx", "lower"),
    "phy.link_budget_us": ("us", "lower"),
    "mac.audible_us": ("us", "lower"),
    "mac.busy_for_us": ("us", "lower"),
    "mac.interferers_us": ("us", "lower"),
    "mac.history_len_mean": ("count", "lower"),
    "mac.cca_busy_ratio": ("share", "lower"),
    "mac.collisions_per_op": ("count/op", "lower"),
    "mac.retries_per_op": ("count/op", "lower"),
    "mac.delivery_ratio": ("share", "higher"),
    "net.on_frame_us": ("us", "lower"),
    "net.tpc_update_us": ("us", "lower"),
    "net.handover_latency_ms": ("ms", "lower"),
    "net.tpc_changes_per_op": ("count/op", "lower"),
    "scenario.position_at_us": ("us", "lower"),
    "scenario.position_at_calls_per_event": ("count/event", "lower"),
    "scenario.ledger_transition_us": ("us", "lower"),
    "scenario_file.parse_ms": ("ms", "lower"),
    "scenario_file.clone_ms": ("ms", "lower"),
    "trace.write_ms": ("ms", "lower"),
    "trace.us_per_row": ("us", "lower"),
    "trace.bytes_per_op": ("B/op", "lower"),
    "coverage.gap_analysis_ms": ("ms", "lower"),
    "coverage.overlap_ms": ("ms", "lower"),
    "coverage.association_map_ms": ("ms", "lower"),
    "calibration.best_layout_us": ("us", "lower"),
    "calibration.candidates_per_op": ("count/op", "lower"),
    "calibration.search_self_ms": ("ms", "lower"),
    "calibration.repeat_radius_share": ("share", "lower"),
    "harness.self_ms": ("ms", "lower"),
    "tracing.overhead_pct": ("%", "lower"),
}


def per_layer_metrics(tr: Tracer, sim: dict, ops: int,
                      untraced_ms: float, traced_ms: float) -> dict[str, float]:
    """Per-layer values from the traced ops; 0 where a layer did no work.

    `sim` holds the summed run_stats of the traced ops, `ops` their number,
    and the two medians are of the untraced and traced copies of those ops.
    """
    events = sim["events"]
    notes = tr.notes
    harness_self = tr.self_time("harness.sweep") + tr.self_time("harness.compare")
    values = {
        "engine.self_us_per_event": _ratio(tr.self_time("engine.run_until") * 1e6, events),
        "engine.schedule_us": tr.per_call("engine.schedule", 1e6),
        "engine.events_per_op": _ratio(events, ops),
        "engine.cancelled_share": _ratio(sim["cancelled"], sim["scheduled"]),
        "sim.emit_us": tr.per_call("sim.emit", 1e6),
        "sim.emit_calls_per_op": _ratio(tr.calls("sim.emit"), ops),
        "sim.begin_transmission_us": tr.per_call("sim.begin_transmission", 1e6),
        "sim.deliver_us": tr.per_call("sim.deliver", 1e6),
        "phy.link_budget_calls_per_tx": _ratio(tr.calls("phy.link_rx_power"),
                                               sim["tx_starts"]),
        "phy.link_budget_us": tr.per_call("phy.link_rx_power", 1e6),
        "mac.audible_us": tr.per_call("mac.audible", 1e6),
        "mac.busy_for_us": tr.per_call("mac.busy_for", 1e6),
        "mac.interferers_us": tr.per_call("mac.interferers", 1e6),
        "mac.history_len_mean": _ratio(notes["history_len_sum"], notes["history_scans"]),
        "mac.cca_busy_ratio": _ratio(notes["cca_busy"], tr.calls("mac.busy_for")),
        "mac.collisions_per_op": _ratio(sim["collisions"], ops),
        "mac.retries_per_op": _ratio(sim["retries"], ops),
        "mac.delivery_ratio": _ratio(sim["delivered"], sim["resolved"]),
        "net.on_frame_us": tr.per_call("net.on_frame", 1e6),
        "net.tpc_update_us": tr.per_call("net.tpc_update", 1e6),
        "net.handover_latency_ms": _ratio(sim["latency_us"] / 1e3, sim["handovers"]),
        "net.tpc_changes_per_op": _ratio(sim["tpc_changes"], ops),
        "scenario.position_at_us": tr.per_call("scenario.position_at", 1e6),
        "scenario.position_at_calls_per_event": _ratio(tr.calls("scenario.position_at"),
                                                       events),
        "scenario.ledger_transition_us": tr.per_call("scenario.ledger_transition", 1e6),
        "scenario_file.parse_ms": tr.per_call("scenario_file.parse", 1e3),
        "scenario_file.clone_ms": tr.per_call("scenario_file.clone", 1e3),
        "trace.write_ms": tr.per_call("trace.write", 1e3),
        "trace.us_per_row": _ratio(tr.total("trace.write") * 1e6, notes["trace_rows"]),
        "trace.bytes_per_op": _ratio(notes["trace_bytes"], ops),
        "coverage.gap_analysis_ms": tr.per_call("coverage.gap_analysis", 1e3),
        "coverage.overlap_ms": tr.per_call("coverage.overlap", 1e3),
        "coverage.association_map_ms": tr.per_call("coverage.association_map", 1e3),
        "calibration.best_layout_us": tr.per_call("calibration.best_layout", 1e6),
        "calibration.candidates_per_op": _ratio(tr.calls("calibration.best_layout"), ops),
        "calibration.search_self_ms": _ratio(tr.self_time("calibration.search") * 1e3,
                                             tr.calls("calibration.search")),
        "calibration.repeat_radius_share": _ratio(notes["radius_repeats"],
                                                  tr.calls("calibration.best_layout")),
        "harness.self_ms": _ratio(harness_self * 1e3, ops),
        "tracing.overhead_pct": _ratio((traced_ms - untraced_ms) * 100.0, untraced_ms),
    }
    assert values.keys() == PER_LAYER.keys()
    return values
