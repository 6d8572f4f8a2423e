"""Experiment drivers: single runs, power sweeps, paired comparisons.

Every driver reuses one seed across its runs so differences are
attributable to the knob being varied (power level, handover mode, TPC),
and writes plain CSV plus a short text summary per output directory.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from .calibration import CalibrationResult, CalibrationTargets, apply_to_config, search
from .coverage import (CoverageReport, association_map, gap_analysis, gap_bounds,
                       overlap_intervals)
from .scenario import SLEEP
from .scenario_file import ScenarioConfig, ScenarioError, float_text, render_scenario
from .sim import RunResult, Simulation
from .trace import write_trace


def _fmt_intervals(intervals) -> str:
    if not intervals:
        return "-"
    return " ".join(f"({a:.2f},{b:.2f})" for a, b in intervals)


def run_simulation(cfg: ScenarioConfig, outdir: str | Path | None = None,
                   seed: int | None = None) -> RunResult:
    if seed is not None:
        cfg = cfg.clone(seed=seed)
    result = Simulation(cfg).run()
    if outdir is not None:
        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        write_trace(out / "trace.csv", result.rows)
        _write_energy_csv(out / "energy.csv", result)
        (out / "summary.txt").write_text(
            "\n".join(_run_summary_lines(result)) + "\n", encoding="ascii")
    return result


def _energy_mj(run: RunResult, node_id: int) -> float:
    return run.ledgers[node_id].energy_mj(run.cfg.currents, run.cfg.supply_voltage)


def _write_energy_csv(path: Path, run: RunResult) -> None:
    lines = ["node_id,mode,time_us,energy_mj"]
    for node_id, ledger in run.ledgers.items():
        modes = ledger.breakdown_mj(run.cfg.currents, run.cfg.supply_voltage)
        for mode, mj in modes.items():
            lines.append(f"{node_id},{mode.name},{ledger.mode_times[mode]},{mj:.6f}")
        lines.append(f"{node_id},total,{run.cfg.duration_us},"
                     f"{sum(modes.values()):.6f}")
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _run_summary_lines(result: RunResult) -> list[str]:
    lines = [
        f"seed {result.cfg.seed}, duration {result.cfg.duration_us} us, "
        f"{result.summary.total_processed} events processed",
    ]
    s = result.stats
    if s is not None:
        lines += [f"data: {s.data_attempts} attempts, {s.delivered} delivered, "
                  f"{s.no_ack} no-ack, {s.cca_fail} cca-fail, "
                  f"{s.outage_losses} outage losses "
                  f"(delivery ratio {s.delivery_ratio():.3f})",
                  f"handover: {s.handovers} attempts, {s.completions} done, "
                  f"{s.failures} failed, mean latency "
                  f"{s.mean_latency_us() / 1e6:.4f} s, total outage "
                  f"{s.outage_us / 1e6:.4f} s"]
    for node_id in result.ledgers:
        lines.append(f"energy node {node_id}: {_energy_mj(result, node_id):.3f} mJ")
    return lines


def level_config(cfg: ScenarioConfig, power: float) -> ScenarioConfig:
    """The scenario as `sweep` runs it at `power`: TPC off, every node at it."""
    out = cfg.clone()
    out.tpc.enabled = False
    out.phy.tx_power_dbm = power
    for node in out.nodes:
        node.tx_power_dbm = None  # no override: each node sends at phy.tx_power_dbm
    return out


class SweepLevel(NamedTuple):
    power_dbm: float
    report: CoverageReport
    run: RunResult


class SweepResult(NamedTuple):
    levels: list[SweepLevel]
    optimal_dbm: float | None  # the lowest gap-free level

    def level(self, power: float) -> SweepLevel:
        for lv in self.levels:
            if lv.power_dbm == power:
                return lv
        raise KeyError(power)


def sweep(cfg: ScenarioConfig, powers=None,
          outdir: str | Path | None = None) -> SweepResult:
    """Run the scenario once per transmit power level, same seed throughout.

    Each level runs `level_config(cfg, power)`, so coverage differences
    come from power alone.
    """
    if cfg.mobile_node() is None:
        raise ScenarioError("sweep needs a mobile node in the scenario")
    x_lo, x_hi = gap_bounds(cfg.trajectory)
    if powers is None:
        powers = (cfg.sweep_powers if cfg.sweep_powers is not None
                  else cfg.phy.power_levels_dbm)
    powers = list(powers)
    if not powers:
        raise ValueError("sweep needs at least one power level")
    if len(set(powers)) != len(powers):  # each level's outputs are written once
        raise ValueError(f"power levels {powers} name a level twice")
    # `_validate` checked a [sweep] powers line; this catches --powers,
    # which no scenario line names.
    unknown = [p for p in powers if p not in cfg.phy.power_levels_dbm]
    if unknown:
        raise ValueError(f"power levels {unknown} not in the configured set "
                         f"{sorted(cfg.phy.power_levels_dbm)}")
    levels = []
    for power in powers:
        run_cfg = level_config(cfg, power)
        overlaps = overlap_intervals(run_cfg, power)  # rejects before the run
        run = Simulation(run_cfg).run()
        gaps = gap_analysis(run.rows, x_lo, x_hi, run.mobile_id)
        report = CoverageReport(gaps, overlaps, association_map(run.rows, run.mobile_id))
        levels.append(SweepLevel(power, report, run))
        if outdir is not None:
            leveldir = Path(outdir) / f"power_{float_text(power)}dBm"
            leveldir.mkdir(parents=True, exist_ok=True)
            write_trace(leveldir / "trace.csv", run.rows)
    gap_free = [lv.power_dbm for lv in levels if not lv.report.gaps]
    result = SweepResult(levels, min(gap_free) if gap_free else None)
    if outdir is not None:  # made by the first level's mkdir
        _write_sweep_files(Path(outdir), result)
    return result


def _write_sweep_files(out: Path, result: SweepResult) -> None:
    rows = ["power_dbm,kind,start_m,end_m"]
    for lv in result.levels:
        level = float_text(lv.power_dbm)
        for a, b in lv.report.gaps:
            rows.append(f"{level},gap,{a:.2f},{b:.2f}")
        for a, b in lv.report.overlaps:
            rows.append(f"{level},overlap,{a:.2f},{b:.2f}")
        for a, b, parent in lv.report.associations:
            rows.append(f"{level},assoc_{parent},{a:.2f},{b:.2f}")
    (out / "coverage.csv").write_text("\n".join(rows) + "\n", encoding="ascii")

    lines = ["power sweep summary",
             "power_dbm | gaps_m | overlaps_m | flags"]
    for lv in result.levels:
        flags = []
        if lv.power_dbm == result.optimal_dbm:  # never when there is none
            flags.append("OPTIMAL")
        if lv.report.overlaps:
            flags.append("OVERPROVISIONED")
        lines.append(f"{float_text(lv.power_dbm):>9} | "
                     f"{_fmt_intervals(lv.report.gaps)} | "
                     f"{_fmt_intervals(lv.report.overlaps)} | "
                     f"{','.join(flags) or '-'}")
    if result.optimal_dbm is None:
        lines.append("no gap-free level in the swept set")
    else:
        lines.append(f"minimum gap-free level: {float_text(result.optimal_dbm)} dBm")
    (out / "summary.txt").write_text("\n".join(lines) + "\n", encoding="ascii")


class CompareArm(NamedTuple):
    name: str
    run: RunResult

    @property
    def mean_latency_s(self) -> float:
        return self.run.stats.mean_latency_us() / 1e6

    @property
    def outage_s(self) -> float:
        return self.run.stats.outage_us / 1e6

    @property
    def mobile_energy_mj(self) -> float:
        return _energy_mj(self.run, self.run.mobile_id)

    @property
    def radio_on_s(self) -> float:
        times = self.run.ledgers[self.run.mobile_id].mode_times
        on = sum(t for mode, t in times.items() if mode != SLEEP)
        return on / 1e6


class CompareResult(NamedTuple):
    arms: dict[str, CompareArm]  # in the order compare runs them

    @property
    def proposed(self) -> CompareArm:
        return self.arms["broadcast+tpc"]

    @property
    def baseline(self) -> CompareArm:
        return self.arms["scan+fixed"]

    @property
    def latency_delta_s(self) -> float:  # baseline - proposed, likewise below
        return self.baseline.mean_latency_s - self.proposed.mean_latency_s

    @property
    def outage_delta_s(self) -> float:
        return self.baseline.outage_s - self.proposed.outage_s

    @property
    def energy_delta_pct(self) -> float:  # calls the module function below
        return energy_delta_pct(self.baseline.run, self.proposed.run)


def arm_config(cfg: ScenarioConfig, mode: str, tpc: bool) -> ScenarioConfig:
    """The scenario as `compare` runs one arm: handover `mode`, TPC on or
    off, and with TPC off the mobile pinned at the highest configured level."""
    out = cfg.clone()
    out.handover.mode = mode
    out.tpc.enabled = tpc
    if not tpc:
        out.mobile_node().tx_power_dbm = max(out.phy.power_levels_dbm)
    return out


def compare(cfg: ScenarioConfig, outdir: str | Path | None = None) -> CompareResult:
    """Four paired runs: {broadcast, scan} x {tpc, fixed max power}.

    The proposed configuration is broadcast handover with TPC; the baseline
    is a sequential scan at the maximum fixed power.  One seed throughout.
    """
    if cfg.mobile_node() is None:
        raise ScenarioError("compare needs a mobile node in the scenario")
    arms = {}
    for mode in ("broadcast", "scan"):
        for tpc in (True, False):
            name = f"{mode}+{'tpc' if tpc else 'fixed'}"
            arms[name] = CompareArm(name, Simulation(arm_config(cfg, mode, tpc)).run())
    result = CompareResult(arms)
    if outdir is not None:
        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        for arm in result.arms.values():
            write_trace(out / f"trace_{arm.name.replace('+', '_')}.csv",
                        arm.run.rows)
        (out / "compare_report.txt").write_text(
            "\n".join(compare_report_lines(cfg, result)) + "\n", encoding="ascii")
        _write_compare_csv(out / "compare.csv", result)
    return result


def energy_delta_pct(baseline: RunResult, proposed: RunResult) -> float:
    """The mobile's energy saving of proposed vs baseline,
    (base - prop) / base * 100.

    Refuses to compare runs that do not share seed, duration and trajectory.
    """
    a, b = baseline.cfg, proposed.cfg
    if (a.seed != b.seed or a.duration_us != b.duration_us
            or a.trajectory.waypoints != b.trajectory.waypoints):
        raise ValueError("energy comparison requires paired runs "
                         "(same seed, duration and trajectory)")
    base = _energy_mj(baseline, baseline.mobile_id)
    prop = _energy_mj(proposed, proposed.mobile_id)
    if base == 0.0:
        return 0.0
    return (base - prop) / base * 100.0


def _write_compare_csv(path: Path, result: CompareResult) -> None:
    lines = ["arm,handovers,completions,mean_latency_s,outage_s,"
             "radio_on_s,mobile_energy_mj,delivery_ratio"]
    for arm in result.arms.values():
        s = arm.run.stats
        lines.append(f"{arm.name},{s.handovers},{s.completions},"
                     f"{arm.mean_latency_s:.6f},{arm.outage_s:.6f},"
                     f"{arm.radio_on_s:.6f},{arm.mobile_energy_mj:.6f},"
                     f"{s.delivery_ratio():.4f}")
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def compare_report_lines(cfg: ScenarioConfig, result: CompareResult) -> list[str]:
    lines = [
        "paired comparison (proposed = broadcast handover + TPC, "
        "baseline = sequential scan + fixed max power)",
        f"seed {cfg.seed}, "
        f"duration {cfg.duration_us / 1e6:g} s",
        "",
        "arm             handovers  mean_latency_s  outage_s  radio_on_s  "
        "mobile_mj",
    ]
    for arm in result.arms.values():
        lines.append(f"{arm.name:15s} {arm.run.stats.completions:9d}  "
                     f"{arm.mean_latency_s:14.4f}  {arm.outage_s:8.3f}  "
                     f"{arm.radio_on_s:10.3f}  {arm.mobile_energy_mj:9.3f}")
    lines += [
        "",
        f"handover latency delta (baseline - proposed): "
        f"{result.latency_delta_s:.4f} s "
        f"(reference target {cfg.reference_latency_delta_us / 1e6:g} s)",
        f"outage delta (baseline - proposed): {result.outage_delta_s:.4f} s",
        f"mobile energy delta: {result.energy_delta_pct:.1f} % "
        f"(reference target {cfg.reference_energy_delta_pct:g} %)",
        "",
        "note: reference targets come from the original experiment at an "
        "unknown scale; at this desk-scale scenario only the direction of "
        "the deltas is expected to match, not the magnitudes.",
    ]
    return lines


def calibrate(cfg: ScenarioConfig, outdir: str | Path | None = None,
              targets: CalibrationTargets | None = None) -> CalibrationResult:
    """Fit PHY constants to the coverage targets and emit the scenario, which
    sends at the gap-free target level: power_levels must hold that level."""
    result = search(cfg, targets)
    level = result.targets.gap_free_dbm
    if level not in cfg.phy.power_levels_dbm:
        raise ScenarioError(f"calibration sets tx_power to the gap-free target "
                            f"level {float_text(level)} dBm, which power_levels lacks")
    if outdir is not None:
        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "calibration_report.txt").write_text(
            "\n".join(result.report_lines()) + "\n", encoding="ascii")
        if result.ok:
            calibrated = apply_to_config(cfg, result, result.targets)
            notes = {
                "phy.pl0": "calibrated against the coverage targets",
                "phy.path_loss_exponent": "calibrated against the coverage targets",
                "phy.rx_sensitivity": "calibrated against the coverage targets",
                "phy.tx_power": "lowest gap-free level found by the sweep",
                "node.x": "calibrated against the coverage targets",
            }
            (out / "calibrated.scenario").write_text(
                render_scenario(calibrated,
                                header="calibrated scenario (written by "
                                       "`wpansim calibrate`)",
                                notes=notes),
                encoding="ascii")
    return result
