import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA, TINY, make_cfg, oracle_meets_targets, tiny_cfg
from util_props import check_invariants, random_scenario
from wpansim import cli
from wpansim.calibration import CalibrationTargets
from wpansim.cli import main
from wpansim.coverage import gap_analysis, gap_bounds
from wpansim.engine import SimulationError
from wpansim.harness import (arm_config, calibrate, compare, energy_delta_pct,
                             level_config, run_simulation, sweep)
from wpansim.scenario import SLEEP
from wpansim.scenario_file import ScenarioError, load_scenario, render_scenario
from wpansim.sim import Simulation
from wpansim.trace import HEADER, TraceRecord, read_trace, write_trace


def test_run_writes_trace_energy_and_summary(tmp_path):
    result = run_simulation(tiny_cfg(), outdir=tmp_path)
    assert (tmp_path / "trace.csv").exists()
    assert (tmp_path / "energy.csv").exists()
    assert (tmp_path / "summary.txt").exists()
    assert result.summary.total_processed > 0


def test_run_deterministic_bytes(tmp_path):
    run_simulation(tiny_cfg(), outdir=tmp_path / "a")
    run_simulation(tiny_cfg(), outdir=tmp_path / "b")
    assert (tmp_path / "a/trace.csv").read_bytes() == \
           (tmp_path / "b/trace.csv").read_bytes()


def test_different_seed_changes_trace(tmp_path):
    run_simulation(tiny_cfg(seed=7), outdir=tmp_path / "a")
    run_simulation(tiny_cfg(seed=8), outdir=tmp_path / "b")
    assert (tmp_path / "a/trace.csv").read_bytes() != \
           (tmp_path / "b/trace.csv").read_bytes()


def test_zero_duration_run_header_only(tmp_path):
    result = run_simulation(tiny_cfg(duration="0 s"), outdir=tmp_path)
    assert result.rows == []
    assert (tmp_path / "trace.csv").read_text() == HEADER + "\n"


def test_sweep_rejects_empty_power_list(default_cfg):
    with pytest.raises(ValueError):
        sweep(default_cfg, [])


def test_sweep_rejects_unconfigured_level(default_cfg):
    with pytest.raises(ValueError):
        sweep(default_cfg, [7.0])


def test_sweep_writes_per_level_outputs(default_cfg, tmp_path):
    result = sweep(default_cfg, [0.0, 4.0], outdir=tmp_path)
    assert (tmp_path / "power_0dBm/trace.csv").exists()
    assert (tmp_path / "power_4dBm/trace.csv").exists()
    assert (tmp_path / "coverage.csv").exists()
    summary = (tmp_path / "summary.txt").read_text()
    assert "OPTIMAL" in summary
    assert result.level(0.0).report.gaps
    assert not result.level(4.0).report.gaps
    for lv in result.levels:
        assert lv.run.cfg == level_config(default_cfg, lv.power_dbm)


def test_cli_sweep_without_a_gap_free_level_says_so(tmp_path):
    # The default scenario still has gaps at 0 and 2 dBm.
    assert main(["sweep", "--powers", "0,2", "--out", str(tmp_path)]) == 0
    summary = (tmp_path / "summary.txt").read_text()
    assert "OPTIMAL" not in summary
    assert summary.endswith("\nno gap-free level in the swept set\n")


def test_level_config_runs_every_node_at_the_level_with_tpc_off(default_cfg):
    cfg = level_config(default_cfg, 2.0)
    assert cfg.phy.tx_power_dbm == 2.0
    assert all(n.tx_power_dbm is None for n in cfg.nodes)
    assert not cfg.tpc.enabled
    assert default_cfg.phy.tx_power_dbm == 4.0  # original untouched
    assert default_cfg.tpc.enabled
    pinned = default_cfg.clone()
    for node in pinned.nodes:
        node.tx_power_dbm = 6.0
    assert all(n.tx_power_dbm is None for n in level_config(pinned, 0.0).nodes)
    assert all(n.tx_power_dbm == 6.0 for n in pinned.nodes)  # original untouched


def test_arm_config_pins_the_mobile_at_max_power_only_with_tpc_off(default_cfg):
    fixed = arm_config(default_cfg, "scan", False)
    assert fixed.mobile_node().tx_power_dbm == 6.0  # max(power_levels)
    assert all(n.tx_power_dbm is None for n in fixed.stationary_nodes())
    assert (fixed.handover.mode, fixed.tpc.enabled) == ("scan", False)
    tpc = arm_config(default_cfg, "scan", True)
    assert all(n.tx_power_dbm is None for n in tpc.nodes)
    assert (tpc.handover.mode, tpc.tpc.enabled) == ("scan", True)
    # original untouched
    assert all(n.tx_power_dbm is None for n in default_cfg.nodes)
    assert (default_cfg.handover.mode, default_cfg.tpc.enabled) == ("broadcast", True)


def test_compare_with_tpc_disabled_both_arms_is_energy_neutral(default_cfg):
    # same handover mode and both arms at fixed max power: identical runs
    base = Simulation(arm_config(default_cfg, "broadcast", False)).run()
    again = Simulation(arm_config(default_cfg, "broadcast", False)).run()
    assert energy_delta_pct(base, again) == 0.0
    assert ([led.mode_times for led in base.ledgers.values()]
            == [led.mode_times for led in again.ledgers.values()])


def test_compare_reports_all_four_arms(default_cfg, tmp_path):
    result = compare(default_cfg, outdir=tmp_path)
    assert set(result.arms) == {"broadcast+tpc", "broadcast+fixed",
                                "scan+tpc", "scan+fixed"}
    report = (tmp_path / "compare_report.txt").read_text()
    assert "reference target 1.2 s" in report
    assert "reference target 42.8 %" in report
    assert "direction" in report
    assert (tmp_path / "compare.csv").exists()
    # radio-on time is part of the report (one interpretation of the claim)
    assert result.proposed.radio_on_s > 0
    for arm in result.arms.values():
        times = arm.run.ledgers[arm.run.mobile_id].mode_times
        assert SLEEP in times
        mode, power = arm.name.split("+")
        assert arm.run.cfg == arm_config(default_cfg, mode, power == "tpc")


def _mobile_mj(run):
    return run.ledgers[run.mobile_id].energy_mj(run.cfg.currents,
                                                 run.cfg.supply_voltage)


def test_energy_delta_identity_is_zero():
    a = Simulation(tiny_cfg()).run()
    b = Simulation(tiny_cfg()).run()
    assert _mobile_mj(a) > 0
    assert energy_delta_pct(a, b) == 0.0


def test_energy_delta_positive_when_proposed_cheaper():
    # Same run, but the baseline mobile transmits at 6 dBm instead of 0 dBm:
    # tiny runs broadcast with TPC off, so only the baseline arm's pin differs.
    base = Simulation(arm_config(tiny_cfg(), "broadcast", False)).run()
    prop = Simulation(tiny_cfg()).run()
    want = (_mobile_mj(base) - _mobile_mj(prop)) / _mobile_mj(base) * 100.0
    assert want > 0
    assert energy_delta_pct(base, prop) == want


def test_energy_delta_of_a_zero_length_run_is_zero():
    run = Simulation(tiny_cfg(duration="0 s")).run()
    assert _mobile_mj(run) == 0.0
    assert energy_delta_pct(run, run) == 0.0


def test_energy_delta_refuses_mismatched_runs():
    base = Simulation(tiny_cfg()).run()
    moved = TINY.format(duration="500 ms", seed=7).replace(
        "waypoint = 1 m, 0 m, 0 s", "waypoint = 2 m, 0 m, 0 s")
    for cfg in (tiny_cfg(seed=8), tiny_cfg(duration="400 ms"), make_cfg(moved)):
        other = Simulation(cfg).run()
        with pytest.raises(ValueError, match="paired runs"):
            energy_delta_pct(base, other)
        with pytest.raises(ValueError, match="paired runs"):
            energy_delta_pct(other, base)


# -- command line ----------------------------------------------------------------


def test_cli_run_and_golden_determinism(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--scenario", str(DATA / "golden_tiny.scenario"),
                 "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert printed.startswith("run complete: ")
    assert printed.endswith(f" events, trace written to {out / 'trace.csv'}\n")
    golden = (DATA / "golden_tiny.csv").read_bytes()
    assert (out / "trace.csv").read_bytes() == golden


def test_cli_run_without_out_writes_to_out_run(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--scenario", str(DATA / "golden_tiny.scenario")]) == 0
    assert capsys.readouterr().out.endswith(" trace written to out_run/trace.csv\n")
    golden = (DATA / "golden_tiny.csv").read_bytes()
    assert (tmp_path / "out_run" / "trace.csv").read_bytes() == golden


def test_cli_seed_override_changes_output(tmp_path):
    main(["run", "--scenario", str(DATA / "golden_tiny.scenario"),
          "--seed", "123", "--out", str(tmp_path / "s123")])
    golden = (DATA / "golden_tiny.csv").read_bytes()
    assert (tmp_path / "s123/trace.csv").read_bytes() != golden


def test_cli_scenario_error_exit_2(tmp_path):
    bad = tmp_path / "bad.scenario"
    bad.write_text("[traffic]\nperiod = 100 kg\n")
    code = main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2


def test_cli_missing_scenario_exit_2(tmp_path):
    code = main(["run", "--scenario", str(tmp_path / "nope.scenario"),
                 "--out", str(tmp_path / "o")])
    assert code == 2


def test_cli_scenario_that_is_not_utf8_exit_2_at_its_line(capsys, tmp_path):
    path = tmp_path / "bad.scenario"
    path.write_bytes(b"[run]\nseed = 1 \xff\n")
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"scenario error: line 2: {path}: byte 0xff is not UTF-8" in err


def test_cli_usage_error_exit_1(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: wpansim ")
    assert "\nwpansim: error: argument command: invalid choice: 'frobnicate'" in err
    code = main(["sweep", "--powers", "7", "--out", str(tmp_path / "o")])
    assert code == 1  # level outside the configured set


def test_cli_gaps_on_run_trace(tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", "--out", str(out), "--seed", "42"])
    code = main(["gaps", "--trace", str(out / "trace.csv")])
    assert code == 0
    printed = capsys.readouterr().out
    assert "no coverage gaps" in printed  # default scenario runs at 4 dBm


def test_cli_gaps_finds_gaps_in_low_power_trace(default_cfg, tmp_path, capsys):
    low = level_config(default_cfg, 0.0)
    res = Simulation(low).run()
    trace = tmp_path / "trace.csv"
    write_trace(trace, res.rows)
    code = main(["gaps", "--trace", str(trace)])
    assert code == 0
    printed = capsys.readouterr().out
    assert printed.count("gap:") == 2


def test_cli_gaps_missing_trace_exit_2(tmp_path, capsys):
    assert main(["gaps", "--trace", str(tmp_path / "none.csv")]) == 2
    headless = tmp_path / "headless.csv"
    headless.write_text("0,9,MOVE,,,,,,,,1.00,\n")
    assert main(["gaps", "--trace", str(headless)]) == 2
    assert "not a trace file (bad or missing header)" in capsys.readouterr().err


def test_cli_gaps_on_written_traces_agree_with_the_live_rows(tmp_path, capsys):
    # trace.csv rounds pos_x_m to 0.01 m, which can move a row across a
    # 0.1 m cell edge; `gaps` gives each mobile row its trajectory x back.
    # Without that, run 75 read a gap 0.1 m short and run 83 lost its gap.
    for index in range(100):
        cfg = random_scenario(index)
        run = Simulation(cfg).run()
        trace, scenario = tmp_path / f"{index}.csv", tmp_path / f"{index}.scenario"
        write_trace(trace, run.rows)
        scenario.write_text(render_scenario(cfg))
        gaps = gap_analysis(run.rows, *gap_bounds(cfg.trajectory), run.mobile_id)
        capsys.readouterr()
        assert main(["gaps", "--trace", str(trace), "--scenario", str(scenario)]) == 0
        assert capsys.readouterr().out.splitlines() == (
            [f"gap: {a:.2f} m .. {b:.2f} m" for a, b in gaps]
            or ["no coverage gaps"]), index


def test_cli_gaps_reads_the_lowest_id_with_move_rows(tmp_path, capsys):
    # Two nodes walk the default trajectory (1 m/s): node 7, first in the
    # file, fails at 5 m, node 4 at 2 m.  The mobile is the lower id.
    rows = []
    for node, fail_s in ((7, 5), (4, 2)):
        rows += [TraceRecord(s * 1_000_000, node, "MOVE", pos_x_m=float(s))
                 for s in range(15)]
        rows.append(TraceRecord(fail_s * 1_000_000 + 50_000, node, "OUTAGE_LOSS",
                                pos_x_m=fail_s + 0.05))
    trace = tmp_path / "trace.csv"
    write_trace(trace, rows)
    assert main(["gaps", "--trace", str(trace)]) == 0
    assert capsys.readouterr().out == "gap: 2.00 m .. 2.10 m\n"


def test_cli_gaps_without_move_rows_prints_no_coverage_gaps(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    write_trace(trace, [TraceRecord(1_000_000, 4, "OUTAGE_LOSS", pos_x_m=1.0)])
    assert main(["gaps", "--trace", str(trace)]) == 0
    assert capsys.readouterr().out == "no coverage gaps\n"


def test_cli_gaps_on_a_trace_of_another_scenario_exit_2(capsys):
    # golden_tiny's mobile starts at x = 1 m, the default scenario's at 0 m.
    code = main(["gaps", "--trace", str(DATA / "golden_tiny.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("trace error: ")
    assert "golden_tiny.csv: line 2: pos_x_m 1.00 is not the scenario " \
           "trajectory's x (0.00 m at 0 us)" in err


def test_cli_calibrate_writes_outputs(tmp_path, capsys):
    out = tmp_path / "cal"
    code = main(["calibrate", "--scenario",
                 str(DATA / "uncalibrated.scenario"), "--out", str(out)])
    assert code == 0
    assert (out / "calibrated.scenario").exists()
    report = (out / "calibration_report.txt").read_text()
    assert capsys.readouterr().out == \
        f"{report}calibrated scenario written to {out / 'calibrated.scenario'}\n"
    assert "status: ok" in report
    assert "mode: grid search" in report
    assert "pl0 + rx_sensitivity = -19 dBm (only this sum is identified" in report
    assert "communication range" in report


def _body(text):
    """The text after its leading block of `#` comment lines."""
    lines = text.splitlines(keepends=True)
    while lines and lines[0].startswith("#"):
        lines.pop(0)
    return "".join(lines)


def test_calibrate_without_an_outdir_writes_nothing(default_cfg, tmp_path,
                                                   monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert calibrate(default_cfg).ok
    assert list(tmp_path.iterdir()) == []


def test_calibrate_writes_the_shipped_default_scenario(uncalibrated_cfg, tmp_path):
    calibrate(uncalibrated_cfg, outdir=tmp_path)
    written = (tmp_path / "calibrated.scenario").read_text()
    shipped = cli.default_scenario_path().read_text()
    assert _body(written) == _body(shipped)
    assert _body(written).startswith("\n[run]\n")


def test_cli_calibrate_infeasible_exit_3(tmp_path):
    # trajectory too short to ever contain the (11, 13) m gap
    cfg_text = (DATA / "uncalibrated.scenario").read_text()
    cfg_text = cfg_text.replace("waypoint = 15 m, 0 m, 15 s",
                                "waypoint = 6 m, 0 m, 15 s")
    short = tmp_path / "short.scenario"
    short.write_text(cfg_text)
    code = main(["calibrate", "--scenario", str(short),
                 "--out", str(tmp_path / "cal")])
    assert code == 3
    report = (tmp_path / "cal/calibration_report.txt").read_text()
    assert "INFEASIBLE" in report
    assert not (tmp_path / "cal/calibrated.scenario").exists()


def test_cli_calibrate_two_stationary_nodes_exit_2(tmp_path):
    cfg_text = (DATA / "uncalibrated.scenario").read_text()
    node3 = "[node 3]\nrole = router\nclass = stationary\nx = 14 m\ny = 0 m\n"
    assert node3 in cfg_text
    two = tmp_path / "two.scenario"
    two.write_text(cfg_text.replace(node3, ""))
    code = main(["calibrate", "--scenario", str(two),
                 "--out", str(tmp_path / "cal")])
    assert code == 2
    assert not (tmp_path / "cal/calibration_report.txt").exists()


def _cli_calibrate_rejects(tmp_path, capsys, old, new, message):
    """`wpansim calibrate` on uncalibrated.scenario with old replaced by new
    exits 2 with message and writes no report."""
    cfg_text = (DATA / "uncalibrated.scenario").read_text()
    assert old in cfg_text
    path = tmp_path / "bad.scenario"
    path.write_text(cfg_text.replace(old, new))
    code = main(["calibrate", "--scenario", str(path),
                 "--out", str(tmp_path / "cal")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "cal/calibration_report.txt").exists()


def test_cli_calibrate_trajectory_off_y0_fits_on_its_line(uncalibrated_cfg,
                                                          tmp_path):
    # Fitting as if the line were y = 0 and leaving the stations there used to
    # put the oracle's 0 dBm gaps at (1.37, 4.63) and (10.37, 13.63).  The
    # stations are now written on the trajectory's line.
    cfg_text = (DATA / "uncalibrated.scenario").read_text()
    old = "waypoint = 0 m, 0 m, 0 s\nwaypoint = 15 m, 0 m, 15 s"
    assert old in cfg_text
    path = tmp_path / "lifted.scenario"
    path.write_text(cfg_text.replace(
        old, "waypoint = 0 m, 2 m, 0 s\nwaypoint = 15 m, 2 m, 15 s"))
    code = main(["calibrate", "--scenario", str(path),
                 "--out", str(tmp_path / "cal")])
    assert code == 0
    fitted = load_scenario(tmp_path / "cal/calibrated.scenario")
    assert [n.y for n in fitted.stationary_nodes()] == [2.0, 2.0, 2.0]
    assert oracle_meets_targets(fitted, CalibrationTargets())
    # the kernel sees only the line's x axis: the same fit as on y = 0
    calibrate(uncalibrated_cfg, outdir=tmp_path / "y0")
    assert (tmp_path / "cal/calibration_report.txt").read_text() == \
        (tmp_path / "y0/calibration_report.txt").read_text()


def test_cli_calibrate_sloped_trajectory_exit_2(tmp_path, capsys):
    _cli_calibrate_rejects(
        tmp_path, capsys,
        "waypoint = 15 m, 0 m, 15 s", "waypoint = 15 m, 1 m, 15 s",
        "trajectory waypoint 2 (15 m, 1 m) leaves the line")


def test_cli_calibrate_without_the_gap_free_level_exit_2(tmp_path, capsys):
    # Used to exit 0 and write a calibrated.scenario with tx_power = 4 dBm,
    # which `wpansim run` then refused: 4 dBm is not one of its power_levels.
    cfg_text = (DATA / "uncalibrated.scenario").read_text()
    for old, new in [("tx_power = 4 dBm\npower_levels = 0 2 3 4 5 6 dBm",
                      "tx_power = 0 dBm\npower_levels = 0 3 5 6 dBm"),
                     ("powers = 0 2 3 4 5 6 dBm", "powers = 0 3 5 6 dBm")]:
        assert old in cfg_text
        cfg_text = cfg_text.replace(old, new)
    path = tmp_path / "levels.scenario"
    path.write_text(cfg_text)
    code = main(["calibrate", "--scenario", str(path),
                 "--out", str(tmp_path / "cal")])
    assert code == 2
    assert "gap-free target level 4 dBm, which power_levels lacks" in \
        capsys.readouterr().err
    assert not (tmp_path / "cal").exists()


def test_cli_compare_writes_report(tmp_path, capsys):
    out = tmp_path / "cmp"
    code = main(["compare", "--out", str(out)])
    assert code == 0
    assert (out / "compare_report.txt").exists()
    assert capsys.readouterr().out == (out / "compare_report.txt").read_text()


def test_cli_sweep_default_and_summary(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(["sweep", "--out", str(out), "--powers", "0,4"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "OPTIMAL" in printed



def test_cli_sweep_empty_powers_is_a_usage_error(tmp_path, capsys):
    # `--powers ""` used to run the scenario's own levels and exit 0.
    for powers in ["", ","]:
        code = main(["sweep", "--powers", powers, "--out", str(tmp_path / "o")])
        assert code == 1
        assert "sweep needs at least one power level" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["run", "sweep", "compare", "calibrate"])
def test_cli_unwritable_output_path_is_a_usage_error(command, tmp_path, capsys):
    # Used to end in a NotADirectoryError traceback.
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "sub"
    code = main([command, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(out) in err
    assert "Traceback" not in err


def _cli_run_rejects(text, bad_line, tmp_path, capsys, monkeypatch):
    """`wpansim run` exits 2 naming the line of the scenario that holds
    bad_line; returns what it printed to stderr."""
    def no_run(*args, **kwargs):  # fail fast where the run would never end
        raise AssertionError("scenario accepted")

    monkeypatch.setattr(cli, "run_simulation", no_run)
    path = tmp_path / "bad.scenario"
    path.write_text(text)
    lineno = text.splitlines().index(bad_line) + 1
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"scenario error: line {lineno}: " in err
    assert not (tmp_path / "o").exists()
    return err


def test_cli_zero_traffic_period_exit_2(tmp_path, capsys, monkeypatch):
    # Used to run forever: the data tick rescheduled itself at the same instant.
    text = TINY.format(duration="500 ms", seed=7) + "\n[traffic]\nperiod = 0 ms\n"
    _cli_run_rejects(text, "period = 0 ms", tmp_path, capsys, monkeypatch)


def test_cli_zero_move_tick_exit_2(tmp_path, capsys, monkeypatch):
    # Used to run forever: the move tick rescheduled itself at the same instant.
    text = TINY.format(duration="500 ms", seed=7).replace(
        "waypoint = 1 m, 0 m, 0 s", "waypoint = 1 m, 0 m, 0 s\nmove_tick = 0 ms")
    _cli_run_rejects(text, "move_tick = 0 ms", tmp_path, capsys, monkeypatch)


def test_cli_zero_probe_retry_exit_2(tmp_path, capsys, monkeypatch):
    # Used to run forever: a scan with no stationary node to poll fails at
    # once, and the retry timer restarted it at the same instant.
    text = ("[node 4]\nrole = end_device\nclass = mobile\n\n"
            "[handover]\nmode = scan\nprobe_retry = 0 ms\n")
    _cli_run_rejects(text, "probe_retry = 0 ms", tmp_path, capsys, monkeypatch)


def test_cli_tpc_window_key_exit_2(tmp_path, capsys, monkeypatch):
    # [tpc] window changed no run (TPC acts on the parent frame just heard),
    # so the key is gone; a file that still sets it is told so at its line.
    text = TINY.format(duration="500 ms", seed=7).replace(
        "enabled = off", "enabled = on\nwindow = 1 s")
    err = _cli_run_rejects(text, "window = 1 s", tmp_path, capsys, monkeypatch)
    assert "unknown key 'window' in section [tpc]" in err


def test_cli_empty_section_header_exit_2(tmp_path, capsys, monkeypatch):
    # Used to escape as an IndexError from parse_scenario.
    text = TINY.format(duration="500 ms", seed=7) + "\n[]\n"
    _cli_run_rejects(text, "[]", tmp_path, capsys, monkeypatch)


def test_cli_tx_power_outside_power_levels_exit_2(tmp_path, capsys, monkeypatch):
    # Used to exit 2 without a line number.
    text = TINY.format(duration="500 ms", seed=7).replace(
        "tx_power = 0 dBm", "tx_power = 1 dBm")
    _cli_run_rejects(text, "tx_power = 1 dBm", tmp_path, capsys, monkeypatch)


def test_sweep_runs_the_scenario_s_sweep_powers_in_their_order():
    cfg = make_cfg(TINY.format(duration="200 ms", seed=7) + "\n[sweep]\npowers = 4 0 dBm\n")
    assert [lv.power_dbm for lv in sweep(cfg).levels] == [4.0, 0.0]


def test_cli_sweep_powers_outside_power_levels_exit_2(tmp_path, capsys):
    # Used to be accepted, so `sweep` exited 1 with a usage error and no line.
    text = TINY.format(duration="500 ms", seed=7) + "\n[sweep]\npowers = 0 7 dBm\n"
    path = tmp_path / "bad.scenario"
    path.write_text(text)
    lineno = text.splitlines().index("powers = 0 7 dBm") + 1
    code = main(["sweep", "--scenario", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"scenario error: line {lineno}: " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_custom_power_levels_without_sweep_line(tmp_path):
    # Only a [sweep] powers line is checked at parse time, so a file with its
    # own power_levels and no [sweep] section runs, sweeps with --powers, and
    # sweeps its own power_levels without.
    text = TINY.format(duration="500 ms", seed=7).replace(
        "tx_power = 0 dBm", "tx_power = 0 dBm\npower_levels = 0 5 10 dBm")
    path = tmp_path / "levels.scenario"
    path.write_text(text)
    args = ["--scenario", str(path), "--out"]
    assert main(["run", *args, str(tmp_path / "run")]) == 0
    assert main(["sweep", *args, str(tmp_path / "s1"), "--powers", "0 5"]) == 0
    assert (tmp_path / "s1" / "power_5dBm").is_dir()
    # Used to run 0/2/3/4/5/6 dBm and exit 1: 2, 3, 4 and 6 dBm are not levels.
    assert main(["sweep", *args, str(tmp_path / "s2")]) == 0
    summary = (tmp_path / "s2" / "summary.txt").read_text().splitlines()
    assert [row.split(" | ")[0].strip() for row in summary[2:5]] == ["0", "5", "10"]
    for level in (0, 5, 10):
        assert (tmp_path / "s2" / f"power_{level}dBm" / "trace.csv").is_file()


def test_sweep_without_a_sweep_line_runs_power_levels_in_file_order():
    # Used to run 0/2/3/4/5/6 dBm, which skipped 1 dBm and here failed on 2 dBm.
    cfg = make_cfg(TINY.format(duration="500 ms", seed=7).replace(
        "tx_power = 0 dBm", "tx_power = 0 dBm\npower_levels = 6 0 1 dBm"))
    assert cfg.sweep_powers is None
    assert [lv.power_dbm for lv in sweep(cfg).levels] == [6.0, 0.0, 1.0]


def _write_tiny_without_mobile(tmp_path):
    mobile = "[node 4]\nrole = end_device\nclass = mobile\n"
    text = TINY.format(duration="500 ms", seed=7)
    assert mobile in text
    path = tmp_path / "nomobile.scenario"
    path.write_text(text.replace(mobile, ""))
    return path


def test_cli_compare_without_mobile_exit_2(tmp_path, capsys):
    # Used to run a whole arm first, then exit 1 with a ValueError.
    path = _write_tiny_without_mobile(tmp_path)
    code = main(["compare", "--scenario", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "compare needs a mobile node" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_sweep_without_mobile_exit_2(tmp_path, capsys):
    # Used to exit 0 with "minimum gap-free level: 0 dBm": with no mobile,
    # no trace row measured coverage and every level looked gap-free.
    path = _write_tiny_without_mobile(tmp_path)
    code = main(["sweep", "--scenario", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "sweep needs a mobile node" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_sweep_with_decreasing_x_exit_2(tmp_path, capsys):
    # Used to exit 0: a 15 m -> 0 m trajectory wrote the reversed interval
    # "0,assoc_3,14.95,10.84" to coverage.csv, and `gaps` merged both passes.
    text = TINY.format(duration="500 ms", seed=7).replace(
        "waypoint = 1 m, 0 m, 0 s",
        "waypoint = 15 m, 0 m, 0 s\nwaypoint = 15 m, 0 m, 100 ms\n"
        "waypoint = 0 m, 0 m, 400 ms")
    path = tmp_path / "backwards.scenario"
    path.write_text(text)
    code = main(["sweep", "--scenario", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "waypoint 3" in err
    assert not (tmp_path / "o").exists()
    code = main(["gaps", "--trace", str(DATA / "golden_tiny.csv"),
                 "--scenario", str(path)])
    assert code == 2
    assert capsys.readouterr().err == err


def test_cli_negative_backoff_exponent_exit_2(tmp_path, capsys, monkeypatch):
    # Used to end in "error: negative shift count" (exit 1).
    text = TINY.format(duration="500 ms", seed=7) + "\n[csma]\nmac_min_be = -1\n"
    _cli_run_rejects(text, "mac_min_be = -1", tmp_path, capsys, monkeypatch)


@pytest.mark.parametrize("value", ["-3", "6"])
def test_cli_max_csma_backoffs_outside_0_to_5_exit_2(value, tmp_path, capsys,
                                                     monkeypatch):
    # Used to run: -3 failed every send at its first busy CCA.
    bad = f"max_csma_backoffs = {value}"
    text = TINY.format(duration="500 ms", seed=7) + f"\n[csma]\n{bad}\n"
    err = _cli_run_rejects(text, bad, tmp_path, capsys, monkeypatch)
    assert "outside 0..5" in err


@pytest.mark.parametrize("value", ["-1", "8"])
def test_cli_max_frame_retries_outside_0_to_7_exit_2(value, tmp_path, capsys,
                                                     monkeypatch):
    # Used to run: -1 sent a frame once and never retried it.
    bad = f"max_frame_retries = {value}"
    text = TINY.format(duration="500 ms", seed=7) + f"\n[csma]\n{bad}\n"
    err = _cli_run_rejects(text, bad, tmp_path, capsys, monkeypatch)
    assert "outside 0..7" in err


@pytest.mark.parametrize("bad", ["lq_target = 256", "lq_target = -1",
                                 "lq_hysteresis = 256", "lq_hysteresis = -1"])
def test_cli_lq_key_outside_the_lq_scale_exit_2(bad, tmp_path, capsys, monkeypatch):
    # Used to run: lq_target 300 pinned TPC to the top level, as no LQ
    # reaches it, and a negative hysteresis inverted the step-down guard.
    text = TINY.format(duration="500 ms", seed=7).replace(
        "enabled = off", f"enabled = on\n{bad}")
    err = _cli_run_rejects(text, bad, tmp_path, capsys, monkeypatch)
    assert "outside 0..255" in err


def test_cli_repeated_run_key_exit_2(tmp_path, capsys, monkeypatch):
    # Used to be accepted: the last line won, so this ran at seed 7.
    text = TINY.format(duration="500 ms", seed=7).replace(
        "[run]\n", "[run]\nseed = 8\n")
    err = _cli_run_rejects(text, "seed = 7", tmp_path, capsys, monkeypatch)
    assert "key 'seed' already set at line 3" in err


def test_cli_repeated_node_key_exit_2(tmp_path, capsys, monkeypatch):
    # Used to be accepted: the last line won.  Each node sets its own x once.
    text = TINY.format(duration="500 ms", seed=7).replace(
        "[node 4]", "[node 2]\nrole = router\nclass = stationary\nx = 2 m\n\n[node 4]")
    assert [n.x for n in make_cfg(text).stationary_nodes()] == [0.0, 2.0]
    text = text.replace("x = 0 m\n", "x = 0 m\nx = 3 m\n")
    err = _cli_run_rejects(text, "x = 3 m", tmp_path, capsys, monkeypatch)
    assert "key 'x' already set at line" in err


def test_cli_empty_ack_frame_exit_2(tmp_path, capsys, monkeypatch):
    # Used to end in "error: frame must be at least 1 byte" (exit 1).
    text = (TINY.format(duration="500 ms", seed=7).replace(
        "[phy]\n", "[phy]\nphy_overhead = 0 B\n") + "\n[mac]\nack_header = 0 B\n")
    _cli_run_rejects(text, "ack_header = 0 B", tmp_path, capsys, monkeypatch)


@pytest.mark.parametrize("exponent", ["0", "-2"])
@pytest.mark.parametrize("command", ["sweep", "calibrate"])
def test_cli_non_positive_path_loss_exponent_exit_2(command, exponent, tmp_path,
                                                    capsys):
    # 0 used to end in a ZeroDivisionError traceback (exit 1) from
    # phy.comm_range_m; -2 ran with a path loss that falls with distance.
    lines = cli.default_scenario_path().read_text().splitlines()
    lineno = next(i for i, line in enumerate(lines, 1)
                  if line.startswith("path_loss_exponent = "))
    lines[lineno - 1] = f"path_loss_exponent = {exponent}"
    path = tmp_path / "exponent.scenario"
    path.write_text("\n".join(lines) + "\n")
    code = main([command, "--scenario", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert (f"scenario error: line {lineno}: key 'path_loss_exponent': must be "
            f"positive, got '{exponent}'") in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _tiny_exponent_scenario(tmp_path):
    # 10 ** (margin / (10 * n)) overflows in phy.comm_range_m for n = 1e-5.
    text = cli.default_scenario_path().read_text()
    lines = [("path_loss_exponent = 1e-5"
              if line.startswith("path_loss_exponent = ") else line)
             for line in text.splitlines()]
    path = tmp_path / "tiny_exponent.scenario"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_cli_sweep_tiny_path_loss_exponent_covers_the_line(tmp_path, capsys):
    # Used to end in an OverflowError traceback (exit 1) from
    # phy.comm_range_m.  A range past every float covers the whole line.
    path = _tiny_exponent_scenario(tmp_path)
    code = main(["sweep", "--scenario", str(path), "--out", str(tmp_path / "o")])
    assert code == 0
    out = capsys.readouterr().out
    assert "        0 | - | (0.00,15.00) | OPTIMAL,OVERPROVISIONED" in out
    assert "minimum gap-free level: 0 dBm" in out


def test_cli_calibrate_tiny_path_loss_exponent_searches(tmp_path, capsys):
    # Used to end in an OverflowError traceback (exit 1) from
    # phy.comm_range_m while scoring the supplied layout.  That layout has
    # no gap, so the grid search runs, and it does not start from the
    # supplied exponent: it finds the default scenario's fit.
    path = _tiny_exponent_scenario(tmp_path)
    code = main(["calibrate", "--scenario", str(path), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert "  mode: grid search" in captured.out
    assert "  path_loss_exponent = 3.5" in captured.out
    assert (tmp_path / "o" / "calibrated.scenario").exists()


def test_cli_sleeping_node_wakes_to_beacon(tmp_path):
    # Used to exit 4: "node 1 cannot transmit while asleep".
    text = (TINY.format(duration="2 s", seed=7).replace(
        "y = 0 m\n", "y = 0 m\nsleep = on\n") + "\n[mac]\nbeacon_order = 6\n")
    path = tmp_path / "beacon.scenario"
    path.write_text(text)
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 0
    assert any(r.node_id == 1 and r.event_kind == "TX_START" and r.frame_kind == "beacon"
               for r in read_trace(tmp_path / "o" / "trace.csv"))


def test_cli_simulation_error_exit_4(tmp_path, capsys, monkeypatch):
    def failing_run(*args, **kwargs):
        raise SimulationError("energy ledger already closed")

    monkeypatch.setattr(cli, "run_simulation", failing_run)
    code = main(["run", "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_SIMULATION == 4
    err = capsys.readouterr().err
    assert err == "simulation error: energy ledger already closed\n"


def test_cli_sweep_trajectory_off_one_line_exit_2(tmp_path, capsys):
    text = cli.default_scenario_path().read_text()
    assert "waypoint = 15 m, 0 m, 15 s" in text
    path = tmp_path / "sloped.scenario"
    path.write_text(text.replace("waypoint = 15 m, 0 m, 15 s",
                                 "waypoint = 15 m, 1 m, 15 s"))
    code = main(["sweep", "--scenario", str(path), "--powers", "0",
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "trajectory waypoint 2 (15 m, 1 m)" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_beacon_order_out_of_range_exit_2(tmp_path, capsys, monkeypatch):
    # Used to exit 2 without a line number.
    text = TINY.format(duration="500 ms", seed=7) + "\n[mac]\nbeacon_order = 16\n"
    err = _cli_run_rejects(text, "beacon_order = 16", tmp_path, capsys, monkeypatch)
    assert "beacon_order must be 0..15" in err


def test_cli_channel_not_in_band_names_the_later_line_exit_2(tmp_path, capsys,
                                                              monkeypatch):
    # Used to exit 2 without a line number.  Band 868 has only channel 0, so
    # the band line, set after the channel line, is the one named.
    text = TINY.format(duration="500 ms", seed=7).replace(
        "tx_power = 0 dBm", "channel = 11\nband = 868\ntx_power = 0 dBm")
    err = _cli_run_rejects(text, "band = 868", tmp_path, capsys, monkeypatch)
    assert "channel 11 not in band" in err


def _tiny_with(phy="", energy=""):
    text = TINY.format(duration="500 ms", seed=7).replace(
        "tx_power = 0 dBm", "tx_power = 0 dBm" + phy)
    return text + ("\n[energy]" + energy + "\n" if energy else "")


@pytest.mark.parametrize("phy, energy, bad_line", [
    # Used to book tx@-30.0 at -3.6 mJ and less: 30 + 1.5 * -30 = -15 mA.
    ("\npower_levels = -30 -25 0 2 3 4 5 6 dBm", "",
     "power_levels = -30 -25 0 2 3 4 5 6 dBm"),
    # The later of the level and current lines is named.
    ("\npower_levels = -21 0 dBm", "\ntx_current_0dbm = 30 mA",
     "tx_current_0dbm = 30 mA"),
    ("", "\ntx_current_per_dbm = -6 mA", "tx_current_per_dbm = -6 mA"),
    ("", "\ntx_current_0dbm = -1 mA\nrx_current = 30 mA", "tx_current_0dbm = -1 mA"),
], ids=["levels_to_-30dBm", "levels_to_-21dBm", "negative_slope", "negative_at_0dBm"])
def test_cli_negative_tx_current_exit_2(phy, energy, bad_line, tmp_path, capsys,
                                        monkeypatch):
    err = _cli_run_rejects(_tiny_with(phy, energy), bad_line, tmp_path, capsys,
                           monkeypatch)
    assert "mA, below 0 mA" in err


def test_cli_node_tx_power_override_with_negative_current_exit_2(tmp_path, capsys,
                                                                 monkeypatch):
    # Used to book tx@-30.0 at -0.49 mJ for the mobile: the override is not
    # one of the power_levels, and no check covered it.
    text = _tiny_with().replace("class = mobile", "class = mobile\ntx_power = -30 dBm")
    err = _cli_run_rejects(text, "tx_power = -30 dBm", tmp_path, capsys, monkeypatch)
    assert "tx current at -30 dBm is -15 mA" in err


@pytest.mark.parametrize("phy, energy, bad_line", [
    ("", "\nsupply_voltage = 0 V", "supply_voltage = 0 V"),
    ("", "\nsupply_voltage = -3 V", "supply_voltage = -3 V"),
    # Used to map every heard frame to LQ 255, so TPC saw no link quality.
    ("\nlq_saturation_margin = 0 dB", "", "lq_saturation_margin = 0 dB"),
    ("\nlq_saturation_margin = -5 dB", "", "lq_saturation_margin = -5 dB"),
], ids=["voltage_0V", "voltage_-3V", "lq_margin_0dB", "lq_margin_-5dB"])
def test_cli_supply_voltage_and_lq_margin_not_positive_exit_2(
        phy, energy, bad_line, tmp_path, capsys, monkeypatch):
    err = _cli_run_rejects(_tiny_with(phy, energy), bad_line, tmp_path, capsys,
                           monkeypatch)
    assert f"{bad_line.split()[0]} " in err and "is not positive" in err


def test_tx_current_of_exactly_zero_is_accepted():
    # 30 mA + 1.5 mA/dBm * -20 dBm: the lowest level the defaults allow.
    cfg = make_cfg(_tiny_with("\npower_levels = -20 0 dBm"))
    assert cfg.currents.tx_current_ma(-20.0) == 0.0
    with pytest.raises(ScenarioError):
        make_cfg(_tiny_with("\npower_levels = -20.01 0 dBm"))


def _tiny_setting(section, line, scenario=TINY.format(duration="500 ms", seed=7)):
    """The scenario text (TINY by default) with `line` in its [section], in
    place of the key's own line."""
    key = line.split(" = ")[0]
    text = "".join(kept for kept in scenario.splitlines(keepends=True)
                   if not kept.startswith(f"{key} = "))
    if f"[{section}]\n" in text:
        return text.replace(f"[{section}]\n", f"[{section}]\n{line}\n")
    return text + f"\n[{section}]\n{line}\n"


_ZERO_OR_MORE_TIMES = [("run", "duration"), ("csma", "unit_backoff"),
                       ("csma", "ack_wait"), ("csma", "turnaround"),
                       ("handover", "probe_window"),
                       ("handover", "scan_response_timeout"),
                       ("handover", "lq_retrigger_cooldown"),
                       ("compare", "reference_latency_delta")]
# (section, key, lowest, highest, what the error says)
_INT_RANGES = [("csma", "mac_max_be", 3, 8, "outside 3..8"),
               ("csma", "max_csma_backoffs", 0, 5, "outside 0..5"),
               ("csma", "max_frame_retries", 0, 7, "outside 0..7"),
               ("mac", "beacon_order", 0, 15, "must be 0..15"),
               ("tpc", "lq_target", 0, 255, "outside 0..255"),
               ("tpc", "lq_hysteresis", 0, 255, "outside 0..255")]
_NOT_FINITE = "is nan, infinite or out of range"
# (section, a value the rule accepts, a value it rejects, what the error
# says).  The generated rows put the two values on either side of the rule's
# boundary.  A comment says what a rejected value did before the parser
# rejected it.
SINGLE_KEY_BOUNDS = [
    *[(s, f"{k} = 0 us", f"{k} = -1 us", "must be zero or more")
      for s, k in _ZERO_OR_MORE_TIMES],
    # Used to end in a SimulationError traceback from the energy ledger.
    ("run", "duration = 0 us", "duration = -1 s", "must be zero or more"),
    # Used to end in "simulation error: ... scheduled in the past" (exit 4).
    ("handover", "probe_window = 0 us", "probe_window = -1 ms", "must be zero or more"),
    # Used to end in "cannot convert float NaN to integer" (exit 1).
    ("handover", "probe_window = 0 us", "probe_window = nan ms", _NOT_FINITE),
    # Each used to escape as an OverflowError traceback.
    ("handover", "probe_window = 0 us", "probe_window = inf ms", _NOT_FINITE),
    ("run", "duration = 0 us", "duration = inf s", _NOT_FINITE),
    # Used to run forever: the data tick rescheduled itself at the same instant.
    ("traffic", "period = 1 us", "period = 0 ms", "must be positive"),
    # Used to run forever: the move tick rescheduled itself at the same instant.
    ("trajectory", "move_tick = 1 us", "move_tick = 0 ms", "must be positive"),
    # Used to run forever: a scan with no stationary node to poll fails at
    # once, and the retry timer restarted it at the same instant.
    ("handover", "probe_retry = 1 us", "probe_retry = 0 ms", "must be positive"),
    *[(s, f"{k} = 0 B", f"{k} = -1 B", "must be zero or more")
      for s, k in (("phy", "phy_overhead"), ("mac", "mac_header"), ("mac", "ack_header"),
                   ("traffic", "payload"))],
    ("mac", "ack_header = 127 B", "ack_header = 128 B", "exceeds the 127 B frame limit"),
    *[(s, f"{k} = {lo}", f"{k} = {lo - 1}", says) for s, k, lo, _, says in _INT_RANGES],
    *[(s, f"{k} = {hi}", f"{k} = {hi + 1}", says) for s, k, _, hi, says in _INT_RANGES],
    # Used to hang: draw_uniform(2**65) could accept no 64-bit draw.
    ("csma", "mac_max_be = 8", "mac_max_be = 65", "outside 3..8"),
    ("csma", "mac_min_be = 0", "mac_min_be = -1", "must be zero or more"),
    *[("energy", f"{k} = 0 mA", f"{k} = -0.001 mA", "below 0 mA")
      for k in ("rx_current", "idle_current", "sleep_current")],
    # Used to be accepted, and booked negative energy for that radio mode.
    *[("energy", f"{k} = 0 mA", f"{k} = {value}", "below 0 mA")
      for k, value in (("rx_current", "-1 mA"), ("idle_current", "-0.5 mA"),
                       ("sleep_current", "-0.003 mA"))],
    ("energy", "supply_voltage = 0.001 V", "supply_voltage = 0 V", "is not positive"),
    ("phy", "lq_saturation_margin = 0.001 dB", "lq_saturation_margin = 0 dB",
     "is not positive"),
    ("phy", "path_loss_exponent = 0.001", "path_loss_exponent = 0", "must be positive"),
    *[("handover", f"{k} = 1", f"{k} = 0", "must be 1 or more")
      for k in ("ack_fail_threshold", "degraded_ack_fail_threshold")],
]


@pytest.mark.parametrize("section, ok, bad, says", SINGLE_KEY_BOUNDS,
                         ids=[bad for _, _, bad, _ in SINGLE_KEY_BOUNDS])
def test_cli_single_key_rule_boundary(section, ok, bad, says, tmp_path, capsys,
                                      monkeypatch):
    # Each rule that reads one key alone: its last accepted value parses, and
    # the first value past it is rejected at its line, naming the key and
    # saying which rule it broke.
    make_cfg(_tiny_setting(section, ok))
    err = _cli_run_rejects(_tiny_setting(section, bad), bad, tmp_path, capsys,
                           monkeypatch)
    assert bad.split(" = ")[0] in err
    assert says in err


# Two parents 10 m apart and the mobile passing from one to the other, so
# that each handover mode associates, loses its parent and hands over.
TWO_PARENTS = """
[run]
duration = {duration}
seed = 7

[phy]
rx_sensitivity = -73 dBm
pl0 = 54 dB
path_loss_exponent = 3.5

[node 1]
role = coordinator
class = stationary
x = 0 m
y = 0 m

[node 2]
role = router
class = stationary
x = 10 m
y = 0 m

[node 4]
role = end_device
class = mobile

[trajectory]
waypoint = 0 m, 0 m, 0 s
waypoint = 10 m, 0 m, {duration}

[tpc]
enabled = on

[handover]
mode = {mode}
"""
ACCEPTED_VALUES = sorted({(section, ok) for section, ok, _, _ in SINGLE_KEY_BOUNDS})


@pytest.mark.parametrize("mode", ["broadcast", "scan"])
@pytest.mark.parametrize("section, ok", ACCEPTED_VALUES,
                         ids=[ok for _, ok in ACCEPTED_VALUES])
def test_accepted_single_key_value_passes_the_mac_checks(section, ok, mode):
    # Each value a single-key rule accepts runs, and the run passes the MAC
    # checks.  A 1 us interval writes about a row per us, so it runs 200 ms.
    duration = "200 ms" if ok.endswith(" = 1 us") else "1 s"
    text = _tiny_setting(section, ok, TWO_PARENTS.format(duration=duration, mode=mode))
    check_invariants(run_simulation(make_cfg(text)))


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(st.lists(st.sampled_from(ACCEPTED_VALUES), min_size=2, max_size=6,
                unique_by=lambda value: (value[0], value[1].split(" = ")[0])),
       st.sampled_from(["broadcast", "scan"]))
def test_accepted_values_of_several_keys_run_clean_or_fail_at_a_line(values, mode):
    # Two to six keys at once, each at a value its own rule accepts: a rule
    # over several keys may reject the text, at a line; else it runs and
    # passes the MAC checks.
    duration = ("200 ms" if any(ok.endswith(" = 1 us") for _, ok in values)
                else "1 s")
    text = TWO_PARENTS.format(duration=duration, mode=mode)
    for section, ok in values:
        text = _tiny_setting(section, ok, text)
    try:
        cfg = make_cfg(text)
    except ScenarioError as exc:
        assert exc.line is not None, exc
        return
    check_invariants(run_simulation(cfg))


@pytest.mark.parametrize("bad", ["payload = -0.5 B", "payload = 20.7 B"])
def test_cli_fractional_byte_count_exit_2(bad, tmp_path, capsys, monkeypatch):
    # Used to be truncated: -0.5 B ran as 0 B, passing the zero-or-more
    # rule, and 20.7 B as 20 B.
    err = _cli_run_rejects(_tiny_setting("traffic", bad), bad, tmp_path, capsys,
                           monkeypatch)
    assert "is not a whole number of bytes" in err
    cfg = make_cfg(_tiny_setting("traffic", "payload = 1e1 B"))
    assert cfg.traffic.payload_bytes == 10


@pytest.mark.parametrize("bad", ["unit_backoff = 1.5 us", "unit_backoff = 0.0004 ms"])
def test_cli_fractional_time_exit_2(bad, tmp_path, capsys, monkeypatch):
    # Used to be rounded: 1.5 us ran as 2 us, and 0.0004 ms as 0 us.
    err = _cli_run_rejects(_tiny_setting("csma", bad), bad, tmp_path, capsys,
                           monkeypatch)
    assert "is not a whole number of us" in err


def test_cli_time_whole_in_decimal_runs(tmp_path):
    # 1.001 ms is 1,001 us, though float("1.001") * 1000 is 1000.9999999999999.
    path = tmp_path / "s.scenario"
    path.write_text(_tiny_setting("csma", "unit_backoff = 1.001 ms"))
    assert load_scenario(path).csma.unit_backoff_us == 1001
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 0


def test_cli_sweep_keeps_levels_apart_that_g_would_merge(tmp_path, capsys):
    # `:g` printed 4.0000001 as 4: the rendered power_levels named a level
    # twice, and both levels of the sweep wrote power_4dBm.
    text = TINY.format(duration="500 ms", seed=7).replace(
        "tx_power = 0 dBm", "tx_power = 0 dBm\npower_levels = 0 4 4.0000001 dBm")
    path, out = tmp_path / "levels.scenario", tmp_path / "s"
    path.write_text(text)
    cfg = load_scenario(path)
    assert "power_levels = 0 4 4.0000001 dBm" in render_scenario(cfg)
    assert main(["sweep", "--scenario", str(path), "--out", str(out),
                 "--powers", "4,4.0000001"]) == 0
    assert sorted(p.name for p in out.iterdir() if p.is_dir()) == \
        ["power_4.0000001dBm", "power_4dBm"]
    levels = [line.split(" | ")[0] for line in
              (out / "summary.txt").read_text().splitlines()[2:4]]
    assert levels == ["        4", "4.0000001"]
    rows = (out / "coverage.csv").read_text().splitlines()[1:]
    assert {row.split(",")[0] for row in rows} == {"4", "4.0000001"}


@pytest.mark.parametrize("section, bad", [
    ("phy", "power_levels = 0 0 2 3 4 5 6 6 dBm"), ("sweep", "powers = 4 4 0 dBm")])
def test_cli_repeated_power_level_exit_2(section, bad, tmp_path, capsys, monkeypatch):
    # Used to be accepted, and a sweep ran the repeated level twice.
    err = _cli_run_rejects(_tiny_setting(section, bad), bad, tmp_path, capsys,
                           monkeypatch)
    assert "names a level twice" in err


def test_sweep_repeated_power_level_exit_1(default_cfg, tmp_path, capsys):
    # Used to run 4 dBm twice: two summary rows, each coverage.csv row of that
    # level twice, and the second trace written over the first.
    with pytest.raises(ValueError, match="name a level twice"):
        sweep(default_cfg, [4.0, 4.0, 0.0])
    assert main(["sweep", "--powers", "4,4,0", "--out", str(tmp_path / "o")]) == 1
    assert "name a level twice" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("lines, bad", [
    ("x = 7 m\ny = 3 m", "x = 7 m"), ("y = 3 m\nx = 7 m", "y = 3 m"),
    ("y = 3 m", "y = 3 m")])
def test_cli_mobile_node_x_or_y_exit_2(lines, bad, tmp_path, capsys, monkeypatch):
    # Used to be accepted and ignored: the mobile moves along [trajectory],
    # and render_scenario dropped both lines.
    text = TINY.format(duration="500 ms", seed=7).replace(
        "class = mobile\n", f"class = mobile\n{lines}\n")
    err = _cli_run_rejects(text, bad, tmp_path, capsys, monkeypatch)
    assert "mobile node 4 takes its position from [trajectory]" in err


@pytest.mark.parametrize("value", ["inf", "-inf", "1e400", "nan"])
def test_cli_gaps_non_finite_position_exit_2(value, tmp_path, capsys):
    # Used to end in an OverflowError traceback, or for nan in "error: cannot
    # convert float NaN to integer" (exit 1).
    lines = (DATA / "golden_tiny.csv").read_text().splitlines()
    lineno = next(i for i, line in enumerate(lines, 1) if ",4,RX," in line)
    fields = lines[lineno - 1].split(",")
    fields[10] = value  # pos_x_m of a mobile RX row
    lines[lineno - 1] = ",".join(fields)
    trace = tmp_path / "trace.csv"
    trace.write_text("\n".join(lines) + "\n")
    code = main(["gaps", "--trace", str(trace),
                 "--scenario", str(DATA / "golden_tiny.scenario")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("trace error: ") and f"line {lineno}: " in err
