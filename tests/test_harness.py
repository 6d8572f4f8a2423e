import pytest

from conftest import DATA, tiny_cfg
from wpansim.cli import main
from wpansim.harness import compare, run_simulation, sweep
from wpansim.scenario import MODE_SLEEP
from wpansim.sim import Simulation
from wpansim.trace import HEADER, write_trace


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


def test_compare_with_tpc_disabled_both_arms_is_energy_neutral(default_cfg):
    # same handover mode and both arms at fixed max power: identical runs
    base = Simulation(default_cfg.clone(tpc_enabled=False,
                                        mobile_power=6.0)).run()
    again = Simulation(default_cfg.clone(tpc_enabled=False,
                                         mobile_power=6.0)).run()
    assert base.energy.per_node_mj == again.energy.per_node_mj


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
        times = arm.run.energy.per_node_mode_times[arm.run.mobile_id]
        assert MODE_SLEEP in times


# -- command line ----------------------------------------------------------------


def test_cli_run_and_golden_determinism(tmp_path):
    out = tmp_path / "out"
    code = main(["run", "--scenario", str(DATA / "golden_tiny.scenario"),
                 "--out", str(out)])
    assert code == 0
    golden = (DATA / "golden_tiny.csv").read_bytes()
    assert (out / "trace.csv").read_bytes() == golden


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


def test_cli_usage_error_exit_1(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1
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
    low = default_cfg.clone(power_override=0.0, tpc_enabled=False)
    res = Simulation(low).run()
    trace = tmp_path / "trace.csv"
    write_trace(trace, res.rows)
    code = main(["gaps", "--trace", str(trace)])
    assert code == 0
    printed = capsys.readouterr().out
    assert printed.count("gap:") == 2


def test_cli_gaps_missing_trace_exit_2(tmp_path):
    assert main(["gaps", "--trace", str(tmp_path / "none.csv")]) == 2


def test_cli_calibrate_writes_outputs(tmp_path):
    out = tmp_path / "cal"
    code = main(["calibrate", "--scenario",
                 str(DATA / "uncalibrated.scenario"), "--out", str(out)])
    assert code == 0
    assert (out / "calibrated.scenario").exists()
    report = (out / "calibration_report.txt").read_text()
    assert "status: ok" in report
    assert "mode: grid search" in report
    assert "pl0 + rx_sensitivity = -19 dBm (only this sum is identified" in report
    assert "communication range" in report


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


def test_cli_compare_writes_report(tmp_path):
    out = tmp_path / "cmp"
    code = main(["compare", "--out", str(out)])
    assert code == 0
    assert (out / "compare_report.txt").exists()


def test_cli_sweep_default_and_summary(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(["sweep", "--out", str(out), "--powers", "0,4"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "OPTIMAL" in printed
