"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines on the terminal.
"""

import time

import pytest

from conftest import DATA
from reference import boundaries_match
from util_props import run_property_suite
from wpansim.calibration import CalibrationTargets, apply_to_config, search
from wpansim.coverage import CELL_M, static_gap_oracle
from wpansim.harness import compare, sweep
from wpansim.phy import B868, B915, B2400, beacon_interval
from wpansim.scenario import CurrentModel, EnergyLedger, tx_mode
from wpansim.scenario_file import load_scenario
from wpansim.sim import Simulation
from wpansim.trace import write_trace

SWEEP_LEVELS = [0.0, 2.0, 3.0, 4.0, 5.0, 6.0]


@pytest.fixture(scope="module")
def calibrated_cfg():
    """Calibrate from the detuned base, exercising the actual grid search."""
    base = load_scenario(DATA / "uncalibrated.scenario")
    targets = CalibrationTargets()
    result = search(base, targets)
    assert result.ok and result.searched
    return apply_to_config(base, result, targets)


@pytest.fixture(scope="module")
def sweep_result(calibrated_cfg):
    return sweep(calibrated_cfg, SWEEP_LEVELS)


def test_criterion_1_formula_suite():
    t0 = time.perf_counter()
    assert beacon_interval(0, B2400) == 15_360
    assert beacon_interval(14, B2400) == 251_658_240
    assert beacon_interval(0, B915) == 24_000
    assert beacon_interval(14, B915) == 393_216_000
    assert beacon_interval(0, B868) == 48_000
    assert beacon_interval(14, B868) == 786_432_000
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: beacon intervals exact "
          f"({elapsed * 1000:.0f} ms)")


def test_criterion_2_first_trace_gap_reproduction(sweep_result):
    gaps = sweep_result.level(0.0).report.gaps
    assert len(gaps) == 2
    targets = [(2.0, 4.0), (11.0, 13.0)]
    for (lo, hi), (want_lo, want_hi) in zip(gaps, targets):
        assert abs(lo - want_lo) <= 0.5
        assert abs(hi - want_hi) <= 0.5
    print(f"\nACCEPTANCE 2 PASS: 0 dBm gaps "
          f"{[(round(a, 2), round(b, 2)) for a, b in gaps]} within +-0.5 m "
          f"of (2,4) and (11,13)")


def _cells(gaps):
    out = set()
    for lo, hi in gaps:
        k = round(lo / CELL_M)
        while k * CELL_M < hi - 1e-9:
            out.add(k)
            k += 1
    return out


def test_criterion_3_optimal_power_level(sweep_result):
    t0 = time.perf_counter()
    by_level = {lv.power_dbm: lv.report for lv in sweep_result.levels}
    # monotone shrink (set inclusion at 0.1 m resolution)
    for lo_p, hi_p in zip(SWEEP_LEVELS, SWEEP_LEVELS[1:]):
        assert _cells(by_level[hi_p].gaps) <= _cells(by_level[lo_p].gaps), \
            f"gap set grew from {lo_p} to {hi_p} dBm"
    assert sweep_result.optimal_dbm == 4.0
    assert by_level[5.0].overlaps and by_level[6.0].overlaps
    elapsed = time.perf_counter() - t0
    print(f"\nACCEPTANCE 3 PASS: gap sets shrink monotonically, minimum "
          f"gap-free level 4 dBm, overlap present at 5 and 6 dBm "
          f"(check {elapsed:.2f} s)")


def test_criterion_4_handover_tpc_directional(calibrated_cfg):
    result = compare(calibrated_cfg)
    prop, base = result.proposed, result.baseline
    assert prop.mean_latency_s < base.mean_latency_s
    assert prop.mobile_energy_mj < base.mobile_energy_mj
    print(f"\nACCEPTANCE 4 PASS: broadcast+tpc latency "
          f"{prop.mean_latency_s:.4f} s < scan+fixed {base.mean_latency_s:.4f} s "
          f"(reference delta 1.2 s); energy {prop.mobile_energy_mj:.1f} mJ < "
          f"{base.mobile_energy_mj:.1f} mJ, saving "
          f"{result.energy_delta_pct:.1f} % (reference 42.8 %); magnitudes "
          f"are scenario-scale, direction is the gate")


def test_criterion_5_gap_oracle_equivalence(calibrated_cfg, sweep_result):
    for lv in sweep_result.levels:
        oracle = static_gap_oracle(calibrated_cfg, lv.power_dbm)
        assert boundaries_match(lv.report.gaps, oracle, 0.1), \
            (lv.power_dbm, lv.report.gaps, oracle)
    print(f"\nACCEPTANCE 5 PASS: trace gaps match the 0.01 m brute-force "
          f"sampler within 0.1 m at all {len(sweep_result.levels)} levels")


def test_criterion_6_mac_property_suite():
    t0 = time.perf_counter()
    events = run_property_suite(1000)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 6 PASS: 1000 randomized scenarios ({events} events) "
          f"pass check_invariants(result) in {elapsed:.1f} s: the CSMA limits "
          f"on their BACKOFF, CCA_BUSY and ACK_TIMEOUT rows, and no capture, "
          f"one frame at a time per node and ledger transmit time on the "
          f"frames their TX_START, RX and TX_END rows describe")


def test_criterion_7_determinism_and_golden_trace(default_cfg, tmp_path):
    a = Simulation(default_cfg).run()
    b = Simulation(default_cfg).run()
    write_trace(tmp_path / "a.csv", a.rows)
    write_trace(tmp_path / "b.csv", b.rows)
    bytes_a = (tmp_path / "a.csv").read_bytes()
    assert bytes_a == (tmp_path / "b.csv").read_bytes()

    tiny = load_scenario(DATA / "golden_tiny.scenario")
    run = Simulation(tiny).run()
    write_trace(tmp_path / "tiny.csv", run.rows)
    golden = (DATA / "golden_tiny.csv").read_bytes()
    assert (tmp_path / "tiny.csv").read_bytes() == golden
    print(f"\nACCEPTANCE 7 PASS: repeated runs byte-identical "
          f"({len(bytes_a)} bytes); tiny trace matches the checked-in golden "
          f"file ({len(golden)} bytes)")


def test_criterion_8_energy_ledger(default_cfg):
    run = Simulation(default_cfg).run()
    for node_id, ledger in run.ledgers.items():
        assert ledger.total_time() == default_cfg.duration_us, node_id

    led = EnergyLedger(tx_mode(0.0))
    led.close(1_000_000)
    mj = led.energy_mj(CurrentModel(), 3.0)
    assert round(mj, 3) == 90.0
    print(f"\nACCEPTANCE 8 PASS: mode times partition the run exactly for "
          f"all {len(run.ledgers)} nodes; 1 s tx at 0 dBm = {mj:.3f} mJ")
