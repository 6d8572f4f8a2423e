import csv
import math
from pathlib import Path

import pytest

from wpansim import kernels
from wpansim.calibration import (CalibrationTargets, apply_to_config,
                                 layout_metrics, search)
from wpansim.cli import default_scenario_path
from wpansim.coverage import static_gap_oracle
from wpansim.scenario_file import load_scenario

DATA = Path(__file__).parent / "data"


def test_identity_when_supplied_params_meet_targets(default_cfg):
    res = search(default_cfg)
    assert res.ok
    assert not res.searched  # short-circuit: input already satisfies targets
    assert res.path_loss_exponent == default_cfg.phy.path_loss_exponent
    assert res.pl0_db == default_cfg.phy.pl0_db
    assert res.positions == tuple(n.x for n in default_cfg.stationary_nodes())


def test_search_recovers_targets_from_detuned_start(uncalibrated_cfg):
    res = search(uncalibrated_cfg)
    assert res.searched
    assert res.ok
    assert res.max_boundary_error_m <= 0.5
    g1, g2 = res.achieved_gaps
    assert abs(g1[0] - 2.0) <= 0.5 and abs(g1[1] - 4.0) <= 0.5
    assert abs(g2[0] - 11.0) <= 0.5 and abs(g2[1] - 13.0) <= 0.5
    # grid-aligned outputs
    assert round(res.path_loss_exponent * 10) == res.path_loss_exponent * 10
    assert res.pl0_db == int(res.pl0_db)
    assert res.rx_sensitivity_dbm == int(res.rx_sensitivity_dbm)
    assert all(x * 2 == int(x * 2) for x in res.positions)


def test_calibrated_config_verified_by_independent_oracle(uncalibrated_cfg):
    targets = CalibrationTargets()
    res = search(uncalibrated_cfg, targets)
    cfg = apply_to_config(uncalibrated_cfg, res, targets)
    gaps0 = static_gap_oracle(cfg, 0.0)
    assert len(gaps0) == 2
    for (lo, hi), (want_lo, want_hi) in zip(gaps0, [(2, 4), (11, 13)]):
        assert abs(lo - want_lo) <= 0.5
        assert abs(hi - want_hi) <= 0.5
    assert static_gap_oracle(cfg, 4.0) == []  # gap-free at the target level
    assert static_gap_oracle(cfg, 3.0) != []  # still gapped one level below


def test_infeasible_targets_reported(uncalibrated_cfg):
    # a 0.5 m island between the gaps needs a tiny radius, but covering the
    # trajectory edge needs a large one: impossible geometry
    targets = CalibrationTargets(gap1=(2.0, 4.0), gap2=(4.5, 13.0))
    res = search(uncalibrated_cfg, targets)
    assert not res.ok


def test_layout_metrics_validity_conditions():
    targets = CalibrationTargets()
    bounds = (0.0, 15.0)
    # the shipped layout: valid and tight
    valid, err, gaps = layout_metrics(3.5, 54.0, -73.0, [-1.5, 7.5, 16.5],
                                      targets, bounds)
    assert valid and err < 0.05 and len(gaps) == 2
    # radius too large: no gaps at 0 dBm -> invalid
    valid, err, _ = layout_metrics(1.5, 30.0, -100.0, [-1.5, 7.5, 16.5],
                                   targets, bounds)
    assert not valid and math.isinf(err)


def test_apply_to_config_rewrites_phy_and_positions(uncalibrated_cfg):
    targets = CalibrationTargets()
    res = search(uncalibrated_cfg, targets)
    cfg = apply_to_config(uncalibrated_cfg, res, targets)
    assert cfg.phy.path_loss_exponent == res.path_loss_exponent
    assert cfg.phy.tx_power_dbm == targets.gap_free_dbm
    assert tuple(n.x for n in cfg.stationary_nodes()) == \
           tuple(sorted(res.positions))
    # the input config is untouched
    assert uncalibrated_cfg.phy.path_loss_exponent != res.path_loss_exponent


def test_best_layout_matches_golden_table():
    # Recorded from the kernel before its compiled twin was deleted: 128
    # radius triples over exponents 1.5..6.0, written as exact float reprs.
    grid_args = (-3.0, 0.5, 43, 2.0, 4.0, 11.0, 13.0, 0.0, 15.0, 1e-3)
    with open(DATA / "best_layout_golden.csv", newline="") as f:
        rows = [[float(v) for v in row.values()] for row in csv.DictReader(f)]
    assert len(rows) == 128
    assert any(row[3] < 1e300 for row in rows)  # some triples admit a layout
    for r0, r3, r4, *want in rows:
        assert kernels.best_layout(r0, r3, r4, *grid_args) == tuple(want)


def detuned_cfg():
    cfg = load_scenario(default_scenario_path())
    cfg.phy.path_loss_exponent = 2.0
    cfg.phy.pl0_db = 40.0
    cfg.phy.rx_sensitivity_dbm = -90.0
    for i, node in enumerate(cfg.stationary_nodes()):
        node.x = 7.0 * i
    return cfg


DEFAULT_FIT = (
    True, 3.5, 54.0, -73.0, (-1.5, 7.5, 16.5), 0.00974512104041958,
    [(1.9902548789595804, 4.009745121040419),
     (10.99025487895958, 13.00974512104042)],
    3.4902548789595804, True, 1903)


# Every CalibrationResult field, recorded before the layouts were memoised.
@pytest.mark.parametrize("make_cfg, targets, want", [
    (lambda: load_scenario(DATA / "uncalibrated.scenario"),
     CalibrationTargets(), DEFAULT_FIT),
    (detuned_cfg, CalibrationTargets(), DEFAULT_FIT),
    (detuned_cfg, CalibrationTargets(gap1=(1.5, 3.5), gap2=(11.5, 13.5)),
     (True, 4.0, 46.0, -70.0, (-2.5, 7.5, 17.5), 0.01892829446502775,
      [(1.4810717055349722, 3.5189282944650278),
       (11.481071705534973, 13.518928294465027)],
      3.9810717055349722, True, 1606)),
], ids=["uncalibrated", "detuned", "detuned-off-default-gaps"])
def test_search_fit_is_unchanged(make_cfg, targets, want):
    res = search(make_cfg(), targets)
    got = (res.ok, res.path_loss_exponent, res.pl0_db, res.rx_sensitivity_dbm,
           res.positions, res.max_boundary_error_m, res.achieved_gaps,
           res.range_at_gap_level_m, res.searched, res.candidates_scored)
    assert got == want


def test_search_scores_each_radius_triple_once(uncalibrated_cfg, monkeypatch):
    # search must look best_layout up on the kernels module at call time
    # (the benchmark's tracer wraps it there) and skip repeated triples.
    calls = []
    original = kernels.best_layout

    def counting(*args):
        calls.append(args[:3])
        return original(*args)

    monkeypatch.setattr(kernels, "best_layout", counting)
    res = search(uncalibrated_cfg)
    assert res.candidates_scored == 1903
    assert len(calls) == 770
    assert len(set(calls)) == 770

