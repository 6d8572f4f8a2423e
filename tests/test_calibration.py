import copy
import csv
import functools
import itertools
import math
import random
from pathlib import Path

import pytest

from wpansim import kernels
from wpansim.calibration import (CalibrationResult, CalibrationTargets,
                                 _score_floor, apply_to_config, layout_metrics,
                                 search)
from wpansim.coverage import static_gap_oracle
from wpansim.scenario_file import load_scenario

import kernel_reference
from conftest import oracle_meets_targets
from util_props import detuned_scenario

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


def test_a_result_without_a_layout_reports_no_gaps():
    # What search returns when no layout leaves two gaps at the gap level.
    lines = CalibrationResult(False, CalibrationTargets()).report_lines()
    assert "  achieved gaps at 0 dBm: none" in lines


def test_fit_carries_its_targets():
    targets = CalibrationTargets(tolerance_m=0.25)
    res = search(detuned_scenario(), targets)
    assert res.targets == targets
    assert any("(tolerance 0.25 m)" in line for line in res.report_lines())
    with pytest.raises(AttributeError):
        res.ok = False


def _layout(cfg, n, pl0, sens, xs):
    out = copy.deepcopy(cfg)
    out.phy.path_loss_exponent = n
    out.phy.pl0_db = pl0
    out.phy.rx_sensitivity_dbm = sens
    for node, x in zip(out.stationary_nodes(), xs):
        node.x = x
    return out


def test_layout_metrics_validity_conditions(default_cfg):
    targets = CalibrationTargets()
    assert default_cfg.trajectory.x_bounds() == (0.0, 15.0)
    # the shipped layout: valid and tight
    valid, err, gaps = layout_metrics(
        _layout(default_cfg, 3.5, 54.0, -73.0, [-1.5, 7.5, 16.5]), targets)
    assert valid and err < 0.05 and len(gaps) == 2
    # radius too large: no gaps at 0 dBm -> invalid
    valid, err, _ = layout_metrics(
        _layout(default_cfg, 1.5, 30.0, -100.0, [-1.5, 7.5, 16.5]), targets)
    assert not valid and math.isinf(err)
    # The shipped 0 dBm radius, 3.49 m, at another exponent: the 0 dBm gaps
    # are the shipped ones, but at n = 6 a gap is left at 4 dBm, and at
    # n = 1.5 none is left at 3 dBm -> invalid.
    for n in (6.0, 1.5):
        pl0 = 73.0 - 10.0 * n * math.log10(10.0 ** (19.0 / 35.0))
        valid, err, gaps = layout_metrics(
            _layout(default_cfg, n, pl0, -73.0, [-1.5, 7.5, 16.5]), targets)
        assert not valid and math.isinf(err)
        assert [round(x, 2) for gap in gaps for x in gap] == [1.99, 4.01, 10.99, 13.01]


def test_search_scores_station_offsets_from_the_line(default_cfg):
    # Node 2 two metres off the line shrinks its chord: the oracle puts the
    # 0 dBm gaps at (2.0, 4.63) and (10.37, 13.0), so the supplied layout
    # misses the targets and the search must run.  It used to take the early
    # exit on the x positions alone.
    offset = copy.deepcopy(default_cfg)
    next(n for n in offset.nodes if n.node_id == 2).y = 2.0
    targets = CalibrationTargets()
    assert not oracle_meets_targets(offset, targets)
    valid, err, _ = layout_metrics(offset, targets)
    assert not (valid and err <= targets.tolerance_m)
    res = search(offset, targets)
    assert res.searched and res.ok
    fitted = apply_to_config(offset, res, targets)
    assert [n.y for n in fitted.stationary_nodes()] == [0.0, 0.0, 0.0]
    assert oracle_meets_targets(fitted, targets)


def _placed(cfg, n, pl0, xs, ys):
    out = _layout(cfg, n, pl0, -73.0, xs)
    for node, y in zip(out.stationary_nodes(), ys):
        node.y = y
    return out


def test_early_exit_needs_the_targets_met_as_placed_and_on_the_line(default_cfg):
    # The early exit needs the targets met as the scenario places the nodes
    # and as calibrate writes them, on the trajectory's line; either alone
    # leaves the search to run.
    targets = CalibrationTargets()
    shipped = 10.0 ** (19.0 / 35.0)  # the shipped 0 dBm range, m
    # Every node 1.5 m off the line, at a range that gives each the shipped
    # 0 dBm chord: met as placed, missed on the line.
    dy = 1.5
    pl0 = 54.0 - 17.5 * math.log10(1.0 + (dy / shipped) ** 2)
    off = _placed(default_cfg, 3.5, pl0, [-1.5, 7.5, 16.5], [dy] * 3)
    on = _placed(default_cfg, 3.5, pl0, [-1.5, 7.5, 16.5], [0.0] * 3)
    assert layout_metrics(off, targets)[:2] == (True, pytest.approx(0.0097, abs=1e-4))
    assert not layout_metrics(on, targets)[0]
    # n = 2.5, a 3.01 m range at 0 dBm and node 2 0.5 m off the line: its
    # chord misses gap 1's end by 0.53 m as placed, and by 0.49 m on the line.
    r0 = 3.01
    xs = [2.0 - r0, 7.5, 13.0 + r0]
    pl0 = 73.0 - 25.0 * math.log10(r0)
    off_by_one = _placed(default_cfg, 2.5, pl0, xs, [0.0, 0.5, 0.0])
    assert layout_metrics(off_by_one, targets)[:2] == (True,
                                                       pytest.approx(0.532, abs=1e-3))
    assert layout_metrics(_placed(default_cfg, 2.5, pl0, xs, [0.0] * 3),
                          targets)[:2] == (True, pytest.approx(0.49))
    for cfg in (off, off_by_one):
        res = search(cfg, targets)
        assert res.searched and res.ok


def test_apply_to_config_rewrites_phy_and_positions(uncalibrated_cfg):
    targets = CalibrationTargets()
    res = search(uncalibrated_cfg, targets)
    start = uncalibrated_cfg.clone()
    start.phy.tx_power_dbm = 0.0
    cfg = apply_to_config(start, res, targets)
    assert cfg.phy.path_loss_exponent == res.path_loss_exponent
    assert cfg.phy.tx_power_dbm == targets.gap_free_dbm
    assert tuple(n.x for n in cfg.stationary_nodes()) == \
           tuple(sorted(res.positions))
    # the input config is untouched
    assert start.phy.path_loss_exponent != res.path_loss_exponent
    assert start.phy.tx_power_dbm == 0.0


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


# The benchmark's calibrate_detuned target pairs.
BENCH_TARGETS = [
    (g1, g2) for g1, g2 in itertools.product(
        [(1.5, 3.5), (2.0, 4.0), (2.5, 4.5)],
        [(10.5, 12.5), (11.0, 13.0), (11.5, 13.5)])]


def _random_kernel_case(rng):
    """One best_layout argument tuple, biased towards feasible layouts."""
    # Radii as the search makes them (r3/r0 and r4/r0 set by the exponent),
    # mostly with a gap-level radius of 1.5..5.5 m, where the targets fit.
    # Half are snapped to the 0.25 m grid, so that sums land exactly on grid
    # points and scores tie; now and then they come in any order.
    n = rng.uniform(1.5, 6.0)
    r0 = rng.uniform(1.5, 5.5) if rng.random() < 0.9 else rng.uniform(0.2, 12.0)
    radii = [r0, r0 * 10.0 ** (0.3 / n), r0 * 10.0 ** (0.4 / n)]
    if rng.random() < 0.5:
        radii = [max(0.25, round(r * 4.0) / 4.0) for r in radii]
    if rng.random() < 0.1:
        rng.shuffle(radii)
    if rng.random() < 0.5:
        (b0, b1), (b2, b3) = rng.choice(BENCH_TARGETS)
    else:
        b0 = rng.uniform(-1.0, 5.0)
        b1 = b0 + rng.uniform(0.5, 4.0)
        b2 = b1 + rng.uniform(1.0, 10.0)
        b3 = b2 + rng.uniform(0.5, 4.0)
        if rng.random() < 0.5:
            b0, b1, b2, b3 = (round(b * 2.0) / 2.0 for b in (b0, b1, b2, b3))
    lo, hi = rng.choice([(0.0, 15.0), (0.0, 15.0),
                         (rng.uniform(-3.0, 3.0), rng.uniform(12.0, 18.0)),
                         (rng.randint(-6, 6) / 2.0, rng.randint(24, 36) / 2.0)])
    x_lo, x_step, nx = rng.choice([(-3.0, 0.5, 43), (-3.0, 0.5, 43),
                                   (-3.0, 0.25, 85),
                                   (rng.uniform(-4.0, 0.0), 0.3, 70)])
    w = rng.choice([1e-3, 1e-3, 0.0, 1.0])
    return (*radii, x_lo, x_step, nx, b0, b1, b2, b3, lo, hi, w)


@functools.cache
def _kernel_cases():
    """2,000 seeded best_layout argument tuples with the full scan's result."""
    rng = random.Random(20100611)
    cases = []
    for _ in range(2000):
        args = _random_kernel_case(rng)
        cases.append((args, kernel_reference.best_layout(*args)))
    return cases


def test_best_layout_matches_full_scan_reference():
    # The windowed kernel against the full scan it replaced, compared with
    # ==: score and positions bit for bit, ties included.
    feasible = 0
    for args, want in _kernel_cases():
        assert kernels.best_layout(*args) == want, args
        feasible += want[0] < 1e300
    assert feasible >= 800  # the cases exercise the scoring, not only skips


def test_bounded_best_layout_matches_full_scan_reference():
    # With a bound, the kernel returns the full scan's result if it scores
    # below the bound, else (bound, 0, 0, 0).  Bounds equal to the score
    # and one ulp either side of it pin the strict "<".
    rng = random.Random(19)
    for args, want in _kernel_cases():
        score = want[0]
        if score < 1e300:
            bounds = [score, math.nextafter(score, math.inf),
                      math.nextafter(score, -math.inf),
                      rng.uniform(0.0, 2.0 * score)]
        else:
            bounds = [rng.uniform(0.0, 5.0), 1e300]
        for bound in bounds:
            expect = want if score < bound else (bound, 0.0, 0.0, 0.0)
            assert kernels.best_layout(*args, bound) == expect, (args, bound)


def test_score_floor_is_below_every_kernel_score():
    # The floor that search prunes by is never above the full scan's score,
    # so it is 1e300 only where the full scan finds no layout.  The cases
    # snapped to the 0.25 m grid meet the e2 floor exactly, at its edge.  So
    # do cases whose middle-node targets are centred off the grid, where the
    # floor adds the distance from their midpoint to the nearest grid point.
    tight = off_grid_tight = infeasible = 0
    for args, want in _kernel_cases():
        r0, _, _, x_lo, x_step, nx, _, b1, b2 = args[:9]
        floor = _score_floor(x_lo, x_step, nx, b1, b2)(r0)
        assert want[0] >= floor, args
        near = 0.0 <= want[0] - floor < 1e-6
        off_grid = min(abs(x_lo + i * x_step - (b1 + b2) / 2.0)
                       for i in range(nx)) > 1e-3
        tight += near
        off_grid_tight += near and off_grid
        infeasible += floor == 1e300
    assert tight >= 20 and off_grid_tight >= 100 and infeasible >= 20


def test_score_floor_at_the_no_layout_edge():
    # A gap-level radius just under a quarter of the grid's width still
    # fits three nodes (x1 at the first grid point, x2 mid-grid, x3 at the
    # last), so the floor must not claim that no layout exists there.
    for x_lo, x_step, nx in [(-3.0, 0.5, 43), (-3.0, 0.25, 85), (-1.0, 0.5, 41)]:
        x_last = x_lo + (nx - 1) * x_step
        quarter = (x_last - x_lo) / 4.0
        floor = _score_floor(x_lo, x_step, nx, 4.0, 11.0)
        for r0 in [quarter - 1e-3, quarter - 1e-9, quarter, quarter + 1e-3]:
            args = (r0, r0 - 0.5, r0 + 1.0, x_lo, x_step, nx,
                    2.0, 4.0, 11.0, 13.0, 0.0, 15.0, 1e-3)
            score = kernels.best_layout(*args)[0]
            assert (score < 1e300) == (r0 < quarter)
            assert score >= floor(r0), args
        assert floor(quarter + 1e-3) == 1e300


DEFAULT_FIT = (
    True, 3.5, 54.0, -73.0, (-1.5, 7.5, 16.5), 0.00974512104041958,
    [(1.9902548789595804, 4.009745121040419),
     (10.99025487895958, 13.00974512104042)],
    3.4902548789595804, True)


def _fields(res):
    return (res.ok, res.path_loss_exponent, res.pl0_db, res.rx_sensitivity_dbm,
            res.positions, res.max_boundary_error_m, res.achieved_gaps,
            res.range_at_gap_level_m, res.searched)


FIXTURE_CASES = [
    (lambda: load_scenario(DATA / "uncalibrated.scenario"),
     CalibrationTargets(), DEFAULT_FIT),
    (detuned_scenario, CalibrationTargets(), DEFAULT_FIT),
    (detuned_scenario, CalibrationTargets(gap1=(1.5, 3.5), gap2=(11.5, 13.5)),
     (True, 4.0, 46.0, -70.0, (-2.5, 7.5, 17.5), 0.01892829446502775,
      [(1.4810717055349722, 3.5189282944650278),
       (11.481071705534973, 13.518928294465027)],
      3.9810717055349722, True)),
]


# Every CalibrationResult field, recorded before the layouts were memoised.
@pytest.mark.parametrize("make_cfg, targets, want", FIXTURE_CASES,
                         ids=["uncalibrated", "detuned", "detuned-off-default-gaps"])
def test_search_fit_is_unchanged(make_cfg, targets, want):
    assert _fields(search(make_cfg(), targets)) == want


def _random_targets(rng):
    """Coverage targets around the default ones; about a third can be met."""
    start = rng.uniform(0.0, 4.0)
    width1 = rng.uniform(0.5, 3.0)
    between = rng.uniform(2.0, 10.0)
    width2 = rng.uniform(0.5, 3.0)
    if rng.random() < 0.5:
        start, width1, between, width2 = (
            round(v * 2.0) / 2.0 for v in (start, width1, between, width2))
    gap2_start = start + width1 + between
    return CalibrationTargets(gap1=(start, start + width1),
                              gap2=(gap2_start, gap2_start + width2),
                              tolerance_m=rng.choice([0.5, 0.25, 0.1]))


def long_track_cfg():
    # A 40 m trajectory: no grid layout of three nodes covers both ends
    # and still leaves two gaps, so no radius triple gives a valid layout.
    cfg = detuned_scenario()
    *_, (x, y, t) = cfg.trajectory.waypoints
    cfg.trajectory.waypoints[-1] = (40.0, y, t)
    return cfg


def test_search_matches_memo_only_reference():
    # The pruned search against the search that scored every new radius
    # triple (tests/kernel_reference.py), on the benchmark's nine target
    # sets, the fixture cases above, a trajectory no layout fits and 36
    # seeded random target sets.  The benchmark's sets come again at
    # levels that are not whole dBm, where pairs with one pl0 + sens can
    # round to different radii and must still be scored apart.
    cases = [(detuned_scenario, CalibrationTargets(gap1=g1, gap2=g2))
             for g1, g2 in BENCH_TARGETS]
    cases += [(detuned_scenario, CalibrationTargets(
        gap1=g1, gap2=g2, gap_level_dbm=0.1, must_gap_dbm=3.3, gap_free_dbm=4.2))
        for g1, g2 in BENCH_TARGETS]
    cases += [(make_cfg, targets) for make_cfg, targets, _ in FIXTURE_CASES]
    cases.append((long_track_cfg, CalibrationTargets()))
    rng = random.Random(1105)
    cases += [(detuned_scenario, _random_targets(rng)) for _ in range(36)]
    verdicts = []
    for make_cfg, targets in cases:
        want = _fields(kernel_reference.search(make_cfg(), targets))
        assert _fields(search(make_cfg(), targets)) == want, targets
        verdicts.append("met" if want[0] else "missed" if want[4] else "none")
    assert verdicts.count("met") >= 10
    assert verdicts.count("missed") >= 10
    assert verdicts.count("none") == 1


def test_search_scores_each_radius_triple_once(uncalibrated_cfg, monkeypatch):
    # search must look best_layout up on the kernels module at call time
    # (the benchmark's tracer wraps it there) and skip repeated triples.
    # Of the 1,903 candidates, only 11 distinct radius triples have a score
    # floor below the best fit found before them (770 distinct triples in all).
    calls = []
    original = kernels.best_layout

    def counting(*args):
        calls.append(args[:3])
        return original(*args)

    monkeypatch.setattr(kernels, "best_layout", counting)
    search(uncalibrated_cfg)
    assert len(calls) == 11
    assert len(set(calls)) == 11


# Kernel calls per search on the benchmark's target sets, in BENCH_TARGETS
# order.  On the four sets whose middle-node targets are centred off the
# 0.5 m grid (midpoint 7.25 or 7.75 m), the floor's grid term does the
# pruning.
BENCH_KERNEL_CALLS = [11, 12, 23, 13, 11, 12, 12, 13, 11]


def test_search_kernel_calls_on_benchmark_targets(monkeypatch):
    calls = []
    original = kernels.best_layout

    def counting(*args):
        calls.append(args[:3])
        return original(*args)

    monkeypatch.setattr(kernels, "best_layout", counting)
    counts = []
    for g1, g2 in BENCH_TARGETS:
        calls.clear()
        search(detuned_scenario(), CalibrationTargets(gap1=g1, gap2=g2))
        counts.append(len(calls))
    assert counts == BENCH_KERNEL_CALLS
