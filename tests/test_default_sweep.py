"""The default sweep's traces, and `wpansim gaps` on each of them.

The battery's `sweep_default_s42` group pins the files this sweep writes.
No other pinned output of the default scenario holds a HANDOVER_FAIL row or
the low_lq and ack_failures handover triggers; these traces do.
"""

import pytest

from wpansim.cli import main
from wpansim.harness import sweep
from wpansim.trace import read_trace

POWERS = [0.0, 2.0, 3.0, 4.0, 5.0, 6.0]

@pytest.fixture(scope="module")
def default_sweep(default_cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    assert default_cfg.seed == 42
    return sweep(default_cfg, POWERS, outdir=out), out


def test_default_sweep_traces_hold_a_handover_fail_and_both_triggers(default_sweep):
    _, out = default_sweep
    rows = [r for lv in POWERS for r in read_trace(out / f"power_{lv:g}dBm/trace.csv")]
    assert any(r.event_kind == "HANDOVER_FAIL" for r in rows)
    triggers = {r.detail for r in rows if r.event_kind == "HANDOVER_START"}
    assert {"low_lq", "ack_failures"} <= triggers


def test_gaps_on_each_written_trace_agree_with_the_sweep(default_sweep, capsys):
    # The trace rounds pos_x_m to 0.01 m; `gaps` restores each mobile row's
    # x from the trajectory, so it prints the sweep's gaps exactly (it used
    # to print 11.50 m .. 12.50 m for the 2 dBm gap at 11.50 m .. 12.60 m).
    result, out = default_sweep
    for lv in result.levels:
        capsys.readouterr()
        assert main(["gaps", "--trace",
                     str(out / f"power_{lv.power_dbm:g}dBm/trace.csv")]) == 0
        assert capsys.readouterr().out.splitlines() == (
            [f"gap: {a:.2f} m .. {b:.2f} m" for a, b in lv.report.gaps]
            or ["no coverage gaps"]), lv.power_dbm
