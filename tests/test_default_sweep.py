"""The default sweep's written files, pinned, and `wpansim gaps` on its traces.

No other pinned output holds a HANDOVER_FAIL row or the low_lq and
ack_failures handover triggers; these traces do.
"""

import hashlib

import pytest

from wpansim.cli import main
from wpansim.harness import sweep
from wpansim.trace import read_trace

POWERS = [0.0, 2.0, 3.0, 4.0, 5.0, 6.0]

# sha256 of each file `harness.sweep` writes for default.scenario (seed 42).
GOLDEN = {
    "coverage.csv":
        "dfa2329db1de30757386cc7f30156bc381de2c9cf1986ba2e2efce8dbeccabdb",
    "summary.txt":
        "d782fefdd11d7f7747474bb372ca0e3deb8b4c81c075d9441306a32a5098c529",
    "power_0dBm/trace.csv":
        "aae2a5c2bfa953c97e68e0d5e73a3c36b66f1b34c6dce8516c071428a917820f",
    "power_2dBm/trace.csv":
        "d7ed8b766d7c5af4c066f8e313423899c2e41adac9a81e60cac7ebb2827ac4d0",
    "power_3dBm/trace.csv":
        "86d4fb7786eb79b089f8582250e12a14909e44d147a1de45c9f92a8c188e556c",
    "power_4dBm/trace.csv":
        "06c6b213c3dbfd591b6bdf8fe1a5a921425c4f4712dec70eaf89534998a46eb7",
    "power_5dBm/trace.csv":
        "2c6394e0ce3c6cba156b8f04f3cd92682135a52cbba2836f341a1a86709a4dec",
    "power_6dBm/trace.csv":
        "0347ed27d9d68dcc3c1453d3a2ec20c3ba48e7183dc93da716c47dc8e71e2c0a",
}


@pytest.fixture(scope="module")
def default_sweep(default_cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    assert default_cfg.seed == 42
    return sweep(default_cfg, POWERS, outdir=out), out


def test_default_sweep_files_match_golden_digests(default_sweep):
    _, out = default_sweep
    got = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
           for p in out.rglob("*") if p.is_file()}
    assert got == GOLDEN
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
