"""The files `run` and `compare` write for default.scenario, pinned, and the
run summary's data and handover lines on the failure paths.

Every energy number in them comes from the per-node ledgers, so these pins
also hold the energy sums and their mode order byte for byte.
"""

import hashlib

import pytest

from util_props import random_scenario
from wpansim.harness import compare, run_simulation

# sha256 of each file `harness.run_simulation` writes for default.scenario (seed 42).
RUN_GOLDEN = {
    "trace.csv":
        "a26be10354ad36eae0c60c816b6f020a87a093f8bfd37df99e641a4d5ac1d206",
    "energy.csv":
        "e3a1390455671000061376aa399ec6b6f3f248807e41e9ed25e16a1379dccdc2",
    "summary.txt":
        "4c99721c2d7f28bf842e93985b4c8a41e921e7840ef6a2ea4cabae8ec64db60e",
}

# sha256 of each file `harness.compare` writes for default.scenario (seed 42).
COMPARE_GOLDEN = {
    "compare.csv":
        "9c7f05986d9f455f25af36be9a2c35baed8bf5decadb13373fc5375bc6842dff",
    "compare_report.txt":
        "6c77a798d8dc0e0e3d717d8980310060fb70bbabeb7da906e4516cc7c79c9688",
    "trace_broadcast_tpc.csv":
        "a26be10354ad36eae0c60c816b6f020a87a093f8bfd37df99e641a4d5ac1d206",
    "trace_broadcast_fixed.csv":
        "cb51da0ad0ab8c7c4a0b6bdd5509d76cf55f5e419732a85eb4291f89f2df5b08",
    "trace_scan_tpc.csv":
        "a63a28f77e832a5d230feefdc745ba34567ff46d586d9ad36999629dcfc8d5d8",
    "trace_scan_fixed.csv":
        "932bfdcbb18164d635f8f8fb9695da815dbc60f0bceaad736f0044dbd25523b3",
}


def _digests(out):
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.rglob("*") if p.is_file()}


def test_default_run_files_match_golden_digests(default_cfg, tmp_path):
    assert default_cfg.seed == 42
    run_simulation(default_cfg, outdir=tmp_path)
    assert _digests(tmp_path) == RUN_GOLDEN


def test_default_compare_files_match_golden_digests(default_cfg, tmp_path):
    assert default_cfg.seed == 42
    compare(default_cfg, outdir=tmp_path)
    assert _digests(tmp_path) == COMPARE_GOLDEN


# The `data:` and `handover:` lines of summary.txt for three random scenarios
# on the failure paths, which no shipped scenario reaches.
FAILURE_PATH_SUMMARIES = {
    # A handover still in progress at the end: 5 attempts, 1 done, 3 failed.
    7: ("data: 1 attempts, 0 delivered, 1 no-ack, 0 cca-fail, 3 outage losses "
        "(delivery ratio 0.000)",
        "handover: 5 attempts, 1 done, 3 failed, mean latency 0.0541 s, "
        "total outage 0.5789 s"),
    # An outage that reopens after a parent.
    568: ("data: 5 attempts, 4 delivered, 1 no-ack, 0 cca-fail, 1 outage losses "
          "(delivery ratio 0.667)",
          "handover: 3 attempts, 2 done, 1 failed, mean latency 0.0552 s, "
          "total outage 0.2009 s"),
    # No-acks and outage losses in one run.
    254: ("data: 12 attempts, 9 delivered, 3 no-ack, 0 cca-fail, 8 outage losses "
          "(delivery ratio 0.450)",
          "handover: 4 attempts, 1 done, 2 failed, mean latency 0.1126 s, "
          "total outage 0.3797 s"),
}


@pytest.mark.parametrize("index", sorted(FAILURE_PATH_SUMMARIES))
def test_failure_path_summary_lines_are_pinned(index, tmp_path):
    run_simulation(random_scenario(index), outdir=tmp_path)
    lines = (tmp_path / "summary.txt").read_text().splitlines()
    got = tuple(ln for ln in lines if ln.startswith(("data: ", "handover: ")))
    assert got == FAILURE_PATH_SUMMARIES[index]
