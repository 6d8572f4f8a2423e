"""The run summary's data and handover lines on the failure paths.

The battery's `run_default_s42` and `compare_default_s42` groups pin the
files `run` and `compare` write for default.scenario.
"""

import pytest

from util_props import random_scenario
from wpansim.harness import run_simulation


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
