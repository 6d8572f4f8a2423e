from pathlib import Path

import pytest

from reference import boundaries_match
from wpansim.cli import default_scenario_path
from wpansim.coverage import static_gap_oracle
from wpansim.scenario_file import load_scenario, parse_scenario

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def default_cfg():
    return load_scenario(default_scenario_path())


@pytest.fixture(scope="session")
def uncalibrated_cfg():
    return load_scenario(DATA / "uncalibrated.scenario")


def oracle_meets_targets(cfg, targets) -> bool:
    """static_gap_oracle on cfg shows the calibration targets within tolerance."""
    return (boundaries_match(static_gap_oracle(cfg, targets.gap_level_dbm),
                             [targets.gap1, targets.gap2], targets.tolerance_m)
            and static_gap_oracle(cfg, targets.must_gap_dbm) != []
            and static_gap_oracle(cfg, targets.gap_free_dbm) == [])


def make_cfg(text: str):
    return parse_scenario(text, source="<test>")


# Minimal two-node scenario: coordinator at the origin, mobile parked 1 m away.
TINY = """
[run]
duration = {duration}
seed = {seed}

[phy]
tx_power = 0 dBm
rx_sensitivity = -73 dBm
pl0 = 54 dB
path_loss_exponent = 3.5

[node 1]
role = coordinator
class = stationary
x = 0 m
y = 0 m

[node 4]
role = end_device
class = mobile

[trajectory]
waypoint = 1 m, 0 m, 0 s

[tpc]
enabled = off
"""


def tiny_cfg(duration="500 ms", seed=7):
    return make_cfg(TINY.format(duration=duration, seed=seed))
