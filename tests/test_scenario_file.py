import pytest

from conftest import make_cfg, tiny_cfg
from wpansim.scenario import NodeClass, NodeRole
from wpansim.scenario_file import ScenarioError, parse_scenario, render_scenario


def test_defaults_parse(default_cfg):
    assert default_cfg.duration_us == 15_000_000
    assert default_cfg.seed == 42
    assert default_cfg.band.data_rate_kbps == 250
    assert default_cfg.csma.unit_backoff_us == 320
    assert default_cfg.traffic.period_us == 100_000
    assert len(default_cfg.stationary_nodes()) == 3
    assert default_cfg.mobile_node().node_id == 4


def test_units_convert_to_microseconds():
    cfg = tiny_cfg(duration="2 s")
    assert cfg.duration_us == 2_000_000
    cfg = tiny_cfg(duration="250 ms")
    assert cfg.duration_us == 250_000
    cfg = tiny_cfg(duration="999 us")
    assert cfg.duration_us == 999


def test_unknown_section_rejected_with_line():
    with pytest.raises(ScenarioError) as err:
        parse_scenario("[nonsense]\nkey = 1\n")
    assert "nonsense" in str(err.value)
    assert err.value.line == 1


def test_unknown_key_rejected_with_line():
    with pytest.raises(ScenarioError) as err:
        parse_scenario("[run]\nduration = 1 s\nbogus = 2\n")
    assert "bogus" in str(err.value)
    assert err.value.line == 3


def test_malformed_unit_names_the_key():
    with pytest.raises(ScenarioError) as err:
        parse_scenario("[traffic]\nperiod = 100 kg\n")
    msg = str(err.value)
    assert "period" in msg and "line 2" in msg


def test_missing_unit_names_the_key():
    with pytest.raises(ScenarioError) as err:
        parse_scenario("[phy]\ntx_power = 0\n")
    assert "tx_power" in str(err.value)


def test_power_list_requires_unit():
    with pytest.raises(ScenarioError) as err:
        parse_scenario("[sweep]\npowers = 0 2 3\n")
    assert "powers" in str(err.value)


def test_duplicate_node_id_rejected():
    text = "[node 1]\nrole = coordinator\n[node 1]\nrole = router\n"
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert "duplicate" in str(err.value)


def test_duplicate_section_rejected():
    with pytest.raises(ScenarioError):
        parse_scenario("[run]\nseed = 1\n[run]\nseed = 2\n")


def test_key_outside_section_rejected():
    with pytest.raises(ScenarioError) as err:
        parse_scenario("duration = 1 s\n")
    assert err.value.line == 1


def test_bad_waypoint_format():
    with pytest.raises(ScenarioError) as err:
        parse_scenario("[trajectory]\nwaypoint = 1 m, 2 m\n")
    assert "waypoint" in str(err.value)


def test_two_coordinators_rejected():
    text = ("[node 1]\nrole = coordinator\n"
            "[node 2]\nrole = coordinator\n")
    with pytest.raises(ScenarioError):
        parse_scenario(text)


def test_stationary_without_coordinator_rejected():
    with pytest.raises(ScenarioError):
        parse_scenario("[node 2]\nrole = router\n")


def test_mobile_must_be_end_device():
    text = "[node 1]\nrole = router\nclass = mobile\n"
    with pytest.raises(ScenarioError):
        parse_scenario(text)


def test_mobile_only_scenario_is_allowed():
    cfg = parse_scenario("[node 9]\nrole = end_device\nclass = mobile\n")
    assert cfg.stationary_nodes() == []
    assert cfg.mobile_node().node_id == 9


def test_operating_power_must_be_configured_level():
    with pytest.raises(ScenarioError):
        parse_scenario("[phy]\ntx_power = 1 dBm\n")


def test_comments_and_blank_lines_ignored():
    cfg = parse_scenario("# top\n\n[run]\nseed = 9  # trailing\n")
    assert cfg.seed == 9


def test_render_round_trips(default_cfg):
    text = render_scenario(default_cfg, header="round trip")
    cfg2 = parse_scenario(text)
    assert cfg2.duration_us == default_cfg.duration_us
    assert cfg2.phy == default_cfg.phy
    assert cfg2.csma == default_cfg.csma
    assert cfg2.handover == default_cfg.handover
    assert cfg2.trajectory.waypoints == default_cfg.trajectory.waypoints
    assert [n.node_id for n in cfg2.nodes] == [n.node_id for n in default_cfg.nodes]
    assert [n.x for n in cfg2.stationary_nodes()] == \
           [n.x for n in default_cfg.stationary_nodes()]


def test_clone_power_override(default_cfg):
    cfg = default_cfg.clone(power_override=2.0)
    assert cfg.phy.tx_power_dbm == 2.0
    assert all(n.tx_power_dbm is None for n in cfg.nodes)
    assert default_cfg.phy.tx_power_dbm == 4.0  # original untouched


def test_clone_mobile_power(default_cfg):
    cfg = default_cfg.clone(mobile_power=6.0)
    assert cfg.mobile_node().tx_power_dbm == 6.0
    assert all(n.tx_power_dbm is None for n in cfg.stationary_nodes())


def test_node_defaults():
    cfg = make_cfg("[node 1]\nrole = coordinator\n")
    node = cfg.nodes[0]
    assert node.role is NodeRole.COORDINATOR
    assert node.node_class is NodeClass.STATIONARY
    assert not node.sleeps


def test_mobile_sleeps_by_default(default_cfg):
    assert default_cfg.mobile_node().sleeps
    assert not default_cfg.stationary_nodes()[0].sleeps


def test_frame_longer_than_127_bytes_rejected():
    # mac_header 9 B + payload 118 B is exactly aMaxPHYPacketSize.
    assert make_cfg("[traffic]\npayload = 118 B\n").traffic.payload_bytes == 118
    with pytest.raises(ScenarioError) as err:
        make_cfg("[traffic]\npayload = 119 B\n")
    assert err.value.line == 2 and "127 B" in str(err.value)
    with pytest.raises(ScenarioError) as err:
        make_cfg("[traffic]\npayload = 100 B\n\n[mac]\nmac_header = 28 B\n")
    assert err.value.line == 5
    with pytest.raises(ScenarioError) as err:
        make_cfg("[mac]\nack_header = 128 B\n")
    assert err.value.line == 2

