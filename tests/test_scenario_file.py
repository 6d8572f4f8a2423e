import copy
import inspect
import itertools

import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from conftest import DATA, make_cfg, tiny_cfg
from wpansim import scenario_file as sf
from wpansim.cli import default_scenario_path
from wpansim.harness import arm_config, level_config
from wpansim.mac import CsmaParams
from wpansim.phy import BANDS, PhyParams
from wpansim.record import Record
from wpansim.scenario import CurrentModel, NodeClass, NodeConfig, NodeRole
from wpansim.scenario_file import (ScenarioConfig, ScenarioError, load_scenario,
                                   parse_scenario, render_scenario)
from wpansim.sim import Simulation


def test_defaults_parse(default_cfg):
    assert default_cfg.duration_us == 15_000_000
    assert default_cfg.seed == 42
    assert default_cfg.band.data_rate_kbps == 250
    assert default_cfg.csma.unit_backoff_us == 320
    assert default_cfg.traffic.period_us == 100_000
    assert len(default_cfg.stationary_nodes()) == 3
    assert default_cfg.mobile_node().node_id == 4


def test_config_records_take_no_values_but_a_node_id():
    # The parser is the one way a scenario value is set, and each default is
    # stated once, in its record's __init__.
    records = [ScenarioConfig, PhyParams, CsmaParams, sf.MacConfig, sf.TpcConfig,
               sf.HandoverConfig, sf.TrafficConfig, CurrentModel, NodeConfig]
    assert {r.__name__: list(inspect.signature(r).parameters) for r in records} == {
        **{r.__name__: [] for r in records}, "NodeConfig": ["node_id"]}


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


def test_custom_power_levels_need_no_sweep_line():
    # Only a [sweep] powers line the file writes is checked against
    # power_levels; without one, sweep runs power_levels itself.
    cfg = parse_scenario("[phy]\ntx_power = 0 dBm\npower_levels = 0 5 10 dBm\n")
    assert cfg.sweep_powers is None
    text = render_scenario(cfg)
    assert "powers =" not in text.split("[sweep]")[1]
    assert parse_scenario(text) == cfg
    assert text.startswith("[run]\n")  # no header: no comment, no blank line


def test_sweep_line_outside_power_levels_names_its_line():
    with pytest.raises(ScenarioError) as err:
        parse_scenario("[phy]\npower_levels = 0 5 dBm\n\n[sweep]\npowers = 0 2 dBm\n")
    assert err.value.line == 5 and "[2.0]" in str(err.value)


def test_duplicate_node_id_rejected():
    text = "[node 1]\nrole = coordinator\n[node 1]\nrole = router\n"
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert "duplicate" in str(err.value)


@pytest.mark.parametrize("node_id, ok", [
    (0, True), (0xFFFD, True), (0xFFFE, False), (0xFFFF, False), (-1, False),
    (10**19, False)])
def test_node_id_is_a_unicast_short_address(node_id, ok):
    # 65535 used to run as the broadcast address: frames sent to the mobile
    # never asked it for an ack.
    text = f"[run]\nseed = 1\n\n[node {node_id}]\nrole = coordinator\n"
    if ok:
        assert parse_scenario(text).nodes[0].node_id == node_id
        return
    with pytest.raises(ScenarioError, match="not a unicast short address") as err:
        parse_scenario(text)
    assert err.value.line == 4


def test_duplicate_section_rejected():
    with pytest.raises(ScenarioError, match=r"^line 3: duplicate section \[run\]$"):
        parse_scenario("[run]\nseed = 1\n[run]\nseed = 2\n")


def test_key_outside_section_rejected():
    with pytest.raises(ScenarioError) as err:
        parse_scenario("duration = 1 s\n")
    assert err.value.line == 1


# Each parser error no other test raises: the text, the line the error names
# and what it says.
PARSE_ERRORS = [
    ("[traffic]\nperiod = ten ms\n", 2, "key 'period': 'ten' is not a number"),
    ("[run]\nseed = 4.5\n", 2, "key 'seed': '4.5' is not an integer"),
    ("[tpc]\nenabled = maybe\n", 2, "key 'enabled': expected on/off, got 'maybe'"),
    ("[handover]\nmode = flood\n", 2,
     "key 'mode': expected broadcast|scan, got 'flood'"),
    ("[run]\nseed = 1\n\n[node]\n", 4, "node section needs an id: [node <id>]"),
    ("[run 2]\n", 1, "section [run 2] takes no argument"),
    ("[run]\nseed 1\n", 2, "expected 'key = value', got 'seed 1'"),
    # Checked after the last line, at the last waypoint.
    ("[trajectory]\nwaypoint = 0 m, 0 m, 2 s\nwaypoint = 5 m, 0 m, 1 s\n"
     "move_tick = 1 s\n", 3,
     "trajectory: waypoint arrival offsets must strictly increase"),
    ("[csma]\nmac_min_be = 5\nmac_max_be = 4\n", 3, "mac_min_be 5 above mac_max_be 4"),
    ("[csma]\nmac_min_be = 6\n", 2, "mac_min_be 6 above mac_max_be 5"),
    ("[phy]\npower_levels = dBm\n", 2,
     "key 'power_levels': expected '<numbers...> dBm', got 'dBm'"),
    # A section header both starts with [ and ends with ].
    ("[run]\nseed = 1]\n", 2, "key 'seed': '1]' is not an integer"),
    ("[run\n", 1, "expected 'key = value', got '[run'"),
    ("[node 1]\nantenna_gain = 2 dB\n", 2, "unknown key 'antenna_gain' in section [node]"),
    # A switch is on or off and a current is in mA: the one spelling of each
    # that render_scenario writes.
    ("[tpc]\nenabled = yes\n", 2, "key 'enabled': expected on/off, got 'yes'"),
    ("[tpc]\nenabled = ON\n", 2, "key 'enabled': expected on/off, got 'ON'"),
    ("[node 1]\nrole = coordinator\nsleep = true\n", 3,
     "key 'sleep': expected on/off, got 'true'"),
    ("[energy]\nsleep_current = 3 uA\n", 2,
     "key 'sleep_current': expected '<number> mA', got '3 uA'"),
]


@pytest.mark.parametrize("text, line, says", PARSE_ERRORS,
                         ids=[says for _, _, says in PARSE_ERRORS])
def test_parse_error_names_its_line(text, line, says):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert err.value.line == line
    assert str(err.value).startswith(f"line {line}: ") and says in str(err.value)


BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark some editors save a file with


def test_a_byte_order_mark_is_not_part_of_the_scenario(default_cfg, tmp_path):
    path = tmp_path / "bom.scenario"
    path.write_bytes(BOM + default_scenario_path().read_bytes())
    assert load_scenario(path) == default_cfg


def test_a_bad_byte_after_a_byte_order_mark_names_its_own_line(tmp_path):
    # utf-8-sig would count the offset past the mark and name the wrong byte.
    path = tmp_path / "bom.scenario"
    path.write_bytes(BOM + b"[run]\nseed = 1\n\xff\n")
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert (err.value.line, str(err.value)) == (
        3, f"line 3: {path}: byte 0xff is not UTF-8")


def test_a_scenario_error_without_a_line_names_none():
    err = ScenarioError("calibration fits exactly 3 stationary nodes")
    assert (str(err), err.line) == ("calibration fits exactly 3 stationary nodes", None)


def test_bad_waypoint_format():
    with pytest.raises(ScenarioError) as err:
        parse_scenario("[trajectory]\nwaypoint = 1 m, 2 m\n")
    assert "waypoint" in str(err.value)


# The whole-file node checks name the header line of the node at fault.
def test_two_coordinators_rejected():
    text = ("[node 1]\nrole = coordinator\n\n"
            "[node 2]\nrole = router\n\n"
            "[node 3]\nrole = coordinator\n")
    with pytest.raises(ScenarioError, match="^line 7: .*more than one coordinator"):
        parse_scenario(text)


def test_stationary_without_coordinator_rejected():
    text = ("[node 9]\nrole = end_device\nclass = mobile\n\n"
            "[node 2]\nrole = router\n\n[node 3]\nrole = router\n")
    with pytest.raises(ScenarioError, match="^line 5: .*but no coordinator"):
        parse_scenario(text)


def test_at_most_one_mobile():
    text = ("[node 1]\nrole = coordinator\n\n"
            "[node 8]\nrole = end_device\nclass = mobile\n\n"
            "[node 9]\nrole = end_device\nclass = mobile\n")
    with pytest.raises(ScenarioError, match="^line 8: .*at most one mobile"):
        parse_scenario(text)


def test_mobile_must_be_end_device():
    text = "[node 1]\nrole = coordinator\n\n[node 4]\nrole = router\nclass = mobile\n"
    with pytest.raises(ScenarioError,
                       match="^line 4: .*mobile node 4 must be an end_device"):
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


SCENARIOS = [default_scenario_path(), *sorted(DATA.glob("*.scenario"))]


@pytest.mark.parametrize("cfg", [*(load_scenario(p) for p in SCENARIOS), ScenarioConfig()],
                         ids=[*(p.name for p in SCENARIOS), "ScenarioConfig()"])
def test_render_round_trips(cfg):
    assert parse_scenario(render_scenario(cfg, header="round trip")) == cfg


# -- clone and the sweep-level and compare-arm recipes are independent copies --


def _mutable_parts(value, found: dict) -> dict:
    """id -> object for every record, list, dict and set reachable from value."""
    if isinstance(value, (Record, list, dict, set)):
        if id(value) in found:
            return found
        found[id(value)] = value
    if isinstance(value, Record):
        children = list(value._fields().values())
    elif isinstance(value, dict):
        children = [*value.keys(), *value.values()]
    elif isinstance(value, (list, tuple, set, frozenset)):
        children = list(value)
    else:
        return found
    for child in children:
        _mutable_parts(child, found)
    return found


def _copies(cfg):
    """(label, copy of cfg) for clone, with and without a seed, and for each
    sweep-level and compare-arm recipe (a fixed-power arm needs a mobile)."""
    yield "clone()", cfg.clone()
    yield "clone(seed=7)", cfg.clone(seed=7)
    for power in cfg.phy.power_levels_dbm:
        yield f"level_config {power}", level_config(cfg, power)
    for mode, tpc in itertools.product(("broadcast", "scan"), (True, False)):
        if tpc or cfg.mobile_node() is not None:
            yield f"arm_config {mode} {tpc}", arm_config(cfg, mode, tpc)


def _assert_clone_is_independent(cfg):
    before = copy.deepcopy(cfg)
    assert cfg.clone() == before
    original = _mutable_parts(cfg, {})
    for label, out in _copies(cfg):
        assert cfg == before, label  # the call left its input unchanged
        shared = original.keys() & _mutable_parts(out, {}).keys()
        assert not shared, (label, [original[i] for i in shared])
        out.phy.pl0_db += 1.0
        for node in out.nodes[:1]:
            node.x += 1.0
            node.role = NodeRole.END_DEVICE
        waypoints = out.trajectory.waypoints
        waypoints.append((waypoints[-1][0] + 1.0, 0.0, waypoints[-1][2] + 1))
        assert cfg == before, label


@pytest.mark.parametrize("cfg", [*(load_scenario(p) for p in SCENARIOS), ScenarioConfig()],
                         ids=[*(p.name for p in SCENARIOS), "ScenarioConfig()"])
def test_clone_is_an_independent_copy(cfg):
    _assert_clone_is_independent(cfg)


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


# -- render -> parse property, with values drawn per kind of the schema table ----

_G_EXACT = st.floats(allow_nan=False, allow_infinity=False)  # any value renders exactly


@st.composite
def _waypoints(draw):
    times = sorted(draw(st.sets(st.integers(0, 10**8), min_size=1, max_size=3)))
    return [(draw(_G_EXACT), draw(_G_EXACT), t) for t in times]


_G_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


def _kind(section, key):
    return sf._SCHEMA[section][key][1]


# Each kind draws only values its own rule accepts.
KIND_VALUES = {
    sf._TIME: st.integers(0, 10**8), sf._POSITIVE_TIME: st.integers(1, 10**8),
    sf._DBM: _G_EXACT, sf._DB: _G_EXACT, sf._METRES: _G_EXACT,
    sf._PERCENT: _G_EXACT, sf._CURRENT: _G_EXACT,
    sf._MODE_CURRENT: _G_POSITIVE | st.just(0.0), sf._POSITIVE_DB: _G_POSITIVE,
    sf._POSITIVE_VOLTS: _G_POSITIVE, sf._POSITIVE_FLOAT: _G_POSITIVE,
    sf._BYTES: st.integers(0, 60),  # header + payload stays under 127 B
    _kind("mac", "ack_header"): st.integers(0, 60),
    sf._INT: st.integers(0, 1000), sf._THRESHOLD: st.integers(1, 1000),
    sf._BOOL: st.booleans(),
    sf._MAX_BE: st.integers(3, 8), sf._BACKOFFS: st.integers(0, 5),
    sf._RETRIES: st.integers(0, 7), sf._LQ: st.integers(0, 255),
    _kind("csma", "mac_min_be"): st.integers(0, 8),  # at most mac_max_be: see below
    _kind("mac", "beacon_order"): st.integers(0, 15),
    sf._POWERS: st.lists(_G_EXACT, min_size=1, max_size=6, unique=True).map(tuple),
    sf._BAND: st.sampled_from(list(BANDS.values())),
    sf._ROLE: st.sampled_from(list(NodeRole)), sf._CLASS: st.sampled_from(list(NodeClass)),
    sf._MODE: st.sampled_from(["broadcast", "scan"]), sf._WAYPOINT: _waypoints(),
}


@st.composite
def _configs(draw):
    """A valid config with every table key drawn from its kind, then fixed up
    where `_validate` ties keys together."""
    cfg = ScenarioConfig()
    for section, schema in sf._SCHEMA.items():
        if section != "node":
            for path, kind in schema.values():
                sf._set(cfg, path, draw(KIND_VALUES[kind]))
    for node_id in draw(st.lists(st.integers(0, 99), max_size=4, unique=True)):
        node = NodeConfig(node_id)
        for key, (path, kind) in sf._SCHEMA["node"].items():
            value = draw(KIND_VALUES[kind])
            optional = key in ("tx_power", "sleep")
            sf._set(node, path, None if optional and draw(st.booleans()) else value)
        cfg.nodes.append(node)
    mobiles = [n for n in cfg.nodes if n.node_class is NodeClass.MOBILE]
    for n in mobiles[1:]:
        n.node_class = NodeClass.STATIONARY
    for n in mobiles[:1]:  # its position comes from the trajectory
        n.role, n.x, n.y = NodeRole.END_DEVICE, 0.0, 0.0
    coordinators = [n for n in cfg.nodes if n.role is NodeRole.COORDINATOR]
    for n in coordinators[1:]:
        n.role = NodeRole.ROUTER
    if cfg.stationary_nodes() and not coordinators:
        cfg.stationary_nodes()[0].role = NodeRole.COORDINATOR
    cfg.csma.mac_min_be = draw(st.integers(0, cfg.csma.mac_max_be))
    if not cfg.phy.phy_overhead_bytes and 0 in (
            cfg.mac.ack_header_bytes, cfg.mac.mac_header_bytes + cfg.traffic.payload_bytes):
        cfg.phy.phy_overhead_bytes = 1  # no frame may be empty
    currents = cfg.currents
    currents.tx_current_0dbm_ma = draw(KIND_VALUES[sf._MODE_CURRENT])  # 0 mA or more
    # No level may draw a negative TX current; at 0 dBm it is tx_current_0dbm.
    cfg.phy.power_levels_dbm = tuple(
        p for p in cfg.phy.power_levels_dbm if currents.tx_current_ma(p) >= 0) or (0.0,)
    for node in cfg.nodes:
        power = node.tx_power_dbm
        if power is not None and currents.tx_current_ma(power) < 0:
            node.tx_power_dbm = None
    cfg.phy.tx_power_dbm = draw(st.sampled_from(cfg.phy.power_levels_dbm))
    cfg.sweep_powers = draw(st.none() | st.lists(  # None: no [sweep] powers line
        st.sampled_from(cfg.phy.power_levels_dbm), min_size=1, max_size=6,
        unique=True).map(tuple))
    cfg.channel = draw(st.sampled_from(cfg.band.channels))
    return cfg


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(_configs())
def test_render_parse_is_the_identity(cfg):
    text = render_scenario(cfg)
    again = parse_scenario(text)
    assert again == cfg
    assert render_scenario(again) == text


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(_configs())
def test_clone_of_any_config_is_an_independent_copy(cfg):
    _assert_clone_is_independent(cfg)


# -- parse -> run -> render -> parse: every accepted scenario runs to its end ----

EVENT_BUDGET = 200_000  # a run that needs more is taken for a hang


def _runnable(cfg):
    cfg.duration_us = min(cfg.duration_us, 300_000)
    cfg.traffic.period_us = max(cfg.traffic.period_us, 1_000)
    cfg.move_tick_us = max(cfg.move_tick_us, 1_000)
    return cfg


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(_configs().map(_runnable))
def test_parse_run_render_parse(cfg):
    text = render_scenario(cfg)
    note(text)
    parsed = parse_scenario(text)
    sim = Simulation(parsed)
    dispatch, events = sim._dispatch, itertools.count(1)

    def budgeted(ev):
        if next(events) > EVENT_BUDGET:
            raise AssertionError(f"more than {EVENT_BUDGET} events")
        dispatch(ev)

    sim._dispatch = budgeted
    sim.run()
    assert render_scenario(parsed) == text  # the run leaves its config alone
    assert parse_scenario(text) == parsed
