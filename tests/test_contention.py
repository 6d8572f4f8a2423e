"""Eight stationary nodes, beacons and 20 ms traffic: links repeat.

The digests were recorded before the stationary-pair link cache existed,
so they pin its output to the uncached computation.  `golden_tiny` has a
single stationary pair and barely exercises the cache.
"""

import hashlib

import pytest

from conftest import DATA
from util_props import check_invariants
from wpansim import mac, phy
from wpansim.harness import arm_config, run_simulation
from wpansim.scenario import NodeClass
from wpansim.scenario_file import load_scenario

# sha256 of (trace.csv, energy.csv) per compare arm on contention.scenario.
GOLDEN = {
    "broadcast+tpc": (
        "df5aeebec16fe1ed8c295487d84a65b0b097dc5fdd4c719da0c0c9ea7fbc5da1",
        "d048ef0e3eef909ca235db2d6aaaa4ca6a27a51ca4b2f09a9ab602e7bc1805ea"),
    "broadcast+fixed": (
        "d59e7bb025204cd8053193579c720f6349e09ccedff233f51630219f519ca5b4",
        "7497cd38117db099b3f20966a9b9a9b68d2d60d91472f5c672ab0ae2655bbe75"),
    "scan+tpc": (
        "fed0c133f14c7945e695dfed838d3c3152cee6a2be387e51f7b98c2132d76a01",
        "ff4f3ac9626a1f0377a48347bc5160da0ff0a7f0e7cec5f3d61ffaa5275ca925"),
    "scan+fixed": (
        "0b4f7569925308f08025044f27249ea403dea1a4ceb8ba1a3d5ef5527a722cb6",
        "8493c3fa5f134e55bcf0966507f70cab3034d3911e36fe5f1420bae522b61d17"),
}

# Link budgets computed by the broadcast+tpc arm before the cache existed
# (8,158 through the old phy.in_range plus 1,800 through Channel.rx_power).
UNCACHED_LINK_BUDGETS = 9_958


def arm_cfg(name):
    """The scenario as harness.compare configures the named arm."""
    mode, power = name.split("+")
    return arm_config(load_scenario(DATA / "contention.scenario"), mode, power == "tpc")


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_compare_arm_outputs_match_golden_digests(name, tmp_path):
    run_simulation(arm_cfg(name), outdir=tmp_path)
    got = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                for f in ("trace.csv", "energy.csv"))
    assert got == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_compare_arms_at_seed_42_hold_the_mac_invariants(name):
    # In both scan arms at seed 42, node 2's AssocResponse backoff expires
    # the instant its own beacon ends: the response must start after it.
    cfg = arm_cfg(name)
    assert cfg.seed == 42
    check_invariants(run_simulation(cfg))


def test_each_stationary_link_budget_is_computed_once(monkeypatch):
    cfg = arm_cfg("broadcast+tpc")
    stationary = {n.node_id for n in cfg.nodes if n.node_class is NodeClass.STATIONARY}
    link = []  # (src, rx, power) of the Channel.rx_power call in progress
    computed = []
    original_link, original_rx_power = mac.link_rx_power, mac.Channel.rx_power

    def counting_link(*args):
        computed.append(link[-1] if link else None)
        return original_link(*args)

    def tracking_rx_power(channel, tx, node):
        link.append((tx.node.node_id, node.node_id, tx.frame.tx_power_dbm))
        try:
            return original_rx_power(channel, tx, node)
        finally:
            link.pop()

    monkeypatch.setattr(mac, "link_rx_power", counting_link)
    monkeypatch.setattr(phy, "link_rx_power", counting_link)
    monkeypatch.setattr(mac.Channel, "rx_power", tracking_rx_power)
    run_simulation(cfg)
    assert None not in computed, "link budget computed outside Channel.rx_power"
    fixed = [k for k in computed if k[0] in stationary and k[1] in stationary]
    assert fixed, "no stationary pair was evaluated"
    assert len(fixed) == len(set(fixed))
    assert len(computed) <= UNCACHED_LINK_BUDGETS // 2


def test_each_frame_reaches_each_stationary_listener_once(monkeypatch):
    # A stationary listener's received power is final at transmit start,
    # also when the mobile sent the frame: the source position is a
    # snapshot.  So no (frame, stationary listener) budget is computed twice.
    cfg = arm_cfg("broadcast+tpc")
    stationary = {n.node_id for n in cfg.nodes if n.node_class is NodeClass.STATIONARY}
    mobile = cfg.mobile_node().node_id
    link = []  # the (frame, listener) of the Channel.rx_power call in progress
    computed = []
    frames = []  # keeps every evaluated transmission alive, so ids stay unique
    original_link, original_rx_power = mac.link_rx_power, mac.Channel.rx_power

    def counting_link(*args):
        computed.append(link[-1] if link else None)
        return original_link(*args)

    def tracking_rx_power(channel, tx, node):
        frames.append(tx)
        link.append((id(tx), tx.node.node_id, node.node_id))
        try:
            return original_rx_power(channel, tx, node)
        finally:
            link.pop()

    monkeypatch.setattr(mac, "link_rx_power", counting_link)
    monkeypatch.setattr(phy, "link_rx_power", counting_link)
    monkeypatch.setattr(mac.Channel, "rx_power", tracking_rx_power)
    run_simulation(cfg)
    assert None not in computed, "link budget computed outside Channel.rx_power"
    heard = [k for k in computed if k[2] in stationary]
    assert any(src == mobile for _, src, _ in heard), "no mobile frame evaluated"
    assert len(heard) == len(set(heard))
