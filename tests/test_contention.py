"""Eight stationary nodes, beacons and 20 ms traffic: links repeat.

The battery's `arm_contention_*` groups pin the four compare arms' outputs
on this scenario; their digests were recorded before the stationary-pair
link cache existed, so they pin its output to the uncached computation.
`golden_tiny` has a single stationary pair and barely exercises the cache.
"""

from conftest import DATA
from wpansim import mac, phy
from wpansim.harness import arm_config, run_simulation
from wpansim.scenario import NodeClass
from wpansim.scenario_file import load_scenario
from wpansim.sim import Simulation

# Link budgets computed by the broadcast+tpc arm before the cache existed
# (8,158 through the old phy.in_range plus 1,800 through Channel.rx_power).
UNCACHED_LINK_BUDGETS = 9_958


def broadcast_tpc_cfg():
    """The scenario as harness.compare configures its broadcast+tpc arm."""
    return arm_config(load_scenario(DATA / "contention.scenario"), "broadcast", True)


def test_each_stationary_link_budget_is_computed_once(monkeypatch):
    # Each stationary pair's budget at one power is computed once.  And a
    # stationary listener's received power is final at transmit start, also
    # when the mobile sent the frame: the source position is a snapshot.  So
    # no (frame, stationary listener) budget is computed twice either.
    cfg = broadcast_tpc_cfg()
    stationary = {n.node_id for n in cfg.nodes if n.node_class is NodeClass.STATIONARY}
    mobile = cfg.mobile_node().node_id
    link = []  # (id(tx), src, rx, power) of the Channel.rx_power call in progress
    computed = []
    frames = []  # keeps every evaluated transmission alive, so ids stay unique
    original_link, original_rx_power = mac.link_rx_power, mac.Channel.rx_power

    def counting_link(*args):
        computed.append(link[-1] if link else None)
        return original_link(*args)

    def tracking_rx_power(channel, tx, node):
        frames.append(tx)
        link.append((id(tx), tx.node.node_id, node.node_id, tx.frame.tx_power_dbm))
        try:
            return original_rx_power(channel, tx, node)
        finally:
            link.pop()

    monkeypatch.setattr(mac, "link_rx_power", counting_link)
    monkeypatch.setattr(phy, "link_rx_power", counting_link)
    monkeypatch.setattr(mac.Channel, "rx_power", tracking_rx_power)
    run_simulation(cfg)
    assert None not in computed, "link budget computed outside Channel.rx_power"
    fixed = [(src, rx, power) for _, src, rx, power in computed
             if src in stationary and rx in stationary]
    assert fixed, "no stationary pair was evaluated"
    assert len(fixed) == len(set(fixed))
    heard = [(tx, src, rx) for tx, src, rx, _ in computed if rx in stationary]
    assert any(src == mobile for _, src, _ in heard), "no mobile frame evaluated"
    assert len(heard) == len(set(heard))
    assert len(computed) <= UNCACHED_LINK_BUDGETS // 2


def test_stepping_a_run_changes_nothing():
    # Three run_until calls give the rows and counts of one whole run; each
    # leaves the clock at its end and counts every event once.
    cfg = load_scenario(DATA / "contention.scenario")
    whole = Simulation(cfg).run()
    sim = Simulation(cfg)
    sim.setup()
    for end in (cfg.duration_us // 3, 2 * cfg.duration_us // 3, cfg.duration_us):
        summary = sim.loop.run_until(end, sim._dispatch)
        assert sim.loop.now == end
        assert summary.scheduled == (summary.total_processed + summary.cancelled
                                     + summary.unprocessed)
    assert sim.rows == whole.rows
    assert summary == whole.summary
