"""Randomized small-scenario generator, MAC invariant checkers and the
detuned default scenario.

Shared between the fast property tests, the acceptance suite, the
calibration tests and `tools/battery.py`.  Scenarios are built from a seeded
generator, so every failure is reproducible from the scenario index alone.
"""

from __future__ import annotations

import random

from wpansim.cli import default_scenario_path
from wpansim.scenario_file import load_scenario, parse_scenario
from wpansim.sim import Simulation

MAX_BACKOFF_US = (2 ** 5 - 1) * 320  # (2^macMaxBE - 1) unit backoffs

_NODE_TMPL = """
[node {nid}]
role = {role}
class = stationary
x = {x:.1f} m
y = 0 m
"""

_SCENARIO_TMPL = """
[run]
duration = {duration_ms} ms
seed = {seed}

[phy]
tx_power = {power:g} dBm
rx_sensitivity = -73 dBm
pl0 = 54 dB
path_loss_exponent = 3.5

[mac]
beacon_order = {bo}
{nodes}
[node 9]
role = end_device
class = mobile

[trajectory]
waypoint = {x0:.1f} m, 0 m, 0 s
waypoint = {x1:.1f} m, 0 m, {duration_ms} ms
move_tick = 100 ms

[traffic]
period = {period_ms} ms
payload = {payload} B

[tpc]
enabled = {tpc}

[handover]
mode = {mode}
"""


def random_scenario(index: int):
    rng = random.Random(0xC0FFEE ^ index)
    n_stationary = rng.randint(1, 4)  # plus the mobile: <= 5 nodes total
    nodes = []
    for i in range(n_stationary):
        role = "coordinator" if i == 0 else "router"
        nodes.append(_NODE_TMPL.format(nid=i + 1, role=role,
                                       x=rng.uniform(-4.0, 12.0)))
    x0 = rng.uniform(-2.0, 4.0)
    text = _SCENARIO_TMPL.format(
        duration_ms=rng.choice([300, 500, 800, 1000]),
        seed=index,
        power=rng.choice([0.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
        bo=rng.choice([4, 5, 6, 15]),
        nodes="".join(nodes),
        x0=x0,
        x1=x0 + rng.uniform(0.0, 2.0),
        period_ms=rng.choice([50, 100, 150, 200]),
        payload=rng.randint(5, 60),
        tpc=rng.choice(["on", "off"]),
        mode=rng.choice(["broadcast", "scan"]),
    )
    return parse_scenario(text, source=f"<prop-{index}>")


def detuned_scenario():
    """The default scenario far off its calibrated fit: path-loss exponent
    2.0, pl0 40 dB, sensitivity -90 dBm, stationary nodes at 0/7/14 m."""
    cfg = load_scenario(default_scenario_path())
    cfg.phy.path_loss_exponent = 2.0
    cfg.phy.pl0_db = 40.0
    cfg.phy.rx_sensitivity_dbm = -90.0
    for i, node in enumerate(cfg.stationary_nodes()):
        node.x = 7.0 * i
    return cfg


class LoggedSimulation(Simulation):
    """A run that also logs each transmission with the ids of its receivers."""

    def __init__(self, cfg) -> None:
        super().__init__(cfg)
        self.delivery_log: list[tuple] = []

    def deliver(self, tx):
        receivers = super().deliver(tx)
        self.delivery_log.append((tx, tuple(n.node_id for n, _, _ in receivers)))
        return receivers


def check_invariants(result, cfg, log) -> None:
    """Check a run's result; `log` is its LoggedSimulation.delivery_log."""
    rows = result.rows

    # Backoff delays never exceed (2^macMaxBE - 1) unit backoffs.
    for r in rows:
        if r.event_kind == "BACKOFF":
            assert r.detail <= MAX_BACKOFF_US, f"backoff {r.detail} us over bound"

    # Beacons and acks never enter CSMA (no backoff or CCA rows).
    for r in rows:
        if r.event_kind in ("BACKOFF", "CCA_BUSY"):
            assert r.frame_kind not in ("beacon", "ack"), \
                f"{r.frame_kind} went through CSMA"

    # No capture: transmissions overlapping in time share no receiver.
    for i in range(len(log)):
        tx_a, recv_a = log[i]
        for j in range(i + 1, len(log)):
            tx_b, recv_b = log[j]
            if tx_a.overlaps(tx_b.start, tx_b.end):
                both = set(recv_a) & set(recv_b)
                assert not both, \
                    f"nodes {both} accepted two overlapping transmissions"

    # Every accepted unicast data frame is acked exactly once (the reply is
    # CSMA-exempt and leaves no earlier than one turnaround after the rx;
    # it slips later only when the radio was mid-transmission).  Receptions
    # too close to the end of the run cannot complete and are skipped.
    ack_slack_us = 10_000
    groups: dict[tuple, list] = {}
    for r in rows:
        if (r.event_kind == "RX" and r.frame_kind == "data"
                and r.dst == r.node_id):
            groups.setdefault((r.node_id, r.src, r.seq), []).append(r.time_us)
    for (nid, src, seq), rx_times in groups.items():
        if max(rx_times) > cfg.duration_us - ack_slack_us:
            continue
        acks = [r.time_us for r in rows
                if r.event_kind == "TX_START" and r.frame_kind == "ack"
                and r.node_id == nid and r.dst == src and r.seq == seq]
        assert len(acks) == len(rx_times), \
            f"data seq {seq} at node {nid}: {len(rx_times)} rx, {len(acks)} acks"
        assert min(acks) >= min(rx_times) + cfg.csma.turnaround_us

    # Transmitted seqs stay within the mod-256 counter range; counter
    # contiguity and retry reuse are pinned by the dedicated MAC unit tests
    # (frames that die in CSMA before airing leave legitimate holes here).
    for nid in {r.node_id for r in rows}:
        distinct = {r.seq for r in rows
                    if r.event_kind == "TX_START" and r.src == nid
                    and r.frame_kind != "ack"}
        assert all(0 <= s <= 255 for s in distinct)

    # Event accounting: nothing lost.
    s = result.summary
    assert s.scheduled == s.total_processed + s.cancelled + s.unprocessed

    # Mode times partition the run exactly.
    for nid, ledger in result.ledgers.items():
        assert ledger.total_time() == cfg.duration_us

    # Each node's transmit time in its ledger is the sum of its TX_START ->
    # TX_END intervals; a frame still on air at the end is closed there.
    on_air: dict[int, int] = {}
    tx_time = dict.fromkeys(result.ledgers, 0)
    for r in rows:
        if r.event_kind == "TX_START":
            assert r.node_id not in on_air, f"node {r.node_id} sends two frames"
            on_air[r.node_id] = r.time_us
        elif r.event_kind == "TX_END":
            tx_time[r.node_id] += r.time_us - on_air.pop(r.node_id)
    for nid, start in on_air.items():
        tx_time[nid] += cfg.duration_us - start
    for nid, ledger in result.ledgers.items():
        ledger_tx = sum(t for mode, t in ledger.mode_times.items()
                        if mode.tx_power_dbm is not None)
        assert ledger_tx == tx_time[nid], f"node {nid} transmit time"

    # The mobile's handovers do not overlap: each HANDOVER_START is ended by
    # one HANDOVER_DONE or HANDOVER_FAIL before the next starts.
    searching = False
    for r in rows:
        if r.node_id == result.mobile_id and r.event_kind.startswith("HANDOVER_"):
            starts = r.event_kind == "HANDOVER_START"
            assert starts != searching, f"{r.event_kind} at {r.time_us} us"
            searching = starts

    # The mobile's counts are consistent with each other.
    stats = result.stats
    assert stats.handovers - stats.completions - stats.failures in (0, 1)
    assert 0 <= stats.outage_us <= cfg.duration_us
    assert stats.completions == len(stats.latencies_us)
    assert stats.data_attempts >= stats.delivered + stats.no_ack + stats.cca_fail


def run_property_suite(count: int, offset: int = 0) -> int:
    total_events = 0
    for index in range(offset, offset + count):
        cfg = random_scenario(index)
        sim = LoggedSimulation(cfg)
        result = sim.run()
        check_invariants(result, cfg, sim.delivery_log)
        total_events += result.summary.total_processed
    return total_events
