"""Randomized small-scenario generator, the MAC invariant checker and the
detuned default scenario.

`check_invariants(result)` checks any `RunResult` from its own rows and
`result.cfg`, so a plain `Simulation(cfg).run()` or a run that `harness`
returns is checked as it is.  It reads the CSMA limits off the BACKOFF,
CCA_BUSY and ACK_TIMEOUT rows, and rebuilds every aired frame from its
TX_START, RX and TX_END rows (`aired_frames`) for the no-capture,
one-frame-at-a-time and ledger checks.

Shared between the fast property tests, the acceptance suite, the
calibration tests and `tools/battery.py`.  Scenarios are built from a seeded
generator, so every failure is reproducible from the scenario index alone.
"""

from __future__ import annotations

import random

from wpansim.cli import default_scenario_path
from wpansim.scenario_file import load_scenario, parse_scenario
from wpansim.sim import Simulation

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


def aired_frames(rows) -> list[list]:
    """Every frame the rows put on air, in start order, as [sender id, start
    us, end us, receiver ids]; end is None if the run ended first.

    A frame is keyed by (src, frame_kind, seq) from its TX_START row to its
    TX_END row, and each RX row with its key names a receiver.  A node sends
    one frame at a time: its TX_START row comes after its last frame's
    TX_END row, also when the two share a microsecond.
    """
    frames, on_air, sending = [], {}, set()
    for r in rows:
        key = (r.src, r.frame_kind, r.seq)
        if r.event_kind == "TX_START":
            assert r.node_id not in sending, f"node {r.node_id} sends two frames"
            sending.add(r.node_id)
            on_air[key] = [r.node_id, r.time_us, None, []]
            frames.append(on_air[key])
        elif r.event_kind == "RX":
            on_air[key][3].append(r.node_id)
        elif r.event_kind == "TX_END":
            on_air.pop(key)[2] = r.time_us
            sending.remove(r.node_id)
    return frames


def check_invariants(result) -> None:
    """Check a `RunResult` against its own rows and `result.cfg`; the
    first invariant it breaks fails an assert that names it."""
    cfg, rows = result.cfg, result.rows

    # The 802.15.4 CSMA limits, from the run's own config.  A backoff is a
    # whole number of unit backoffs below 2^BE, BE = min(macMinBE + NB,
    # macMaxBE), where NB counts the busy CCAs so far in the attempt (every
    # backoff is 0 us with a zero unit); a CCA_BUSY row reports that NB, at
    # most max(1, macMaxCSMABackoffs), since the MAC gives every attempt one
    # CCA, also at 0 as 802.15.4 does; and a retry is at most
    # macMaxFrameRetries.  An attempt ends when its frame goes on
    # air or its send has an outcome.  Beacons and acks never enter CSMA.
    # Transmitted seqs stay within the mod-256 counter range; counter
    # contiguity and retry reuse are pinned by the dedicated MAC unit tests
    # (frames that die in CSMA before airing leave legitimate holes here).
    csma = cfg.csma
    nb: dict[int, int] = {}  # node id -> busy CCAs of its current attempt
    for r in rows:
        kind = r.event_kind
        if kind in ("BACKOFF", "CCA_BUSY"):
            assert r.frame_kind not in ("beacon", "ack"), \
                f"{r.frame_kind} went through CSMA"
        if kind == "BACKOFF":
            be = min(csma.mac_min_be + nb.get(r.node_id, 0), csma.mac_max_be)
            unit = csma.unit_backoff_us
            units, rest = divmod(r.detail, unit) if unit else (0, r.detail)
            assert rest == 0 and units < 1 << be, \
                f"backoff {r.detail} us at node {r.node_id}, BE {be}"
        elif kind == "CCA_BUSY":
            nb[r.node_id] = nb.get(r.node_id, 0) + 1
            assert r.detail == nb[r.node_id] <= max(1, csma.max_csma_backoffs), \
                f"CCA_BUSY nb {r.detail} at node {r.node_id}"
        elif kind == "ACK_TIMEOUT":
            assert r.detail is None or r.detail <= csma.max_frame_retries, \
                f"retry {r.detail} at node {r.node_id}"
        elif kind == "SEND_OUTCOME":
            nb.pop(r.node_id, None)
        elif kind == "TX_START" and r.frame_kind != "ack":
            assert 0 <= r.seq <= 255
            if r.frame_kind != "beacon":  # a queued frame aired
                nb.pop(r.node_id, None)

    # No capture: frames overlapping in time share no receiver.  In start
    # order, a frame overlaps only those that start before it ends.
    frames = aired_frames(rows)
    received = [f for f in frames if f[3]]
    for i, (_, _, end, receivers) in enumerate(received):
        for _, start, _, others in received[i + 1:]:
            if start >= end:
                break
            both = set(receivers) & set(others)
            assert not both, f"nodes {both} accepted two overlapping transmissions"

    # Every accepted unicast data frame is acked exactly once (the reply is
    # CSMA-exempt and leaves no earlier than one turnaround after the rx;
    # it slips later only when the radio was mid-transmission).  Receptions
    # too close to the end of the run cannot complete and are skipped.
    ack_slack_us = 10_000
    rxs: dict[tuple, list] = {}  # (receiver, src, seq) -> data RX times
    acks: dict[tuple, list] = {}  # (sender, dst, seq) -> ack TX_START times
    for r in rows:
        if (r.event_kind == "RX" and r.frame_kind == "data"
                and r.dst == r.node_id):
            rxs.setdefault((r.node_id, r.src, r.seq), []).append(r.time_us)
        elif r.event_kind == "TX_START" and r.frame_kind == "ack":
            acks.setdefault((r.node_id, r.dst, r.seq), []).append(r.time_us)
    for (nid, src, seq), rx_times in rxs.items():
        if max(rx_times) > cfg.duration_us - ack_slack_us:
            continue
        sent = acks.get((nid, src, seq), [])
        assert len(sent) == len(rx_times), \
            f"data seq {seq} at node {nid}: {len(rx_times)} rx, {len(sent)} acks"
        assert min(sent) >= min(rx_times) + csma.turnaround_us

    # Event accounting: nothing lost.
    s = result.summary
    assert s.scheduled == s.total_processed + s.cancelled + s.unprocessed

    # Mode times partition the run exactly, and each node's transmit time in
    # its ledger is its frames' airtime; a frame still on air at the end is
    # closed there.
    tx_time = dict.fromkeys(result.ledgers, 0)
    for nid, start, end, _ in frames:
        tx_time[nid] += (cfg.duration_us if end is None else end) - start
    for nid, ledger in result.ledgers.items():
        assert ledger.total_time() == cfg.duration_us
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

    # The mobile's counts are consistent with each other.  A run without a
    # mobile has none.
    stats = result.stats
    if stats is None:
        return
    assert stats.handovers - stats.completions - stats.failures in (0, 1)
    assert 0 <= stats.outage_us <= cfg.duration_us
    assert stats.completions == len(stats.latencies_us)
    assert stats.data_attempts >= stats.delivered + stats.no_ack + stats.cca_fail


def run_property_suite(count: int, offset: int = 0) -> int:
    total_events = 0
    for index in range(offset, offset + count):
        result = Simulation(random_scenario(index)).run()
        check_invariants(result)
        total_events += result.summary.total_processed
    return total_events
