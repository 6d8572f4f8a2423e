import pytest

from conftest import DATA, make_cfg
from wpansim.engine import RngStream, SimulationError
from wpansim.mac import BROADCAST, Frame, FrameKind, SendOutcome, Transmission
from wpansim.phy import link_rx_power
from wpansim.scenario import LISTEN, RX, SLEEP
from wpansim.scenario_file import load_scenario
from wpansim.sim import Simulation

# Communication range at these settings is ~3.49 m; node 3 sits in range of
# the others, node 5 is far out on the line.
LINE = """
[run]
duration = 2 s
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

[node 2]
role = router
class = stationary
x = 4 m

[node 3]
role = router
class = stationary
x = 2 m

[node 5]
role = router
class = stationary
x = 50 m
"""


def line_sim(seed=1):
    sim = Simulation(make_cfg(LINE.format(seed=seed)))
    return sim


def drive(sim, until=2_000_000):
    return sim.loop.run_until(until, sim._dispatch)


def data_frame(sim, src, dst, payload=10):
    node = sim.nodes[src]
    return Frame(FrameKind.DATA, node.mac.next_seq(), src, dst,
                 payload_len=payload)


def rows_of(sim, kind, node=None):
    return [r for r in sim.rows
            if r.event_kind == kind and (node is None or r.node_id == node)]


def outcomes(sim, node):
    """The outcome of each of the node's queued sends, in order."""
    return [r.detail for r in rows_of(sim, "SEND_OUTCOME", node=node)]


def test_sole_node_transmits_after_short_backoff():
    sim = line_sim()
    sim.nodes[1].mac.csma_send(data_frame(sim, 1, 3))
    drive(sim)
    backoffs = rows_of(sim, "BACKOFF", node=1)
    assert len(backoffs) == 1
    delay = backoffs[0].detail
    assert delay in {k * 320 for k in range(8)}  # BE=3 -> draw in 0..7
    tx = rows_of(sim, "TX_START", node=1)[0]
    assert tx.time_us == delay
    assert outcomes(sim, 1) == [SendOutcome.DELIVERED]


def test_out_of_range_unicast_noack_after_all_retries():
    sim = line_sim()
    sim.nodes[1].mac.csma_send(data_frame(sim, 1, 5))
    drive(sim)
    attempts = rows_of(sim, "TX_START", node=1)
    assert len(attempts) == 1 + sim.cfg.csma.max_frame_retries  # 4 attempts
    assert len({r.seq for r in attempts}) == 1  # retries reuse the seq
    assert outcomes(sim, 1) == [SendOutcome.NO_ACK]


def test_busy_channel_fails_after_max_csma_backoffs():
    sim = line_sim()
    blocker = Frame(FrameKind.DATA, 0, 3, 5, payload_len=1500)
    sim.begin_transmission(sim.nodes[3], blocker)
    sim.nodes[1].mac.csma_send(data_frame(sim, 1, 2))
    drive(sim)
    cca = rows_of(sim, "CCA_BUSY", node=1)
    assert len(cca) == sim.cfg.csma.max_csma_backoffs  # 4 failed CCAs
    assert outcomes(sim, 1) == [SendOutcome.CHANNEL_ACCESS_FAILURE]
    assert rows_of(sim, "TX_START", node=1) == []


def test_backoff_exponent_escalates_and_stays_bounded():
    sim = line_sim(seed=9)
    blocker = Frame(FrameKind.DATA, 0, 3, 5, payload_len=1500)
    sim.begin_transmission(sim.nodes[3], blocker)
    sim.nodes[1].mac.csma_send(data_frame(sim, 1, 2))
    drive(sim)
    delays = [r.detail for r in rows_of(sim, "BACKOFF", node=1)]
    assert len(delays) == 4
    assert all(d <= (2 ** 5 - 1) * 320 for d in delays)


@pytest.mark.parametrize("min_be, max_be", [(0, 3), (3, 3), (2, 5), (5, 8)])
def test_backoff_exponent_is_min_be_plus_busy_ccas_capped_at_max_be(min_be, max_be):
    # BE = min(macMinBE + NB, macMaxBE) (802.15.4-2006, 7.5.1.4).  The
    # backoff is the only draw from a node's stream, so the delays replay.
    sim = Simulation(make_cfg(LINE.format(seed=9) + (
        f"\n[csma]\nmac_min_be = {min_be}\nmac_max_be = {max_be}\n"
        "max_csma_backoffs = 5\n")))
    blocker = Frame(FrameKind.DATA, 0, 3, 5, payload_len=10_000)  # 320 ms on air
    sim.begin_transmission(sim.nodes[3], blocker)
    sim.nodes[1].mac.csma_send(data_frame(sim, 1, 2))
    drive(sim)
    assert outcomes(sim, 1) == [SendOutcome.CHANNEL_ACCESS_FAILURE]
    assert [r.detail for r in rows_of(sim, "CCA_BUSY", node=1)] == [1, 2, 3, 4, 5]
    rng = RngStream(sim.cfg.seed, 1)
    assert [r.detail for r in rows_of(sim, "BACKOFF", node=1)] == [
        rng.draw_uniform(1 << min(min_be + k, max_be)) * sim.cfg.csma.unit_backoff_us
        for k in range(5)]


def test_send_immediate_rejects_non_exempt_kinds():
    sim = line_sim()
    with pytest.raises(SimulationError):
        sim.nodes[1].mac.send_immediate(data_frame(sim, 1, 3))


def test_csma_send_rejects_exempt_kinds():
    sim = line_sim()
    beacon = Frame(FrameKind.BEACON, 0, 1, BROADCAST, payload_len=4)
    with pytest.raises(SimulationError):
        sim.nodes[1].mac.csma_send(beacon)


def test_data_frames_must_be_unicast():
    sim = line_sim()
    broadcast_data = Frame(FrameKind.DATA, 0, 1, BROADCAST, payload_len=10)
    with pytest.raises(SimulationError):
        sim.nodes[1].mac.csma_send(broadcast_data)


def test_beacon_ignores_busy_channel_and_collides():
    sim = line_sim()
    blocker = Frame(FrameKind.DATA, 0, 2, 5, payload_len=300)
    sim.begin_transmission(sim.nodes[2], blocker)
    beacon = Frame(FrameKind.BEACON, 0, 1, BROADCAST, payload_len=4)
    sim.nodes[1].mac.send_immediate(beacon)  # transmitted at once, no CCA
    drive(sim)
    assert rows_of(sim, "BACKOFF", node=1) == []
    tx = rows_of(sim, "TX_START", node=1)
    assert tx and tx[0].time_us == 0
    # node 3 hears both senders: the overlap destroys both frames there
    assert rows_of(sim, "COLLISION", node=3)
    assert rows_of(sim, "RX", node=3) == []


def test_ack_sent_after_fixed_turnaround_without_cca():
    sim = line_sim()
    sim.nodes[1].mac.csma_send(data_frame(sim, 1, 3))
    drive(sim)
    rx = [r for r in rows_of(sim, "RX", node=3) if r.frame_kind == "data"][0]
    ack_tx = [r for r in rows_of(sim, "TX_START", node=3)
              if r.frame_kind == "ack"]
    assert len(ack_tx) == 1
    assert ack_tx[0].time_us == rx.time_us + sim.cfg.csma.turnaround_us
    assert all(r.frame_kind != "ack" for r in rows_of(sim, "BACKOFF"))


def test_a_duplicate_ack_after_delivery_is_ignored():
    # A frame sent twice can be acked twice: the second ack finds no ack
    # timer pending and changes nothing.
    sim = line_sim()
    frame = data_frame(sim, 1, 3)
    sim.nodes[1].mac.csma_send(frame)
    drive(sim)
    assert outcomes(sim, 1) == [SendOutcome.DELIVERED]
    sim.nodes[3].mac.send_immediate(Frame(FrameKind.ACK, frame.seq, 3, 1))
    drive(sim, until=4_000_000)  # the first drive left the clock at 2 s
    assert [r.frame_kind for r in rows_of(sim, "RX", node=1)] == ["ack", "ack"]
    assert outcomes(sim, 1) == [SendOutcome.DELIVERED]


def test_only_the_matching_ack_ends_a_send_waiting_for_it():
    # While node 1's frame waits for its ack, an ack with another seq, or
    # from a node other than the frame's destination, leaves the send open;
    # only an ack from the destination with the frame's seq ends it.  Node 5
    # is out of range, so no real ack comes.
    sim = line_sim()
    mac = sim.nodes[1].mac
    frame = data_frame(sim, 1, 5)
    mac.csma_send(frame)
    backoff = rows_of(sim, "BACKOFF", node=1)[0].detail
    drive(sim, until=backoff + sim.airtime(frame))  # the frame has left the air
    for seq, src in ((frame.seq + 1, 5), (frame.seq, 3)):
        mac.receive(Frame(FrameKind.ACK, seq, src, 1), -60.0, 200)
        assert mac.current is frame and mac._ack_timeout_event is not None
    mac.receive(Frame(FrameKind.ACK, frame.seq, 5, 1), -60.0, 200)
    assert mac.current is None
    drive(sim)
    assert outcomes(sim, 1) == [SendOutcome.DELIVERED]
    assert rows_of(sim, "ACK_TIMEOUT", node=1) == []


def test_deliver_single_listener():
    sim = line_sim()
    sim.nodes[1].mac.csma_send(data_frame(sim, 1, 3))
    drive(sim)
    assert [r for r in rows_of(sim, "RX", node=3) if r.frame_kind == "data"]


def test_deliver_overlapping_inrange_transmitters_destroy_both():
    sim = line_sim()
    # nodes 1 and 2 both audible at node 3; simultaneous frames collide there
    f1 = Frame(FrameKind.DATA, 0, 1, 3, payload_len=50)
    f2 = Frame(FrameKind.DATA, 0, 2, 3, payload_len=50)
    sim.begin_transmission(sim.nodes[1], f1)
    sim.begin_transmission(sim.nodes[2], f2)
    drive(sim)
    assert rows_of(sim, "RX", node=3) == []
    assert len(rows_of(sim, "COLLISION", node=3)) == 2


def test_deliver_ignores_out_of_range_interferer():
    # three-node check, enumerated by hand: tx 1 -> rx 3 with node 5
    # transmitting 48 m from the receiver, below sensitivity there
    sim = line_sim()
    interferer = Frame(FrameKind.DATA, 0, 5, 2, payload_len=200)
    sim.begin_transmission(sim.nodes[5], interferer)
    sim.nodes[1].mac.csma_send(data_frame(sim, 1, 3))
    drive(sim)
    data_rx = [r for r in rows_of(sim, "RX", node=3) if r.frame_kind == "data"]
    assert len(data_rx) == 1
    assert rows_of(sim, "COLLISION", node=3) == []


def test_sleeping_node_receives_nothing():
    cfg = make_cfg(LINE.format(seed=1) + "\n[node 9]\nrole = end_device\n"
                   "class = mobile\nsleep = on\n\n[trajectory]\n"
                   "waypoint = 1 m, 0 m, 0 s\n")
    sim = Simulation(cfg)
    beacon = Frame(FrameKind.BEACON, 0, 1, BROADCAST, payload_len=4)
    sim.nodes[1].mac.send_immediate(beacon)
    drive(sim)
    assert sim.nodes[9].ledger.mode == SLEEP
    assert rows_of(sim, "RX", node=9) == []


def test_csma_send_while_asleep_is_fatal():
    cfg = make_cfg(LINE.format(seed=1) + "\n[node 9]\nrole = end_device\n"
                   "class = mobile\nsleep = on\n\n[trajectory]\n"
                   "waypoint = 1 m, 0 m, 0 s\n")
    sim = Simulation(cfg)
    with pytest.raises(SimulationError):
        sim.nodes[9].mac.csma_send(data_frame(sim, 9, 1))


def test_a_node_between_frames_with_one_queued_stays_awake():
    # While the controller hears the first frame's outcome the MAC holds no
    # frame but has one queued: it is busy, so a node that may sleep stays
    # awake there.
    sim = Simulation(make_cfg(LINE.format(seed=1).replace(
        "x = 0 m", "x = 0 m\nsleep = on")))
    node = sim.nodes[1]
    mac = node.mac
    first = data_frame(sim, 1, 3)
    seen = []
    on_send_outcome = node.controller.on_send_outcome

    def on_outcome(frame, outcome):
        if frame is first:
            seen.append((outcome, mac.current, len(mac.queue)))
            node.maybe_sleep()
            seen.append(node.ledger.mode)
        on_send_outcome(frame, outcome)

    node.controller.on_send_outcome = on_outcome
    node.wake()
    mac.csma_send(first)
    mac.csma_send(data_frame(sim, 1, 3))
    drive(sim)
    assert seen == [(SendOutcome.DELIVERED, None, 1), LISTEN]
    assert outcomes(sim, 1) == [SendOutcome.DELIVERED] * 2
    assert node.ledger.mode == SLEEP  # asleep once both frames are done


def test_a_send_the_controller_starts_on_an_outcome_keeps_the_queue_order():
    # The controller may queue a frame while it hears an outcome, as the
    # mobile queues a probe after a no-ack.  The MAC then starts the oldest
    # queued frame, and every frame goes on air once, in queue order.
    sim = line_sim()
    node = sim.nodes[1]
    mac = node.mac
    first, second, third = (data_frame(sim, 1, 3) for _ in range(3))
    on_send_outcome = node.controller.on_send_outcome

    def on_outcome(frame, outcome):
        if frame is first:
            mac.csma_send(third)
        on_send_outcome(frame, outcome)

    node.controller.on_send_outcome = on_outcome
    mac.csma_send(first)
    mac.csma_send(second)
    drive(sim)
    assert [r.seq for r in rows_of(sim, "TX_START", node=1)
            if r.frame_kind == "data"] == [first.seq, second.seq, third.seq]
    assert outcomes(sim, 1) == [SendOutcome.DELIVERED] * 3


def test_a_node_another_frame_engages_stays_awake_after_its_own_frame():
    # Node 1 may sleep, but node 3's frame still engages it when its own
    # beacon ends.
    sim = Simulation(make_cfg(LINE.format(seed=1).replace(
        "x = 0 m", "x = 0 m\nsleep = on")))
    node = sim.nodes[1]
    node.wake()
    sim.begin_transmission(sim.nodes[3], Frame(FrameKind.DATA, 0, 3, 5,
                                               payload_len=100))
    assert (node.ledger.mode, node.rx_engagements) == (RX, 1)
    node.mac.send_immediate(Frame(FrameKind.BEACON, 0, 1, BROADCAST, payload_len=4))
    beacon_end = node.mac.tx_ends_at
    assert beacon_end < sim.channel.transmissions[0].end
    drive(sim, until=beacon_end)
    assert (node.ledger.mode, node.rx_engagements) == (LISTEN, 1)


def test_a_listener_keeps_listen_since_from_listen_to_rx_and_back():
    # listen_since is when the radio began to hear; receiving a frame does
    # not move it.  Node 3 has listened since 0.
    sim = line_sim()
    listener = sim.nodes[3]
    frame = Frame(FrameKind.DATA, 0, 1, 5, payload_len=10)  # node 3 acks nothing
    sim.loop.schedule(1_000, sim.begin_transmission, sim.nodes[1], frame)
    drive(sim, until=1_000)
    assert (listener.ledger.mode, listener.listen_since) == (RX, 0)
    drive(sim)
    assert [r.time_us for r in rows_of(sim, "RX", node=3)] == [1_000 + sim.airtime(frame)]
    assert (listener.ledger.mode, listener.listen_since) == (LISTEN, 0)


def test_a_sleeping_or_transmitting_listener_is_not_engaged():
    # Only a radio that hears switches to reception: node 3 starts asleep
    # under node 1's frame, then transmits under node 2's.
    sim = Simulation(make_cfg(LINE.format(seed=1).replace(
        "x = 2 m", "x = 2 m\nsleep = on")))
    listener = sim.nodes[3]
    sim.begin_transmission(sim.nodes[1], Frame(FrameKind.DATA, 0, 1, 5, payload_len=10))
    assert (listener.ledger.mode, listener.rx_engagements) == (SLEEP, 0)
    listener.wake()
    sim.begin_transmission(listener, Frame(FrameKind.DATA, 0, 3, 5, payload_len=10))
    sim.begin_transmission(sim.nodes[2], Frame(FrameKind.DATA, 0, 2, 5, payload_len=10))
    assert listener.rx_engagements == 0
    assert all(listener not in tx.engaged for tx in sim.channel.transmissions)


def test_seq_counter_increments_and_wraps():
    sim = line_sim()
    mac = sim.nodes[1].mac
    assert [mac.next_seq() for _ in range(3)] == [0, 1, 2]
    mac.seq_counter = 255
    assert mac.next_seq() == 255
    assert mac.next_seq() == 0


def test_sequential_sends_use_consecutive_seqs():
    sim = line_sim()
    for _ in range(3):
        sim.nodes[1].mac.csma_send(data_frame(sim, 1, 3))
    drive(sim)
    data_tx = [r for r in rows_of(sim, "TX_START", node=1)
               if r.frame_kind == "data"]
    assert [r.seq for r in data_tx] == [0, 1, 2]


def test_beacons_at_order_zero_follow_exact_cadence():
    cfg = make_cfg(LINE.format(seed=1))
    cfg.mac.beacon_order = 0
    cfg.duration_us = 200_000
    sim = Simulation(cfg)
    res = sim.run()
    for node in (1, 2, 3, 5):  # every router and the coordinator emits
        times = [r.time_us for r in res.rows
                 if r.event_kind == "TX_START" and r.frame_kind == "beacon"
                 and r.node_id == node]
        assert times == [15_360 * k for k in range(1, 14)]


def test_beacon_order_15_schedules_no_beacons():
    cfg = make_cfg(LINE.format(seed=1))
    cfg.duration_us = 200_000
    res = Simulation(cfg).run()
    assert all(r.frame_kind != "beacon" for r in res.rows)


def test_frames_that_touch_end_to_start_do_not_overlap():
    sim = line_sim()
    # Addressed to node 5, out of range, so that node 3 sends no ack.
    first = Frame(FrameKind.DATA, 0, 1, 5, payload_len=50)
    second = Frame(FrameKind.DATA, 0, 2, 5, payload_len=50)
    airtime = sim.airtime(first)
    sim.begin_transmission(sim.nodes[1], first)
    sim.loop.schedule(airtime, sim.begin_transmission, sim.nodes[2], second)
    drive(sim)
    # Both reach node 3, which hears both senders: the second starts in the
    # microsecond the first ends.
    assert rows_of(sim, "COLLISION") == []
    assert [(r.src, r.time_us) for r in rows_of(sim, "RX", node=3)] == \
        [(1, airtime), (2, 2 * airtime)]
    tx = Transmission(sim.nodes[1], first, 100, 200, (0.0, 0.0))
    assert not tx.overlaps(200, 300) and not tx.overlaps(0, 100)
    assert tx.overlaps(199, 300) and tx.overlaps(0, 101)


# Every listener sits 1 m from the coordinator, so it receives the
# coordinator's beacons at exactly the sensitivity, -50 dBm: pl0 + 10 n
# log10(1 m) = 50 dB.  A frame is heard only strictly above it.
AT_SENSITIVITY = """
[run]
duration = 1 s
seed = 1

[phy]
tx_power = 0 dBm
rx_sensitivity = -50 dBm
pl0 = 50 dB
path_loss_exponent = 3

[mac]
beacon_order = 2

[node 1]
role = coordinator
class = stationary
x = 0 m

[node 2]
role = end_device
class = stationary
x = -1 m

[node 9]
role = end_device
class = mobile
sleep = off

[trajectory]
waypoint = 1 m, 0 m, 0 s

[tpc]
enabled = off
"""


def test_a_frame_at_exactly_the_sensitivity_is_not_heard():
    cfg = make_cfg(AT_SENSITIVITY)
    assert link_rx_power(1.0, 0.0, cfg.phy) == cfg.phy.rx_sensitivity_dbm
    sim = Simulation(cfg)
    res = sim.run()
    assert len(sent_at(sim, 1, "beacon")) == 16  # every 61,440 us
    assert rows_of(sim, "RX") == []
    for listener in (2, 9):  # stationary, and the mobile parked 1 m away
        times = res.ledgers[listener].mode_times
        assert times[LISTEN] > 0 and times.get(RX, 0) == 0


def test_collision_resolved_after_longer_than_100ms_frame():
    # At 868 MHz (20 kb/s) a 300 B payload stays on air for 126 ms.  The short
    # frame from node 2 overlaps its start at node 3 and has left the air
    # long before the long frame ends; the channel must still remember it.
    sim = Simulation(make_cfg(LINE.format(seed=1).replace(
        "[phy]\n", "[phy]\nband = 868\nchannel = 0\n")))
    long_frame = Frame(FrameKind.DATA, 0, 1, 3, payload_len=300)
    sim.begin_transmission(sim.nodes[1], long_frame)
    short_frame = Frame(FrameKind.DATA, 0, 2, 5, payload_len=5)
    sim.begin_transmission(sim.nodes[2], short_frame)
    short_end = rows_of(sim, "TX_START", node=2)[0].time_us + 8_000
    drive(sim, until=short_end + 107_000)
    assert sim.loop.now == 115_000
    # Node 5, out of range of node 3, transmits: the channel prunes its
    # history 107 ms after the short frame ended, 11 ms before the long
    # frame ends.
    far = Frame(FrameKind.DATA, 0, 5, 2, payload_len=5)
    sim.begin_transmission(sim.nodes[5], far)
    drive(sim)
    heard = [r for r in sim.rows if r.node_id == 3 and r.src == 1]
    assert [r.event_kind for r in heard] == ["COLLISION"]
    assert heard[0].time_us == 126_000


# -- beacons and acks wait for the radio's own frame ----------------------------


def beacon_sim(beacon_order=0):
    cfg = make_cfg(LINE.format(seed=1))
    cfg.mac.beacon_order = beacon_order  # order 0: a beacon every 15,360 us
    cfg.duration_us = 50_000
    sim = Simulation(cfg)
    sim.setup()
    return sim


def sent_at(sim, node, kind):
    return [r.time_us for r in rows_of(sim, "TX_START", node=node)
            if r.frame_kind == kind]


def test_beacon_due_during_own_frame_goes_out_at_its_end_and_keeps_cadence():
    sim = beacon_sim()
    own = Frame(FrameKind.DATA, 0, 1, 5, payload_len=500)
    sim.begin_transmission(sim.nodes[1], own)
    own_end = sim.airtime(own)
    assert 15_360 < own_end < 2 * 15_360  # on air when the first beacon is due
    drive(sim, until=sim.cfg.duration_us)
    assert sent_at(sim, 1, "beacon") == [own_end, 2 * 15_360, 3 * 15_360]
    assert sent_at(sim, 3, "beacon") == [15_360, 2 * 15_360, 3 * 15_360]


def test_ack_due_during_own_frame_goes_out_right_after_it():
    sim = line_sim()
    data = Frame(FrameKind.DATA, 0, 1, 3, payload_len=10)
    sim.begin_transmission(sim.nodes[1], data)
    rx_at = sim.airtime(data)
    drive(sim, until=rx_at + 100)  # the ack turnaround is still running
    own = Frame(FrameKind.DATA, 0, 3, 5, payload_len=20)
    sim.begin_transmission(sim.nodes[3], own)
    own_end = rx_at + 100 + sim.airtime(own)
    drive(sim)
    assert rows_of(sim, "RX", node=3)[0].time_us == rx_at
    assert sent_at(sim, 3, "ack") == [own_end]
    assert own_end > rx_at + sim.cfg.csma.turnaround_us
    assert sim.nodes[3].mac.pending_acks == 0


def test_ack_deferred_twice_when_a_second_own_frame_follows_the_first():
    # Node 3's beacon falls due during its own frame, 42 us before the ack
    # turnaround ends: both wait for the frame's end, the beacon goes first
    # and the ack waits again, for the beacon.
    sim = beacon_sim()
    turnaround = sim.cfg.csma.turnaround_us
    data = Frame(FrameKind.DATA, 0, 1, 3, payload_len=10)
    rx_at = 15_360 + 42 - turnaround
    drive(sim, until=rx_at - sim.airtime(data))
    sim.begin_transmission(sim.nodes[1], data)
    drive(sim, until=rx_at + 50)
    own = Frame(FrameKind.DATA, 0, 3, 5, payload_len=20)
    sim.begin_transmission(sim.nodes[3], own)
    own_end = rx_at + 50 + sim.airtime(own)
    assert own_end > 15_360 + 42
    drive(sim, until=sim.cfg.duration_us)
    beacon = Frame(FrameKind.BEACON, 0, 3, BROADCAST, payload_len=4)
    assert rows_of(sim, "RX", node=3)[0].time_us == rx_at
    assert sent_at(sim, 3, "beacon") == [own_end, 2 * 15_360, 3 * 15_360]
    assert sent_at(sim, 3, "ack") == [own_end + sim.airtime(beacon)]


def test_a_backoff_due_as_its_own_frame_ends_samples_the_channel_after_it():
    # The backoff event was queued before the ack's end, so it runs first at
    # that microsecond; the data frame must still start after the ack ends.
    sim = line_sim()
    sim.nodes[1].mac.csma_send(data_frame(sim, 1, 3))
    due = rows_of(sim, "BACKOFF", node=1)[0].detail
    ack = Frame(FrameKind.ACK, 7, 1, 3)
    assert due > sim.airtime(ack)
    sim.loop.schedule(due - sim.airtime(ack), sim.nodes[1].mac.send_immediate, ack)
    drive(sim)
    at_due = [r.event_kind for r in sim.rows if r.node_id == 1 and r.time_us == due]
    assert at_due == ["TX_END", "TX_START"]
    assert sent_at(sim, 1, "data") == [due]
    ledger = sim.nodes[1].ledger.mode_times
    data = Frame(FrameKind.DATA, 0, 1, 3, payload_len=10)
    assert sum(t for mode, t in ledger.items() if mode.tx_power_dbm is not None) \
        == sim.airtime(ack) + sim.airtime(data)


DEFAULT_HANDLERS = {
    "MacLayer._ack_due", "MacLayer.on_ack_timeout", "MacLayer.on_backoff_expire",
    "MobileController.on_data_due", "MobileController.on_handover_timer",
    "MobileController.start_handover", "Simulation._on_tx_end", "Simulation.emit"}


@pytest.mark.parametrize("scenario, handlers", [
    ("default", DEFAULT_HANDLERS),
    ("contention", DEFAULT_HANDLERS | {"MacLayer.beacon_due"}),
])
def test_each_event_action_is_its_handler(scenario, handlers, default_cfg):
    # No trampoline: periodic events are re-armed by the loop, and the MAC
    # defers its own acks and beacons, so every action names what it does.
    cfg = (default_cfg if scenario == "default"
           else load_scenario(DATA / "contention.scenario"))
    sim = Simulation(cfg)
    names = set()

    def dispatch(ev):
        names.add(ev.action.__qualname__)
        ev.action(*ev.args)

    sim._dispatch = dispatch
    sim.run()
    assert names == handlers
