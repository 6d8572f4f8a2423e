from collections import Counter

import pytest

from conftest import make_cfg
from util_props import check_invariants, random_scenario
from wpansim.harness import arm_config
from wpansim.mac import BROADCAST, Frame, FrameKind, SendOutcome
from wpansim.phy import lq_from_rx_power
from wpansim.scenario import NodeRole
from wpansim.sim import Simulation

PARKED = """
[run]
duration = {duration}
seed = {seed}

[phy]
tx_power = {power:g} dBm
rx_sensitivity = -73 dBm
pl0 = 54 dB
path_loss_exponent = 3.5

{nodes}
[node 9]
role = end_device
class = mobile

[trajectory]
waypoint = {x:g} m, 0 m, 0 s

[traffic]
period = {period}

[tpc]
enabled = off

[handover]
mode = {mode}
"""

THREE_NODES = """[node 1]
role = coordinator
class = stationary
x = -1.5 m

[node 2]
role = router
class = stationary
x = 7.5 m

[node 3]
role = router
class = stationary
x = 16.5 m
"""


def parked_sim(x, power=4.0, mode="broadcast", nodes=THREE_NODES,
               duration="400 ms", period="1 s", seed=3):
    cfg = make_cfg(PARKED.format(duration=duration, seed=seed, power=power,
                                 nodes=nodes, x=x, period=period, mode=mode))
    return Simulation(cfg)


def protocol_frames(rows):
    """Unique handover protocol frames (retransmissions collapsed)."""
    kinds = ("probe_req", "probe_resp", "assoc_req", "assoc_resp")
    seen = {(r.src, r.frame_kind, r.seq) for r in rows
            if r.event_kind == "TX_START" and r.frame_kind in kinds}
    return seen


def handover_rows(rows):
    return [r for r in rows if r.event_kind.startswith("HANDOVER")]


def kind_counts(rows):
    """Rows per event kind: the handover counts of a run not yet ended."""
    return Counter(r.event_kind for r in rows)


def test_single_responder_association_in_four_frames():
    sim = parked_sim(x=1.0)
    res = sim.run()
    ctrl = sim.mobile.controller
    assert ctrl.parent == 1
    assert res.stats.completions == 1
    assert len(protocol_frames(res.rows)) == 4  # probe, response, req, resp


def test_equal_lq_tie_goes_to_lowest_id():
    nodes = ("[node 1]\nrole = coordinator\nclass = stationary\nx = -2 m\n\n"
             "[node 2]\nrole = router\nclass = stationary\nx = 2 m\n")
    sim = parked_sim(x=0.0, nodes=nodes)
    res = sim.run()
    ctrl = sim.mobile.controller
    responses = {r.src for r in res.rows
                 if r.event_kind == "RX" and r.frame_kind == "probe_resp"
                 and r.node_id == 9}
    assert responses == {1, 2}
    assert ctrl.parent == 1
    assert len(protocol_frames(res.rows)) == 5  # 4 + (responders - 1)


def test_higher_lq_beats_lower_id():
    nodes = ("[node 1]\nrole = coordinator\nclass = stationary\nx = -3 m\n\n"
             "[node 2]\nrole = router\nclass = stationary\nx = 1 m\n")
    sim = parked_sim(x=0.0, nodes=nodes)
    sim.run()
    assert sim.mobile.controller.parent == 2


def test_mobile_in_coverage_gap_stays_orphaned():
    # x = 3 m sits in the 0 dBm gap of the calibrated layout
    sim = parked_sim(x=3.0, power=0.0, duration="1 s", period="100 ms")
    res = sim.run()
    ctrl = sim.mobile.controller
    assert ctrl.parent is None
    assert res.stats.completions == 0
    assert res.stats.outage_us == 1_000_000  # orphan for the whole run
    assert res.stats.outage_losses == 10
    assert any(r.event_kind == "HANDOVER_FAIL" for r in res.rows)


def test_scan_all_silent_costs_full_poll_timeout_per_node():
    sim = parked_sim(x=3.0, power=0.0, mode="scan", duration="1 s")
    res = sim.run()
    rows = handover_rows(res.rows)
    start = next(r for r in rows if r.event_kind == "HANDOVER_START")
    fail = next(r for r in rows if r.event_kind == "HANDOVER_FAIL")
    k = 3
    per_poll = sim.cfg.handover.scan_response_timeout_us
    assert fail.time_us - start.time_us >= k * per_poll


def test_scan_finds_same_parent_but_slower_than_broadcast():
    b = parked_sim(x=1.0, mode="broadcast", seed=11)
    b_res = b.run()
    s = parked_sim(x=1.0, mode="scan", seed=11)
    s_res = s.run()
    assert b.mobile.controller.parent == 1
    assert s.mobile.controller.parent == 1
    b_lat = b_res.stats.latencies_us[0]
    s_lat = s_res.stats.latencies_us[0]
    assert s_lat > b_lat


def test_scan_with_zero_stationary_nodes_fails_immediately():
    sim = parked_sim(x=0.0, mode="scan", nodes="", duration="300 ms")
    res = sim.run()
    rows = handover_rows(res.rows)
    assert rows[0].event_kind == "HANDOVER_START"
    assert rows[1].event_kind == "HANDOVER_FAIL"
    assert rows[1].time_us == rows[0].time_us
    assert sim.mobile.controller.parent is None


def _mobile_channel_busy(sim):
    """Every clear-channel assessment of the mobile finds the channel busy."""
    busy_for = sim.channel.busy_for
    sim.channel.busy_for = lambda node, now: node.is_mobile or busy_for(node, now)


def test_broadcast_probe_cca_failure_fails_the_handover_at_once():
    sim = parked_sim(x=1.0, duration="300 ms")
    sim.cfg.handover.probe_window_us = 70_000  # unlike the scan poll's
    _mobile_channel_busy(sim)
    rows = sim.run().rows
    last_cca = [r for r in rows if r.event_kind == "CCA_BUSY"][
        sim.cfg.csma.max_csma_backoffs - 1]
    starts = [r for r in rows if r.event_kind == "HANDOVER_START"]
    fail = next(r for r in rows if r.event_kind == "HANDOVER_FAIL")
    assert (fail.detail, fail.time_us) == ("probe_cca_fail", last_cca.time_us)
    # No response window is waited out: the next search is the retry.
    assert starts[1].time_us == fail.time_us + sim.cfg.handover.probe_retry_us


def test_scan_poll_cca_failure_waits_the_poll_window_then_polls_the_next():
    sim = parked_sim(x=1.0, mode="scan", duration="300 ms")
    sim.cfg.handover.scan_response_timeout_us = 30_000  # unlike the probe window
    _mobile_channel_busy(sim)
    rows = sim.run().rows
    backoffs = sim.cfg.csma.max_csma_backoffs
    polls = [[r for r in rows if r.event_kind == "CCA_BUSY" and r.dst == dst]
             for dst in (1, 2, 3)]
    assert [len(p) for p in polls] == [backoffs] * 3
    for failed, nxt in zip(polls, polls[1:]):
        first_backoff = next(r for r in rows if r.event_kind == "BACKOFF"
                             and r.dst == nxt[0].dst)
        assert first_backoff.time_us == (failed[-1].time_us
                                         + sim.cfg.handover.scan_response_timeout_us)
    fail = next(r for r in rows if r.event_kind == "HANDOVER_FAIL")
    assert (fail.detail, fail.time_us) == (
        "no_responses",
        polls[-1][-1].time_us + sim.cfg.handover.scan_response_timeout_us)


def test_a_lost_assoc_response_fails_after_the_probe_window_then_retries():
    nodes = "[node 1]\nrole = coordinator\nclass = stationary\nx = 0 m\n"
    sim = parked_sim(x=1.0, nodes=nodes, duration="500 ms")
    handover = sim.cfg.handover
    handover.probe_window_us = 70_000  # unlike the scan poll's
    coordinator = sim.nodes[1].controller
    on_frame = coordinator.on_frame

    def acks_but_never_responds(frame, rx_power, lq):
        if frame.kind != FrameKind.ASSOC_REQ:  # the MAC still acks it
            on_frame(frame, rx_power, lq)

    coordinator.on_frame = acks_but_never_responds
    rows = [r for r in sim.run().rows if r.node_id == sim.mobile.node_id]
    delivered = next(r for r in rows if r.event_kind == "SEND_OUTCOME"
                     and r.frame_kind == "assoc_req")
    assert delivered.detail == "delivered"
    handovers = handover_rows(rows)
    assert [r.event_kind for r in handovers[:3]] == [
        "HANDOVER_START", "HANDOVER_FAIL", "HANDOVER_START"]
    fail, retry = handovers[1:3]
    assert (fail.detail, fail.time_us) == (
        "assoc_resp_lost", delivered.time_us + handover.probe_window_us)
    assert retry.time_us == fail.time_us + handover.probe_retry_us


def test_orphan_outage_accrues_with_data_pending():
    sim = parked_sim(x=0.0, mode="broadcast", nodes="", duration="2 s",
                     period="100 ms")
    res = sim.run()
    assert res.stats.outage_losses == 20  # 2 s of 100 ms ticks, no parent
    assert res.stats.outage_us == 2_000_000


def test_single_pair_delivery_ratio_is_one():
    nodes = "[node 1]\nrole = coordinator\nclass = stationary\nx = 0 m\n"
    sim = parked_sim(x=1.0, nodes=nodes, duration="2 s", period="100 ms")
    t = sim.run().stats
    assert t.data_attempts == 20  # association completes before the first tick
    assert t.delivery_ratio() == 1.0
    assert t.no_ack == 0 and t.outage_losses == 0


def test_a_data_frame_queued_behind_a_control_frame_counts_without_a_row():
    nodes = "[node 1]\nrole = coordinator\nclass = stationary\nx = 0 m\n"
    sim = parked_sim(x=1.0, nodes=nodes, period="10 s")  # no data tick
    ctrl = sim.mobile.controller
    mac = ctrl.node.mac

    def send_both():
        ctrl.node.wake()
        mac.csma_send(mac.control_frame(FrameKind.DISASSOC, 1))
        ctrl.on_data_due()  # queued behind the DISASSOC, still in backoff

    sim.loop.schedule(sim.cfg.duration_us - 100, send_both)
    res = sim.run()
    assert mac.current.kind == FrameKind.DISASSOC
    assert [f.kind for f in mac.queue] == [FrameKind.DATA]
    assert not any(r.frame_kind == FrameKind.DATA for r in res.rows)
    s = res.stats
    assert (s.data_attempts, s.delivered, s.no_ack, s.cca_fail) == (1, 0, 0, 0)


@pytest.mark.parametrize("index", [1331, 1769, 2090, 2452, 2548])
def test_an_assoc_request_outcome_after_the_commit_changes_nothing(index):
    # In these scenarios the candidate sends its AssocResponse before its ack
    # of the AssocRequest, so the mobile commits while the request is still
    # retried.  Every retry's ack was missed too, and the request's no-ack
    # outcome used to fail the handover just completed.
    check_invariants(Simulation(random_scenario(index)).run())


def test_parent_is_always_router_or_coordinator(default_cfg):
    res = Simulation(default_cfg).run()
    parents = {r.detail[0] for r in res.rows if r.event_kind == "HANDOVER_DONE"}
    roles = {n.node_id: n.role for n in default_cfg.nodes}
    assert parents
    assert {roles[p] for p in parents} <= {NodeRole.COORDINATOR, NodeRole.ROUTER}


@pytest.mark.parametrize("mode", ["broadcast", "scan"])
def test_stationary_end_device_never_becomes_the_parent(default_cfg, mode):
    # Used to fail in broadcast mode: node 2 answered the probe and the
    # association request whatever its role, and became a parent.
    cfg = arm_config(default_cfg, mode, tpc=True)
    next(n for n in cfg.nodes if n.node_id == 2).role = NodeRole.END_DEVICE
    res = Simulation(cfg).run()
    parents = {r.detail[0] for r in res.rows if r.event_kind == "HANDOVER_DONE"}
    assert parents == {1, 3}
    assert not any(r.node_id == 2 and r.event_kind == "TX_START" for r in res.rows)


# -- transmission power control ------------------------------------------------


def tpc_sim():
    cfg = make_cfg(PARKED.format(duration="100 ms", seed=1, power=4.0,
                                 nodes=THREE_NODES, x=1.0, period="1 s",
                                 mode="broadcast"))
    cfg.tpc.enabled = True
    sim = Simulation(cfg)
    ctrl = sim.mobile.controller
    ctrl.parent = 1
    return sim, ctrl


def test_tpc_steps_down_to_minimum_sufficient_level():
    sim, ctrl = tpc_sim()
    assert ctrl.node.power_dbm == 6.0  # starts at the top
    ctrl.tpc_update(-54.0, 6.0)
    # predicted margin at 0 dBm is 13 dB -> LQ 83, above target + hysteresis
    assert ctrl.node.power_dbm == 0.0


def test_tpc_falls_back_to_max_when_no_level_reaches_target():
    sim, ctrl = tpc_sim()
    ctrl.node.power_dbm = 3.0
    ctrl.tpc_update(-69.0, 6.0)
    assert ctrl.node.power_dbm == 6.0


def test_tpc_hysteresis_holds_current_level():
    sim, ctrl = tpc_sim()
    # minimum qualifying level is 3 dBm (predicted LQ 67) but 67 < 64+16
    ctrl.tpc_update(-59.5, 6.0)
    assert ctrl.node.power_dbm == 6.0


def test_tpc_steps_down_at_exactly_target_plus_hysteresis():
    sim, ctrl = tpc_sim()
    tpc = sim.cfg.tpc
    # Heard at -54.45 dBm from 6 dBm: 0 dBm predicts -60.45 dBm, LQ 80.
    assert lq_from_rx_power(-60.45, sim.cfg.phy) == tpc.lq_target + tpc.lq_hysteresis
    ctrl.tpc_update(-54.45, 6.0)
    assert ctrl.node.power_dbm == 0.0
    assert [(r.event_kind, r.detail) for r in sim.rows] == [("TPC_SET", 0.0)]


def test_tpc_idempotent_on_unchanged_samples():
    sim, ctrl = tpc_sim()
    ctrl.tpc_update(-54.0, 6.0)
    first = ctrl.node.power_dbm
    ctrl.tpc_update(-54.0, 6.0)
    assert ctrl.node.power_dbm == first


def test_tpc_acts_only_on_a_frame_from_the_parent():
    sim, ctrl = tpc_sim()
    lq = lq_from_rx_power(-54.0, sim.cfg.phy)  # strong enough for 0 dBm
    for src in (2, 3):
        ctrl.on_frame(Frame(FrameKind.BEACON, 0, src, BROADCAST, tx_power_dbm=6.0),
                      -54.0, lq)
    assert ctrl.node.power_dbm == 6.0
    assert not sim.rows
    ctrl.on_frame(Frame(FrameKind.BEACON, 0, 1, BROADCAST, tx_power_dbm=6.0),
                  -54.0, lq)
    assert ctrl.node.power_dbm == 0.0


def test_tpc_average_power_never_exceeds_fixed_max(default_cfg):
    tpc_run = Simulation(arm_config(default_cfg, "broadcast", tpc=True)).run()
    fixed_run = Simulation(arm_config(default_cfg, "broadcast", tpc=False)).run()

    def tx_powers(run):
        return [r.power_dbm for r in run.rows
                if r.event_kind == "TX_START" and r.src == run.mobile_id]

    assert set(tx_powers(fixed_run)) == {6.0}
    assert max(tx_powers(tpc_run)) <= 6.0
    # time-weighted average over transmissions stays at or below the fixed arm
    def tx_time_weighted_dbm(run):
        times = run.ledgers[run.mobile_id].mode_times
        return sum(mode.tx_power_dbm * t for mode, t in times.items()
                   if mode.tx_power_dbm is not None)

    assert tx_time_weighted_dbm(tpc_run) <= tx_time_weighted_dbm(fixed_run)


# -- the handover timer -------------------------------------------------------


def _in_state(state, mode="broadcast", probe_index=0):
    """A mobile in `state`, where a live timer would act."""
    sim = parked_sim(x=1.0, mode=mode)
    ctrl = sim.mobile.controller
    if state == "probing":
        ctrl.responses = [(200, 1)]  # a candidate to select
    elif state == "associating":
        ctrl.candidate = 1
    ctrl.probe_index = probe_index
    ctrl.node.wake()  # as start_handover leaves it
    return sim, ctrl


def _handover(ctrl):
    """The mobile's handover state, copied."""
    responses = None if ctrl.responses is None else list(ctrl.responses)
    return responses, ctrl.candidate, ctrl.probe_index


def _queue(sim):
    """The loop's counts, read by running it to the current time."""
    return sim.loop.run_until(sim.loop.now, sim._dispatch)


@pytest.mark.parametrize("state, mode, probe_index, acts", [
    pytest.param("idle", "broadcast", 0, "HANDOVER_START", id="idle"),
    # The broadcast address is the only one, so also the last.
    pytest.param("probing", "broadcast", 0, "assoc_req", id="probing"),
    # Scan mode polls nodes 1, 2 and 3.
    pytest.param("probing", "scan", 1, "probe_req", id="probing-next-address"),
    pytest.param("probing", "scan", 2, "assoc_req", id="probing-last-address"),
    pytest.param("associating", "broadcast", 0, "HANDOVER_FAIL", id="associating"),
])
def test_stale_handover_timer_is_ignored(state, mode, probe_index, acts):
    # Stale: the retry of a failed handover, when a data tick starts the
    # next handover first.  start_handover cancels it, so it never runs.
    sim = parked_sim(x=1.0, mode=mode)
    ctrl = sim.mobile.controller
    ctrl._handover_failed("no_responses")
    retry = ctrl._timer
    ctrl.on_data_due()  # no parent: a handover starts at once
    assert retry.cancelled and ctrl._timer is None
    sim.loop.run_until(retry.time, sim._dispatch)
    kinds = kind_counts(sim.rows)
    assert (ctrl.searching, ctrl.parent) == (False, 1)  # it completed
    assert kinds["HANDOVER_START"] == kinds["HANDOVER_FAIL"] == 1
    assert kinds["HANDOVER_DONE"] == 1  # and no second one started
    # Live: a timer meets the state that set it, and acts.
    sim, ctrl = _in_state(state, mode, probe_index)
    ctrl.on_handover_timer()
    first = sim.rows[0]
    assert acts in (first.event_kind, first.frame_kind)
    if acts == "probe_req":  # the next address is polled
        assert (first.dst, ctrl.probe_index) == (3, 2)


def test_the_commit_cancels_the_assoc_guard():
    sim, ctrl = _in_state("associating")
    ctrl._set_timer(sim.cfg.handover.probe_window_us)  # as the request's ack sets it
    guard, before = ctrl._timer, _queue(sim)
    ctrl.on_frame(Frame(FrameKind.ASSOC_RESP, 0, 1, ctrl.node.node_id), -54.0, 200)
    assert (ctrl.searching, ctrl.candidate, ctrl.parent) == (False, None, 1)
    assert ctrl._timer is None and guard.cancelled
    rows = len(sim.rows)
    after = sim.loop.run_until(guard.time, sim._dispatch)
    assert (ctrl.searching, ctrl.parent) == (False, 1)
    kinds = kind_counts(sim.rows)
    assert kinds["HANDOVER_FAIL"] == 0 and kinds["HANDOVER_DONE"] == 1
    assert len(sim.rows) == rows and after.total_processed == 0  # the guard never ran
    assert after.cancelled == before.cancelled + 1
    assert after.scheduled == before.scheduled  # the commit scheduled nothing
    assert after.unprocessed == before.unprocessed - 1 == 0


def test_setting_the_handover_timer_replaces_a_pending_one():
    sim, ctrl = _in_state("probing")
    ctrl._set_timer(10)
    first = ctrl._timer
    ctrl._set_timer(20)
    assert first.cancelled and not ctrl._timer.cancelled
    queue = sim.loop.run_until(20, sim._dispatch)
    assert (queue.cancelled, queue.total_processed) == (1, 1)  # the second ran
    assert ctrl.candidate == 1  # and selected the responder


def _timer_no_ops(cfg):
    """(handover-timer events, those that changed none of the mobile's
    handover state, parent, rows or pending events) in one run of cfg."""
    sim = Simulation(cfg)
    ctrl = sim.mobile.controller
    on_timer = ctrl.on_handover_timer
    counts = [0, 0]

    def snapshot():
        return (_handover(ctrl), ctrl.parent, len(sim.rows), len(sim.loop._heap))

    def counted(*args):
        before = snapshot()
        on_timer(*args)
        counts[0] += 1
        counts[1] += snapshot() == before

    ctrl.on_handover_timer = counted
    sim.run()
    return tuple(counts)


def test_every_handover_timer_event_changes_the_mobile(default_cfg):
    assert _timer_no_ops(default_cfg) == (13, 0)
    runs = [_timer_no_ops(random_scenario(index)) for index in range(300)]
    assert sum(events for events, _ in runs) == 935
    assert sum(no_ops for _, no_ops in runs) == 0


def test_low_lq_handover_may_trigger_again_when_the_cooldown_ends():
    sim = parked_sim(x=1.0)
    ctrl = sim.mobile.controller
    ctrl.parent = 1
    ctrl.start_handover("low_lq")
    cooldown = sim.cfg.handover.lq_retrigger_cooldown_us
    for now, attempts in ((cooldown - 1, 1), (cooldown, 2)):
        ctrl.responses = None  # as if the first search had ended
        sim.loop.now = now
        ctrl.start_handover("low_lq")
        assert kind_counts(sim.rows)["HANDOVER_START"] == attempts, now


@pytest.mark.parametrize("power, rows", [
    (3.0, [("TPC_SET", 6.0), ("HANDOVER_FAIL", "assoc_resp_lost")]),
    (6.0, [("HANDOVER_FAIL", "assoc_resp_lost")]),
])
def test_failed_handover_with_tpc_resets_the_power_to_the_top_level(power, rows):
    sim, ctrl = tpc_sim()
    ctrl.node.power_dbm = power
    ctrl.candidate = 2  # associating
    ctrl.on_handover_timer()  # no AssocResponse in time
    assert [(r.event_kind, r.detail) for r in sim.rows] == rows
    assert (ctrl.parent, ctrl.candidate, ctrl.node.power_dbm) == (None, None, 6.0)


# -- the ack-failure handover trigger --------------------------------------------

GOOD_LQ, DEGRADED_LQ = 200, 30  # degraded: below lq_target - lq_hysteresis = 48


def _commit(ctrl, parent):
    """The mobile, associating with `parent`, hears its AssocResponse."""
    ctrl.candidate = parent
    ctrl.node.wake()  # as start_handover leaves it
    ctrl.on_frame(Frame(FrameKind.ASSOC_RESP, 0, parent, ctrl.node.node_id),
                  -54.0, GOOD_LQ)
    assert (ctrl.parent, ctrl.searching) == (parent, False)


def _associated(default_cfg):
    """The default scenario's mobile, just associated with node 1; the
    commit holds off a low-LQ handover for lq_retrigger_cooldown."""
    sim = Simulation(default_cfg)
    _commit(sim.mobile.controller, 1)
    return sim, sim.mobile.controller


def _heard(ctrl, lq):
    """A frame from the parent, heard at `lq`."""
    ctrl.on_frame(Frame(FrameKind.ACK, 0, ctrl.parent, ctrl.node.node_id,
                        tx_power_dbm=6.0), -54.0, lq)


def _data_sent(ctrl, outcome):
    ctrl.on_send_outcome(Frame(FrameKind.DATA, 0, ctrl.node.node_id, ctrl.parent),
                         outcome)


def _starts(sim):
    return [r.detail for r in sim.rows if r.event_kind == "HANDOVER_START"]


def test_at_good_lq_the_second_no_ack_in_a_row_starts_a_handover(default_cfg):
    sim, ctrl = _associated(default_cfg)
    _heard(ctrl, GOOD_LQ)
    _data_sent(ctrl, SendOutcome.NO_ACK)
    assert _starts(sim) == []
    _data_sent(ctrl, SendOutcome.NO_ACK)
    assert _starts(sim) == ["ack_failures"]


def test_after_a_degraded_parent_frame_one_no_ack_starts_a_handover(default_cfg):
    sim, ctrl = _associated(default_cfg)
    _heard(ctrl, DEGRADED_LQ)
    assert _starts(sim) == []  # the low-LQ trigger waits out the cooldown
    _data_sent(ctrl, SendOutcome.NO_ACK)
    assert _starts(sim) == ["ack_failures"]


def test_a_delivered_data_frame_resets_the_no_ack_streak(default_cfg):
    sim, ctrl = _associated(default_cfg)
    _heard(ctrl, GOOD_LQ)
    for outcome in (SendOutcome.NO_ACK, SendOutcome.DELIVERED, SendOutcome.NO_ACK):
        _data_sent(ctrl, outcome)
    assert _starts(sim) == []
    _data_sent(ctrl, SendOutcome.NO_ACK)
    assert _starts(sim) == ["ack_failures"]


def test_a_data_cca_failure_neither_resets_nor_grows_the_no_ack_streak(default_cfg):
    sim, ctrl = _associated(default_cfg)
    _heard(ctrl, GOOD_LQ)
    for outcome in (SendOutcome.CHANNEL_ACCESS_FAILURE, SendOutcome.NO_ACK,
                    SendOutcome.CHANNEL_ACCESS_FAILURE):
        _data_sent(ctrl, outcome)
    assert _starts(sim) == []
    _data_sent(ctrl, SendOutcome.NO_ACK)
    assert _starts(sim) == ["ack_failures"]


def test_the_commit_records_the_assoc_responses_lq(default_cfg):
    # Used to keep the old parent's LQ (0 on a first association) until the
    # new parent's next frame, so one no-ack started a handover here.
    sim, ctrl = _associated(default_cfg)  # on an AssocResponse at GOOD_LQ
    _data_sent(ctrl, SendOutcome.NO_ACK)
    assert _starts(sim) == []
    _data_sent(ctrl, SendOutcome.NO_ACK)
    assert _starts(sim) == ["ack_failures"]


def test_a_commit_resets_the_no_ack_streak(default_cfg):
    sim, ctrl = _associated(default_cfg)
    _heard(ctrl, GOOD_LQ)
    _data_sent(ctrl, SendOutcome.NO_ACK)
    _commit(ctrl, 2)
    _heard(ctrl, GOOD_LQ)
    _data_sent(ctrl, SendOutcome.NO_ACK)
    assert _starts(sim) == []
    _data_sent(ctrl, SendOutcome.NO_ACK)
    assert _starts(sim) == ["ack_failures"]
