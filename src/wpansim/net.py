"""Parent association, MAC-broadcast handover, scan baseline and LQ-driven TPC.

The mobile end device keeps exactly one parent (a router or the
coordinator; a stationary end device answers no probe).  Handover
triggers: link quality from the parent dropping below target minus
hysteresis, repeated ack failures, or having no parent at all.  Both
handover modes run one probe sequence over a fixed list of addresses,
collecting every response, then associate with the best responder.  The
broadcast variant's list is the one MAC-broadcast address, probed within a
fixed window; the scan baseline's list is every possible parent, polled in
turn, so its latency is linear in node count.
"""

from __future__ import annotations

from typing import NamedTuple

from .engine import SimTime
from .mac import BROADCAST, Frame, FrameKind, SendOutcome
from .phy import lq_from_rx_power
from .trace import TraceKind


class RunStats(NamedTuple):
    """The mobile's handover and data counts of one run, read off its rows."""
    handovers: int  # HANDOVER_START rows
    completions: int
    failures: int
    outage_us: SimTime  # time without a parent
    latencies_us: list[int]  # one per completion
    data_attempts: int  # resolved data sends plus those pending at the end
    delivered: int
    no_ack: int
    cca_fail: int
    outage_losses: int  # data ticks with no parent

    def mean_latency_us(self) -> float:
        lat = self.latencies_us
        return sum(lat) / len(lat) if lat else 0.0

    def delivery_ratio(self) -> float:
        """Over resolved sends: a frame still in flight at the end is neither."""
        resolved = self.delivered + self.no_ack + self.cca_fail + self.outage_losses
        return self.delivered / resolved if resolved else 0.0


def run_stats(rows, mobile_id: int, end: SimTime, pending: int) -> RunStats:
    """Count the mobile's rows in one pass, for a run that ended at `end`.

    An outage opens at t = 0 and at the first HANDOVER_FAIL after a parent,
    and closes at HANDOVER_DONE or the end.  `pending` counts the data frames
    still in the mobile's MAC: one queued behind a control frame has no row.
    """
    counts = dict.fromkeys((TraceKind.HANDOVER_START, TraceKind.HANDOVER_FAIL,
                            TraceKind.OUTAGE_LOSS), 0)  # the mobile's rows by kind
    sends = dict.fromkeys((SendOutcome.DELIVERED, SendOutcome.NO_ACK,
                           SendOutcome.CHANNEL_ACCESS_FAILURE), 0)  # by outcome
    latencies: list[int] = []
    outage: SimTime = 0
    orphaned_at: SimTime | None = 0
    for r in rows:
        if r.node_id != mobile_id:
            continue
        kind = r.event_kind
        if kind == TraceKind.SEND_OUTCOME:
            if r.frame_kind == FrameKind.DATA:
                sends[r.detail] += 1
        elif kind == TraceKind.HANDOVER_DONE:
            latencies.append(r.detail[1])
            if orphaned_at is not None:
                outage += r.time_us - orphaned_at
                orphaned_at = None
        elif kind in counts:
            counts[kind] += 1
            if kind == TraceKind.HANDOVER_FAIL and orphaned_at is None:
                orphaned_at = r.time_us
    if orphaned_at is not None:
        outage += end - orphaned_at
    return RunStats(counts[TraceKind.HANDOVER_START], len(latencies),
                    counts[TraceKind.HANDOVER_FAIL], outage, latencies,
                    sum(sends.values()) + pending, sends[SendOutcome.DELIVERED],
                    sends[SendOutcome.NO_ACK],
                    sends[SendOutcome.CHANNEL_ACCESS_FAILURE],
                    counts[TraceKind.OUTAGE_LOSS])


class StationaryController:
    """Stationary node; a router or coordinator answers probes and
    association requests, an end device answers nothing."""

    searching = False  # never runs a handover

    def __init__(self, node) -> None:
        self.node = node

    def on_frame(self, frame: Frame, rx_power: float, lq: int) -> None:
        if not self.node.config.may_parent:
            return
        mac = self.node.mac
        if frame.kind == FrameKind.PROBE_REQ and (
                frame.is_broadcast or frame.dst == self.node.node_id):
            mac.csma_send(mac.control_frame(FrameKind.PROBE_RESP, frame.src,
                                            lq_report=lq))
        elif frame.kind == FrameKind.ASSOC_REQ and frame.dst == self.node.node_id:
            mac.csma_send(mac.control_frame(FrameKind.ASSOC_RESP, frame.src))

    def on_send_outcome(self, frame: Frame, outcome: str) -> None:
        pass  # a response is best effort: nothing follows its outcome


class MobileController:
    """Mobile end device: traffic source, handover initiator, TPC owner."""

    def __init__(self, sim, node) -> None:
        self.sim = sim
        self.node = node
        cfg = sim.cfg
        self.parent: int | None = None
        self.last_lq = 0  # LQ of the parent's latest frame
        if cfg.tpc.enabled:
            node.power_dbm = max(cfg.phy.power_levels_dbm)
        self.ack_fail_streak = 0
        self._timer = None  # the pending handover timer's Event
        self.handover_started: SimTime = 0
        self.responses: list[tuple[int, int]] | None = None  # (reported lq, node id)
        # Probed in turn by every handover: the MAC-broadcast address, or for
        # the scan baseline each possible parent.
        self.probe_addrs = (sorted(n.node_id for n in cfg.nodes if n.may_parent)
                            if cfg.handover.mode == "scan" else [BROADCAST])
        self.probe_index = 0
        self.candidate: int | None = None
        self._lq_block_until: SimTime = 0

    @property
    def searching(self) -> bool:
        """True while a handover runs: the handover's state is `responses`,
        a list only while probing, and `candidate`, set only while
        associating."""
        return self.responses is not None or self.candidate is not None

    def _degraded(self, lq: int) -> bool:
        tpc = self.sim.cfg.tpc
        return lq < tpc.lq_target - tpc.lq_hysteresis

    # -- traffic ------------------------------------------------------------

    def on_data_due(self) -> None:
        cfg = self.sim.cfg
        if self.parent is None:
            self.sim.emit(self.node, TraceKind.OUTAGE_LOSS)
            self.start_handover("orphan")
            return
        self.node.wake()
        frame = Frame(FrameKind.DATA, self.node.mac.next_seq(), self.node.node_id,
                      self.parent, payload_len=cfg.traffic.payload_bytes)
        self.node.mac.csma_send(frame)

    def on_send_outcome(self, frame: Frame, outcome: str) -> None:
        """How a queued send ended, by the kind of frame sent.

        Data feeds the ack-failure streak.  A probe opens its response
        window; a broadcast probe that fails CCA fails the handover, while a
        scan poll waits out its window, answered or not.  An AssocRequest
        sets the guard against a lost AssocResponse, or fails the handover
        if lost.  Its outcome changes nothing after the commit: the
        candidate can send its AssocResponse before its ack of the request.
        Nor does a Disassociation's: the commit queues it, and the MAC sends
        in queue order, so it ends before the next handover's first probe,
        while there is no candidate.
        """
        cfg = self.sim.cfg.handover
        kind = frame.kind
        if kind == FrameKind.DATA:
            if outcome == SendOutcome.DELIVERED:
                self.ack_fail_streak = 0
            elif outcome == SendOutcome.NO_ACK:
                self.ack_fail_streak += 1
                threshold = cfg.ack_fail_threshold
                if self._degraded(self.last_lq):
                    # Link already known degraded: one dead frame is proof enough.
                    threshold = cfg.degraded_ack_fail_threshold
                if self.ack_fail_streak >= threshold:
                    self.start_handover("ack_failures")
        elif kind == FrameKind.PROBE_REQ:
            if frame.dst != BROADCAST:
                self._set_timer(cfg.scan_response_timeout_us)
            elif outcome == SendOutcome.CHANNEL_ACCESS_FAILURE:
                self._handover_failed("probe_cca_fail")
            else:
                self._set_timer(cfg.probe_window_us)
        elif frame.dst == self.candidate:  # an AssocRequest
            if outcome != SendOutcome.DELIVERED:
                self._handover_failed("assoc_req_lost")
            else:
                self._set_timer(cfg.probe_window_us)

    # -- reception ----------------------------------------------------------

    def on_frame(self, frame: Frame, rx_power: float, lq: int) -> None:
        if frame.src == self.parent:
            self.last_lq = lq
            if self.sim.cfg.tpc.enabled:
                self.tpc_update(rx_power, frame.tx_power_dbm)
        if frame.kind == FrameKind.PROBE_RESP:
            if self.responses is not None:
                self.responses.append((frame.lq_report, frame.src))
        elif frame.kind == FrameKind.ASSOC_RESP and frame.src == self.candidate:
            self.last_lq = lq  # the new parent's first frame: no TPC step on it
            self._commit_parent(frame.src)
        # A degraded parent link triggers a new search (the parent may be
        # the one just committed); start_handover ignores it mid-handover.
        if frame.src == self.parent and self._degraded(lq):
            self.start_handover("low_lq")

    # -- transmission power control ------------------------------------------

    def tpc_update(self, rx_power: float, tx_power: float) -> None:
        """Pick the lowest configured level whose predicted LQ meets target.

        The parent's frame just heard, sent at `tx_power` and received at
        `rx_power`, predicts each candidate level by the power difference
        (exact under the deterministic log-distance model).  Decreases are
        gated by hysteresis; increases apply immediately.
        """
        params = self.sim.cfg.phy
        tpc = self.sim.cfg.tpc
        levels = sorted(params.power_levels_dbm)

        def predicted_lq(level: float) -> int:
            return lq_from_rx_power(rx_power + (level - tx_power), params)

        chosen = None
        for level in levels:
            if predicted_lq(level) >= tpc.lq_target:
                chosen = level
                break
        if chosen is None:
            chosen = levels[-1]
        if chosen < self.node.power_dbm:
            if predicted_lq(chosen) < tpc.lq_target + tpc.lq_hysteresis:
                return  # hold: not enough margin to step down
        if chosen != self.node.power_dbm:
            self.node.power_dbm = chosen
            self.sim.emit(self.node, TraceKind.TPC_SET, detail=chosen)

    # -- handover ------------------------------------------------------------

    def start_handover(self, reason: str) -> None:
        if self.searching:
            return
        now = self.sim.loop.now
        if reason == "low_lq":
            if now < self._lq_block_until:
                return
            self._lq_block_until = now + self.sim.cfg.handover.lq_retrigger_cooldown_us
        self._cancel_timer()
        self.handover_started = now
        self.responses = []
        self.sim.emit(self.node, TraceKind.HANDOVER_START, detail=reason)
        self.node.wake()
        self.probe_index = 0
        if not self.probe_addrs:
            self._handover_failed("no_known_nodes")
        else:
            self._probe_next()

    def _set_timer(self, delay: SimTime) -> None:
        """Fire on_handover_timer after `delay`, in place of any pending timer."""
        self._cancel_timer()
        self._timer = self.sim.loop.schedule(self.sim.loop.now + delay,
                                             self.on_handover_timer)

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self.sim.loop.cancel(self._timer)
            self._timer = None

    def on_handover_timer(self) -> None:
        """The one handover timer; the state it meets says what it was set for.

        Probing sets the response window of the address just probed,
        associating the guard against a lost AssocResponse, and a failure,
        which leaves the mobile an orphan, the retry.  start_handover and the
        commit cancel it, so it always meets the state that set it.
        """
        self._timer = None  # processed: no longer to be cancelled
        if self.responses is not None:  # the probed address's window has closed
            self.probe_index += 1
            if self.probe_index < len(self.probe_addrs):
                self._probe_next()
            else:
                self._select_candidate()
        elif self.candidate is not None:  # no AssocResponse within the guard
            self._handover_failed("assoc_resp_lost")
        else:  # retry after a failure
            self.start_handover("orphan")

    def _probe_next(self) -> None:
        """Probe the current address; on_send_outcome opens its window."""
        target = self.probe_addrs[self.probe_index]
        self.node.mac.csma_send(
            self.node.mac.control_frame(FrameKind.PROBE_REQ, target))

    def _select_candidate(self) -> None:
        if not self.responses:
            self._handover_failed("no_responses")
            return
        # Highest reported LQ; ties go to the lowest node id.
        best_lq = max(lq for lq, _ in self.responses)
        best_id = min(nid for lq, nid in self.responses if lq == best_lq)
        self.responses = None
        self.candidate = best_id
        self.node.mac.csma_send(
            self.node.mac.control_frame(FrameKind.ASSOC_REQ, best_id))

    def _commit_parent(self, parent: int) -> None:
        old = self.parent
        now = self.sim.loop.now
        self.parent = parent
        self.candidate = None
        self._cancel_timer()  # the guard against a lost AssocResponse
        self.ack_fail_streak = 0
        latency = now - self.handover_started
        self.sim.emit(self.node, TraceKind.HANDOVER_DONE, detail=(parent, latency))
        self._lq_block_until = now + self.sim.cfg.handover.lq_retrigger_cooldown_us
        if old is not None and old != parent:
            bye = self.node.mac.control_frame(FrameKind.DISASSOC, old)
            self.node.mac.csma_send(bye)  # best effort, no ack

    def _handover_failed(self, why: str) -> None:
        self.responses = None
        self.candidate = None
        # The old parent could not be reached either: we are orphaned.
        self.parent = None
        if self.sim.cfg.tpc.enabled:
            # Reacquire conservatively: probe at the highest level.
            top = max(self.sim.cfg.phy.power_levels_dbm)
            if self.node.power_dbm != top:
                self.node.power_dbm = top
                self.sim.emit(self.node, TraceKind.TPC_SET, detail=top)
        self.sim.emit(self.node, TraceKind.HANDOVER_FAIL, detail=why)
        self._set_timer(self.sim.cfg.handover.probe_retry_us)
        self.node.maybe_sleep()
