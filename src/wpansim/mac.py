"""Simplified 802.15.4 MAC: frames, unslotted CSMA/CA, collision semantics.

`receive` takes each frame the radio gets and decides which it acks, and
an idle MAC leaves sleep to `Node.maybe_sleep`.  Beacons and acks bypass
CSMA: `beacon_due` is the periodic beacon handler and `send_ack` acks after
a fixed turnaround; both wait out the radio's own frame, and beacons keep
their cadence.  A backoff that expires the instant the radio's own frame
ends waits for that frame's end too.  The backoff exponent is
min(macMinBE + NB, macMaxBE).  The channel applies a no-capture collision
model: if two transmissions audible at a receiver overlap in time, that
receiver gets neither.  CCA is instantaneous channel-state sampling.
"""

from __future__ import annotations

from collections import deque

from .engine import SimTime, SimulationError
from .phy import PhyParams, heard, link_rx_power, lq_from_rx_power
from .record import Record
from .scenario import SLEEP
from .trace import TraceKind

BROADCAST = 0xFFFF


class FrameKind:
    """Kinds of frame; each constant is its `frame_kind` trace text."""
    BEACON = "beacon"
    DATA = "data"
    ACK = "ack"
    PROBE_REQ = "probe_req"
    PROBE_RESP = "probe_resp"
    ASSOC_REQ = "assoc_req"
    ASSOC_RESP = "assoc_resp"
    DISASSOC = "disassoc"


# MAC payload bytes for control frames; data payload comes from the scenario.
CONTROL_PAYLOAD = {
    FrameKind.BEACON: 4,
    FrameKind.PROBE_REQ: 2,
    FrameKind.PROBE_RESP: 2,
    FrameKind.ASSOC_REQ: 2,
    FrameKind.ASSOC_RESP: 2,
    FrameKind.DISASSOC: 1,
    FrameKind.ACK: 0,
}

CSMA_EXEMPT = (FrameKind.BEACON, FrameKind.ACK)
NO_ACK_KINDS = (FrameKind.ACK, FrameKind.BEACON, FrameKind.DISASSOC)


class Frame:
    __slots__ = ("kind", "seq", "src", "dst", "payload_len", "tx_power_dbm",
                 "lq_report")

    def __init__(self, kind: str, seq: int, src: int, dst: int,
                 payload_len: int = 0, tx_power_dbm: float = 0.0,
                 lq_report: int | None = None) -> None:
        self.kind = kind  # a FrameKind
        self.seq = seq
        self.src = src
        self.dst = dst
        self.payload_len = payload_len
        self.tx_power_dbm = tx_power_dbm
        self.lq_report = lq_report  # probe responses carry the measured LQ

    @property
    def is_broadcast(self) -> bool:
        return self.dst == BROADCAST

    def wants_ack(self) -> bool:
        return not self.is_broadcast and self.kind not in NO_ACK_KINDS


class CsmaParams(Record):
    def __init__(self) -> None:
        self.mac_min_be = 3
        self.mac_max_be = 5
        self.max_csma_backoffs = 4
        self.max_frame_retries = 3
        self.unit_backoff_us = 320
        self.ack_wait_us = 864
        self.turnaround_us = 192


class SendOutcome:
    """How a queued send ended; each constant is its SEND_OUTCOME trace text."""
    DELIVERED = "delivered"
    NO_ACK = "no_ack"
    CHANNEL_ACCESS_FAILURE = "cca_fail"


class Transmission:
    __slots__ = ("node", "frame", "start", "end", "src_pos", "engaged", "audience")

    def __init__(self, node, frame: Frame, start: SimTime, end: SimTime,
                 src_pos: tuple[float, float]) -> None:
        self.node = node  # the sender
        self.frame = frame
        self.start = start
        self.end = end
        self.src_pos = src_pos  # snapshot at transmit start
        self.engaged: list = []  # listener nodes put into rx mode for this frame
        # Fixed by Channel.add: listener node -> (rx power, LQ) per listener
        # that hears the frame, in node order; the mobile listener maps to
        # (None, None), measured live because it moves during the frame.
        self.audience: dict = {}

    def overlaps(self, start: SimTime, end: SimTime) -> bool:
        return self.start < end and start < self.end


class Channel:
    """Shared medium: active transmission set plus the history still needed.

    History is needed because collisions are resolved at transmit end, when
    shorter overlapping frames may already have finished.  `add(tx)` first
    keeps a transmission iff it ended at or after `now - longest_us`, where
    `now` is tx.start and `longest_us` the longest frame added before tx.
    That drops nothing a resolution can still ask for: an unresolved
    transmission X has X.end >= now, so any t overlapping it has t.end >
    X.start >= now - longest_us.

    Listeners are nodes (`is_mobile`, `position()`), given in node order.
    `add` fixes each frame's audience at transmit start.  A stationary
    listener's received power is then final: the source position is a
    snapshot and the listener does not move.  So it is computed once
    per frame, and once per source when the source is stationary too: only
    the mobile's transmit power changes within a run, never a stationary
    node's.  The mobile listener is measured live.
    """

    def __init__(self, params: PhyParams, listeners) -> None:
        self.params = params
        self.listeners = list(listeners)
        self.transmissions: list[Transmission] = []
        self.longest_us: SimTime = 0
        self.audiences: dict = {}  # by stationary source node

    def add(self, tx: Transmission) -> None:
        """Drop the history no resolution needs, put tx on the air and fix
        its audience."""
        oldest_end = tx.start - self.longest_us
        self.transmissions = [t for t in self.transmissions if t.end >= oldest_end]
        tx.audience = self.audience(tx)
        self.transmissions.append(tx)
        airtime = tx.end - tx.start
        if airtime > self.longest_us:
            self.longest_us = airtime

    def audience(self, tx: Transmission) -> dict:
        """Listeners that hear tx: node -> (rx power, LQ), in node order."""
        src = tx.node
        audience = self.audiences.get(src)  # only a stationary source's
        if audience is not None:
            return audience
        params = self.params
        audience = {}
        for node in self.listeners:
            if node is src:
                continue
            if node.is_mobile:
                audience[node] = (None, None)
                continue
            rx = self.rx_power(tx, node)
            if heard(rx, params):
                audience[node] = (rx, lq_from_rx_power(rx, params))
        if not src.is_mobile:
            self.audiences[src] = audience
        return audience

    def rx_power(self, tx: Transmission, node) -> float:
        """Received power of tx at the listener node, in dBm."""
        x, y = node.position()
        dx = tx.src_pos[0] - x
        dy = tx.src_pos[1] - y
        return link_rx_power((dx * dx + dy * dy) ** 0.5, tx.frame.tx_power_dbm,
                             self.params)

    def audible(self, tx: Transmission, node) -> bool:
        """True iff tx arrives strictly above the listener's sensitivity."""
        if node.is_mobile:
            return heard(self.rx_power(tx, node), self.params)
        return node in tx.audience

    def busy_for(self, node, now: SimTime) -> bool:
        """CCA result: busy while any audible transmission is in progress.

        The node's own in-flight frame counts as busy too: the radio is
        half-duplex, so a CSMA attempt cannot start under an outgoing ack
        or beacon.
        """
        for t in self.transmissions:
            if t.start <= now < t.end:
                if t.node is node:
                    return True
                if self.audible(t, node):
                    return True
        return False

    def interferers(self, tx: Transmission, node) -> list[Transmission]:
        """Other transmissions overlapping tx that are audible at node."""
        out = []
        for t in self.transmissions:
            if t is tx:
                continue
            if t.overlaps(tx.start, tx.end) and self.audible(t, node):
                out.append(t)
        return out


class MacLayer:
    """Per-node transmit pipeline implementing unslotted CSMA/CA.

    One frame is in flight at a time; further frames queue FIFO.  Unicast
    frames requesting acknowledgement are retried up to max_frame_retries
    with the original sequence number.  Each queued send's outcome goes to
    the node's controller, `on_send_outcome(frame, outcome)`.

    Two fields say where a send stands: `current`, the frame in flight
    (None when idle), and `_ack_timeout_event`, its pending ack timer (set
    only while `current` waits for its ack).
    """

    def __init__(self, sim, node) -> None:
        self.sim = sim
        self.node = node
        self.queue: deque[Frame] = deque()
        self.current: Frame | None = None
        self.nb = 0  # busy CCAs of the current attempt
        self.retries = 0
        self.seq_counter = 0
        self._ack_timeout_event = None
        self.pending_acks = 0  # acks due but not yet sent
        self.tx_ends_at: SimTime = 0

    def next_seq(self) -> int:
        seq = self.seq_counter
        self.seq_counter = (self.seq_counter + 1) % 256
        return seq

    def control_frame(self, kind: str, dst: int, **fields) -> Frame:
        """A control frame from this node, with the next sequence number."""
        return Frame(kind, self.next_seq(), self.node.node_id, dst,
                     payload_len=CONTROL_PAYLOAD[kind], **fields)

    # -- submission ---------------------------------------------------------

    def csma_send(self, frame: Frame) -> None:
        if self.node.ledger.mode == SLEEP:
            raise SimulationError(
                f"node {self.node.node_id} cannot csma_send while asleep")
        if frame.kind in CSMA_EXEMPT:
            raise SimulationError(f"{frame.kind} frames do not use CSMA")
        if frame.kind == FrameKind.DATA and frame.is_broadcast:
            raise SimulationError("data frames must be unicast")
        self.queue.append(frame)
        if self.current is None:
            self._start_attempt()

    def send_immediate(self, frame: Frame) -> None:
        """Transmit a beacon or ack now, skipping CCA and any queue."""
        if frame.kind not in CSMA_EXEMPT:
            raise SimulationError(
                f"send_immediate only accepts beacon/ack, got {frame.kind}")
        if self.node.ledger.mode == SLEEP:
            raise SimulationError(
                f"node {self.node.node_id} cannot transmit while asleep")
        self._transmit(frame)

    def send_ack(self, frame: Frame) -> None:
        """Acknowledge a received frame after the turnaround."""
        self.pending_acks += 1
        ack = Frame(FrameKind.ACK, frame.seq, self.node.node_id, frame.src)
        self.sim.loop.schedule(self.sim.loop.now + self.sim.cfg.csma.turnaround_us,
                               self._ack_due, ack)

    def _ack_due(self, ack: Frame) -> None:
        if not self._after_own_frame(self._ack_due, ack):
            self.pending_acks -= 1
            self.send_immediate(ack)

    def beacon_due(self) -> None:
        if not self._after_own_frame(self.beacon_due):
            self.node.wake()  # a sleeping node goes back to sleep after the frame
            self.send_immediate(self.control_frame(FrameKind.BEACON, BROADCAST))

    def _after_own_frame(self, action, *args) -> bool:
        """Defer action(*args) to the end of the radio's own frame, if on air."""
        if self.node.ledger.mode.tx_power_dbm is None:
            return False
        self.sim.loop.schedule(self.tx_ends_at, action, *args)
        return True

    # -- CSMA state machine -------------------------------------------------

    def _start_attempt(self) -> None:
        self.current = self.queue.popleft()
        self.retries = 0
        self._begin_csma()

    def _begin_csma(self) -> None:
        self.nb = 0
        self._schedule_backoff()

    def _schedule_backoff(self) -> None:
        csma = self.sim.cfg.csma
        be = min(csma.mac_min_be + self.nb, csma.mac_max_be)
        delay = self.node.rng.draw_uniform(1 << be) * csma.unit_backoff_us
        self.sim.emit(self.node, TraceKind.BACKOFF, self.current, detail=delay)
        self.sim.loop.schedule(self.sim.loop.now + delay, self.on_backoff_expire)

    def on_backoff_expire(self) -> None:
        now = self.sim.loop.now
        # The radio's own frame ends this instant: sample the channel after
        # its TX_END, or the attempt would start under it.
        if self.tx_ends_at == now and self._after_own_frame(self.on_backoff_expire):
            return
        if self.sim.channel.busy_for(self.node, now):
            self.nb += 1
            self.sim.emit(self.node, TraceKind.CCA_BUSY, self.current,
                          detail=self.nb)
            if self.nb >= self.sim.cfg.csma.max_csma_backoffs:
                self._finish(SendOutcome.CHANNEL_ACCESS_FAILURE)
            else:
                self._schedule_backoff()
            return
        self._transmit(self.current)

    def _transmit(self, frame: Frame) -> None:
        frame.tx_power_dbm = self.node.power_dbm
        self.sim.begin_transmission(self.node, frame)

    def on_tx_complete(self, frame: Frame) -> None:
        """Called by the simulation when this node's queued frame left the air."""
        if frame is not self.current:
            return  # beacon/ack path, nothing to resolve
        if frame.wants_ack():
            self._ack_timeout_event = self.sim.loop.schedule(
                self.sim.loop.now + self.sim.cfg.csma.ack_wait_us, self.on_ack_timeout)
        else:
            self._finish(SendOutcome.DELIVERED)

    def receive(self, frame: Frame, rx_power: float, lq: int) -> None:
        """Match an ack, ack a frame that wants one, pass every frame on."""
        if frame.dst == self.node.node_id:
            if frame.kind == FrameKind.ACK:
                self.on_ack_received(frame)
            elif frame.wants_ack():
                self.send_ack(frame)
        self.node.controller.on_frame(frame, rx_power, lq)

    def on_ack_received(self, ack: Frame) -> None:
        if (self._ack_timeout_event is not None
                and ack.seq == self.current.seq
                and ack.src == self.current.dst):
            self.sim.loop.cancel(self._ack_timeout_event)
            self._ack_timeout_event = None
            self._finish(SendOutcome.DELIVERED)

    def on_ack_timeout(self) -> None:
        self._ack_timeout_event = None
        self.retries += 1
        if self.retries > self.sim.cfg.csma.max_frame_retries:
            self.sim.emit(self.node, TraceKind.ACK_TIMEOUT, self.current)
            self._finish(SendOutcome.NO_ACK)
        else:
            self.sim.emit(self.node, TraceKind.ACK_TIMEOUT, self.current,
                          detail=self.retries)
            self._begin_csma()  # retransmission keeps the original seq

    def _finish(self, outcome: str) -> None:
        frame = self.current
        self.current = None
        self.sim.emit(self.node, TraceKind.SEND_OUTCOME, frame, detail=outcome)
        self.node.controller.on_send_outcome(frame, outcome)
        if self.current is None:  # the controller started no send
            if self.queue:
                self._start_attempt()
            else:
                self.node.maybe_sleep()

    @property
    def busy(self) -> bool:
        return self.current is not None or bool(self.queue) or self.pending_acks > 0
