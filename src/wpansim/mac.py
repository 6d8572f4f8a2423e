"""Simplified 802.15.4 MAC: frames, unslotted CSMA/CA, collision semantics.

Beacons and acknowledgements bypass CSMA (sent on schedule / after a fixed
turnaround).  The channel applies a no-capture collision model: if two
transmissions audible at a receiver overlap in time, that receiver gets
neither.  CCA is instantaneous channel-state sampling.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

from .engine import EventKind, SimTime, SimulationError
from .phy import PhyParams, in_range, link_rx_power

BROADCAST = 0xFFFF


class FrameKind(Enum):
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


@dataclass
class Frame:
    kind: FrameKind
    seq: int
    src: int
    dst: int
    pan_id: int = 0
    payload_len: int = 0
    tx_power_dbm: float = 0.0
    lq_report: int | None = None  # probe responses carry the measured LQ

    @property
    def is_broadcast(self) -> bool:
        return self.dst == BROADCAST

    def wants_ack(self) -> bool:
        return (not self.is_broadcast
                and self.kind not in (FrameKind.ACK, FrameKind.BEACON,
                                      FrameKind.DISASSOC))


@dataclass
class CsmaParams:
    mac_min_be: int = 3
    mac_max_be: int = 5
    max_csma_backoffs: int = 4
    max_frame_retries: int = 3
    unit_backoff_us: SimTime = 320
    ack_wait_us: SimTime = 864
    turnaround_us: SimTime = 192


class SendOutcome(Enum):
    DELIVERED = "delivered"
    NO_ACK = "no_ack"
    CHANNEL_ACCESS_FAILURE = "cca_fail"


@dataclass
class Transmission:
    src: int
    frame: Frame
    start: SimTime
    end: SimTime
    src_pos: tuple[float, float]  # snapshot at transmit start
    gain_tx_db: float
    engaged: list[int]  # listeners put into rx mode for this frame

    def overlaps(self, start: SimTime, end: SimTime) -> bool:
        return self.start < end and start < self.end


class Channel:
    """Shared medium: active transmission set plus a short history window.

    History is needed because collisions are resolved at transmit end, when
    shorter overlapping frames may already have finished.
    """

    def __init__(self, params: PhyParams) -> None:
        self.params = params
        self.transmissions: list[Transmission] = []

    def add(self, tx: Transmission) -> None:
        self.transmissions.append(tx)

    def prune(self, now: SimTime, horizon_us: int = 100_000) -> None:
        self.transmissions = [t for t in self.transmissions
                              if t.end >= now - horizon_us]

    def audible(self, tx: Transmission, pos: tuple[float, float],
                gain_rx_db: float) -> bool:
        dx = tx.src_pos[0] - pos[0]
        dy = tx.src_pos[1] - pos[1]
        dist = (dx * dx + dy * dy) ** 0.5
        return in_range(dist, tx.frame.tx_power_dbm, tx.gain_tx_db, gain_rx_db,
                        self.params)

    def rx_power(self, tx: Transmission, pos: tuple[float, float],
                 gain_rx_db: float) -> float:
        dx = tx.src_pos[0] - pos[0]
        dy = tx.src_pos[1] - pos[1]
        dist = (dx * dx + dy * dy) ** 0.5
        return link_rx_power(dist, tx.frame.tx_power_dbm, tx.gain_tx_db,
                             gain_rx_db, self.params)

    def busy_for(self, node_id: int, pos: tuple[float, float], gain_rx_db: float,
                 now: SimTime) -> bool:
        """CCA result: busy while any audible transmission is in progress.

        The node's own in-flight frame counts as busy too: the radio is
        half-duplex, so a CSMA attempt cannot start under an outgoing ack
        or beacon.
        """
        for t in self.transmissions:
            if t.start <= now < t.end:
                if t.src == node_id:
                    return True
                if self.audible(t, pos, gain_rx_db):
                    return True
        return False

    def interferers(self, tx: Transmission, pos: tuple[float, float],
                    gain_rx_db: float) -> list[Transmission]:
        """Other transmissions overlapping tx that are audible at pos."""
        out = []
        for t in self.transmissions:
            if t is tx:
                continue
            if t.overlaps(tx.start, tx.end) and self.audible(t, pos, gain_rx_db):
                out.append(t)
        return out


@dataclass
class _Outgoing:
    frame: Frame
    ack_required: bool
    on_outcome: object  # callable(SendOutcome) or None


class MacLayer:
    """Per-node transmit pipeline implementing unslotted CSMA/CA.

    One frame is in flight at a time; further frames queue FIFO.  Unicast
    frames requesting acknowledgement are retried up to max_frame_retries
    with the original sequence number.
    """

    def __init__(self, sim, node) -> None:
        self.sim = sim
        self.node = node
        self.queue: deque[_Outgoing] = deque()
        self.current: _Outgoing | None = None
        self.state = "idle"  # idle | backoff | tx | wait_ack
        self.nb = 0
        self.be = 0
        self.retries = 0
        self.seq_counter = 0
        self._backoff_event = None
        self._ack_timeout_event = None
        self.tx_ends_at: SimTime = 0

    def next_seq(self) -> int:
        seq = self.seq_counter
        self.seq_counter = (self.seq_counter + 1) % 256
        return seq

    # -- submission ---------------------------------------------------------

    def csma_send(self, frame: Frame, on_outcome=None) -> None:
        if self.node.radio_mode() == "sleep":
            raise SimulationError(
                f"node {self.node.node_id} cannot csma_send while asleep")
        if frame.kind in CSMA_EXEMPT:
            raise SimulationError(f"{frame.kind.value} frames do not use CSMA")
        if frame.kind is FrameKind.DATA and frame.is_broadcast:
            raise SimulationError("data frames must be unicast")
        self.queue.append(_Outgoing(frame, frame.wants_ack(), on_outcome))
        if self.state == "idle":
            self._start_attempt()

    def send_immediate(self, frame: Frame) -> None:
        """Transmit a beacon or ack now, skipping CCA and any queue."""
        if frame.kind not in CSMA_EXEMPT:
            raise SimulationError(
                f"send_immediate only accepts beacon/ack, got {frame.kind.value}")
        if self.node.radio_mode() == "sleep":
            raise SimulationError(
                f"node {self.node.node_id} cannot transmit while asleep")
        self._transmit(frame, immediate=True)

    # -- CSMA state machine -------------------------------------------------

    def _start_attempt(self) -> None:
        self.current = self.queue.popleft()
        self.retries = 0
        self._begin_csma()

    def _begin_csma(self) -> None:
        self.nb = 0
        self.be = self.sim.csma.mac_min_be
        self._schedule_backoff()

    def _schedule_backoff(self) -> None:
        self.state = "backoff"
        draw = self.node.rng.draw_uniform(1 << self.be)
        delay = draw * self.sim.csma.unit_backoff_us
        self.sim.emit(self.node, "BACKOFF", frame=self.current.frame,
                      outcome=f"delay={delay}")
        self._backoff_event = self.sim.loop.schedule(
            self.sim.loop.now + delay, EventKind.BACKOFF_EXPIRE, self.node.node_id)

    def on_backoff_expire(self) -> None:
        if self.current is None:
            return
        busy = self.sim.channel.busy_for(
            self.node.node_id, self.node.position(), self.node.gain_db,
            self.sim.loop.now)
        if busy:
            self.nb += 1
            self.be = min(self.be + 1, self.sim.csma.mac_max_be)
            self.sim.emit(self.node, "CCA_BUSY", frame=self.current.frame,
                          outcome=f"nb={self.nb}")
            if self.nb >= self.sim.csma.max_csma_backoffs:
                self._finish(SendOutcome.CHANNEL_ACCESS_FAILURE)
            else:
                self._schedule_backoff()
            return
        self._transmit(self.current.frame, immediate=False)

    def _transmit(self, frame: Frame, immediate: bool) -> None:
        frame.tx_power_dbm = self.node.tx_power_dbm()
        self.sim.begin_transmission(self.node, frame)
        if not immediate:
            self.state = "tx"

    def on_tx_complete(self, frame: Frame) -> None:
        """Called by the simulation when this node's queued frame left the air."""
        if self.current is None or frame is not self.current.frame:
            return  # beacon/ack path, nothing to resolve
        if self.current.ack_required:
            self.state = "wait_ack"
            self._ack_timeout_event = self.sim.loop.schedule(
                self.sim.loop.now + self.sim.csma.ack_wait_us,
                EventKind.ACK_TIMEOUT, self.node.node_id)
        else:
            self._finish(SendOutcome.DELIVERED)

    def on_ack_received(self, ack: Frame) -> None:
        if (self.state == "wait_ack" and self.current is not None
                and ack.seq == self.current.frame.seq
                and ack.src == self.current.frame.dst):
            if self._ack_timeout_event is not None:
                self.sim.loop.cancel(self._ack_timeout_event)
                self._ack_timeout_event = None
            self._finish(SendOutcome.DELIVERED)

    def on_ack_timeout(self) -> None:
        if self.state != "wait_ack" or self.current is None:
            return
        self.retries += 1
        if self.retries > self.sim.csma.max_frame_retries:
            self.sim.emit(self.node, "ACK_TIMEOUT", frame=self.current.frame,
                          outcome="exhausted")
            self._finish(SendOutcome.NO_ACK)
        else:
            self.sim.emit(self.node, "ACK_TIMEOUT", frame=self.current.frame,
                          outcome=f"retry={self.retries}")
            self._begin_csma()  # retransmission keeps the original seq

    def _finish(self, outcome: SendOutcome) -> None:
        done = self.current
        self.current = None
        self.state = "idle"
        self.sim.emit(self.node, "SEND_OUTCOME", frame=done.frame,
                      outcome=outcome.value)
        if done.on_outcome is not None:
            done.on_outcome(outcome)
        if self.queue and self.state == "idle":
            self._start_attempt()
        elif self.state == "idle":
            self.sim.on_mac_idle(self.node)

    @property
    def busy(self) -> bool:
        return self.state != "idle" or bool(self.queue)
