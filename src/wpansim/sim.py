"""One simulation run: node wiring, scheduled actions, trace and energy capture.

A run owns every piece of mutable state (event loop, channel, per-node RNG
streams, ledgers); two runs never share anything, so a scenario file plus a
seed reproduces the trace byte for byte.  `MacLayer.receive` takes each
received frame, and each `Node` decides itself when it sleeps.
"""

from __future__ import annotations

from typing import NamedTuple

from .engine import EventLoop, RngStream, RunSummary, SimTime
from .mac import Channel, Frame, FrameKind, MacLayer, Transmission
from .net import MobileController, RunStats, StationaryController, run_stats
from .phy import NO_BEACONS, beacon_interval, frame_airtime, heard, lq_from_rx_power
from .scenario import (LISTEN, RX, SLEEP, EnergyLedger, NodeClass, NodeConfig,
                       RadioMode, tx_mode)
from .scenario_file import ScenarioConfig
from .trace import TraceKind, TraceRecord


class Node:
    def __init__(self, sim: "Simulation", config: NodeConfig) -> None:
        self.sim = sim
        self.config = config
        self.node_id = config.node_id
        self.is_mobile = config.node_class is NodeClass.MOBILE
        # A stationary node's position; a mobile's as of time _xy_time.
        self.xy = (config.x, config.y)
        self._xy_time: SimTime | None = None
        self.rng = RngStream(sim.cfg.seed, config.node_id)
        start_mode = SLEEP if config.sleeps else LISTEN
        self.ledger = EnergyLedger(start_mode)  # the radio's mode and time
        # Since when the radio has heard; None exactly while it does not.
        self.listen_since: SimTime | None = 0 if start_mode.hears else None
        self.rx_engagements = 0
        # The transmit power; TPC and a failed handover change the mobile's.
        self.power_dbm = (config.tx_power_dbm if config.tx_power_dbm is not None
                          else sim.cfg.phy.tx_power_dbm)
        self.mac = MacLayer(sim, self)
        self.controller: MobileController | StationaryController
        if config.node_class is NodeClass.MOBILE:
            self.controller = MobileController(sim, self)
        else:
            self.controller = StationaryController(self)

    # -- geometry / radio ----------------------------------------------------

    def position(self) -> tuple[float, float]:
        if not self.is_mobile:
            return self.xy
        now = self.sim.loop.now
        if now != self._xy_time:  # computed once per instant
            self._xy_time = now
            self.xy = self.sim.cfg.trajectory.position_at(now)
        return self.xy

    def set_mode(self, mode: RadioMode) -> None:
        ledger = self.ledger
        now = self.sim.loop.now
        was_listening = ledger.mode.hears
        ledger.transition(mode, now)
        if mode.hears:
            if not was_listening:
                self.listen_since = now
        else:
            self.listen_since = None

    def wake(self) -> None:
        if self.ledger.mode == SLEEP:
            self.set_mode(LISTEN)

    def maybe_sleep(self) -> None:
        if (self.config.sleeps and not self.mac.busy and self.rx_engagements == 0
                and self.ledger.mode == LISTEN and not self.controller.searching):
            self.set_mode(SLEEP)


class RunResult(NamedTuple):
    cfg: ScenarioConfig
    rows: list[TraceRecord]
    summary: RunSummary
    ledgers: dict[int, EnergyLedger]  # closed at the end, by ascending node id
    mobile_id: int | None
    stats: RunStats | None = None  # the mobile's, if there is one
    # Old names of `stats`, kept because wpbench/workloads.py reads them.
    handover_stats = traffic_stats = property(lambda self: self.stats)


class Simulation:
    def __init__(self, cfg: ScenarioConfig) -> None:
        self.cfg = cfg
        self.loop = EventLoop()
        self.rows: list[TraceRecord] = []
        self.nodes: dict[int, Node] = {}
        for nc in cfg.nodes:
            self.nodes[nc.node_id] = Node(self, nc)
        mobiles = [n for n in self.nodes.values() if n.is_mobile]
        self.mobile: Node | None = mobiles[0] if mobiles else None
        self.channel = Channel(cfg.phy, self.nodes.values())

    # -- trace ----------------------------------------------------------------

    def emit(self, node: Node, event_kind: str, frame: Frame | None = None,
             detail: object = None, rx_power: float | None = None,
             lq: int | None = None) -> None:
        x = node.position()[0]
        if frame is None:
            row = TraceRecord(self.loop.now, node.node_id, event_kind, "",
                              None, None, None, None, rx_power, lq, x, detail)
        else:
            row = TraceRecord(self.loop.now, node.node_id, event_kind, frame.kind,
                              frame.src, frame.dst, frame.seq, frame.tx_power_dbm,
                              rx_power, lq, x, detail)
        self.rows.append(row)

    # -- transmission lifecycle -------------------------------------------------

    def airtime(self, frame: Frame) -> SimTime:
        return frame_airtime(self.cfg.phy.phy_overhead_bytes + (
            self.cfg.mac.ack_header_bytes if frame.kind == FrameKind.ACK
            else self.cfg.mac.mac_header_bytes + frame.payload_len), self.cfg.band)

    def begin_transmission(self, node: Node, frame: Frame) -> None:
        now = self.loop.now
        airtime = self.airtime(frame)
        tx = Transmission(node, frame, now, now + airtime, node.position())
        self.channel.add(tx)
        node.set_mode(tx_mode(frame.tx_power_dbm))
        node.mac.tx_ends_at = tx.end
        # Listeners hearing this carrier switch to active reception.
        for other in tx.audience:
            if other.ledger.mode.hears and self.channel.audible(tx, other):
                other.rx_engagements += 1
                other.set_mode(RX)
                tx.engaged.append(other)
        self.emit(node, TraceKind.TX_START, frame)
        self.loop.schedule(tx.end, self._on_tx_end, tx)

    def deliver(self, tx: Transmission) -> list[tuple[Node, float, int]]:
        """Resolve reception of a completed transmission (no-capture model).

        A node receives iff it listened for the whole frame, the frame is
        above its sensitivity, and no other audible transmission overlapped.
        Returns (node, rx power, LQ) per receiver: fixed at transmit start
        for a stationary receiver, measured now for the mobile.
        """
        phy = self.cfg.phy
        receivers: list[tuple[Node, float, int]] = []
        for other, (rx_power, lq) in tx.audience.items():
            since = other.listen_since  # None while the radio does not hear
            if since is None or since > tx.start:
                continue
            if rx_power is None:
                rx_power = self.channel.rx_power(tx, other)
                if not heard(rx_power, phy):
                    continue
                lq = lq_from_rx_power(rx_power, phy)
            if self.channel.interferers(tx, other):
                self.emit(other, TraceKind.COLLISION, tx.frame,
                          rx_power=rx_power, lq=lq)
                continue
            receivers.append((other, rx_power, lq))
            self.emit(other, TraceKind.RX, tx.frame, rx_power=rx_power, lq=lq)
        return receivers

    def _on_tx_end(self, tx: Transmission) -> None:
        node = tx.node
        receivers = self.deliver(tx)
        self.emit(node, TraceKind.TX_END, tx.frame)
        for other in tx.engaged:
            other.rx_engagements -= 1
            if other.rx_engagements == 0 and other.ledger.mode == RX:
                other.set_mode(LISTEN)
        node.set_mode(LISTEN)
        for other, rx_power, lq in receivers:
            other.mac.receive(tx.frame, rx_power, lq)
        node.mac.on_tx_complete(tx.frame)
        node.maybe_sleep()

    # -- scheduled actions ------------------------------------------------------

    def _dispatch(self, ev) -> None:
        ev.action(*ev.args)

    # -- run ------------------------------------------------------------------------

    def setup(self) -> None:
        if self.cfg.duration_us <= 0:
            return
        if self.mobile is not None:
            # Initial association attempt, then periodic machinery.
            ctrl = self.mobile.controller
            self.loop.schedule(0, ctrl.start_handover, "orphan")
            self.loop.every(self.cfg.traffic.period_us, ctrl.on_data_due)
            self.loop.every(self.cfg.move_tick_us, self.emit, self.mobile,
                            TraceKind.MOVE)
        if self.cfg.mac.beacon_order != NO_BEACONS:
            interval = beacon_interval(self.cfg.mac.beacon_order, self.cfg.band)
            for node in self.nodes.values():
                if node.config.may_parent:
                    self.loop.every(interval, node.mac.beacon_due)

    def run(self) -> RunResult:
        self.setup()
        summary = self.loop.run_until(self.cfg.duration_us, self._dispatch)
        end = self.cfg.duration_us
        ledgers = {}
        for nid, node in sorted(self.nodes.items()):
            node.ledger.close(end)
            ledgers[nid] = node.ledger
        if self.mobile is None:
            return RunResult(self.cfg, self.rows, summary, ledgers, None)
        mac = self.mobile.mac
        pending = sum(f.kind == FrameKind.DATA
                      for f in (mac.current, *mac.queue) if f is not None)
        return RunResult(self.cfg, self.rows, summary, ledgers, self.mobile.node_id,
                         run_stats(self.rows, self.mobile.node_id, end, pending))
