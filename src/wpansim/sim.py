"""One simulation run: node wiring, event dispatch, trace and energy capture.

A run owns every piece of mutable state (event loop, channel, per-node RNG
streams, ledgers); two runs never share anything, so a scenario file plus a
seed reproduces the trace byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .engine import EventKind, EventLoop, RngStream, RunSummary, SimTime
from .mac import (BROADCAST, CONTROL_PAYLOAD, Channel, CsmaParams, Frame,
                  FrameKind, MacLayer, Transmission)
from .net import MobileController, StationaryController
from .phy import NO_BEACONS, beacon_interval, frame_airtime, lq_from_rx_power
from .scenario import (EnergyLedger, EnergyReport, MODE_LISTEN, MODE_RX,
                       MODE_SLEEP, NodeClass, NodeConfig, NodeRole,
                       build_energy_report, tx_mode)
from .scenario_file import ScenarioConfig
from .trace import TraceRecord


class Node:
    def __init__(self, sim: "Simulation", config: NodeConfig) -> None:
        self.sim = sim
        self.config = config
        self.node_id = config.node_id
        self.gain_db = config.antenna_gain_db
        self.rng = RngStream(sim.seed, config.node_id)
        start_mode = MODE_SLEEP if config.sleeps else MODE_LISTEN
        self.ledger = EnergyLedger(0, start_mode)
        self._mode = start_mode
        self.listen_since: SimTime | None = 0 if start_mode == MODE_LISTEN else None
        self.rx_engagements = 0
        self.pending_acks = 0
        self.mac = MacLayer(sim, self)
        self.controller: MobileController | StationaryController
        if config.node_class is NodeClass.MOBILE:
            self.controller = MobileController(sim, self)
        else:
            self.controller = StationaryController(sim, self)
        self.next_beacon: SimTime = 0

    # -- geometry / radio ----------------------------------------------------

    def position(self) -> tuple[float, float]:
        if self.config.node_class is NodeClass.MOBILE:
            return self.sim.cfg.trajectory.position_at(self.sim.loop.now)
        return (self.config.x, self.config.y)

    def config_power_dbm(self) -> float:
        if self.config.tx_power_dbm is not None:
            return self.config.tx_power_dbm
        return self.sim.cfg.phy.tx_power_dbm

    def tx_power_dbm(self) -> float:
        if isinstance(self.controller, MobileController):
            return self.controller.current_power_dbm()
        return self.config_power_dbm()

    def radio_mode(self) -> str:
        return self._mode

    def set_mode(self, mode: str) -> None:
        if mode == self._mode:
            return
        now = self.sim.loop.now
        was_listening = self._mode in (MODE_LISTEN, MODE_RX)
        self.ledger.transition(mode, now)
        self._mode = mode
        if mode in (MODE_LISTEN, MODE_RX):
            if not was_listening:
                self.listen_since = now
        else:
            self.listen_since = None

    def wake(self) -> None:
        if self._mode == MODE_SLEEP:
            self.set_mode(MODE_LISTEN)

    @property
    def is_mobile(self) -> bool:
        return self.config.node_class is NodeClass.MOBILE


@dataclass
class RunResult:
    cfg: ScenarioConfig
    seed: int
    rows: list[TraceRecord]
    summary: RunSummary
    ledgers: dict[int, EnergyLedger]
    energy: EnergyReport
    mobile_id: int | None
    handover_stats: object = None
    traffic_stats: object = None
    tx_time_weighted_dbm: float = 0.0
    delivery_log: list = field(default_factory=list)


class Simulation:
    def __init__(self, cfg: ScenarioConfig, seed: int | None = None) -> None:
        self.cfg = cfg
        self.seed = cfg.seed if seed is None else seed
        self.loop = EventLoop()
        self.channel = Channel(cfg.phy)
        self.csma: CsmaParams = cfg.csma
        self.band = cfg.band
        self.rows: list[TraceRecord] = []
        self.delivery_log: list[tuple[Transmission, tuple[int, ...]]] = []
        self.nodes: dict[int, Node] = {}
        for nc in cfg.nodes:
            self.nodes[nc.node_id] = Node(self, nc)
        mobiles = [n for n in self.nodes.values() if n.is_mobile]
        self.mobile: Node | None = mobiles[0] if mobiles else None

    # -- trace ----------------------------------------------------------------

    def emit(self, node: Node, event_kind: str, frame: Frame | None = None,
             outcome: str = "", rx_power: float | None = None,
             lq: int | None = None) -> None:
        x, _ = node.position()
        row = TraceRecord(self.loop.now, node.node_id, event_kind,
                          pos_x_m=x, outcome=outcome,
                          rx_power_dbm=rx_power, lq=lq)
        if frame is not None:
            row.frame_kind = frame.kind.value
            row.src = frame.src
            row.dst = frame.dst
            row.seq = frame.seq
            row.power_dbm = frame.tx_power_dbm
        self.rows.append(row)

    # -- frame sizing ----------------------------------------------------------

    def frame_total_bytes(self, frame: Frame) -> int:
        phy = self.cfg.phy.phy_overhead_bytes
        if frame.kind is FrameKind.ACK:
            return phy + self.cfg.mac.ack_header_bytes
        return phy + self.cfg.mac.mac_header_bytes + frame.payload_len

    # -- transmission lifecycle -------------------------------------------------

    def begin_transmission(self, node: Node, frame: Frame) -> None:
        now = self.loop.now
        airtime = frame_airtime(self.frame_total_bytes(frame), self.band)
        tx = Transmission(node.node_id, frame, now, now + airtime,
                          node.position(), node.gain_db, [])
        self.channel.prune(now)
        self.channel.add(tx)
        node.set_mode(tx_mode(frame.tx_power_dbm))
        node.mac.tx_ends_at = tx.end
        if node.is_mobile:
            node.controller.tx_time_weighted_dbm += frame.tx_power_dbm * airtime
        # Listeners hearing this carrier switch to active reception.
        for other in self.nodes.values():
            if other.node_id == node.node_id:
                continue
            if other.radio_mode() in (MODE_LISTEN, MODE_RX) and \
                    self.channel.audible(tx, other.position(), other.gain_db):
                other.rx_engagements += 1
                if other.radio_mode() == MODE_LISTEN:
                    other.set_mode(MODE_RX)
                tx.engaged.append(other.node_id)
        self.emit(node, "TX_START", frame=frame)
        self.loop.schedule(tx.end, EventKind.TX_END, node.node_id, tx)

    def deliver(self, tx: Transmission) -> list[int]:
        """Resolve reception of a completed transmission (no-capture model).

        A node receives iff it listened for the whole frame, the frame is
        above its sensitivity, and no other audible transmission overlapped.
        """
        receivers: list[int] = []
        for other in self.nodes.values():
            if other.node_id == tx.src:
                continue
            if other.radio_mode() not in (MODE_LISTEN, MODE_RX):
                continue
            if other.listen_since is None or other.listen_since > tx.start:
                continue
            pos = other.position()
            if not self.channel.audible(tx, pos, other.gain_db):
                continue
            rx_power = self.channel.rx_power(tx, pos, other.gain_db)
            lq = lq_from_rx_power(rx_power, self.cfg.phy)
            if self.channel.interferers(tx, pos, other.gain_db):
                self.emit(other, "COLLISION", frame=tx.frame,
                          rx_power=rx_power, lq=lq, outcome="collision")
                continue
            receivers.append(other.node_id)
            self.emit(other, "RX", frame=tx.frame, rx_power=rx_power, lq=lq)
        self.delivery_log.append((tx, tuple(receivers)))
        return receivers

    def _on_tx_end(self, node: Node, tx: Transmission) -> None:
        receivers = self.deliver(tx)
        self.emit(node, "TX_END", frame=tx.frame)
        for nid in tx.engaged:
            other = self.nodes[nid]
            other.rx_engagements -= 1
            if other.rx_engagements == 0 and other.radio_mode() == MODE_RX:
                other.set_mode(MODE_LISTEN)
        node.set_mode(MODE_LISTEN)
        for nid in receivers:
            self._on_frame_received(self.nodes[nid], tx)
        node.mac.on_tx_complete(tx.frame)
        self.maybe_sleep(node)

    def _on_frame_received(self, node: Node, tx: Transmission) -> None:
        frame = tx.frame
        pos = node.position()
        rx_power = self.channel.rx_power(tx, pos, node.gain_db)
        lq = lq_from_rx_power(rx_power, self.cfg.phy)
        if frame.kind is FrameKind.ACK:
            if frame.dst == node.node_id:
                node.mac.on_ack_received(frame)
        elif frame.wants_ack() and frame.dst == node.node_id:
            ack = Frame(FrameKind.ACK, frame.seq, node.node_id, frame.src)
            node.pending_acks += 1
            self.loop.schedule(self.loop.now + self.csma.turnaround_us,
                               EventKind.ACK_TURNAROUND, node.node_id, ack)
        node.controller.on_frame(frame, rx_power, lq)

    # -- radio idling ------------------------------------------------------------

    def on_mac_idle(self, node: Node) -> None:
        self.maybe_sleep(node)

    def maybe_sleep(self, node: Node) -> None:
        if not node.config.sleeps:
            return
        if node.mac.busy or node.rx_engagements > 0 or node.pending_acks > 0:
            return
        if node.radio_mode() != MODE_LISTEN:
            return
        if isinstance(node.controller, MobileController) and \
                node.controller.handover_state != "idle":
            return
        node.set_mode(MODE_SLEEP)

    # -- event dispatch -------------------------------------------------------------

    def _dispatch(self, ev) -> None:
        if ev.kind is EventKind.BACKOFF_EXPIRE:
            self.nodes[ev.target].mac.on_backoff_expire()
        elif ev.kind is EventKind.TX_END:
            self._on_tx_end(self.nodes[ev.target], ev.data)
        elif ev.kind is EventKind.ACK_TIMEOUT:
            self.nodes[ev.target].mac.on_ack_timeout()
        elif ev.kind is EventKind.ACK_TURNAROUND:
            node = self.nodes[ev.target]
            if node.radio_mode().startswith("tx@"):
                # Radio busy with an own frame: the ack goes out right after
                # it, still without CCA.
                self.loop.schedule(node.mac.tx_ends_at, EventKind.ACK_TURNAROUND,
                                   node.node_id, ev.data)
            else:
                node.pending_acks -= 1
                node.mac.send_immediate(ev.data)
        elif ev.kind is EventKind.BEACON_DUE:
            self._on_beacon_due(self.nodes[ev.target], ev.data == "deferred")
        elif ev.kind is EventKind.MOVE_TICK:
            if self.mobile is not None:
                self.emit(self.mobile, "MOVE")
            nxt = self.loop.now + self.cfg.move_tick_us
            if nxt <= self.cfg.duration_us:
                self.loop.schedule(nxt, EventKind.MOVE_TICK)
        elif ev.kind is EventKind.DATA_DUE:
            if self.mobile is not None:
                self.mobile.controller.on_data_due()
            nxt = self.loop.now + self.cfg.traffic.period_us
            if nxt <= self.cfg.duration_us:
                self.loop.schedule(nxt, EventKind.DATA_DUE)
        elif ev.kind is EventKind.PROBE_WINDOW_END:
            if self.mobile is not None:
                self.mobile.controller.on_probe_window_end(ev.data)
        elif ev.kind is EventKind.SCAN_STEP:
            if self.mobile is not None:
                self.mobile.controller.on_scan_step(ev.data)
        elif ev.kind is EventKind.PROBE_RETRY:
            if self.mobile is not None:
                self.mobile.controller.on_probe_retry(ev.data)

    def _on_beacon_due(self, node: Node, deferred: bool) -> None:
        if node.radio_mode().startswith("tx@"):
            # Radio busy with its own frame: send right after, keep cadence.
            self.loop.schedule(node.mac.tx_ends_at, EventKind.BEACON_DUE,
                               node.node_id, "deferred")
        else:
            beacon = Frame(FrameKind.BEACON, node.mac.next_seq(), node.node_id,
                           BROADCAST, payload_len=CONTROL_PAYLOAD[FrameKind.BEACON])
            node.mac.send_immediate(beacon)
        if deferred:
            return
        interval = beacon_interval(self.cfg.mac.beacon_order, self.band)
        node.next_beacon += interval
        if node.next_beacon <= self.cfg.duration_us:
            self.loop.schedule(node.next_beacon, EventKind.BEACON_DUE, node.node_id)

    # -- run ------------------------------------------------------------------------

    def setup(self) -> None:
        if self.cfg.duration_us <= 0:
            return
        if self.mobile is not None:
            # Initial association attempt, then periodic machinery.
            self.loop.schedule(0, EventKind.PROBE_RETRY, self.mobile.node_id,
                               ("retry", self.mobile.controller.handover_epoch))
            if self.cfg.traffic.period_us <= self.cfg.duration_us:
                self.loop.schedule(self.cfg.traffic.period_us, EventKind.DATA_DUE)
            if self.cfg.move_tick_us <= self.cfg.duration_us:
                self.loop.schedule(self.cfg.move_tick_us, EventKind.MOVE_TICK)
        if self.cfg.mac.beacon_order != NO_BEACONS:
            interval = beacon_interval(self.cfg.mac.beacon_order, self.band)
            for node in self.nodes.values():
                if node.config.role in (NodeRole.COORDINATOR, NodeRole.ROUTER):
                    node.next_beacon = interval
                    if interval <= self.cfg.duration_us:
                        self.loop.schedule(interval, EventKind.BEACON_DUE,
                                           node.node_id)

    def run(self) -> RunResult:
        self.setup()
        summary = self.loop.run_until(self.cfg.duration_us, self._dispatch)
        end = self.cfg.duration_us
        ledgers = {}
        for nid, node in sorted(self.nodes.items()):
            node.ledger.close(end)
            ledgers[nid] = node.ledger
        mobile_id = self.mobile.node_id if self.mobile is not None else None
        handover = traffic = None
        tx_weighted = 0.0
        if self.mobile is not None:
            ctrl = self.mobile.controller
            ctrl.close(end)
            handover = ctrl.stats
            traffic = ctrl.traffic
            tx_weighted = ctrl.tx_time_weighted_dbm
        energy = build_energy_report(self.seed, end, self.cfg.trajectory, ledgers,
                                     self.cfg.currents, self.cfg.supply_voltage)
        return RunResult(self.cfg, self.seed, self.rows, summary, ledgers, energy,
                         mobile_id, handover, traffic, tx_weighted,
                         self.delivery_log)


def run_scenario(cfg: ScenarioConfig, seed: int | None = None) -> RunResult:
    sim = Simulation(cfg if seed is None else cfg.clone(seed=seed))
    return sim.run()
