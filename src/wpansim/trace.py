"""Flat CSV event trace: fixed column set, fixed formatting, LF endings.

Columns: time_us,node_id,event_kind,frame_kind,src,dst,seq,power_dbm,
rx_power_dbm,lq,pos_x_m,outcome.  Times are integer microseconds, powers
one decimal, positions two decimals; inapplicable fields stay empty.  A
record holds its outcome as a typed `detail`; `_OUTCOMES` is the only place
that spells it as text, for writing and for reading back.
"""

from __future__ import annotations

import math
from pathlib import Path

from .record import Record

COLUMNS = ("time_us", "node_id", "event_kind", "frame_kind", "src", "dst",
           "seq", "power_dbm", "rx_power_dbm", "lq", "pos_x_m", "outcome")

HEADER = ",".join(COLUMNS)


class TraceKind:
    """The `event_kind` of a trace row; each constant is its trace text."""
    TX_START = "TX_START"
    TX_END = "TX_END"
    RX = "RX"
    COLLISION = "COLLISION"
    BACKOFF = "BACKOFF"
    CCA_BUSY = "CCA_BUSY"
    ACK_TIMEOUT = "ACK_TIMEOUT"
    SEND_OUTCOME = "SEND_OUTCOME"
    MOVE = "MOVE"
    OUTAGE_LOSS = "OUTAGE_LOSS"
    TPC_SET = "TPC_SET"
    HANDOVER_START = "HANDOVER_START"
    HANDOVER_DONE = "HANDOVER_DONE"
    HANDOVER_FAIL = "HANDOVER_FAIL"


class TraceRecord(Record):
    __slots__ = ("time_us", "node_id", "event_kind", "frame_kind", "src", "dst",
                 "seq", "power_dbm", "rx_power_dbm", "lq", "pos_x_m", "detail")

    def __init__(self, time_us: int, node_id: int, event_kind: str,
                 frame_kind: str = "", src: int | None = None,
                 dst: int | None = None, seq: int | None = None,
                 power_dbm: float | None = None,
                 rx_power_dbm: float | None = None, lq: int | None = None,
                 pos_x_m: float = 0.0, detail: object = None) -> None:
        self.time_us = time_us
        self.node_id = node_id
        self.event_kind = event_kind
        self.frame_kind = frame_kind
        self.src = src
        self.dst = dst
        self.seq = seq
        self.power_dbm = power_dbm
        self.rx_power_dbm = rx_power_dbm
        self.lq = lq
        self.pos_x_m = pos_x_m
        self.detail = detail  # see _OUTCOMES for each kind's type

    @property
    def outcome(self) -> str:
        return _OUTCOMES[self.event_kind][0](self.detail)


def _fixed(text: str):
    """A kind whose outcome text never varies; its detail is None."""
    return (lambda detail: text), (lambda outcome: None)


def _field(prefix: str, parse, fmt=str):
    """A kind whose outcome is `prefix` then the formatted detail."""
    return (lambda detail: prefix + fmt(detail)), (
        lambda text: parse(text.removeprefix(prefix)))


def _word(text: str) -> str:
    if not text.isidentifier():
        raise ValueError(text)
    return text


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):  # the writer never produces one
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _parse_done(text: str) -> tuple[int, int]:
    parent, _, latency = text.removeprefix("parent=").partition(";latency_us=")
    return int(parent), int(latency)


# event_kind -> (detail -> outcome text, outcome text -> detail).
_OUTCOMES = {
    TraceKind.TX_START: _fixed(""),
    TraceKind.TX_END: _fixed(""),
    TraceKind.RX: _fixed(""),
    TraceKind.MOVE: _fixed(""),
    TraceKind.COLLISION: _fixed("collision"),
    TraceKind.OUTAGE_LOSS: _fixed("no_parent"),
    TraceKind.BACKOFF: _field("delay=", int),  # backoff delay, us
    TraceKind.CCA_BUSY: _field("nb=", int),  # busy CCAs of this attempt
    # Retry number, or None once the retries are exhausted.
    TraceKind.ACK_TIMEOUT: (
        lambda retry: "exhausted" if retry is None else f"retry={retry}",
        lambda text: None if text == "exhausted"
        else int(text.removeprefix("retry="))),
    TraceKind.SEND_OUTCOME: _field("", _word),  # a mac.SendOutcome
    TraceKind.TPC_SET: _field("level=", _finite, "{:.1f}".format),  # dBm
    TraceKind.HANDOVER_START: _field("trigger=", _word),
    TraceKind.HANDOVER_DONE: (  # (parent, latency_us)
        lambda done: f"parent={done[0]};latency_us={done[1]}", _parse_done),
    TraceKind.HANDOVER_FAIL: _field("", _word),  # the reason
}


def _parse_outcome(kind: str, text: str) -> object:
    """The detail of an outcome text; only text the writer can produce parses."""
    if kind not in _OUTCOMES:
        raise ValueError(f"unknown event kind {kind!r}")
    fmt, parse = _OUTCOMES[kind]
    try:
        detail = parse(text)
        if fmt(detail) == text:
            return detail
    except ValueError:
        pass
    raise ValueError(f"malformed {kind} outcome {text!r}")


WRITE_CHUNK_ROWS = 4096


class _Formatted(dict):
    """Text of each value under one formatter, formatted once per value.

    A value equal to zero is never stored: -0.0 == 0.0, but the two print
    differently.
    """

    def __init__(self, formatter) -> None:
        super().__init__()
        self.formatter = formatter

    def __missing__(self, value) -> str:
        text = self.formatter(value)
        if value != 0:
            self[value] = text
        return text


def write_trace(path: str | Path, rows: list[TraceRecord]) -> None:
    """Write the rows as CSV, in chunks, byte for byte as the one-row-at-a-time
    reference formatter in tests/reference.py writes them.

    Ids, sequence numbers, transmit powers, positions and outcomes repeat
    across rows, so each distinct value is formatted once per call.  A
    received power mostly differs from row to row, so it is formatted per row.
    """
    num = _Formatted(str)
    power = _Formatted("{:.1f}".format)
    pos = _Formatted("{:.2f}".format)
    outcome = {kind: _Formatted(fmt) for kind, (fmt, _) in _OUTCOMES.items()}
    with open(path, "wb") as fh:
        fh.write((HEADER + "\n").encode("ascii"))
        for first in range(0, len(rows), WRITE_CHUNK_ROWS):
            fh.write("".join(",".join((
                str(r.time_us),
                num[r.node_id],
                r.event_kind,
                r.frame_kind,
                "" if r.src is None else num[r.src],
                "" if r.dst is None else num[r.dst],
                "" if r.seq is None else num[r.seq],
                "" if r.power_dbm is None else power[r.power_dbm],
                "" if r.rx_power_dbm is None else f"{r.rx_power_dbm:.1f}",
                "" if r.lq is None else num[r.lq],
                pos[r.pos_x_m],
                outcome[r.event_kind][r.detail],
            )) + "\n" for r in rows[first:first + WRITE_CHUNK_ROWS]).encode("ascii"))


def _opt(conv, text: str):
    return conv(text) if text else None


def read_trace(path: str | Path) -> list[TraceRecord]:
    """The records of a trace file; a bad row raises ValueError naming its line."""
    lines = Path(path).read_bytes().splitlines()
    if not lines or lines[0] != HEADER.encode("ascii"):
        raise ValueError(f"{path}: not a trace file (bad or missing header)")
    rows = []
    for lineno, raw in enumerate(lines[1:], start=2):
        try:
            line = raw.decode("ascii")
            f = line.split(",")
            if len(f) != len(COLUMNS):
                raise ValueError(f"malformed trace row {line!r}")
            rows.append(TraceRecord(
                int(f[0]), int(f[1]), f[2], f[3], _opt(int, f[4]), _opt(int, f[5]),
                _opt(int, f[6]), _opt(_finite, f[7]), _opt(_finite, f[8]),
                _opt(int, f[9]), _finite(f[10]), _parse_outcome(f[2], f[11])))
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return rows
