"""Flat CSV event trace: fixed column set, fixed formatting, LF endings.

Columns: time_us,node_id,event_kind,frame_kind,src,dst,seq,power_dbm,
rx_power_dbm,lq,pos_x_m,outcome.  Times are integer microseconds, powers
one decimal, positions two decimals; inapplicable fields stay empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

COLUMNS = ("time_us", "node_id", "event_kind", "frame_kind", "src", "dst",
           "seq", "power_dbm", "rx_power_dbm", "lq", "pos_x_m", "outcome")

HEADER = ",".join(COLUMNS)


@dataclass(slots=True)
class TraceRecord:
    time_us: int
    node_id: int
    event_kind: str
    frame_kind: str = ""
    src: int | None = None
    dst: int | None = None
    seq: int | None = None
    power_dbm: float | None = None
    rx_power_dbm: float | None = None
    lq: int | None = None
    pos_x_m: float = 0.0
    outcome: str = ""

    def to_csv(self) -> str:
        return ",".join((
            str(self.time_us),
            str(self.node_id),
            self.event_kind,
            self.frame_kind,
            "" if self.src is None else str(self.src),
            "" if self.dst is None else str(self.dst),
            "" if self.seq is None else str(self.seq),
            "" if self.power_dbm is None else f"{self.power_dbm:.1f}",
            "" if self.rx_power_dbm is None else f"{self.rx_power_dbm:.1f}",
            "" if self.lq is None else str(self.lq),
            f"{self.pos_x_m:.2f}",
            self.outcome,
        ))


WRITE_CHUNK_ROWS = 4096


class _Formatted(dict):
    """Text of each value under one formatter, formatted once per value.

    Zero is never stored: -0.0 == 0.0, but the two print differently.
    """

    def __init__(self, formatter) -> None:
        super().__init__()
        self.formatter = formatter

    def __missing__(self, value) -> str:
        text = self.formatter(value)
        if value:
            self[value] = text
        return text


def write_trace(path: str | Path, rows: list[TraceRecord]) -> None:
    """Write the rows as `TraceRecord.to_csv` formats them, in chunks.

    Ids, sequence numbers, powers and positions repeat across rows, so each
    distinct value is formatted once per call.
    """
    num = _Formatted(str)
    power = _Formatted("{:.1f}".format)
    pos = _Formatted("{:.2f}".format)
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
                "" if r.rx_power_dbm is None else power[r.rx_power_dbm],
                "" if r.lq is None else num[r.lq],
                pos[r.pos_x_m],
                r.outcome,
            )) + "\n" for r in rows[first:first + WRITE_CHUNK_ROWS]).encode("ascii"))


def read_trace(path: str | Path) -> list[TraceRecord]:
    lines = Path(path).read_text(encoding="ascii").splitlines()
    if not lines or lines[0] != HEADER:
        raise ValueError(f"{path}: not a trace file (bad or missing header)")
    rows = []
    for line in lines[1:]:
        f = line.split(",")
        if len(f) != len(COLUMNS):
            raise ValueError(f"{path}: malformed trace row {line!r}")
        rows.append(TraceRecord(
            time_us=int(f[0]),
            node_id=int(f[1]),
            event_kind=f[2],
            frame_kind=f[3],
            src=int(f[4]) if f[4] else None,
            dst=int(f[5]) if f[5] else None,
            seq=int(f[6]) if f[6] else None,
            power_dbm=float(f[7]) if f[7] else None,
            rx_power_dbm=float(f[8]) if f[8] else None,
            lq=int(f[9]) if f[9] else None,
            pos_x_m=float(f[10]),
            outcome=f[11],
        ))
    return rows
