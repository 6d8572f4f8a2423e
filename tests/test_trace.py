"""The trace writer and reader against the reference row formatter."""

import pytest

from reference import to_csv
from wpansim.cli import main
from wpansim.trace import (HEADER, WRITE_CHUNK_ROWS, TraceKind, TraceRecord,
                           read_trace, write_trace)


def _reference_bytes(rows):
    return (HEADER + "\n" + "".join(to_csv(r) + "\n" for r in rows)).encode("ascii")


def test_write_trace_matches_to_csv_byte_for_byte(tmp_path):
    positions = [-0.0, 0.0, 1.25, 1.25, -0.0, 0.004, -0.004, 0.0, 1.25]
    rx_powers = [None, -0.04, 0.04, -0.0, 0.0, -0.04, -71.25, -71.25, None]
    powers = [None, 0.0, -0.0, 4.0, 4.0, None, -0.04, 6.0, 0.0]
    details = [("RX", None), ("BACKOFF", 0), ("TPC_SET", -0.0), ("TPC_SET", 0.0),
               ("BACKOFF", 640), ("TPC_SET", -0.04), ("RX", None),
               ("ACK_TIMEOUT", None), ("ACK_TIMEOUT", 2)]
    rows = [TraceRecord(time_us=10 * k, node_id=k % 3, event_kind=kind,
                        frame_kind="data", src=1, dst=None, seq=k,
                        power_dbm=p, rx_power_dbm=rx, lq=k if k % 2 else None,
                        pos_x_m=x, detail=detail)
            for k, (x, rx, p, (kind, detail))
            in enumerate(zip(positions, rx_powers, powers, details))]
    # Past one chunk, so that the values repeat across chunk boundaries too.
    rows *= WRITE_CHUNK_ROWS // len(rows) + 2
    path = tmp_path / "trace.csv"
    write_trace(path, rows)
    written = path.read_bytes()
    assert written == _reference_bytes(rows)
    # The cases a value memo must not merge: signed zeros, and -0.04, which
    # prints as -0.0 while equal to neither zero.
    lines = written.decode("ascii").splitlines()
    assert [line.split(",")[10] for line in lines[1:3]] == ["-0.00", "0.00"]
    assert ",0.0,-0.0," in lines[2]  # power 0.0, rx -0.04
    assert ",-0.0,0.0," in lines[3]  # power -0.0, rx 0.04
    assert [line.split(",")[11] for line in lines[2:7]] == [
        "delay=0", "level=-0.0", "level=0.0", "delay=640", "level=-0.0"]


def test_write_trace_empty_is_header_only(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace(path, [])
    assert path.read_bytes() == _reference_bytes([])


# (event kind, detail, outcome text): every kind, and every detail shape,
# including those no pinned trace holds.  TPC levels sit on the 0.1 dB grid
# because the text keeps one decimal.
SHAPES = [
    ("TX_START", None, ""), ("TX_END", None, ""), ("RX", None, ""),
    ("MOVE", None, ""), ("COLLISION", None, "collision"),
    ("OUTAGE_LOSS", None, "no_parent"),
    ("BACKOFF", 0, "delay=0"), ("BACKOFF", 2240, "delay=2240"),
    ("CCA_BUSY", 1, "nb=1"), ("CCA_BUSY", 4, "nb=4"),
    ("ACK_TIMEOUT", 3, "retry=3"), ("ACK_TIMEOUT", None, "exhausted"),
    ("SEND_OUTCOME", "delivered", "delivered"),
    ("SEND_OUTCOME", "no_ack", "no_ack"),
    ("SEND_OUTCOME", "cca_fail", "cca_fail"),
    ("TPC_SET", 0.0, "level=0.0"), ("TPC_SET", -3.5, "level=-3.5"),
    ("TPC_SET", 6.0, "level=6.0"),
    ("HANDOVER_START", "orphan", "trigger=orphan"),
    ("HANDOVER_START", "low_lq", "trigger=low_lq"),
    ("HANDOVER_START", "ack_failures", "trigger=ack_failures"),
    ("HANDOVER_DONE", (2, 10688), "parent=2;latency_us=10688"),
    *(("HANDOVER_FAIL", why, why)
      for why in ("probe_cca_fail", "no_known_nodes", "no_responses",
                  "assoc_req_lost", "assoc_resp_lost")),
]


def test_every_kind_and_detail_shape_round_trips(tmp_path):
    kinds = {v for k, v in vars(TraceKind).items() if not k.startswith("_")}
    assert {kind for kind, _, _ in SHAPES} == kinds
    rows = [TraceRecord(100 * k, 9, kind, pos_x_m=0.25 * k, detail=detail)
            for k, (kind, detail, _) in enumerate(SHAPES)]
    assert [r.outcome for r in rows] == [text for _, _, text in SHAPES]
    path = tmp_path / "trace.csv"
    write_trace(path, rows)
    assert path.read_bytes() == _reference_bytes(rows)
    back = read_trace(path)
    assert [(r.detail, r.outcome) for r in back] == \
        [(detail, text) for _, detail, text in SHAPES]
    assert back == rows
    assert back != rows[1:] + rows[:1]  # records compare by field


@pytest.mark.parametrize("kind,outcome", [
    ("TELEPORT", ""), ("BACKOFF", "delay=x"), ("BACKOFF", "delay=007"),
    ("RX", "o"), ("ACK_TIMEOUT", "retry="), ("TPC_SET", "level=3.25"),
    ("HANDOVER_START", "trigger="), ("HANDOVER_DONE", "parent=2"),
    ("TPC_SET", "level=nan"), ("MOVE", ","),  # ",": one column too many
])
def test_gaps_rejects_a_bad_row_at_its_line(tmp_path, capsys, kind, outcome):
    good = to_csv(TraceRecord(0, 9, "MOVE", pos_x_m=1.0))
    path = tmp_path / "trace.csv"
    path.write_text(f"{HEADER}\n{good}\n0,9,{kind},,,,,,,,1.00,{outcome}\n")
    assert main(["gaps", "--trace", str(path)]) == 2
    err = capsys.readouterr().err
    assert "trace error" in err and "line 3" in err and kind in err


def test_gaps_rejects_a_row_that_is_not_ascii_at_its_line(tmp_path, capsys):
    good = to_csv(TraceRecord(0, 9, "MOVE", pos_x_m=1.0))
    path = tmp_path / "trace.csv"
    path.write_bytes(f"{HEADER}\n{good}\n".encode("ascii") + b"0,9,MOVE,,,,,,,,1.\xff0,\n")
    assert main(["gaps", "--trace", str(path)]) == 2
    err = capsys.readouterr().err
    assert "trace error" in err and "line 3: 'ascii' codec can't decode byte 0xff" in err


@pytest.mark.parametrize("text", ["", "time_us\n"])
def test_gaps_rejects_a_file_without_the_trace_header(tmp_path, capsys, text):
    path = tmp_path / "trace.csv"
    path.write_text(text)
    assert main(["gaps", "--trace", str(path)]) == 2
    assert "not a trace file (bad or missing header)" in capsys.readouterr().err
