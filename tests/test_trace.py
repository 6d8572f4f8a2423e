"""The streamed trace writer against the reference row formatter."""

from wpansim.trace import HEADER, WRITE_CHUNK_ROWS, TraceRecord, write_trace


def _reference_bytes(rows):
    return (HEADER + "\n" + "".join(r.to_csv() + "\n" for r in rows)).encode("ascii")


def test_write_trace_matches_to_csv_byte_for_byte(tmp_path):
    positions = [-0.0, 0.0, 1.25, 1.25, -0.0, 0.004, -0.004, 0.0, 1.25]
    rx_powers = [None, -0.04, 0.04, -0.0, 0.0, -0.04, -71.25, -71.25, None]
    powers = [None, 0.0, -0.0, 4.0, 4.0, None, -0.04, 6.0, 0.0]
    rows = [TraceRecord(time_us=10 * k, node_id=k % 3, event_kind="RX",
                        frame_kind="data", src=1, dst=None, seq=k,
                        power_dbm=p, rx_power_dbm=rx, lq=k if k % 2 else None,
                        pos_x_m=x, outcome="" if k % 2 else "o")
            for k, (x, rx, p) in enumerate(zip(positions, rx_powers, powers))]
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


def test_write_trace_empty_is_header_only(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace(path, [])
    assert path.read_bytes() == _reference_bytes([])
