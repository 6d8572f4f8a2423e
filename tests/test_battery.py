"""The fast part of tools/battery.py, pinned group by group.

`data/battery_fast.manifest` holds one sha256 per output group the fast
battery writes, so any change to one of its outputs fails the pin, and the
failure names the groups that moved.  The full battery's digest is pinned in
CI.  A change that moves either names, in CHANGES.md, the output that
changed and why; `python tools/battery.py --manifest` prints the new pin.
"""

import importlib.util
from pathlib import Path

BATTERY = Path(__file__).resolve().parent.parent / "tools" / "battery.py"
FAST_MANIFEST = Path(__file__).resolve().parent / "data" / "battery_fast.manifest"


def _battery():
    spec = importlib.util.spec_from_file_location("battery", BATTERY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fast_battery_manifest_is_pinned(tmp_path):
    battery = _battery()
    battery.write_fast(tmp_path)
    # A top-level file would be in no group, so in no line of the manifest.
    assert [path.name for path in tmp_path.iterdir() if not path.is_dir()] == []
    pinned = FAST_MANIFEST.read_text().splitlines()
    got = battery.manifest(tmp_path)
    assert got == pinned, "\n".join(battery.diff(pinned, got))


def test_manifest_diff_names_only_the_groups_that_moved(tmp_path, capsys):
    battery = _battery()
    for tree in ("old", "new"):
        for group, text in (("run_a", "1\n"), ("run_b", "2\n"), ("sweep_c", "3\n")):
            path = tmp_path / tree / group / "power_0dBm" / "trace.csv"
            path.parent.mkdir(parents=True)
            path.write_text(text)
    (tmp_path / "new" / "run_b" / "power_0dBm" / "trace.csv").write_text("2.0\n")
    saved = []
    for tree in ("old", "new"):
        lines = battery.manifest(tmp_path / tree)
        assert [line.split("  ") for line in lines] == [
            [battery.digest(tmp_path / tree / group), group]
            for group in ("run_a", "run_b", "sweep_c")]
        saved.append(tmp_path / f"{tree}.manifest")
        saved[-1].write_text("\n".join(lines) + "\n")
    assert battery.main(["--diff", *map(str, saved)]) == 1
    assert capsys.readouterr().out == "changed  run_b\n"
    assert battery.main(["--diff", str(saved[0]), str(saved[0])]) == 0
    assert capsys.readouterr().out == ""
    old = saved[0].read_text().splitlines()
    assert battery.diff(old[1:], old[:2]) == ["added  run_a", "removed  sweep_c"]
    # A line that is not `<sha256>  <group>` used to end in a ValueError
    # traceback, exit 1, as if the groups differed.
    # A group listed twice used to keep its last sha256 unremarked.
    for number, bad, says in ((2, "", "expected '<sha256>  <group>'"),
                              (3, f"{old[2]}  extra", "expected '<sha256>  <group>'"),
                              (3, old[0], "group 'run_a' listed twice")):
        malformed = tmp_path / "malformed.manifest"
        lines = old[:number - 1] + [bad] + old[number:]
        malformed.write_text("\n".join(lines) + "\n")
        assert battery.main(["--diff", str(saved[0]), str(malformed)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{malformed}:{number}: {says}" in captured.err
    assert battery.main(["--diff", str(saved[0]), str(tmp_path / "missing")]) == 2
    assert "missing" in capsys.readouterr().err
