"""The fast part of tools/battery.py, pinned.

Any change to an output the fast battery writes moves this digest.  The full
battery's digest is pinned in CI.  A change that moves either names, in
CHANGES.md, the output that changed and why.
"""

import importlib.util
from pathlib import Path

BATTERY = Path(__file__).resolve().parent.parent / "tools" / "battery.py"

FAST_DIGEST = "053db87d784bd23a7772fae462abdb62a4a5a2049c58bab654496c630e271cad"


def _battery():
    spec = importlib.util.spec_from_file_location("battery", BATTERY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fast_battery_digest_is_pinned(tmp_path):
    battery = _battery()
    battery.write_fast(tmp_path)
    assert battery.digest(tmp_path) == FAST_DIGEST
