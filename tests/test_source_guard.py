"""Source guard: only trace.py spells or parses outcome text, and only
phy.py compares a power with the receiver sensitivity.

Readers use a record's typed `detail` and the TraceKind, FrameKind and
SendOutcome constants; the hot-path kinds are plain class attributes, not
Enum members.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "wpansim"

# (pattern, what it means, files it is allowed in)
RULES = [
    (r"outcome\.split", "parses outcome text", ()),
    (r"event_kind\s*(==|!=)\s*[rbuf]?[\"']|[\"']\s*(==|!=)\s*[\w.]*event_kind",
     "compares event_kind with a string literal", ()),
    (r"event_kind\s+(not\s+)?in\s*[(\[{]\s*[rbuf]?[\"']",
     "tests event_kind against string literals", ()),
    (r"\b(delay|nb|retry|level|trigger|parent|latency_us)=",
     "spells an outcome prefix", ("trace.py",)),
    (r"\bFRAME_KIND_TEXT\b", "keeps a frame-kind text table", ()),
    (r"(<=?|>=?|==|!=)\s*[\w.]*\brx_sensitivity_dbm\b|"
     r"\brx_sensitivity_dbm\s*(<|>|==|!=)",
     "compares with the sensitivity instead of calling phy.heard", ("phy.py",)),
]
ENUM_FREE = ("engine.py", "mac.py")


def _violations(name: str, text: str) -> list[str]:
    found = [f"{name}: {meaning}" for pattern, meaning, allowed in RULES
             if name not in allowed and re.search(pattern, text)]
    if name in ENUM_FREE and re.search(r"^\s*(from enum import|import enum)",
                                       text, re.M):
        found.append(f"{name}: imports enum")
    return found


def test_only_trace_py_knows_the_outcome_text():
    sources = sorted(SRC.glob("*.py"))
    assert {"trace.py", "engine.py", "mac.py", "coverage.py"} <= \
        {p.name for p in sources}
    found = [v for p in sources for v in _violations(p.name, p.read_text())]
    assert found == []


def test_the_guard_catches_the_old_spellings():
    old = [
        ("coverage.py", 'parent = int(r.outcome.split(";")[0].split("=")[1])'),
        ("sim.py", 'if r.event_kind == "MOVE":'),
        ("net.py", "elif r.event_kind in ('OUTAGE_LOSS', 'HANDOVER_FAIL'):"),
        ("mac.py", 'self.sim.emit(node, kind, outcome=f"delay={delay}")'),
        ("engine.py", "from enum import Enum"),
        ("harness.py", "FRAME_KIND_TEXT[frame.kind]"),
        ("sim.py", "if not rx_power > phy.rx_sensitivity_dbm:"),
        ("mac.py", "if self.params.rx_sensitivity_dbm < rx:"),
        ("net.py", "if rx >= params.rx_sensitivity_dbm:"),
    ]
    for name, line in old:
        assert _violations(name, line), (name, line)
    assert _violations("trace.py", 'TraceKind.BACKOFF: _field("delay=", int)') == []
    assert _violations("phy.py", "return rx_dbm > params.rx_sensitivity_dbm") == []
    assert _violations("calibration.py",
                       "out.phy.rx_sensitivity_dbm = result.rx_sensitivity_dbm") == []


def test_importing_the_package_loads_no_dataclasses_or_inspect():
    # The records are plain classes: `@dataclass` would import `inspect`
    # and compile each record's methods on every start of a command.  They
    # copy themselves (Record.copy), so `copy` stays out too.
    code = ("import sys, wpansim, wpansim.harness, wpansim.cli; "
            "print(sorted({'copy', 'dataclasses', 'inspect'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "[]"
