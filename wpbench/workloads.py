"""The benchmark's three workloads: seeded inputs, one op each, output checks.

Every workload is driven through the public entry points only
(`harness.sweep`, `harness.compare`, `calibration.search`, and
`scenario_file` for loading), looked up as module attributes at call time
so that the traced run sees the same calls.  The package receives nothing
but the scenarios generated here from the workload seed.

Why each workload exists:

- sweep_default: the paper's headline experiment, long single-mobile runs
  on an almost idle channel.  Most links involve the moving node, so link
  budgets rarely repeat: the low-reuse case for any per-pair cache.
- contention_compare: eight stationary listeners, beacons, 20 ms data and
  both handover modes.  Stationary-to-stationary links repeat: the
  high-reuse case.  The MAC channel checks, link budget, handover/TPC and
  the energy ledger carry the load; coverage and calibration do no work.
- calibrate_detuned: the CPU hot loop that processes no events.  All of the
  time is in calibration and its best_layout kernel.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from pathlib import Path

import wpansim
from wpansim import calibration, coverage, harness, scenario_file

DEFAULT_SCENARIO = Path(wpansim.__file__).parent / "data" / "default.scenario"

SWEEP_POWERS = (0.0, 2.0, 3.0, 4.0, 5.0, 6.0)

# Contention scenario: default.scenario with eight stationary nodes.
CONTENTION_STATIONARY = 8
CONTENTION_SPAN_M = (-1.5, 16.5)
CONTENTION_JITTER_M = 0.5
CONTENTION_KEYS = (
    ("mac", "beacon_order", "1"),
    ("traffic", "period", "20 ms"),
    ("traffic", "payload", "60 B"),
    ("run", "duration", "15 s"),
)
# Distinct contention scenarios generated at set-up; ops cycle through them.
CONTENTION_POOL = 16

# Calibration targets: every pairing of these gap1 and gap2 boundaries.
GAP1_CHOICES = ((1.5, 3.5), (2.0, 4.0), (2.5, 4.5))
GAP2_CHOICES = ((10.5, 12.5), (11.0, 13.0), (11.5, 13.5))

# default.scenario's own constants, which calibration must accept as is.
DEFAULT_FIT = (3.5, 54.0, -73.0, (-1.5, 7.5, 16.5))


def _digest_dir(outdir: Path) -> str:
    """sha256 over the names and bytes of every file under outdir."""
    h = hashlib.sha256()
    for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
        h.update(path.relative_to(outdir).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _within(got, want, tol: float) -> bool:
    """Gap lists agree pairwise within tol on every boundary."""
    eps = 1e-9
    return len(got) == len(want) and all(
        abs(g[0] - w[0]) <= tol + eps and abs(g[1] - w[1]) <= tol + eps
        for g, w in zip(got, want))


def run_stats(runs) -> dict[str, int]:
    """Counts of one op's simulation runs, used for ratios and sanity."""
    s = dict.fromkeys(("runs", "events", "scheduled", "cancelled", "unprocessed",
                       "tx_starts", "collisions", "retries", "tpc_changes",
                       "delivered", "resolved", "handovers", "latency_us"), 0)
    for run in runs:
        summ = run.summary
        s["runs"] += 1
        s["events"] += summ.total_processed
        s["scheduled"] += summ.scheduled
        s["cancelled"] += summ.cancelled
        s["unprocessed"] += summ.unprocessed
        for row in run.rows:
            kind = row.event_kind
            if kind == "TX_START":
                s["tx_starts"] += 1
            elif kind == "COLLISION":
                s["collisions"] += 1
            elif kind == "TPC_SET":
                s["tpc_changes"] += 1
            elif kind == "ACK_TIMEOUT" and row.outcome.startswith("retry="):
                s["retries"] += 1
        t = run.traffic_stats
        if t is not None:
            s["delivered"] += t.delivered
            s["resolved"] += t.delivered + t.no_ack + t.cca_fail + t.outage_losses
        h = run.handover_stats
        if h is not None:
            s["handovers"] += len(h.latencies_us)
            s["latency_us"] += sum(h.latencies_us)
    return s


class SweepDefault:
    """One op: harness.sweep over 0/2/3/4/5/6 dBm on default.scenario."""

    name = "sweep_default"
    digest_ops = 4
    reference = "alloc"  # host-speed loop in worker.py that resembles the op

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.cfg = scenario_file.load_scenario(DEFAULT_SCENARIO)

    def key(self, i: int) -> int:
        """Scenario seed of op i, drawn from the workload seed."""
        return random.Random(f"{self.seed}/{i}").randrange(1, 2**31)

    def op(self, i: int, outdir: Path):
        self.cfg.seed = self.key(i)
        return harness.sweep(self.cfg, powers=SWEEP_POWERS, outdir=outdir)

    def runs(self, result):
        return [lv.run for lv in result.levels]

    def check(self, i: int, result, outdir: Path) -> tuple[list[str], str]:
        problems = []
        if result.optimal_dbm != 4.0:
            problems.append(f"optimal level {result.optimal_dbm} dBm, want 4")
        gaps = result.level(0.0).report.gaps
        if not _within(gaps, [(2.0, 4.0), (11.0, 13.0)], 0.5):
            problems.append(f"0 dBm gaps {gaps} not within 0.5 m of (2,4) (11,13)")
        return problems, _digest_dir(outdir)


def _set_key(text: str, section: str, key: str, value: str) -> str:
    lines = text.splitlines()
    current, hits = None, 0
    for n, line in enumerate(lines):
        stripped = line.strip()
        if stripped.startswith("["):
            current = stripped[1:stripped.index("]")]
        elif current == section and stripped.split("=")[0].strip() == key:
            lines[n] = f"{key} = {value}"
            hits += 1
    if hits != 1:
        raise ValueError(f"[{section}] {key}: {hits} lines in default.scenario, want 1")
    return "\n".join(lines) + "\n"


def contention_scenario(default_text: str, rng: random.Random) -> str:
    """default.scenario with eight jittered stationary nodes and heavier traffic."""
    lines, in_node = [], False
    for line in default_text.splitlines():
        stripped = line.strip()
        if stripped.startswith("["):
            in_node = stripped.startswith("[node ")
        if not in_node:
            lines.append(line)
    lo, hi = CONTENTION_SPAN_M
    step = (hi - lo) / (CONTENTION_STATIONARY - 1)
    for n in range(CONTENTION_STATIONARY):
        x = lo + n * step + rng.uniform(-CONTENTION_JITTER_M, CONTENTION_JITTER_M)
        role = "coordinator" if n == 0 else "router"
        lines += ["", f"[node {n + 1}]", f"role = {role}", "class = stationary",
                  f"x = {x:.3f} m", "y = 0 m"]
    lines += ["", f"[node {CONTENTION_STATIONARY + 1}]", "role = end_device",
              "class = mobile"]
    text = "\n".join(lines) + "\n"
    for section, key, value in CONTENTION_KEYS:
        text = _set_key(text, section, key, value)
    return _set_key(text, "run", "seed", str(rng.randrange(1, 2**31)))


class ContentionCompare:
    """One op: harness.compare (four arms) on a generated contention scenario."""

    name = "contention_compare"
    digest_ops = 2
    reference = "alloc"

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        default_text = DEFAULT_SCENARIO.read_text(encoding="utf-8")
        self.pool = [scenario_file.parse_scenario(contention_scenario(default_text, rng),
                                                  source=f"contention-{seed}-{k}")
                     for k in range(CONTENTION_POOL)]

    def key(self, i: int) -> int:
        return i % CONTENTION_POOL

    def op(self, i: int, outdir: Path):
        return harness.compare(self.pool[self.key(i)], outdir=outdir)

    def runs(self, result):
        return [arm.run for arm in result.arms.values()]

    def check(self, i: int, result, outdir: Path) -> tuple[list[str], str]:
        problems = []
        if not result.latency_delta_s > 0:
            problems.append(f"latency delta {result.latency_delta_s} s not positive")
        if not result.energy_delta_pct > 0:
            problems.append(f"energy delta {result.energy_delta_pct} % not positive")
        for name, arm in result.arms.items():
            s = arm.run.summary
            if s.scheduled != s.total_processed + s.cancelled + s.unprocessed:
                problems.append(f"{name}: scheduled {s.scheduled} != processed "
                                f"{s.total_processed} + cancelled {s.cancelled} "
                                f"+ unprocessed {s.unprocessed}")
            duration = arm.run.cfg.duration_us
            for node_id, ledger in arm.run.ledgers.items():
                if ledger.total_time() != duration:
                    problems.append(f"{name}: node {node_id} ledger covers "
                                    f"{ledger.total_time()} us of {duration}")
        return problems, _digest_dir(outdir)


def detuned_scenario():
    """default.scenario with propagation constants and layout far off the fit."""
    cfg = scenario_file.load_scenario(DEFAULT_SCENARIO)
    cfg.phy.path_loss_exponent = 2.0
    cfg.phy.pl0_db = 40.0
    cfg.phy.rx_sensitivity_dbm = -90.0
    for n, node in enumerate(cfg.stationary_nodes()):
        node.x = 7.0 * n
    return cfg


class CalibrateDetuned:
    """One op: calibration.search on the detuned scenario, targets cycling."""

    name = "calibrate_detuned"
    digest_ops = len(GAP1_CHOICES) * len(GAP2_CHOICES)
    reference = "arith"

    def __init__(self, seed: int) -> None:
        self.cfg = detuned_scenario()
        self.targets = [calibration.CalibrationTargets(gap1=g1, gap2=g2)
                        for g1, g2 in itertools.product(GAP1_CHOICES, GAP2_CHOICES)]
        random.Random(seed).shuffle(self.targets)

    def key(self, i: int) -> int:
        return i % len(self.targets)

    def op(self, i: int, outdir: Path):
        return calibration.search(self.cfg, self.targets[self.key(i)])

    def runs(self, result):
        return []

    def check(self, i: int, result, outdir: Path) -> tuple[list[str], str]:
        targets = self.targets[self.key(i)]
        problems = []
        if not result.ok:
            problems.append("calibration.search returned ok = False")
        else:
            fitted = calibration.apply_to_config(self.cfg, result, targets)
            gaps = coverage.static_gap_oracle(fitted, targets.gap_level_dbm)
            if not _within(gaps, [targets.gap1, targets.gap2], targets.tolerance_m):
                problems.append(f"oracle gaps {gaps} at {targets.gap_level_dbm} dBm "
                                f"miss {targets.gap1} {targets.gap2}")
            if not coverage.static_gap_oracle(fitted, targets.must_gap_dbm):
                problems.append(f"no gap at {targets.must_gap_dbm} dBm")
            if coverage.static_gap_oracle(fitted, targets.gap_free_dbm):
                problems.append(f"gap left at {targets.gap_free_dbm} dBm")
        fields = (result.ok, result.path_loss_exponent, result.pl0_db,
                  result.rx_sensitivity_dbm, result.positions,
                  result.max_boundary_error_m, result.achieved_gaps,
                  result.range_at_gap_level_m)
        return problems, hashlib.sha256(repr(fields).encode()).hexdigest()


WORKLOADS = {w.name: w for w in (SweepDefault, ContentionCompare, CalibrateDetuned)}


def early_exit_problems() -> list[str]:
    """calibration.search must accept default.scenario's constants untouched."""
    cfg = scenario_file.load_scenario(DEFAULT_SCENARIO)
    result = calibration.search(cfg)
    got = (result.path_loss_exponent, result.pl0_db, result.rx_sensitivity_dbm,
           tuple(result.positions))
    problems = []
    if result.searched or not result.ok:
        problems.append(f"default.scenario: searched={result.searched} "
                        f"ok={result.ok}, want the early exit")
    if got != DEFAULT_FIT:
        problems.append(f"default.scenario: fit {got}, want {DEFAULT_FIT}")
    return problems
