"""Equivalence battery: write a fixed set of wpansim outputs, print one sha256.

The digest covers the path and the bytes of every file written, so a change
that leaves it as it was changed no output the battery reaches.  It is the
one pin of these outputs: no test keeps a second table of their digests.
Every run the battery builds (each `run`, each `sweep` level and each
`compare` arm) must also pass `util_props.check_invariants`; the first run
that raises or fails a check stops the battery with the group's name.

Fast part (about 3 s):
- `sweep` on the default scenario and `run` on the contention scenario, at
  seeds 1-5;
- the paper's outputs, at default.scenario's own seed 42: `run`, `sweep` and
  `compare` (`run_default_s42`, `sweep_default_s42`, `compare_default_s42`);
- each compare arm of the contention scenario as its own `run`
  (`arm_contention_{broadcast,scan}_{tpc,fixed}`, built by
  `harness.arm_config`).  Their digests were first recorded before the
  stationary-pair link cache existed, so they pin its output to the uncached
  computation;
- `run` on `util_props.random_scenario` 0-299, and on 5811, 8120 and 9266,
  the only indices in 3000-12999 whose trace moves when the channel drops a
  finished frame that a later collision check still needs;
- `run` on `tests/data/hidden_pair.scenario` at seeds 1-5, which makes such
  collisions by design;
- `run` on `random_scenario` 0-59 with a 70 ms probe window and a 30 ms scan
  poll timeout, so that the two handover timers differ (every other battery
  scenario uses 50 ms for both);
- six runs aimed at code no other group reaches:
  `tests/data/lone_scan_mobile.scenario` (every scan fails with
  "no_known_nodes", and the retry timer restarts some of them),
  the default scenario on 868 MHz with beacons, where a broadcast probe
  meets a beacon on air with no CCA left (`run_default_probe_cca_fail`),
  the contention scenario without its mobile (`run_contention_no_mobile`),
  the default scenario with `duration = 0 s` (`run_default_0s`), the
  default scenario with the mobile parked at 15 m from 10 s on
  (`run_default_past_last_waypoint`) and the default scenario with the
  mobile jumping out of range at 7.5 m, where TPC has lowered its power,
  so the handover fails and resets it to the top level
  (`run_default_jump_out_of_range`);
- `calibrate` on `tests/data/uncalibrated.scenario` (a search), on the
  default scenario (already on target: the early exit) and on
  `util_props.detuned_scenario` (n 2.0, pl0 40 dB, sensitivity -90 dBm,
  stationary nodes at 0/7/14 m) for two target pairs.

`--full` adds:
- `compare` on both scenarios at seeds 1, 42 and 99 (the default scenario's
  seed 42 is in the fast part);
- `compare` on both scenarios with every node sleeping when idle, and with
  no node sleeping;
- `run` on `random_scenario` 300-2999.

Usage: python tools/battery.py [--full] [--manifest]
       python tools/battery.py --diff OLD NEW

`--manifest` prints one `<sha256>  <group>` line per top-level output
directory (`sweep_default_s1`, `random_17`, ...), each hashed as the digest
hashes the whole tree, in place of the one digest.  `--diff` reads two saved
manifests, prints `changed`, `added` or `removed` and the group for each
group that differs between them, and exits 1 if there is any, 0 if there is
none.  A manifest it cannot read, a line of one that is not
`<sha256>  <group>`, or a group listed twice is named on stderr with exit 2.  So when a change moves
the digest, the manifests of the two checkouts name the outputs it moved.

The files go to a temporary directory, removed afterwards; to keep them for
diffing, call `write_fast(path)` or `write_full(path)` from Python.  Only the
standard library and the checkout's own `src/` and `tests/` are used.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _path in (str(ROOT / "tests"), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from util_props import check_invariants, detuned_scenario, random_scenario  # noqa: E402
from wpansim.cli import default_scenario_path  # noqa: E402
from wpansim.calibration import CalibrationTargets  # noqa: E402
from wpansim.harness import (arm_config, calibrate, compare, run_simulation,  # noqa: E402
                             sweep)
from wpansim.phy import B868  # noqa: E402
from wpansim.scenario import Trajectory  # noqa: E402
from wpansim.scenario_file import load_scenario  # noqa: E402

CONTENTION = ROOT / "tests" / "data" / "contention.scenario"
HIDDEN_PAIR = ROOT / "tests" / "data" / "hidden_pair.scenario"
UNCALIBRATED = ROOT / "tests" / "data" / "uncalibrated.scenario"
LONE_SCAN_MOBILE = ROOT / "tests" / "data" / "lone_scan_mobile.scenario"
DETUNED_TARGETS = (CalibrationTargets(gap1=(1.5, 3.5), gap2=(11.5, 13.5)),
                   CalibrationTargets(gap1=(2.5, 4.5), gap2=(10.5, 12.5)))


def _scenarios():
    return {"default": load_scenario(default_scenario_path()),
            "contention": load_scenario(CONTENTION)}


def _checked(group: str, build) -> None:
    """Build a group's runs and check the MAC invariants of each; the first
    run that raises or breaks an invariant stops the battery, naming the
    group."""
    try:
        for run in build():
            check_invariants(run)
    except Exception as exc:
        raise AssertionError(f"{group}: {exc}") from exc


def _run(cfg, out: Path) -> None:
    _checked(out.name, lambda: [run_simulation(cfg, out)])


def _sweep(cfg, out: Path) -> None:
    _checked(out.name, lambda: (level.run for level in sweep(cfg, outdir=out).levels))


def _compare(cfg, out: Path) -> None:
    _checked(out.name, lambda: (arm.run for arm in compare(cfg, out).arms.values()))


def write_fast(out: Path) -> None:
    scenarios = _scenarios()
    default, contention = scenarios["default"], scenarios["contention"]
    hidden_pair = load_scenario(HIDDEN_PAIR)
    for seed in range(1, 6):
        _sweep(default.clone(seed=seed), out / f"sweep_default_s{seed}")
        _run(contention.clone(seed=seed), out / f"run_contention_s{seed}")
        _run(hidden_pair.clone(seed=seed), out / f"run_hidden_pair_s{seed}")
    # The paper's outputs: default.scenario at its own seed, 42.
    _run(default, out / "run_default_s42")
    _sweep(default, out / "sweep_default_s42")
    _compare(default, out / "compare_default_s42")
    for mode in ("broadcast", "scan"):
        for tpc in (True, False):
            _run(arm_config(contention, mode, tpc),
                 out / f"arm_contention_{mode}_{'tpc' if tpc else 'fixed'}")
    for index in (*range(300), 5811, 8120, 9266):
        _run(random_scenario(index), out / f"random_{index}")
    for index in range(60):
        cfg = random_scenario(index)
        cfg.handover.probe_window_us = 70_000
        cfg.handover.scan_response_timeout_us = 30_000
        _run(cfg, out / f"random_timers_{index}")
    _run(load_scenario(LONE_SCAN_MOBILE), out / "run_lone_scan_mobile")
    no_mobile = contention.clone()
    no_mobile.nodes = no_mobile.stationary_nodes()
    _run(no_mobile, out / "run_contention_no_mobile")
    no_time = default.clone()
    no_time.duration_us = 0
    _run(no_time, out / "run_default_0s")
    parked = default.clone()
    parked.trajectory = Trajectory([(0.0, 0.0, 0), (15.0, 0.0, 10_000_000)])
    _run(parked, out / "run_default_past_last_waypoint")
    jump = default.clone()
    jump.duration_us = 3_500_000
    jump.trajectory = Trajectory([(0.0, 0.0, 0), (7.5, 0.0, 3_000_000),
                                  (200.0, 0.0, 3_000_001)])
    _run(jump, out / "run_default_jump_out_of_range")
    # max_csma_backoffs = 1: the first busy CCA ends a send.  At 868 MHz a
    # beacon is on air for 7.6 ms of every 48 ms (beacon_order = 0), and data
    # is due at the instant each beacon starts.  Out of range, each handover
    # fails and the next data tick starts one; from 200 ms on the mobile
    # hears node 1, and its probes fail with "probe_cca_fail".
    busy = default.clone()
    busy.band, busy.channel = B868, 0
    busy.duration_us = 500_000
    busy.csma.max_csma_backoffs = 1
    busy.mac.beacon_order = 0
    busy.traffic.period_us = 48_000
    busy.trajectory = Trajectory([(500.0, 0.0, 0), (500.0, 0.0, 200_000),
                                  (0.0, 0.0, 200_001)])
    _run(busy, out / "run_default_probe_cca_fail")
    calibrate(load_scenario(UNCALIBRATED), out / "calibrate_uncalibrated")
    calibrate(default, out / "calibrate_default")
    detuned = detuned_scenario()
    for index, targets in enumerate(DETUNED_TARGETS):
        calibrate(detuned, out / f"calibrate_detuned_{index}", targets)


def write_full(out: Path) -> None:
    write_fast(out)
    for name, cfg in _scenarios().items():
        # compare_default_s42 is in the fast part.
        seeds = (1, 99) if name == "default" else (1, 42, 99)
        variants = {f"s{seed}": cfg.clone(seed=seed) for seed in seeds}
        for sleeps in (True, False):
            variant = cfg.clone()
            for node in variant.nodes:
                node.sleep_when_idle = sleeps
            variants["all_sleep" if sleeps else "none_sleep"] = variant
        for tag, variant in variants.items():
            _compare(variant, out / f"compare_{name}_{tag}")
    for index in range(300, 3000):
        _run(random_scenario(index), out / f"random_{index}")


def digest(out: Path) -> str:
    """sha256 over every file under out: its relative path, size and bytes."""
    h = hashlib.sha256()
    for rel in sorted(p.relative_to(out).as_posix()
                      for p in out.rglob("*") if p.is_file()):
        data = (out / rel).read_bytes()
        h.update(f"{rel}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def manifest(out: Path) -> list[str]:
    """`<sha256>  <group>` per top-level directory of out, by name."""
    return [f"{digest(group)}  {group.name}"
            for group in sorted(out.iterdir()) if group.is_dir()]


class ManifestError(ValueError):
    """A manifest line that is not `<sha256>  <group>`, or repeats a group."""


def _groups(lines: list[str], source: str) -> dict[str, str]:
    """group -> sha256 of a manifest's lines; `source` names it in errors."""
    groups = {}
    for number, line in enumerate(lines, 1):
        fields = line.split()
        if len(fields) != 2:
            raise ManifestError(
                f"{source}:{number}: expected '<sha256>  <group>', got {line!r}")
        sha, group = fields
        if group in groups:
            raise ManifestError(f"{source}:{number}: group {group!r} listed twice")
        groups[group] = sha
    return groups


def diff(old: list[str], new: list[str],
         sources: tuple[str, str] = ("old", "new")) -> list[str]:
    """`changed|added|removed  <group>` per group that differs between two
    manifests, by group name; `sources` names them in a ManifestError."""
    before, after = (_groups(lines, source) for lines, source in zip((old, new), sources))
    out = []
    for group in sorted(before.keys() | after.keys()):
        if group not in after:
            out.append(f"removed  {group}")
        elif group not in before:
            out.append(f"added  {group}")
        elif before[group] != after[group]:
            out.append(f"changed  {group}")
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--full", action="store_true", help="run the full battery")
    ap.add_argument("--manifest", action="store_true",
                    help="print a sha256 per output group, not the one digest")
    ap.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"),
                    help="list the groups that differ between two saved "
                         "manifests; exit 1 if any does, 2 on an unreadable one")
    args = ap.parse_args(argv)
    if args.diff:
        try:
            old, new = (Path(path).read_text().splitlines() for path in args.diff)
            changes = diff(old, new, tuple(args.diff))
        except (OSError, ManifestError) as exc:
            print(f"battery.py --diff: {exc}", file=sys.stderr)
            return 2
        for line in changes:
            print(line)
        return 1 if changes else 0
    write = write_full if args.full else write_fast
    with tempfile.TemporaryDirectory() as tmp:
        write(Path(tmp))
        print("\n".join(manifest(Path(tmp))) if args.manifest else digest(Path(tmp)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
