#!/usr/bin/env python3
"""wpansim benchmark: three workloads, end-to-end and per-layer metrics.

    python3 wpbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
                           [--results FILE] [--against FILE]
    python3 wpbench/run.py --check-wrappers

Run from the root of a source checkout; the package is imported from
./src.  Each workload runs in its own fresh interpreter (worker.py).  With
--trace 0 a run reports the end-to-end metrics named in BENCHMARK.json;
set-up is repeated SETUP_RUNS times in fresh interpreters and its median
reported.  With --trace 1 it reports the per-layer metrics from a traced
copy of each op instead.  The last line of standard output is one JSON
object; the full results, with the environment, go to --results.

--against FILE prints, per workload, the change of every metric against an
earlier results file, flags end-to-end metrics worse than their bound in
BENCHMARK.json and flags a changed output digest on the same seed.
--check-wrappers replays two reference cases under the tracer and compares
the call counts with WRAPPER_REFERENCE; it exits with 1 on a difference.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("sweep_default", "contention_compare", "calibrate_detuned")
SETUP_RUNS = 5
# Host times are reported scaled to a host on which worker.reference_s()
# takes this long: each op's time is multiplied by REFERENCE_MS over the
# loop's time measured right before and after it.  Raw times are kept in
# the results file.
REFERENCE_MS = 15.0
# A run has to end within 180 s; a worker still running by then is killed.
RUN_DEADLINE_S = 170.0
# Link-budget calls and TX_START rows of the seed-42 default run, and
# repeated radius triples and best_layout calls of the detuned search with
# the default targets, counted at the commit that added this benchmark.
WRAPPER_REFERENCE = {"link_budget_calls": 3446, "tx_starts": 432,
                     "radius_repeats": 1133, "best_layout_calls": 1903}


def _fail(msg: str) -> int:
    print(f"wpbench: {msg}", file=sys.stderr)
    return 2


def _spawn(args: list[str], deadline: float) -> dict:
    """Run worker.py with args and return the JSON object it prints last."""
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), *args],
                          cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout,
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten values beyond it, and its value."""
    ordered = sorted(values)
    k = len(ordered) - 11
    if k < 0:
        raise ValueError(f"{len(values)} ops are too few for a tail percentile")
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 deadline: float) -> dict:
    tmp = BENCH_DIR / "tmp"
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
              "--trace", str(trace)]
    setups = []
    if not trace:
        for k in range(SETUP_RUNS - 1):
            out = _spawn([*common, "--setup-only",
                          "--tmp", str(tmp / f"{name}-{os.getpid()}-setup{k}")], deadline)
            setups.append(out["setup_s"] / out["setup_ref_s"] * REFERENCE_MS / 1e3)
    results_dir = BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    extra = (["--span-log", str(results_dir / f"spans_{name}_seed{seed}.csv")]
             if trace else [])
    out = _spawn([*common, "--tmp", str(tmp / f"{name}-{os.getpid()}"), *extra],
                 deadline)
    setups.append(out["setup_s"] / out["setup_ref_s"] * REFERENCE_MS / 1e3)

    op_ms = [s / r * REFERENCE_MS for s, r in zip(out["op_s"], out["ref_s"])]
    metrics: dict[str, dict] = {}

    def put(metric: str, value: float, unit: str) -> None:
        metrics[metric] = {"value": value, "unit": unit}

    if trace:
        from tracer import PER_LAYER
        for metric, value in out["per_layer"].items():
            put(metric, value, PER_LAYER[metric][0])
    else:
        put("op_ms_p50", statistics.median(op_ms), "ms")
        percentile, tail = _tail(op_ms)
        put("op_ms_tail", tail, "ms")
        put("peak_rss_mb", out["peak_rss_mb"], "MiB")
        put("setup_s", statistics.median(setups), "s")
        if any(out["events"]):
            put("sim_events_per_s", statistics.median(
                e / ms * 1e3 for e, ms in zip(out["events"], op_ms)), "1/s")
        put("failed_ops", out["failed"] / out["attempted"], "share")
        put("op_ms_p50_raw", statistics.median(out["op_s"]) * 1e3, "ms")
        put("reference_ms_p50", statistics.median(out["ref_s"]) * 1e3, "ms")
    return {
        "seed": seed,
        "trace": trace,
        "metrics": metrics,
        "tail": None if trace else {"percentile": percentile, "samples": len(op_ms)},
        "correct": out["failed"] == 0 and out["early_exit_ok"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "problems": out["problems"],
        "digest": out["digest"],
        "digest_ops": out["digest_ops"],
        "early_exit_ok": out["early_exit_ok"],
        "backend": out["backend"],
        "setup_samples_s": setups,
        "op_ms": op_ms,
        "op_ms_raw": [s * 1e3 for s in out["op_s"]],
        "reference_ms": [r * 1e3 for r in out["ref_s"]],
        "traced_op_ms": [s * 1e3 for s in out.get("traced_s", [])],
        "sim": out["sim"],
        "missing_targets": out.get("missing_targets", []),
    }


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int, results: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "kernel_backend": sorted({r["backend"] for r in results.values()}),
        "git_sha": _git_sha(),
        "seed": seed,
        "ops_per_run": {name: r["attempted"] for name, r in results.items()},
    }


def _load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def against(old_path: Path, new: dict, bench: dict) -> None:
    old = json.loads(old_path.read_text())
    bounds = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["per_layer"]}
    print(f"\nagainst {old_path} (git {old['env']['git_sha'][:12]}, "
          f"seed {old['env']['seed']}):")
    for name, run in new["workloads"].items():
        prev = old["workloads"].get(name)
        if prev is None:
            print(f"  {name}: not in {old_path}")
            continue
        for metric, cur in run["metrics"].items():
            if metric not in prev["metrics"]:
                continue
            a, b = prev["metrics"][metric]["value"], cur["value"]
            delta = (b - a) / a if a else 0.0
            flag = ""
            if metric in bounds:
                direction, bound = bounds[metric]
                worse = delta if direction == "lower" else -delta
                if worse > bound:
                    flag = f"  OUTSIDE BOUND ({bound:.0%})"
            elif metric in better and a != b:
                flag = f"  ({better[metric]} is better)"
            print(f"  {name:20s} {metric:38s} {a:14.6g} -> {b:14.6g} "
                  f"{cur['unit']:8s} {delta:+8.2%}{flag}")
        if prev["seed"] == run["seed"] and prev["digest"] and run["digest"]:
            same = prev["digest"] == run["digest"]
            print(f"  {name:20s} digest {'identical' if same else 'MISMATCH'}: "
                  f"{prev['digest'][:16]} -> {run['digest'][:16]}")
        else:
            print(f"  {name:20s} digest not comparable (different seed or missing)")


def check_wrappers() -> int:
    """Replay the reference cases traced and compare the call counts."""
    sys.path[:0] = [str(ROOT / "src")]
    import tracer as tracing
    import workloads
    from wpansim import calibration, harness, scenario_file

    tr = tracing.Tracer()
    cfg = scenario_file.load_scenario(workloads.DEFAULT_SCENARIO)
    tr.install()
    try:
        run = harness.run_simulation(cfg, seed=42)
        link_calls = tr.calls("phy.link_rx_power")
        calibration.search(workloads.detuned_scenario(), calibration.CalibrationTargets())
    finally:
        tr.uninstall()
    got = {"link_budget_calls": link_calls,
           "tx_starts": sum(r.event_kind == "TX_START" for r in run.rows),
           "radius_repeats": tr.notes["radius_repeats"],
           "best_layout_calls": tr.calls("calibration.best_layout")}
    for key, want in WRAPPER_REFERENCE.items():
        print(f"{key:20s} {got[key]:6d}  reference {want:6d}"
              f"{'' if got[key] == want else '  DIFFERS'}")
    if tr.missing:
        print(f"not found, so not traced: {', '.join(tr.missing)}")
    return 0 if got == WRAPPER_REFERENCE and not tr.missing else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", type=Path,
                    help="results file (default wpbench/results/<workload>_seed<n>"
                         "_trace<t>.json)")
    ap.add_argument("--against", type=Path, help="earlier results file to compare with")
    ap.add_argument("--check-wrappers", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(BENCH_DIR))
    if not (ROOT / "src" / "wpansim" / "__init__.py").is_file():
        return _fail(f"no wpansim package under {ROOT / 'src'}; run from a source checkout")
    if args.check_wrappers:
        return check_wrappers()
    if args.workload is None:
        return _fail("--workload is required")
    try:
        bench = _load_benchmark()
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        deadline = time.monotonic() + RUN_DEADLINE_S
        try:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace,
                                         deadline)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            return _fail(f"{name}: {exc}")
    doc = {"env": environment(args.seed, results), "workloads": results}

    listed = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    final = {}
    for name, run in results.items():
        print(f"{name} (seed {args.seed}, {run['attempted']} ops, "
              f"{'correct' if run['correct'] else 'INCORRECT'}, "
              f"digest {run['digest']})")
        for metric, m in run["metrics"].items():
            note = ""
            if metric == "op_ms_tail":
                note = (f"  (p{run['tail']['percentile']:.1f} of "
                        f"{run['tail']['samples']} ops)")
            print(f"  {metric:38s} {m['value']:14.6g} {m['unit']}{note}")
        for problem in run["problems"]:
            print(f"  problem: {problem}")
        missing = [metric for metric in listed if metric not in run["metrics"]]
        if missing:
            return _fail(f"{name}: BENCHMARK.json lists metrics not measured: {missing}")
        prefix = f"{name}." if len(results) > 1 else ""
        final.update({prefix + metric: run["metrics"][metric] for metric in listed})

    path = args.results or (BENCH_DIR / "results" /
                            f"{args.workload}_seed{args.seed}_trace{args.trace}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"results: {path}")
    if args.against is not None:
        against(args.against, doc, bench)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": final,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
