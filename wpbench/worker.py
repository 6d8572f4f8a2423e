"""One workload in a fresh interpreter: set up, run ops in a closed loop, check.

Started by run.py, which reads the JSON object this prints as its last
line.  Set-up time runs from the first statement of this file until the
first op is ready: importing wpansim, loading or generating the scenarios
and creating the output directory.  With --setup-only the process stops
there and reports only that time.

One client, no threads: each op starts when the previous one has ended and
its output has been checked.  Op time is host time around the public entry
point only, which writes its files into a fresh directory as the CLI does.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import hashlib  # noqa: E402
import heapq  # noqa: E402
import math  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from wpansim import kernels  # noqa: E402

# Enough ops that the tail percentile, the highest with ten ops beyond it,
# is at least the median.
MIN_OPS = 20


# Time spent in the reference loop between two ops, as a share of the op.
REFERENCE_SHARE = 0.1


def _alloc_pass() -> None:
    """Heap, dict and string work, like the event loop and the trace."""
    heap: list = []
    counts: dict = {}
    rows: list = []
    acc = 0.0
    for i in range(12_000):
        heapq.heappush(heap, (i * 7919 % 1000, i))
        if len(heap) > 64:
            heapq.heappop(heap)
        k = i & 255
        counts[k] = counts.get(k, 0) + 1
        acc += math.log10(1 + (i & 63)) * 3.5
        if i & 3 == 0:
            rows.append(f"{i},{k},{acc:.1f}")


def _arith_pass() -> None:
    """A float loop with compares and no allocation, like the layout scoring."""
    best = 1e300
    for i in range(60):
        x2 = -3.0 + i * 0.5
        for j in range(1500):
            x1 = -3.0 + j * 0.01
            if x1 + 1.7 >= x2 - 1.7:
                continue
            s = abs(x1 + 1.7 - 2.0) + 1e-3 * ((x1 + 2.2) - (x2 - 2.2))
            if s < best:
                best = s


REFERENCE_PASSES = {"alloc": _alloc_pass, "arith": _arith_pass}


def reference_s(kind: str, reps: int = 1) -> float:
    """Mean host time of `reps` passes of a fixed pure-Python reference loop.

    The loops share no code with wpansim.  The speed of a shared host drifts
    by a third within a minute, and allocation-heavy code drifts more than a
    plain float loop; timing the loop that resembles a workload's hot code
    between its ops gives the host speed around each op, so that run.py can
    scale op times to one reference speed.
    """
    pass_fn = REFERENCE_PASSES[kind]
    gc.collect()
    start = time.perf_counter()
    for _ in range(reps):
        pass_fn()
    return (time.perf_counter() - start) / reps


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


class Runner:
    def __init__(self, workload, tmp: Path) -> None:
        self.wl = workload
        self.tmp = tmp
        self.digests: dict = {}  # input key -> output digest
        self.run_digest: list[str] = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def timed_op(self, i: int, tracer=None):
        """Run op i once, traced if a tracer is given; checks run untraced.

        Returns (seconds, run stats), or None if the op failed.
        """
        tag = "" if tracer is None else "-traced"
        outdir = self.tmp / f"op{i}{tag}"
        gc.collect()
        self.attempted += 1
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            result = self.wl.op(i, outdir)
        except Exception:
            result = None
            problems = [f"op {i}{tag} raised:\n{traceback.format_exc()}"]
        finally:
            seconds = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        if result is not None:
            problems, digest = self.wl.check(i, result, outdir)
            stats = workloads.run_stats(self.wl.runs(result))
            key = self.wl.key(i)
            if self.digests.setdefault(key, digest) != digest:
                problems.append(f"op {i}{tag}: output differs from an earlier op "
                                f"on the same input {key!r}")
            if tracer is None and i < self.wl.digest_ops:
                self.run_digest.append(digest)
            del result
        shutil.rmtree(outdir, ignore_errors=True)
        if problems:
            self.failed += 1
            self.problems += problems
            for p in problems:
                _log(f"FAILED {self.wl.name}: {p}")
            return None
        return seconds, stats


def _add(total: dict, stats: dict) -> None:
    for k, v in stats.items():
        total[k] = total.get(k, 0) + v


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--span-log")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()  # scenario parsing at set-up is traced too
    workload = workloads.WORKLOADS[args.workload](args.seed)
    if tracer is not None:
        tracer.uninstall()
    tmp = Path(args.tmp)
    tmp.mkdir(parents=True, exist_ok=False)
    setup_s = time.perf_counter() - T0
    # Set-up is imports, parsing and allocation: the alloc loop scales it.
    out = {"setup_s": setup_s, "setup_ref_s": reference_s("alloc")}
    try:
        if not args.setup_only:
            out.update(_measure(args, workload, tracer, tmp))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(out))
    return 0


def _measure(args, workload, tracer, tmp: Path) -> dict:
    runner = Runner(workload, tmp)
    early = workloads.early_exit_problems()
    for p in early:
        _log(f"FAILED early-exit check: {p}")
    op_s: list[float] = []
    ref_s: list[float] = []  # reference loop time around each op in op_s
    ref_before = reference_s(workload.reference)
    traced_s: list[float] = []
    events: list[int] = []
    sim: dict[str, int] = {}  # summed run_stats of the untraced ops
    traced_sim: dict[str, int] = {}
    traced_ops = 0
    start = time.perf_counter()
    i = 0
    min_ops = workload.digest_ops if tracer else max(MIN_OPS, workload.digest_ops)
    while i < min_ops or time.perf_counter() - start < args.seconds:
        done = runner.timed_op(i)
        reps = 1 if done is None else max(1, round(REFERENCE_SHARE * done[0] / ref_before))
        ref_after = reference_s(workload.reference, reps)
        if done is not None:
            op_s.append(done[0])
            ref_s.append((ref_before + ref_after) / 2)
            events.append(done[1]["events"])
            _add(sim, done[1])
        ref_before = ref_after
        if tracer is not None:
            tracer.logging = traced_ops == 0  # keep the raw spans of one op
            traced = runner.timed_op(i, tracer)
            tracer.logging = False
            traced_ops += 1
            if traced is not None:
                traced_s.append(traced[0])
                _add(traced_sim, traced[1])
        i += 1

    out = {
        "backend": kernels.BACKEND,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "early_exit_ok": not early,
        "problems": early + runner.problems,
        "op_s": op_s,
        "ref_s": ref_s,
        "events": events,
        "sim": sim,
        "digest": (hashlib.sha256("".join(runner.run_digest).encode())
                   .hexdigest() if len(runner.run_digest) == workload.digest_ops
                   else None),
        "digest_ops": workload.digest_ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        out["traced_s"] = traced_s
        out["per_layer"] = tracing.per_layer_metrics(
            tracer, traced_sim, traced_ops,
            statistics.median(op_s) * 1e3 if op_s else 0.0,
            statistics.median(traced_s) * 1e3 if traced_s else 0.0)
        out["missing_targets"] = tracer.missing
        if args.span_log:
            tracer.write_log(Path(args.span_log))
    return out


if __name__ == "__main__":
    sys.exit(main())
