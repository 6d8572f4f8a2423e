"""Command line entry point.

Exit codes: 0 success, 1 usage error, 2 scenario error, 3 calibration
infeasible, 4 simulation error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .coverage import gap_analysis, gap_bounds
from .engine import SimulationError
from .harness import calibrate, compare, run_simulation, sweep
from .scenario_file import ScenarioError, load_scenario
from .trace import TraceKind, read_trace

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SCENARIO = 2
EXIT_INFEASIBLE = 3
EXIT_SIMULATION = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits 2; we use 1
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def default_scenario_path() -> Path:
    return Path(__file__).parent / "data" / "default.scenario"


def _build_parser() -> _Parser:
    parser = _Parser(prog="wpansim",
                     description="IEEE 802.15.4 PAN simulator: coverage sweeps, "
                                 "handover and transmit power control")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", type=Path, default=None,
                       help="scenario file (default: packaged default.scenario)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the seed from the scenario file")
        p.add_argument("--out", type=Path, default=None,
                       help="output directory (default: ./out_<command>)")

    p_run = sub.add_parser("run", help="single run: trace + energy report")
    common(p_run)

    p_sweep = sub.add_parser("sweep", help="one run per power level, gap report")
    common(p_sweep)
    p_sweep.add_argument("--powers", type=str, default=None,
                         help="comma-separated dBm levels "
                              "(default: scenario [sweep] powers, else its power_levels)")

    p_cal = sub.add_parser("calibrate",
                           help="fit propagation constants to coverage targets")
    common(p_cal)

    p_cmp = sub.add_parser("compare",
                           help="paired handover/TPC comparison on one seed")
    common(p_cmp)

    p_gaps = sub.add_parser("gaps", help="extract coverage gaps from a trace")
    p_gaps.add_argument("--trace", type=Path, required=True)
    p_gaps.add_argument("--scenario", type=Path, default=None,
                        help="scenario supplying the trajectory bounds")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    except SimulationError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    except (OSError, ValueError) as exc:  # OSError: an output path it cannot write
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _load(args):
    path = args.scenario if args.scenario is not None else default_scenario_path()
    cfg = load_scenario(path)
    if getattr(args, "seed", None) is not None:
        cfg = cfg.clone(seed=args.seed)
    return cfg


def _restore_mobile_x(rows, trajectory, path) -> int | None:
    """The mobile's id, the lowest with MOVE rows (None without any), after
    giving each of its rows back the exact x that the trace rounded to 0.01 m.

    The mobile's x is its trajectory's at the row's time, so gaps read off
    the restored rows are the sweep's.  A row whose x the trajectory does
    not give is not from this scenario: ValueError names its line.
    """
    movers = {r.node_id for r in rows if r.event_kind == TraceKind.MOVE}
    if not movers:
        return None
    mobile_id = min(movers)
    for lineno, row in enumerate(rows, start=2):
        if row.node_id == mobile_id:
            x = trajectory.position_at(row.time_us)[0]
            if f"{x:.2f}" != f"{row.pos_x_m:.2f}":
                raise ValueError(
                    f"{path}: line {lineno}: pos_x_m {row.pos_x_m:.2f} is not the "
                    f"scenario trajectory's x ({x:.2f} m at {row.time_us} us)")
            row.pos_x_m = x
    return mobile_id


def _dispatch(args) -> int:
    cfg = _load(args)
    if args.command == "gaps":
        x_lo, x_hi = gap_bounds(cfg.trajectory)
        try:
            rows = read_trace(args.trace)
            mobile_id = _restore_mobile_x(rows, cfg.trajectory, args.trace)
        except (OSError, ValueError) as exc:
            print(f"trace error: {exc}", file=sys.stderr)
            return EXIT_SCENARIO
        gaps = gap_analysis(rows, x_lo, x_hi, mobile_id)  # none without a mobile
        for a, b in gaps:
            print(f"gap: {a:.2f} m .. {b:.2f} m")
        if not gaps:
            print("no coverage gaps")
    else:
        out = args.out if args.out is not None else Path(f"out_{args.command}")
        if args.command == "run":
            result = run_simulation(cfg, outdir=out)
            print(f"run complete: {result.summary.total_processed} events, "
                  f"trace written to {out / 'trace.csv'}")
        elif args.command == "sweep":
            powers = None
            if args.powers is not None:
                powers = [float(p) for p in args.powers.replace(",", " ").split()]
            sweep(cfg, powers, outdir=out)
            print((out / "summary.txt").read_text(encoding="ascii"), end="")
        elif args.command == "calibrate":
            result = calibrate(cfg, outdir=out)
            print("\n".join(result.report_lines()))
            if not result.ok:
                return EXIT_INFEASIBLE
            print(f"calibrated scenario written to {out / 'calibrated.scenario'}")
        else:
            compare(cfg, outdir=out)
            print((out / "compare_report.txt").read_text(encoding="ascii"), end="")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
