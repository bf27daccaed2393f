"""Command-line entry point for the benchmark workflows.

Subcommands:
    run          execute a plan into a resumable output tree
    fit          scaling fits from a finished output tree
    crossover    clock-rate crossover estimate from a finished tree
    depth-table  measured vs reference circuit depths
    report       write the CSV/JSON report bundle
"""

from __future__ import annotations

import argparse
import json
import sys

from .orchestrate import load_summaries, run_experiment
from .plans import load_plan
from .reports import (
    crossover_report,
    depth_table,
    fit_series,
    format_depth_table,
    rounded_fits,
    write_reports,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench", description="rotamer-packing benchmark driver"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a benchmark plan")
    p_run.add_argument("--plan", required=True, help="plan JSON file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes per cell, QAOA and annealing alike (default: 1)",
    )

    p_fit = sub.add_parser("fit", help="fit cost scaling per series")
    p_fit.add_argument("--in", dest="in_dir", required=True)
    p_fit.add_argument(
        "--fit-start-m",
        type=float,
        default=None,
        help="smallest qubit count included in the fit",
    )

    p_cross = sub.add_parser("crossover", help="estimate the crossover size")
    p_cross.add_argument("--in", dest="in_dir", required=True)
    p_cross.add_argument("--cpu-ghz", type=float, required=True)
    p_cross.add_argument("--qpu-khz", type=float, required=True)
    p_cross.add_argument("--quantum-series", default=None)
    p_cross.add_argument("--classical-series", default=None)
    p_cross.add_argument("--fit-start-m", type=float, default=None)

    p_depth = sub.add_parser(
        "depth-table", help="measured vs reference circuit depths"
    )
    p_depth.add_argument("--max-size", type=int, default=7)

    p_report = sub.add_parser("report", help="write the report bundle")
    p_report.add_argument("--in", dest="in_dir", required=True)
    p_report.add_argument("--fit-start-m", type=float, default=None)
    p_report.add_argument("--cpu-ghz", type=float, default=None)
    p_report.add_argument("--qpu-khz", type=float, default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        print(_output(args))
    except (ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    return 0


def _output(args: argparse.Namespace) -> str:
    """What a command prints; a bad input raises ValueError or OSError."""
    if args.command == "run":
        plan = load_plan(args.plan)
        summaries = run_experiment(plan, args.out, workers=args.workers)
        lines = []
        for s in summaries:
            agg = s["aggregate"]
            ratio = agg.get("success_ratio")
            lines.append(
                f"{s['series']:<24} M={s['num_qubits']:<4}"
                f" ratio={ratio if ratio is not None else '-'}"
                f" mean_cost={agg.get('mean_cost')}"
            )
        return "\n".join(lines)
    if args.command == "depth-table":
        return format_depth_table(depth_table(args.max_size))

    summaries = load_summaries(args.in_dir)
    if not summaries:
        raise ValueError("no cell summaries found")
    if args.command == "fit":
        fits = fit_series(summaries, fit_start_m=args.fit_start_m)
        return json.dumps(rounded_fits(fits), indent=2, sort_keys=True)
    if args.command == "crossover":
        report = crossover_report(
            summaries,
            cpu_ghz=args.cpu_ghz,
            qpu_khz=args.qpu_khz,
            quantum_series=args.quantum_series,
            classical_series=args.classical_series,
            fit_start_m=args.fit_start_m,
        )
        return json.dumps(report, indent=2, sort_keys=True)
    if args.command == "report":
        written = write_reports(
            summaries,
            args.in_dir,
            fit_start_m=args.fit_start_m,
            cpu_ghz=args.cpu_ghz,
            qpu_khz=args.qpu_khz,
        )
        return "\n".join(str(path) for path in written)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
