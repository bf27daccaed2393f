"""Report writers: depth tables, scaling CSVs, fits, crossover.

Every writer is byte-deterministic for identical inputs: keys are sorted,
floats go through one '.6g' rounding, and CSV rows use a fixed column
order with a bare newline terminator. The rounding is for display only:
the crossover is estimated from the fits as computed.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Callable, Sequence

from ..circuits import ansatz_hamiltonian, assemble_ansatz
from ..depth import depth_report, schedule_trace, uniform_problem
from .fits import ScalingFit, default_fit_start, estimate_crossover, fit_scaling
from .plans import replacing, write_json

__all__ = [
    "REFERENCE_DEPTHS",
    "depth_table",
    "format_depth_table",
    "scaling_points",
    "write_reports",
]

# frozen depth constants for the square n = N instances, p = 1:
# (circuit depth without preparation, with preparation)
REFERENCE_DEPTHS: dict[str, dict[int, tuple[int, int]]] = {
    "baseline": {2: (4, 4), 3: (16, 16), 4: (16, 16), 5: (28, 28), 6: (32, 32), 7: (34, 34)},
    "penalty": {2: (6, 6), 3: (20, 20), 4: (22, 22), 5: (30, 30), 6: (42, 42), 7: (46, 46)},
    "xy": {2: (6, 9), 3: (22, 28), 4: (20, 29), 5: (34, 46), 6: (36, 51), 7: (40, 58)},
}


def _round6(x: float | None) -> float | None:
    if x is None:
        return None
    return float(format(x, ".6g"))


def _fmt6(x: float | None) -> str:
    return "" if x is None else format(x, ".6g")


def depth_table(max_size: int = 7) -> list[dict]:
    """Measured vs reference depths for the square instances.

    One row per (regime, size); rows that disagree with the reference get
    the full layer-by-layer schedule attached so the discrepancy can be
    read off directly.
    """
    if max_size < 2:
        raise ValueError("max_size must be at least 2")
    rows = []
    for size in range(2, max_size + 1):
        problem = uniform_problem(size, size)
        for regime in ("baseline", "penalty", "xy"):
            report = depth_report(problem, regime)
            ref = REFERENCE_DEPTHS[regime].get(size)
            row = {
                "regime": regime,
                "size": size,
                "cd": report["cd"],
                "cd_sp": report["cd_sp"],
                "cnot_count": report["cnot_count"],
                "reference_cd": ref[0] if ref else None,
                "reference_cd_sp": ref[1] if ref else None,
            }
            row["match"] = ref is None or (
                row["cd"] == ref[0] and row["cd_sp"] == ref[1]
            )
            if not row["match"]:
                h = ansatz_hamiltonian(problem, regime)
                circuit = assemble_ansatz(regime, problem.blocks, h, [0.5, 0.5])
                row["trace"] = schedule_trace(circuit)
            rows.append(row)
    return rows


def format_depth_table(rows: Sequence[dict]) -> str:
    header = (
        f"{'regime':<9} {'size':>4} {'cd':>5} {'cd+prep':>8} "
        f"{'cnots':>6} {'ref_cd':>7} {'ref+prep':>9}  status"
    )
    lines = [header, "-" * len(header)]
    traces = []
    for row in rows:
        ref_cd = row["reference_cd"]
        ref_sp = row["reference_cd_sp"]
        status = "ok" if row["match"] else "MISMATCH"
        if ref_cd is None:
            status = "no-ref"
        lines.append(
            f"{row['regime']:<9} {row['size']:>4} {row['cd']:>5} "
            f"{row['cd_sp']:>8} {row['cnot_count']:>6} "
            f"{ref_cd if ref_cd is not None else '-':>7} "
            f"{ref_sp if ref_sp is not None else '-':>9}  {status}"
        )
        if "trace" in row:
            traces.append((row["regime"], row["size"], row["trace"]))
    for regime, size, trace in traces:
        lines.append("")
        lines.append(f"schedule for {regime} size {size}:")
        for layer in trace:
            lines.append(
                f"  layer {layer['layer']:>3} group {layer['group']:>3} "
                f"cost {layer['cnot_cost']} gates {layer['gates']}"
            )
    return "\n".join(lines)


def scaling_points(
    summaries: Sequence[dict], series: str
) -> list[tuple[float, float]]:
    """(qubit count, mean cost) pairs of one series, skipping unconverged cells."""
    points = []
    for s in summaries:
        if s["series"] != series:
            continue
        cost = s["aggregate"].get("mean_cost")
        if cost is not None:
            points.append((float(s["num_qubits"]), float(cost)))
    points.sort()
    return points


# series -> (size cut, its fit or the error that kept it from one)
Fits = dict[str, tuple[float, ScalingFit | ValueError]]


def fit_series(
    summaries: Sequence[dict], *, fit_start_m: float | None = None
) -> Fits:
    """Fit each series once."""
    fits: Fits = {}
    for series in sorted({s["series"] for s in summaries}):
        start = fit_start_m if fit_start_m is not None else default_fit_start(series)
        try:
            fit = fit_scaling(scaling_points(summaries, series), fit_start_m=start)
        except ValueError as exc:
            fit = exc
        fits[series] = (start, fit)
    return fits


def rounded_fits(fits: Fits) -> dict[str, dict]:
    """The fits as reports show them, every value rounded to 6 digits."""
    shown: dict[str, dict] = {}
    for series, (start, fit) in fits.items():
        if isinstance(fit, ValueError):
            shown[series] = {"error": str(fit), "fit_start_m": start}
            continue
        shown[series] = {
            "slope": _round6(fit.slope),
            "intercept": _round6(fit.intercept),
            "slope_stderr": _round6(fit.slope_stderr),
            "r_squared": _round6(fit.r_squared),
            "fit_start_m": start,
            "num_points": len(fit.points),
        }
    return shown


def crossover_report(
    summaries: Sequence[dict],
    *,
    cpu_ghz: float,
    qpu_khz: float,
    quantum_series: str | None = None,
    classical_series: str | None = None,
    fit_start_m: float | None = None,
) -> dict:
    """Crossover estimate between one quantum and one classical series.

    A series left unnamed defaults to the first ``qaoa*`` (``sa*``) series
    by name whose fit is usable, or the first by name if none is.
    """
    fits = fit_series(summaries, fit_start_m=fit_start_m)
    return _crossover(fits, cpu_ghz, qpu_khz, quantum_series, classical_series)


def _default_series(fits: Fits, prefix: str) -> str | None:
    """The first series by name with a usable fit, else the first by name."""
    names = [s for s in fits if s.startswith(prefix)]
    usable = (s for s in names if not isinstance(fits[s][1], ValueError))
    return next(usable, names[0] if names else None)


def _crossover(
    fits: Fits,
    cpu_ghz: float,
    qpu_khz: float,
    quantum_series: str | None = None,
    classical_series: str | None = None,
) -> dict:
    if quantum_series is None:
        quantum_series = _default_series(fits, "qaoa")
    if classical_series is None:
        classical_series = _default_series(fits, "sa")
    if quantum_series is None or classical_series is None:
        raise ValueError("need one qaoa series and one sa series to compare")
    chosen = {name: fits.get(name) for name in (quantum_series, classical_series)}
    for name, entry in chosen.items():
        if entry is None or isinstance(entry[1], ValueError):
            raise ValueError(f"no usable fit for series {name!r}")
    estimate = estimate_crossover(
        chosen[quantum_series][1],
        chosen[classical_series][1],
        cpu_rate_hz=cpu_ghz * 1e9,
        qpu_rate_hz=qpu_khz * 1e3,
    )
    interval = None
    if estimate.interval is not None:
        interval = [
            "inf" if math.isinf(v) else _round6(v) for v in estimate.interval
        ]
    return {
        "quantum_series": quantum_series,
        "classical_series": classical_series,
        "cpu_ghz": cpu_ghz,
        "qpu_khz": qpu_khz,
        "crossover_m": _round6(estimate.crossover_m),
        "interval": interval,
        "marker": estimate.marker,
        "fits": rounded_fits(chosen),
    }


def _write_csv(
    path: Path,
    summaries: Sequence[dict],
    columns: list[str],
    row: Callable[[dict], list],
) -> None:
    """A header, then one row per summary, by series and qubit count."""
    with replacing(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for s in sorted(summaries, key=lambda s: (s["series"], s["num_qubits"])):
            writer.writerow(row(s))


def write_reports(
    summaries: Sequence[dict],
    out_dir: str | Path,
    *,
    fit_start_m: float | None = None,
    cpu_ghz: float | None = None,
    qpu_khz: float | None = None,
) -> list[Path]:
    """Write scaling.csv, convergence_tables.csv, fits.json, and, when both
    device rates are given, crossover.json. Returns the written paths.

    Each series is fitted once. The crossover, between the series
    ``crossover_report`` picks by default, is estimated from those fits
    as computed; only the values written are rounded. A crossover that
    cannot be estimated raises ValueError before any file is written, and
    each file is written whole or not at all.
    """
    fits = fit_series(summaries, fit_start_m=fit_start_m)
    crossover = None
    if cpu_ghz is not None and qpu_khz is not None:
        crossover = _crossover(fits, cpu_ghz, qpu_khz)
    reports = Path(out_dir) / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    written = [
        reports / "scaling.csv",
        reports / "convergence_tables.csv",
        reports / "fits.json",
    ]
    _write_csv(
        written[0],
        summaries,
        [
            "series",
            "num_qubits",
            "num_residues",
            "rotamers",
            "trajectories",
            "success_ratio",
            "mean_cost",
            "std_cost",
        ],
        lambda s: [
            s["series"],
            s["num_qubits"],
            s["cell"]["num_residues"],
            s["cell"]["rotamers"],
            s["cell"]["trajectories"],
            _fmt6(s["aggregate"].get("success_ratio")),
            _fmt6(s["aggregate"].get("mean_cost")),
            _fmt6(s["aggregate"].get("std_cost")),
        ],
    )
    # per-cell convergence in the published table layout; ``total`` is the
    # per-iteration effort knob: shots per iteration for QAOA cells, the
    # iteration budget for annealing cells
    _write_csv(
        written[1],
        summaries,
        ["series", "residues", "rotamers", "total", "success_ratio"],
        lambda s: [
            s["series"],
            s["cell"]["num_residues"],
            s["cell"]["rotamers"],
            s["per_iteration"],
            _fmt6(s["aggregate"].get("success_ratio")),
        ],
    )
    write_json(rounded_fits(fits), written[2])
    if crossover is not None:
        written.append(reports / "crossover.json")
        write_json(crossover, written[3])
    return written
