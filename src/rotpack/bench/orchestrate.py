"""Run benchmark plans to a content-addressed output tree.

Layout under the output directory:

    cells/<key>/summary.json    merged cell config plus aggregate stats
    cells/<key>/records.jsonl   one line per trajectory
    index.json                  plan name and the cells it mapped to

A cell whose summary already exists is skipped, so interrupting and
re-running a plan resumes where it left off. The target energy for the
stop criterion comes from brute force unless the cell pins one; cells too
large to enumerate must pin it.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path

from ..baselines import SaConfig, brute_force, sa_ensemble
from ..driver import (
    FirstGroundState,
    QaoaConfig,
    run_ensemble,
    write_records_jsonl,
)
from ..problem import RotamerProblem, random_problem
from .plans import BenchPlan, CellSpec, cell_key, write_json

__all__ = [
    "run_experiment",
    "run_cell",
    "cell_problem",
    "cell_target_energy",
    "load_summaries",
]

BRUTE_FORCE_CAP = 10**7


def cell_problem(cell: CellSpec) -> RotamerProblem:
    return random_problem(
        cell.num_residues,
        cell.rotamers,
        seed=cell.problem_seed,
        self_scale=cell.self_scale,
        pair_scale=cell.pair_scale,
    )


def cell_target_energy(cell: CellSpec, problem: RotamerProblem) -> float:
    if cell.target_energy is not None:
        return cell.target_energy
    return brute_force(problem, cap=BRUTE_FORCE_CAP).ground_energy


def _solver_config(cell: CellSpec) -> QaoaConfig | SaConfig:
    """The cell's solver config; raises ValueError naming the cell if it is malformed.

    A QAOA config comes back with no stop mode; ``run_cell`` sets the
    target once it is known.
    """
    try:
        if cell.solver == "qaoa":
            config = QaoaConfig(**cell.qaoa, stop_mode=None)
            if config.regime == "xy" and cell.rotamers < 2:
                raise ValueError("xy regime needs at least 2 rotamers per residue")
            return config
        return SaConfig(**cell.sa)
    except (TypeError, ValueError) as exc:
        raise ValueError(
            f"cell {cell_key(cell)} ({cell.solver},"
            f" {cell.num_residues}x{cell.rotamers}): {exc}"
        ) from exc


def run_cell(cell: CellSpec, cell_dir: Path, *, workers: int = 1) -> dict:
    """Execute one cell and write its summary and records."""
    start = time.perf_counter()
    config = _solver_config(cell)
    problem = cell_problem(cell)
    target = cell_target_energy(cell, problem)

    cell_dir.mkdir(parents=True, exist_ok=True)

    if cell.solver == "qaoa":
        config = dataclasses.replace(
            config, stop_mode=FirstGroundState(target_energy=target)
        )
        result = run_ensemble(
            problem, config, cell.trajectories, workers=workers
        )
        cost_unit = "shots"
        per_iteration = config.resolved_shots(problem.num_qubits)
    else:
        method = "gsa" if cell.solver == "sa" else "discrete"
        result = sa_ensemble(
            problem,
            config,
            cell.trajectories,
            target_energy=target,
            method=method,
            workers=workers,
        )
        cost_unit = "evaluations"
        per_iteration = config.max_iterations
    write_records_jsonl(result.results, cell_dir / "records.jsonl")

    summary = {
        "cell": dataclasses.asdict(cell),
        "key": cell_key(cell),
        "series": cell.series_name(),
        "num_qubits": problem.num_qubits,
        "target_energy": target,
        "cost_unit": cost_unit,
        "per_iteration": per_iteration,
        "aggregate": result.summary_dict(),
        "wall_time": time.perf_counter() - start,
    }
    # the summary's existence marks the cell done; written last, and whole
    write_json(summary, cell_dir / "summary.json")
    return summary


def run_experiment(
    plan: BenchPlan, out_dir: str | Path, *, workers: int = 1
) -> list[dict]:
    """Run every cell of a plan, skipping cells already summarized.

    Every cell's solver settings are checked before any cell runs. Each
    ``summary.json`` and the ``index.json`` are written whole or not at
    all, so an interrupted run leaves the previous file or none, and
    running the plan again resumes it.
    """
    for cell in plan.cells:
        _solver_config(cell)
    out = Path(out_dir)
    cells_dir = out / "cells"
    cells_dir.mkdir(parents=True, exist_ok=True)

    summaries = []
    index = {"plan": plan.name, "cells": []}
    for cell in plan.cells:
        key = cell_key(cell)
        cell_dir = cells_dir / key
        summary_path = cell_dir / "summary.json"
        if summary_path.exists():
            with open(summary_path) as fh:
                summary = json.load(fh)
            status = "cached"
        else:
            summary = run_cell(cell, cell_dir, workers=workers)
            status = "ran"
        summaries.append(summary)
        index["cells"].append(
            {"key": key, "series": summary["series"], "status": status}
        )
    write_json(index, out / "index.json")
    return summaries


def load_summaries(out_dir: str | Path) -> list[dict]:
    """All cell summaries under an output tree, sorted by qubit count."""
    cells_dir = Path(out_dir) / "cells"
    summaries = []
    if cells_dir.is_dir():
        for summary_path in sorted(cells_dir.glob("*/summary.json")):
            with open(summary_path) as fh:
                summaries.append(json.load(fh))
    summaries.sort(key=lambda s: (s["series"], s["num_qubits"]))
    return summaries
