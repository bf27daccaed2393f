"""Scaling fits, crossover estimates, plans, orchestration, and reports."""

import contextlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from rotpack.bench.cli import main
from rotpack.bench.fits import (
    ScalingFit,
    default_fit_start,
    estimate_crossover,
    fit_scaling,
)
from rotpack.bench.orchestrate import (
    cell_problem,
    cell_target_energy,
    load_summaries,
    run_cell,
    run_experiment,
)
from rotpack.bench.plans import BenchPlan, CellSpec, cell_key, load_plan, save_plan
from rotpack.bench.reports import (
    REFERENCE_DEPTHS,
    crossover_report,
    depth_table,
    format_depth_table,
    scaling_points,
    write_reports,
)
from rotpack.problem import random_problem

ROOT = Path(__file__).resolve().parents[1]


def planted_points(slope: float, intercept: float, sizes) -> list[tuple[float, float]]:
    return [(m, math.exp(intercept + slope * m)) for m in sizes]


def planted_fit(slope: float, intercept: float, stderr: float = 0.0) -> ScalingFit:
    return ScalingFit(
        slope=slope,
        intercept=intercept,
        slope_stderr=stderr,
        r_squared=1.0,
        points=(),
    )


def synthetic_summary(
    series: str,
    num_qubits: int,
    mean_cost: float | None,
    *,
    trajectories: int = 8,
    ratio: float = 1.0,
) -> dict:
    return {
        "cell": {
            "num_residues": 5,
            "rotamers": num_qubits // 5,
            "trajectories": trajectories,
        },
        "key": f"{series}-{num_qubits}",
        "series": series,
        "num_qubits": num_qubits,
        "target_energy": 0.0,
        "cost_unit": "shots",
        "per_iteration": 100,
        "aggregate": {
            "num_trajectories": trajectories,
            "success_ratio": ratio,
            "mean_cost": mean_cost,
            "std_cost": 0.0,
        },
        "wall_time": 0.0,
    }


def tiny_plan() -> BenchPlan:
    return BenchPlan(
        name="tiny",
        cells=(
            CellSpec(
                num_residues=2,
                rotamers=2,
                solver="sa-discrete",
                trajectories=3,
                sa={"max_iterations": 50, "seed": 1},
            ),
            CellSpec(
                num_residues=2,
                rotamers=2,
                solver="qaoa",
                trajectories=2,
                qaoa={"regime": "xy", "p": 1, "max_iterations": 3, "seed": 0},
            ),
        ),
    )


class TestFitScaling:
    def test_recovers_exact_line(self):
        fit = fit_scaling(planted_points(0.12, 1.5, range(10, 21)))
        assert fit.slope == pytest.approx(0.12, abs=1e-9)
        assert fit.intercept == pytest.approx(1.5, abs=1e-9)
        assert fit.slope_stderr < 1e-6
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_recovers_noisy_line_within_three_stderr(self):
        rng = np.random.default_rng(1)
        points = [
            (m, math.exp(0.5 + 0.11 * m + rng.normal(scale=0.15)))
            for m in range(10, 26)
        ]
        fit = fit_scaling(points)
        assert abs(fit.slope - 0.11) < 3 * fit.slope_stderr
        assert fit.r_squared > 0.9

    def test_size_cut_drops_small_instances(self):
        points = planted_points(0.1, 0.0, range(5, 26))
        fit = fit_scaling(points, fit_start_m=15)
        assert all(m >= 15 for m, _ in fit.points)
        assert len(fit.points) == 11

    def test_too_few_points_after_cut(self):
        points = planted_points(0.1, 0.0, range(10, 16))
        with pytest.raises(ValueError, match="need at least 3"):
            fit_scaling(points, fit_start_m=14)

    def test_nonpositive_costs_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            fit_scaling([(10, 1.0), (11, 0.0), (12, 2.0)])

    def test_default_fit_start_by_backend(self):
        assert default_fit_start("qaoa-xy-statevector") == 15
        assert default_fit_start("qaoa-xy-mps") == 18
        assert default_fit_start("sa") == 18


class TestEstimateCrossover:
    def test_planted_lines_intersect_analytically(self):
        quantum = planted_fit(0.05, 0.4)
        classical = planted_fit(0.20, 0.0)
        est = estimate_crossover(
            quantum, classical, cpu_rate_hz=1e9, qpu_rate_hz=1e3
        )
        expected = ((0.4 - math.log(1e3)) - (0.0 - math.log(1e9))) / 0.15
        assert est.marker == "ok"
        assert est.crossover_m == pytest.approx(expected, abs=1e-9)
        assert est.interval == pytest.approx((expected, expected))

    def test_slope_uncertainty_widens_the_interval(self):
        est = estimate_crossover(
            planted_fit(0.05, 0.4, stderr=0.01),
            planted_fit(0.20, 0.0, stderr=0.01),
            cpu_rate_hz=1e9,
            qpu_rate_hz=1e3,
        )
        lo, hi = est.interval
        assert lo < est.crossover_m < hi
        assert math.isfinite(hi)

    def test_overlapping_slope_errors_unbound_the_interval(self):
        # the center is finite, but one stderr corner flips the ordering
        est = estimate_crossover(
            planted_fit(0.10, 0.0, stderr=0.05),
            planted_fit(0.12, 1.0, stderr=0.05),
            cpu_rate_hz=1e9,
            qpu_rate_hz=1e3,
        )
        assert est.marker == "ok"
        assert math.isinf(est.interval[1])

    def test_faster_quantum_clock_moves_crossover_earlier(self):
        quantum = planted_fit(0.05, 0.4)
        classical = planted_fit(0.20, 0.0)
        sizes = [
            estimate_crossover(
                quantum, classical, cpu_rate_hz=1e9, qpu_rate_hz=rate
            ).crossover_m
            for rate in (1e3, 1e4, 1e5)
        ]
        assert sizes[0] > sizes[1] > sizes[2]

    def test_faster_classical_clock_moves_crossover_later(self):
        quantum = planted_fit(0.05, 0.4)
        classical = planted_fit(0.20, 0.0)
        slow = estimate_crossover(
            quantum, classical, cpu_rate_hz=1e8, qpu_rate_hz=1e3
        )
        fast = estimate_crossover(
            quantum, classical, cpu_rate_hz=1e10, qpu_rate_hz=1e3
        )
        assert fast.crossover_m > slow.crossover_m

    def test_identical_lines_are_degenerate(self):
        fit = planted_fit(0.1, 0.0)
        est = estimate_crossover(fit, fit, cpu_rate_hz=1e3, qpu_rate_hz=1e3)
        assert est.marker == "degenerate"
        assert est.crossover_m is None

    def test_no_classical_advantage_is_unbounded(self):
        est = estimate_crossover(
            planted_fit(0.20, 0.0),
            planted_fit(0.05, 0.0),
            cpu_rate_hz=1e9,
            qpu_rate_hz=1e3,
        )
        assert est.marker == "unbounded"
        assert est.crossover_m is None

    def test_rates_must_be_positive(self):
        with pytest.raises(ValueError, match="rates"):
            estimate_crossover(
                planted_fit(0.05, 0.0),
                planted_fit(0.2, 0.0),
                cpu_rate_hz=0.0,
                qpu_rate_hz=1e3,
            )


class TestPlans:
    def test_cell_validation(self):
        with pytest.raises(ValueError, match="unknown solver"):
            CellSpec(num_residues=2, rotamers=2, solver="tabu")
        with pytest.raises(ValueError, match="at least one residue"):
            CellSpec(num_residues=0, rotamers=2)
        with pytest.raises(ValueError, match="trajectories"):
            CellSpec(num_residues=2, rotamers=2, trajectories=0)
        with pytest.raises(ValueError, match="decay must be 0"):
            CellSpec(num_residues=2, rotamers=2, decay=0.5)
        for field in ("num_residues", "rotamers", "trajectories", "problem_seed"):
            for value in (2.5, "3", True):
                with pytest.raises(ValueError, match=f"{field} must be an integer"):
                    CellSpec(**{"num_residues": 2, "rotamers": 2, field: value})
        with pytest.raises(ValueError, match="at least one cell"):
            BenchPlan(name="empty", cells=())

    def test_series_names(self):
        assert CellSpec(num_residues=2, rotamers=2).series_name() == (
            "qaoa-xy-statevector"
        )
        assert CellSpec(
            num_residues=2,
            rotamers=2,
            qaoa={"regime": "penalty", "backend": "mps"},
        ).series_name() == "qaoa-penalty-mps"
        assert CellSpec(
            num_residues=2, rotamers=2, solver="sa"
        ).series_name() == "sa"
        assert CellSpec(
            num_residues=2, rotamers=2, series="custom"
        ).series_name() == "custom"

    def test_cell_key_is_content_addressed(self):
        base = CellSpec(num_residues=2, rotamers=2)
        same = CellSpec(num_residues=2, rotamers=2)
        bumped = CellSpec(num_residues=2, rotamers=2, trajectories=9)
        assert cell_key(base) == cell_key(same)
        assert cell_key(base) != cell_key(bumped)
        assert len(cell_key(base)) == 16

    def test_one_cell_has_one_key(self):
        base = CellSpec(num_residues=3, rotamers=3)
        for spelled in ({"decay": 0}, {"self_scale": 1}, {"pair_scale": 1}):
            assert cell_key(CellSpec(num_residues=3, rotamers=3, **spelled)) == cell_key(base)
        assert cell_key(CellSpec(num_residues=3, rotamers=3, target_energy=-2)) == cell_key(
            CellSpec(num_residues=3, rotamers=3, target_energy=-2.0)
        )
        with pytest.raises(ValueError, match="takes no qaoa settings"):
            CellSpec(num_residues=3, rotamers=3, solver="sa", qaoa={"regime": "xy"})
        with pytest.raises(ValueError, match="takes no sa settings"):
            CellSpec(num_residues=3, rotamers=3, sa={"seed": 1})

    def test_load_plan_merges_defaults(self, tmp_path):
        doc = {
            "name": "demo",
            "defaults": {
                "solver": "sa-discrete",
                "trajectories": 2,
                "sa": {"max_iterations": 5},
            },
            "cells": [
                {"num_residues": 2, "rotamers": 2},
                {"num_residues": 2, "rotamers": 3, "trajectories": 4},
            ],
        }
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(doc))
        plan = load_plan(path)
        assert plan.name == "demo"
        assert plan.cells[0].solver == "sa-discrete"
        assert plan.cells[0].trajectories == 2
        assert plan.cells[0].sa == {"max_iterations": 5}
        assert plan.cells[1].trajectories == 4

    def test_load_plan_rejects_malformed_documents(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"cells": [{"num_residues": 2, "rotamers": 2}]}))
        with pytest.raises(ValueError, match="missing a name"):
            load_plan(path)
        path.write_text(json.dumps({"name": "x", "cells": []}))
        with pytest.raises(ValueError, match="no cells"):
            load_plan(path)
        path.write_text(
            json.dumps(
                {
                    "name": "x",
                    "cells": [{"num_residues": 2, "rotamers": 2, "foo": 1}],
                }
            )
        )
        with pytest.raises(ValueError, match=r"unknown cell fields: \['foo'\]"):
            load_plan(path)
        path.write_text(
            json.dumps(
                {
                    "name": "x",
                    "defaults": {"trajectory": 3},
                    "cells": [{"num_residues": 2, "rotamers": 2}],
                }
            )
        )
        with pytest.raises(ValueError, match=r"unknown cell fields: \['trajectory'\]"):
            load_plan(path)

    def test_save_load_roundtrip(self, tmp_path):
        plan = tiny_plan()
        path = tmp_path / "plan.json"
        save_plan(plan, path)
        assert load_plan(path) == plan


class TestOrchestrate:
    def test_cell_problem_matches_generator(self):
        cell = CellSpec(
            num_residues=2,
            rotamers=3,
            problem_seed=5,
            self_scale=2.0,
            pair_scale=0.5,
        )
        built = cell_problem(cell)
        direct = random_problem(2, 3, seed=5, self_scale=2.0, pair_scale=0.5)
        assert np.array_equal(built.self_energies, direct.self_energies)
        assert built.pair_blocks.keys() == direct.pair_blocks.keys()
        for key, block in built.pair_blocks.items():
            assert np.array_equal(block, direct.pair_blocks[key])

    def test_pinned_target_energy_wins(self):
        cell = CellSpec(num_residues=2, rotamers=2, target_energy=-7.5)
        assert cell_target_energy(cell, cell_problem(cell)) == -7.5

    def test_unpinned_target_uses_brute_force(self):
        cell = CellSpec(num_residues=2, rotamers=2, problem_seed=1)
        problem = cell_problem(cell)
        from rotpack.baselines import brute_force

        assert cell_target_energy(cell, problem) == pytest.approx(
            brute_force(problem).ground_energy
        )

    def test_oversized_cell_must_pin_its_target(self):
        cell = CellSpec(num_residues=30, rotamers=4)
        with pytest.raises(ValueError, match="set target_energy"):
            cell_target_energy(cell, cell_problem(cell))

    def test_run_cell_sa_discrete(self, tmp_path):
        cell = tiny_plan().cells[0]
        summary = run_cell(cell, tmp_path / "cell")
        assert summary["key"] == cell_key(cell)
        assert summary["series"] == "sa-discrete"
        assert summary["cost_unit"] == "evaluations"
        assert summary["per_iteration"] == 50
        assert summary["aggregate"]["num_trajectories"] == 3
        assert 0.0 <= summary["aggregate"]["success_ratio"] <= 1.0
        lines = (tmp_path / "cell" / "records.jsonl").read_text().splitlines()
        assert len(lines) == 3
        for line in lines:
            record = json.loads(line)
            assert list(record) == sorted(record)

    def test_run_cell_qaoa(self, tmp_path):
        cell = tiny_plan().cells[1]
        summary = run_cell(cell, tmp_path / "cell")
        assert summary["series"] == "qaoa-xy-statevector"
        assert summary["cost_unit"] == "shots"
        # auto shot schedule: 10 per qubit on four qubits
        assert summary["per_iteration"] == 40
        assert "success_ratio" in summary["aggregate"]
        assert "convergence_ratio" not in summary["aggregate"]
        lines = (tmp_path / "cell" / "records.jsonl").read_text().splitlines()
        assert len(lines) == 2

    def test_run_experiment_resumes_byte_identically(self, tmp_path):
        plan = tiny_plan()
        out = tmp_path / "run"
        first = run_experiment(plan, out)
        index_first = json.loads((out / "index.json").read_text())
        snapshots = {
            p: p.read_bytes() for p in (out / "cells").glob("*/summary.json")
        }
        second = run_experiment(plan, out)
        index_second = json.loads((out / "index.json").read_text())
        assert [c["status"] for c in index_first["cells"]] == ["ran", "ran"]
        assert [c["status"] for c in index_second["cells"]] == [
            "cached",
            "cached",
        ]
        assert first == second
        for path, blob in snapshots.items():
            assert path.read_bytes() == blob

    def test_workers_reach_every_cell(self, tmp_path, monkeypatch):
        # annealing and QAOA cells alike hand their trajectories to the pool
        pools = []

        def serial_pool(workers):
            pools.append(workers)
            return contextlib.nullcontext(types.SimpleNamespace(map=map))

        monkeypatch.setattr("rotpack.driver._worker_pool", serial_pool)
        plan = load_plan(ROOT / "data" / "sample_plan.json")
        run_experiment(plan, tmp_path / "run", workers=3)
        assert [c.solver for c in plan.cells] == ["sa-discrete"] * 2 + ["qaoa"] * 2
        assert pools == [3] * 4

    def test_interrupted_summary_write_is_rerun(self, tmp_path, monkeypatch):
        plan = BenchPlan(name="one", cells=tiny_plan().cells[:1])

        def torn_dump(obj, fh, **kwargs):
            fh.write(json.dumps(obj, **kwargs)[:40])
            raise OSError("disk full")

        monkeypatch.setattr("rotpack.bench.orchestrate.json.dump", torn_dump)
        out = tmp_path / "run"
        with pytest.raises(OSError, match="disk full"):
            run_experiment(plan, out)
        assert not list((out / "cells").glob("*/summary.json"))
        monkeypatch.undo()

        (rerun,) = run_experiment(plan, out)
        index = json.loads((out / "index.json").read_text())
        assert [c["status"] for c in index["cells"]] == ["ran"]
        (clean,) = run_experiment(plan, tmp_path / "clean")
        del rerun["wall_time"], clean["wall_time"]
        assert rerun == clean

    @pytest.mark.parametrize(
        "bad",
        [
            {"solver": "qaoa", "qaoa": {"p": 1, "max_iterations": 3}},
            {"solver": "sa-discrete", "sa": {"max_iteration": 50}},
            {"solver": "qaoa", "qaoa": {"regime": "xy", "optimizer": "bfgs"}},
            {"solver": "qaoa", "qaoa": {"regime": "xy", "shots_per_iteration": 0}},
            {"solver": "qaoa", "qaoa": {"regime": "xy", "max_iterations": -1}},
            {"solver": "qaoa", "qaoa": {"regime": "xy", "max_bond": 0}},
        ],
        ids=[
            "qaoa-without-regime",
            "sa-misspelled-key",
            "qaoa-unknown-optimizer",
            "qaoa-zero-shots",
            "qaoa-negative-budget",
            "qaoa-zero-bond-cap",
        ],
    )
    def test_bad_cell_is_rejected_before_any_cell_runs(self, tmp_path, bad):
        good = tiny_plan().cells[0]
        bad_cell = CellSpec(num_residues=2, rotamers=3, **bad)
        plan = BenchPlan(name="two", cells=(good, bad_cell))
        out = tmp_path / "run"
        with pytest.raises(ValueError, match=f"cell {cell_key(bad_cell)}"):
            run_experiment(plan, out)
        assert not (out / "cells" / cell_key(good)).exists()

    def test_interrupted_index_write_keeps_the_old_index(self, tmp_path, monkeypatch):
        plan = tiny_plan()
        out = tmp_path / "run"
        run_experiment(plan, out)
        before = (out / "index.json").read_bytes()

        def torn_dump(obj, fh, **kwargs):
            fh.write(json.dumps(obj, **kwargs)[:40])
            raise OSError("disk full")

        # every cell is cached, so the index is the only file written
        monkeypatch.setattr("rotpack.bench.orchestrate.json.dump", torn_dump)
        with pytest.raises(OSError, match="disk full"):
            run_experiment(plan, out)
        assert (out / "index.json").read_bytes() == before
        assert not list(out.rglob("*.tmp"))

    def test_load_summaries_sorts_by_series_then_size(self, tmp_path):
        out = tmp_path / "run"
        run_experiment(tiny_plan(), out)
        loaded = load_summaries(out)
        keys = [(s["series"], s["num_qubits"]) for s in loaded]
        assert keys == sorted(keys)

    def test_load_summaries_empty_tree(self, tmp_path):
        assert load_summaries(tmp_path) == []


class TestReports:
    def test_depth_table_all_reference_cells_match(self):
        rows = depth_table(7)
        assert len(rows) == 18
        assert all(row["match"] for row in rows)
        assert not any("trace" in row for row in rows)

    def test_depth_table_size_bound(self):
        with pytest.raises(ValueError, match="max_size"):
            depth_table(1)

    def test_mismatch_attaches_schedule_trace(self, monkeypatch):
        monkeypatch.setitem(REFERENCE_DEPTHS["baseline"], 2, (99, 99))
        rows = depth_table(2)
        bad = [r for r in rows if not r["match"]]
        assert len(bad) == 1
        assert bad[0]["regime"] == "baseline"
        assert bad[0]["trace"]
        text = format_depth_table(rows)
        assert "MISMATCH" in text
        assert "schedule for baseline size 2:" in text

    def test_format_depth_table_plain(self):
        text = format_depth_table(depth_table(3))
        lines = text.splitlines()
        assert lines[0].startswith("regime")
        assert len(lines) == 2 + 6
        assert all("ok" in line for line in lines[2:])

    def test_sizes_beyond_the_reference_are_unflagged(self):
        rows = depth_table(8)
        extra = [r for r in rows if r["size"] == 8]
        assert all(r["reference_cd"] is None and r["match"] for r in extra)
        assert "no-ref" in format_depth_table(extra)

    def test_scaling_points_skip_unconverged_cells(self):
        summaries = [
            synthetic_summary("sa", 20, 100.0),
            synthetic_summary("sa", 25, None, ratio=0.0),
            synthetic_summary("sa", 15, 50.0),
            synthetic_summary("other", 18, 1.0),
        ]
        assert scaling_points(summaries, "sa") == [(15.0, 50.0), (20.0, 100.0)]

    def test_write_reports_bundle(self, tmp_path):
        summaries = [
            synthetic_summary("qaoa-xy-statevector", m, math.exp(0.3 + 0.05 * m))
            for m in (15, 18, 21, 24)
        ] + [
            synthetic_summary("sa", m, math.exp(0.1 + 0.2 * m))
            for m in (18, 21, 24, 27)
        ]
        written = write_reports(
            summaries, tmp_path, cpu_ghz=1.0, qpu_khz=10.0
        )
        names = [p.name for p in written]
        assert names == [
            "scaling.csv",
            "convergence_tables.csv",
            "fits.json",
            "crossover.json",
        ]
        fits = json.loads((tmp_path / "reports" / "fits.json").read_text())
        assert fits["sa"]["slope"] == pytest.approx(0.2, abs=1e-6)
        assert fits["qaoa-xy-statevector"]["slope"] == pytest.approx(
            0.05, abs=1e-6
        )
        crossover = json.loads(
            (tmp_path / "reports" / "crossover.json").read_text()
        )
        assert crossover["marker"] == "ok"
        expected = (
            (0.3 - math.log(10.0 * 1e3)) - (0.1 - math.log(1.0 * 1e9))
        ) / (0.2 - 0.05)
        assert crossover["crossover_m"] == pytest.approx(expected, rel=1e-4)

    def test_reports_are_byte_deterministic(self, tmp_path):
        summaries = [
            synthetic_summary("sa", m, math.exp(0.1 + 0.2 * m))
            for m in (18, 21, 24)
        ]
        first = write_reports(summaries, tmp_path)
        blobs = [p.read_bytes() for p in first]
        second = write_reports(summaries, tmp_path)
        assert first == second
        assert [p.read_bytes() for p in second] == blobs

    def test_scaling_csv_layout(self, tmp_path):
        write_reports([synthetic_summary("sa", 20, 4.666666666)], tmp_path)
        text = (tmp_path / "reports" / "scaling.csv").read_text()
        lines = text.splitlines()
        assert lines[0] == (
            "series,num_qubits,num_residues,rotamers,trajectories,"
            "success_ratio,mean_cost,std_cost"
        )
        assert lines[1] == "sa,20,5,4,8,1,4.66667,0"

    def test_crossover_comes_from_the_fits_not_their_rounding(self):
        # slopes that agree to 6 digits, so rounding them moves the crossover
        sizes = (20, 24, 28, 32)
        quantum = planted_points(0.2000004, 3.0, sizes)
        classical = planted_points(0.2000049, 1.0, sizes)
        summaries = [
            synthetic_summary("qaoa-xy-statevector", m, c) for m, c in quantum
        ] + [synthetic_summary("sa", m, c) for m, c in classical]
        report = crossover_report(summaries, cpu_ghz=1.0, qpu_khz=1.0, fit_start_m=0)
        estimate = estimate_crossover(
            fit_scaling(quantum, fit_start_m=0),
            fit_scaling(classical, fit_start_m=0),
            cpu_rate_hz=1e9,
            qpu_rate_hz=1e3,
        )
        assert report["crossover_m"] == float(format(estimate.crossover_m, ".6g"))
        assert report["crossover_m"] == pytest.approx(3514557.9, rel=1e-6)

    def test_crossover_report_needs_both_series(self):
        summaries = [
            synthetic_summary("sa", m, math.exp(0.1 + 0.2 * m))
            for m in (18, 21, 24)
        ]
        with pytest.raises(ValueError, match="qaoa series"):
            crossover_report(summaries, cpu_ghz=1.0, qpu_khz=10.0)


@pytest.fixture(scope="module")
def smoke_tree(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("smoke") / "tree"
    run_experiment(load_plan(ROOT / "data" / "sample_plan.json"), out)
    return out


def _cell(**fields) -> dict:
    """A plan cell of two residues with two rotamers each, plus ``fields``."""
    return {"num_residues": 2, "rotamers": 2, **fields}


# plan cells whose solver settings are rejected before any cell runs
BAD_SOLVER_CELLS = {
    "bad-regime": _cell(qaoa={"regime": "adiabatic"}),
    "sa-visit": _cell(solver="sa-discrete", sa={"visit": 2.0, "max_iterations": 5}),
    "float-p": _cell(qaoa={"regime": "xy", "p": 1.5}),
    "float-shots": _cell(qaoa={"regime": "xy", "shots_per_iteration": 2.5}),
    "float-qaoa-budget": _cell(qaoa={"regime": "xy", "max_iterations": 2.5}),
    "float-sa-budget": _cell(solver="sa-discrete", sa={"max_iterations": 2.5}),
    "xy-one-rotamer": _cell(rotamers=1, qaoa={"regime": "xy"}),
}
# a short sa-discrete cell, for plans whose cell fields are malformed
DISCRETE = {"solver": "sa-discrete", "sa": {"max_iterations": 5}}
# malformed plans, by file name
PLANS = {
    **{name: {"name": "x", "cells": [cell]} for name, cell in BAD_SOLVER_CELLS.items()},
    "no-cells": {"name": "x", "cells": []},
    "number": 5,
    "number-cell": {"name": "x", "cells": [1]},
    "list-defaults": {"name": "x", "defaults": [], "cells": [_cell()]},
    "string-residues": {"name": "x", "cells": [_cell(num_residues="2")]},
    "float-residues": {"name": "x", "cells": [_cell(**DISCRETE, num_residues=2.5)]},
    "string-seed": {"name": "x", "cells": [_cell(**DISCRETE, problem_seed="7")]},
    "float-trajectories": {"name": "x", "cells": [_cell(**DISCRETE, trajectories=2.5)]},
}


def bad_cell_error(name: str, message: str) -> str:
    """The error line for plan ``name``'s one cell in BAD_SOLVER_CELLS."""
    cell = CellSpec(**BAD_SOLVER_CELLS[name])
    shape = f"{cell.num_residues}x{cell.rotamers}"
    return f"cell {cell_key(cell)} ({cell.solver}, {shape}): {message}\n"


class TestCli:
    @pytest.mark.parametrize(
        "argv, err",
        [
            (
                ["run", "--plan", "EMPTY/bad-regime.json", "--out", "EMPTY/out"],
                bad_cell_error("bad-regime", "unknown regime 'adiabatic'"),
            ),
            (
                ["run", "--plan", "EMPTY/no-cells.json", "--out", "EMPTY/out"],
                "plan has no cells\n",
            ),
            (
                ["run", "--plan", "EMPTY/number.json", "--out", "EMPTY/out"],
                "plan must be a JSON object\n",
            ),
            (
                ["run", "--plan", "EMPTY/number-cell.json", "--out", "EMPTY/out"],
                "cells[0] must be a JSON object\n",
            ),
            (
                ["run", "--plan", "EMPTY/list-defaults.json", "--out", "EMPTY/out"],
                "plan defaults must be a JSON object\n",
            ),
            (
                ["run", "--plan", "EMPTY/string-residues.json", "--out", "EMPTY/out"],
                "cells[0]: num_residues must be an integer, not '2'\n",
            ),
            (
                ["run", "--plan", "EMPTY/float-residues.json", "--out", "EMPTY/out"],
                "cells[0]: num_residues must be an integer, not 2.5\n",
            ),
            (
                ["run", "--plan", "EMPTY/string-seed.json", "--out", "EMPTY/out"],
                "cells[0]: problem_seed must be an integer, not '7'\n",
            ),
            (
                ["run", "--plan", "EMPTY/float-trajectories.json", "--out", "EMPTY/out"],
                "cells[0]: trajectories must be an integer, not 2.5\n",
            ),
            (
                ["run", "--plan", "EMPTY/sa-visit.json", "--out", "EMPTY/out"],
                bad_cell_error(
                    "sa-visit",
                    "SaConfig.__init__() got an unexpected keyword argument 'visit'",
                ),
            ),
            (
                ["run", "--plan", "EMPTY/float-p.json", "--out", "EMPTY/out"],
                bad_cell_error("float-p", "p must be an integer, not 1.5"),
            ),
            (
                ["run", "--plan", "EMPTY/float-shots.json", "--out", "EMPTY/out"],
                bad_cell_error(
                    "float-shots", "shots_per_iteration must be an integer, not 2.5"
                ),
            ),
            (
                ["run", "--plan", "EMPTY/float-qaoa-budget.json", "--out", "EMPTY/out"],
                bad_cell_error(
                    "float-qaoa-budget", "max_iterations must be an integer, not 2.5"
                ),
            ),
            (
                ["run", "--plan", "EMPTY/float-sa-budget.json", "--out", "EMPTY/out"],
                bad_cell_error(
                    "float-sa-budget", "max_iterations must be an integer, not 2.5"
                ),
            ),
            (
                ["run", "--plan", "EMPTY/xy-one-rotamer.json", "--out", "EMPTY/out"],
                bad_cell_error(
                    "xy-one-rotamer", "xy regime needs at least 2 rotamers per residue"
                ),
            ),
            (
                ["run", "--plan", "EMPTY/missing.json", "--out", "EMPTY/out"],
                "[Errno 2] No such file or directory: 'EMPTY/missing.json'\n",
            ),
            (["fit", "--in", "EMPTY"], "no cell summaries found\n"),
            (
                ["crossover", "--in", "EMPTY", "--cpu-ghz", "1", "--qpu-khz", "1"],
                "no cell summaries found\n",
            ),
            (["report", "--in", "EMPTY"], "no cell summaries found\n"),
            (
                ["report", "--in", "SMOKE", "--cpu-ghz", "1", "--qpu-khz", "1"],
                "no usable fit for series 'qaoa-xy-statevector'\n",
            ),
            (["depth-table", "--max-size", "1"], "max_size must be at least 2\n"),
        ],
        ids=[
            "run-bad-regime",
            "run-no-cells",
            "run-number",
            "run-number-cell",
            "run-list-defaults",
            "run-string-residues",
            "run-float-residues",
            "run-string-seed",
            "run-float-trajectories",
            "run-sa-visit",
            "run-float-p",
            "run-float-shots",
            "run-float-qaoa-budget",
            "run-float-sa-budget",
            "run-xy-one-rotamer",
            "run-missing-plan",
            "fit-empty",
            "crossover-empty",
            "report-empty",
            "report-smoke",
            "depth-1",
        ],
    )
    def test_failing_command_prints_one_error_line(
        self, argv, err, tmp_path, smoke_tree, capsys
    ):
        for name, plan in PLANS.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(plan))

        def place(text: str) -> str:
            for mark, path in (("EMPTY", tmp_path), ("SMOKE", smoke_tree)):
                text = text.replace(mark, str(path))
            return text

        assert main([place(a) for a in argv]) == 1
        assert capsys.readouterr() == ("", place(err))
        assert not (tmp_path / "out").exists()

    def test_cli_leaves_scipy_stats_unloaded(self):
        # only fits need scipy.stats; run and depth-table should not pay for it
        path = [str(ROOT / "src"), os.getenv("PYTHONPATH")]
        env = os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, path))}
        code = "import sys, rotpack.bench.cli; print('scipy.stats' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr

    def test_depth_table_command(self, capsys):
        assert main(["depth-table", "--max-size", "3"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("regime")
        assert "MISMATCH" not in out
        assert main(["depth-table", "--max-size", "1"]) == 1
        assert "max_size" in capsys.readouterr().err

    def test_report_without_fittable_series_writes_no_crossover(
        self, tmp_path, capsys
    ):
        # one point per series: neither can be fitted
        for series, m in (("qaoa-xy-statevector", 4), ("sa-discrete", 6)):
            cell_dir = tmp_path / "cells" / series
            cell_dir.mkdir(parents=True)
            summary = synthetic_summary(series, m, 10.0)
            (cell_dir / "summary.json").write_text(json.dumps(summary))
        code = main(
            ["report", "--in", str(tmp_path), "--cpu-ghz", "1", "--qpu-khz", "10"]
        )
        assert code == 1
        assert "no usable fit" in capsys.readouterr().err
        assert not (tmp_path / "reports" / "crossover.json").exists()

    def test_report_skips_a_series_it_cannot_fit(self, tmp_path, capsys):
        # qaoa-penalty sorts first but has one cell; qaoa-xy and sa fit
        summaries = [synthetic_summary("qaoa-penalty-statevector", 10, 5.0)]
        summaries += [
            synthetic_summary("qaoa-xy-statevector", m, math.exp(0.3 + 0.05 * m))
            for m in (15, 18, 21, 24)
        ]
        summaries += [
            synthetic_summary("sa-discrete", m, math.exp(0.1 + 0.2 * m))
            for m in (18, 21, 24, 27)
        ]
        for summary in summaries:
            cell_dir = tmp_path / "cells" / summary["key"]
            cell_dir.mkdir(parents=True)
            (cell_dir / "summary.json").write_text(json.dumps(summary))
        tree = str(tmp_path)
        rates = ["--fit-start-m", "0", "--cpu-ghz", "1", "--qpu-khz", "1"]
        assert main(["report", "--in", tree, *rates]) == 0
        capsys.readouterr()
        written = (tmp_path / "reports" / "crossover.json").read_text()
        named = [
            "--quantum-series",
            "qaoa-xy-statevector",
            "--classical-series",
            "sa-discrete",
        ]
        assert main(["crossover", "--in", tree, *rates, *named]) == 0
        assert capsys.readouterr().out == written
        assert main(["crossover", "--in", tree, *rates]) == 0
        assert capsys.readouterr().out == written

    def test_run_and_report_commands(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        save_plan(tiny_plan(), plan_path)
        out_dir = tmp_path / "run"
        assert main(["run", "--plan", str(plan_path), "--out", str(out_dir)]) == 0
        first = capsys.readouterr().out
        assert "sa-discrete" in first
        assert main(["run", "--plan", str(plan_path), "--out", str(out_dir)]) == 0
        assert capsys.readouterr().out == first
        assert main(["report", "--in", str(out_dir)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 3
        assert (out_dir / "reports" / "scaling.csv").exists()

    def test_fit_command_without_data_fails(self, tmp_path, capsys):
        assert main(["fit", "--in", str(tmp_path)]) == 1
        assert "no cell summaries" in capsys.readouterr().err

    def test_crossover_command_reports_missing_series(self, tmp_path, capsys):
        plan = BenchPlan(name="sa-only", cells=(tiny_plan().cells[0],))
        plan_path = tmp_path / "plan.json"
        save_plan(plan, plan_path)
        out_dir = tmp_path / "run"
        assert main(["run", "--plan", str(plan_path), "--out", str(out_dir)]) == 0
        capsys.readouterr()
        code = main(
            [
                "crossover",
                "--in",
                str(out_dir),
                "--cpu-ghz",
                "1.0",
                "--qpu-khz",
                "10.0",
            ]
        )
        assert code == 1
        assert "qaoa series" in capsys.readouterr().err

    def test_readme_commands_run(self, tmp_path, monkeypatch, capsys):
        """Every ``bench`` line of the README's command block, minus its
        optional ``[...]`` arguments, runs against the smoke plan."""
        readme = (ROOT / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
        lines = block.split("```", 1)[0].splitlines()
        monkeypatch.chdir(ROOT)
        tree = str(tmp_path / "tree")
        commands = []
        for line in lines:
            argv = shlex.split(re.sub(r"\[[^\]]*\]", "", line.split("#", 1)[0]))
            assert argv[0] == "bench"
            commands.append(argv[1])
            args = [tree if a == "/tmp/tree" else a for a in argv[1:]]
            try:
                code = main(args)
            except SystemExit as exc:
                pytest.fail(f"{line!r} exited with {exc.code}")
            err = capsys.readouterr().err
            if argv[1] == "crossover":
                # the smoke plan stays below the sizes a fit needs
                assert code == 1 and "no usable fit" in err, line
            else:
                assert code == 0, line
        assert commands == ["run", "fit", "crossover", "depth-table", "report"]
