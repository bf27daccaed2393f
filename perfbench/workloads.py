"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed in ``setup`` (the
instances of ``dense`` and ``mps``; the solver seeds on the fixed instances
of ``anneal`` and ``sweep``), runs one fixed unit of work per ``run_pass``
through rotpack's public API,
checks the pass against independent oracles, and turns the passes into
metrics. A pass is deterministic for a given seed, so repeating it inside
one run measures timing noise only, and each repeat must reproduce the
first pass's results exactly. Before each of its units of work (a draw
or a trajectory) a pass probes the host's speed (``hostspeed.py``) and marks
the unit in ``data["marks"]``; the runner stores the speed factor of the
pass in ``data["speed"]`` and of each marked unit in ``data["scale"]``,
and the summaries scale raw times by them.

Oracles: brute force gives the ground energy and every ground
configuration; ``RotamerProblem.energy`` re-scores every reported best
bitstring from the energy tables, independently of the QUBO the solvers
use.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import rotpack
import rotpack.bench
from rotpack import baselines, driver
from rotpack.baselines import SaConfig
from rotpack.bench import BenchPlan, CellSpec
from rotpack.driver import FirstGroundState, QaoaConfig, RunRecord

import hostspeed
from hostspeed import HostClock

TOL = 1e-9


def instance_seed(seed: int, *key: int) -> int:
    """A problem seed derived from the benchmark seed and a per-instance key."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass
class Instance:
    """A problem with its brute-force oracle."""

    problem: rotpack.RotamerProblem
    ground: float
    ground_configs: frozenset

    @classmethod
    def make(cls, problem: rotpack.RotamerProblem) -> "Instance":
        bf = baselines.brute_force(problem)
        return cls(problem, bf.ground_energy, frozenset(bf.ground_configs))


@dataclass
class PassResult:
    wall_s: float
    attempted: int
    failed: int
    errors: list[str]
    data: dict = field(default_factory=dict)


class Checks:
    """Oracle outcomes of one pass: operations with any failed check."""

    def __init__(self) -> None:
        self.failed = 0
        self.errors: list[str] = []

    def op(self, label: str, errors: list[str]) -> None:
        if errors:
            self.failed += 1
            self.errors += [f"{label}: {e}" for e in errors]

    def result(self, wall_s: float, attempted: int, same_as_first: bool, data: dict) -> PassResult:
        failed = self.failed
        if not same_as_first:
            # nothing in a pass that does not reproduce can be trusted
            failed = attempted
            self.errors.append("results differ from the first pass of the same seed")
        return PassResult(wall_s, attempted, failed, self.errors, data)


def check_best(inst: Instance, energy, bitstring, *, must_be_valid: bool, converged: bool) -> list[str]:
    """Oracle checks on one trajectory's best sample.

    The best energy is never below the ground; a valid best bitstring
    re-scores to the reported energy; a converged trajectory's bitstring is
    a brute-force ground configuration.
    """
    errors = []
    if energy is None:
        if must_be_valid or converged:
            errors.append("no valid best sample")
        return errors
    if energy < inst.ground - TOL:
        errors.append(f"best energy {energy} below the ground {inst.ground}")
    config = rotpack.decode([int(c) for c in bitstring], inst.problem)
    if not config:
        if must_be_valid or converged:
            errors.append(f"best bitstring {bitstring} is not a valid assignment")
        return errors
    rescored = inst.problem.energy(config)
    if abs(rescored - energy) > TOL:
        errors.append(f"best energy {energy} but its assignment scores {rescored}")
    if converged and config not in inst.ground_configs:
        errors.append(f"converged on {config}, not a brute-force ground configuration")
    return errors


def median_pass(passes: list[PassResult], key: str) -> tuple[list[float], float]:
    """The median pass at the nominal host speed, unit of work by unit.

    ``data[key]`` holds a pass's raw unit times, in the order they ran; a
    deterministic pass runs the same units every time. Each unit is scaled
    by its own speed factor (by the pass's when the units were not marked
    one by one) and taken at its median over the passes, so one slow spell
    moves only the units it overlapped. Returns those medians and the
    median of the rest of the pass, its wall time outside the units,
    scaled by the pass's factor.
    """
    scaled = []
    for p in passes:
        unit_s = p.data[key]
        scale = p.data.get("scale", [])
        if len(scale) != len(unit_s):
            scale = [p.data["speed"]] * len(unit_s)
        scaled.append([t * f for t, f in zip(unit_s, scale)])
    units = [statistics.median(times) for times in zip(*scaled)]
    rest = statistics.median((p.wall_s - sum(p.data[key])) * p.data["speed"] for p in passes)
    return units, rest


def _comparable(record: RunRecord) -> dict:
    out = dataclasses.asdict(record)
    out.pop("wall_time")
    return out


class Workload:
    name = ""
    # layers expected to dominate self time in the traced run
    expected_top: tuple[str, ...] = ()
    # the probe kernel whose drift the workload's work follows (hostspeed.py)
    reference = hostspeed.INTERPRETER

    def __init__(self, seed: int, size: str, out_dir: Path, clock: HostClock | None = None) -> None:
        self.seed = seed
        self.cfg = self.SIZES[size]
        self.out_dir = out_dir
        self.clock = clock or HostClock(None)
        self.first: dict = {}

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, index: int) -> PassResult:
        raise NotImplementedError

    def summarize(self, passes: list[PassResult]) -> dict[str, tuple[float, str]]:
        raise NotImplementedError

    def planned_operations(self) -> int:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# QAOA trajectories on a fixed iteration budget


class _FixedBudget(Workload):
    """Groups of QAOA trajectories that each run exactly their budget.

    Each group (regime and shape) runs one trajectory on each of ``draws``
    instances, and a pass interleaves the groups draw by draw. The stop
    target sits one unit below the brute-force ground, which no sample can
    reach, so no trajectory stops early and every commit simulates the same
    circuits.
    """

    def _config(self, regime: str, inst: Instance) -> QaoaConfig:
        raise NotImplementedError

    def setup(self) -> None:
        c = self.cfg
        instances: dict[tuple, Instance] = {}
        self.draws = []
        for k in range(c["draws"]):
            for group, (regime, r, n) in enumerate(c["groups"]):
                if (r, n, k) not in instances:
                    problem = rotpack.random_problem(r, n, seed=instance_seed(self.seed, r, n, k))
                    instances[(r, n, k)] = Instance.make(problem)
                inst = instances[(r, n, k)]
                self.draws.append((group, regime, inst, self._config(regime, inst), k))
        # warm-up: one circuit of the first group
        _, _, inst, config, _ = self.draws[0]
        driver.optimize(inst.problem, dataclasses.replace(config, max_iterations=1))

    def planned_operations(self) -> int:
        return len(self.draws)

    def run_pass(self, index: int) -> PassResult:
        budget = self.cfg["budget"]
        records, times, marks = [], [], []
        probing = self.clock.spent
        start = time.perf_counter()
        for group, _, inst, config, k in self.draws:
            self.clock.probe()
            marks.append(self.clock.mark())
            t0 = time.perf_counter()
            records.append(driver.optimize(inst.problem, config, trajectory_id=k))
            times.append(time.perf_counter() - t0)
        wall = time.perf_counter() - start - (self.clock.spent - probing)
        checks = Checks()
        for (_, regime, inst, config, k), rec in zip(self.draws, records):
            shots = config.resolved_shots(inst.problem.num_qubits)
            errs = check_best(
                inst, rec.best_energy, rec.best_bitstring,
                must_be_valid=regime == "xy", converged=rec.converged,
            )
            if rec.iterations_used != budget or rec.total_shots != budget * shots:
                errs.append(f"used {rec.iterations_used} of a fixed budget of {budget} iterations")
            if rec.converged:
                errs.append("stopped on a target below the ground")
            checks.op(f"{regime} {inst.problem.rotamer_counts} draw {k}", errs)
        results = [_comparable(r) for r in records]
        same = results == self.first.setdefault("records", results)
        circuits = sum(r.iterations_used for r in records)
        return checks.result(wall, len(records), same,
                             {"circuits": circuits, "draw_s": times, "marks": marks})

    def summarize(self, passes):
        budget = self.cfg["budget"]
        # every draw counts (its instance and angles set its cost)
        draw_s, rest_s = median_pass(passes, "draw_s")
        out = {}
        per_circuit = []
        for group, (regime, r, n) in enumerate(self.cfg["groups"]):
            times = [t for (g, *_), t in zip(self.draws, draw_s) if g == group]
            t = sum(times) / (len(times) * budget)
            per_circuit.append(t)
            out[f"circuits_per_s.{regime}_{r}x{n}"] = (1.0 / t, "1/s")
        # one circuit of every group
        rate = len(per_circuit) / sum(per_circuit)
        out["throughput_per_s"] = out["circuits_per_s"] = (rate, "1/s")
        out["pass_s"] = (sum(draw_s) + rest_s, "s")
        out["pass_s.raw"] = (statistics.median(p.wall_s for p in passes), "s")
        return out


class Dense(_FixedBudget):
    name = "dense"
    expected_top = ("statevector",)
    reference = hostspeed.STREAM
    SIZES = {
        "full": {"groups": [("xy", 6, 3), ("penalty", 6, 3)], "p": 4, "budget": 5, "draws": 2},
        "smoke": {"groups": [("xy", 3, 2), ("penalty", 3, 2)], "p": 1, "budget": 3, "draws": 1},
    }

    def _config(self, regime, inst):
        return QaoaConfig(
            regime=regime,
            p=self.cfg["p"],
            max_iterations=self.cfg["budget"],
            seed=self.seed,
            stop_mode=FirstGroundState(target_energy=inst.ground - 1.0),
        )


class Mps(_FixedBudget):
    name = "mps"
    expected_top = ("mps",)
    SIZES = {
        "full": {
            "groups": [("xy", 5, 4), ("xy", 5, 5), ("penalty", 5, 4)],
            "p": 2, "budget": 1, "draws": 12, "max_bond": 64,
        },
        "smoke": {
            "groups": [("xy", 3, 2), ("xy", 3, 3), ("penalty", 3, 2)],
            "p": 1, "budget": 3, "draws": 1, "max_bond": 16,
        },
    }

    def _config(self, regime, inst):
        return QaoaConfig(
            regime=regime,
            p=self.cfg["p"],
            backend="mps",
            shots_per_iteration=100,
            cvar_alpha=0.15,
            optimizer="nelder-mead",
            max_bond=self.cfg["max_bond"],
            max_iterations=self.cfg["budget"],
            seed=self.seed,
            stop_mode=FirstGroundState(target_energy=inst.ground - 1.0),
        )


# ---------------------------------------------------------------------------
# Annealing to solution


class Anneal(Workload):
    name = "anneal"
    expected_top = ("baselines",)
    # Criterion 7's instances, so that time to solution varies with the
    # annealers' seeds only, not with how hard a drawn instance is. Many
    # short discrete runs average out their spread in time to solution;
    # the GSA budget is short enough that most of its runs spend all of it.
    SIZES = {
        "full": {"ensembles": [("discrete", 5, 6, 206, 120, 300), ("gsa", 5, 3, 203, 24, 100)]},
        "smoke": {"ensembles": [("discrete", 3, 3, 33, 2, 50), ("gsa", 2, 2, 22, 2, 50)]},
    }

    def setup(self) -> None:
        self.ensembles = [
            (method, Instance.make(rotpack.random_problem(r, n, seed=problem_seed)), trajectories,
             SaConfig(max_iterations=iterations, seed=self.seed))
            for method, r, n, problem_seed, trajectories, iterations in self.cfg["ensembles"]
        ]
        # warm-up: one short chain per method
        for method, inst, _, config in self.ensembles:
            baselines.sa_ensemble(
                inst.problem, dataclasses.replace(config, max_iterations=2), 1, method=method
            )

    def planned_operations(self) -> int:
        return sum(t for _, _, t, _ in self.ensembles)

    def run_pass(self, index: int) -> PassResult:
        start = time.perf_counter()
        timed = []
        for method, inst, trajectories, config in self.ensembles:
            ens = baselines.sa_ensemble(
                inst.problem, config, trajectories, target_energy=inst.ground, method=method
            )
            timed.append((method, inst, ens))
        wall = time.perf_counter() - start
        checks = Checks()
        results = []
        rates: dict[str, list[float]] = {}
        for method, inst, ens in timed:
            for res in ens.results:
                errs = check_best(
                    inst, res.best_energy, res.best_bitstring,
                    must_be_valid=method == "discrete", converged=res.converged,
                )
                if res.converged and abs(res.best_energy - inst.ground) > TOL:
                    errs.append(f"converged at {res.best_energy}, ground is {inst.ground}")
                checks.op(f"{method} {inst.problem.rotamer_counts} seed {res.seed}", errs)
                rates.setdefault(method, []).append(res.evaluations / res.wall_time)
            results.append([{**dataclasses.asdict(r), "wall_time": None} for r in ens.results])
        costs = [ens.mean_cost for _, _, ens in timed if ens.mean_cost is not None]
        same = results == self.first.setdefault("results", results)
        return checks.result(
            wall, self.planned_operations(), same,
            {"rates": rates, "costs": costs, "unsolved": len(timed) - len(costs)},
        )

    def summarize(self, passes):
        out = {}
        rates = []
        for method in passes[0].data["rates"]:
            # median over trajectories, each its evaluations over its wall
            # time scaled to the nominal host speed
            rate = statistics.median(
                r / p.data["speed"] for p in passes for r in p.data["rates"][method])
            rates.append(rate)
            out[f"sa_evals_per_s.{method}"] = (rate, "1/s")
        # geometric mean, so the rate does not shift with how the
        # evaluations split between the two annealers on a given seed
        out["throughput_per_s"] = out["sa_evals_per_s"] = (geomean(rates), "1/s")
        out["pass_s"] = out["time_to_solution_s"] = (
            statistics.median(p.wall_s * p.data["speed"] for p in passes), "s")
        out["pass_s.raw"] = (statistics.median(p.wall_s for p in passes), "s")
        first = passes[0].data
        if first["costs"]:
            out["evals_to_solution"] = (geomean(first["costs"]), "evaluations")
        out["ensembles_without_solution"] = (first["unsolved"], "count")
        return out


# ---------------------------------------------------------------------------
# The bench-run path


class Sweep(Workload):
    name = "sweep"
    expected_top = ("optimizers", "statevector")
    SIZES = {
        "full": {"shapes": [(r, n) for r in (2, 3, 4) for n in (2, 3, 4)], "p": 4, "trajectories": 20},
        "smoke": {"shapes": [(2, 2)], "p": 2, "trajectories": 2},
    }

    def setup(self) -> None:
        c = self.cfg
        cells = []
        self.instances = {}
        for r, n in c["shapes"]:
            problem_seed = 100 + 10 * r + n  # criterion 5's instances
            common = {"num_residues": r, "rotamers": n, "trajectories": c["trajectories"],
                      "problem_seed": problem_seed}
            cells.append(CellSpec(solver="qaoa", qaoa={"regime": "xy", "p": c["p"], "seed": self.seed}, **common))
            cells.append(CellSpec(solver="sa-discrete", sa={"seed": self.seed}, **common))
            self.instances[problem_seed] = Instance.make(rotpack.random_problem(r, n, seed=problem_seed))
        self.plan = BenchPlan(name=f"perfbench-sweep-{self.seed}", cells=tuple(cells))
        # warm-up: one circuit on the smallest cell
        problem = self.instances[cells[0].problem_seed].problem
        driver.optimize(problem, QaoaConfig(regime="xy", p=c["p"], max_iterations=1))

    def planned_operations(self) -> int:
        # every trajectory, plus the resume check of every cell
        return sum(c.trajectories for c in self.plan.cells) + len(self.plan.cells)

    def run_pass(self, index: int) -> PassResult:
        tree = self.out_dir / f"sweep-pass{index}"
        shutil.rmtree(tree, ignore_errors=True)
        # the ensemble calls driver.optimize once per trajectory: probe the
        # host's speed before each call
        optimize = driver.optimize
        marks = []

        def probed(*args, **kwargs):
            self.clock.probe()
            marks.append(self.clock.mark())
            return optimize(*args, **kwargs)

        try:
            probing = self.clock.spent
            if self.clock.enabled:
                driver.optimize = probed
            try:
                start = time.perf_counter()
                cold = rotpack.bench.run_experiment(self.plan, tree, workers=1)
                wall = time.perf_counter() - start - (self.clock.spent - probing)
            finally:
                driver.optimize = optimize
            t0 = time.perf_counter()
            resumed = rotpack.bench.run_experiment(self.plan, tree, workers=1)
            resume_s = time.perf_counter() - t0
            result = self._check(tree, cold, resumed, wall, resume_s)
            result.data["marks"] = marks
            return result
        finally:
            shutil.rmtree(tree, ignore_errors=True)

    def _check(self, tree, cold, resumed, wall, resume_s) -> PassResult:
        checks = Checks()
        index = json.loads((tree / "index.json").read_text())
        statuses = [c["status"] for c in index["cells"]]
        for cell, status, before, after in zip(self.plan.cells, statuses, cold, resumed):
            if status != "cached" or before != after:
                checks.op(f"cell {before['key']}", [f"resume gave status {status!r} or a different summary"])
        qaoa_records, qaoa_costs, sa_costs = [], [], []
        aggregates = []
        for cell, summary in zip(self.plan.cells, cold):
            inst = self.instances[cell.problem_seed]
            label = f"{cell.series_name()} {inst.problem.rotamer_counts}"
            target_errs = []
            if abs(summary["target_energy"] - inst.ground) > TOL:
                target_errs.append(f"target {summary['target_energy']} is not the ground {inst.ground}")
            lines = (tree / "cells" / summary["key"] / "records.jsonl").read_text().splitlines()
            for line in lines:
                doc = json.loads(line)
                if cell.solver == "qaoa":
                    rec = RunRecord(**doc)
                    qaoa_records.append(rec)
                    errs = check_best(inst, rec.best_energy, rec.best_bitstring,
                                      must_be_valid=True, converged=rec.converged)
                else:
                    errs = check_best(inst, doc["best_energy"], doc["best_bitstring"],
                                      must_be_valid=True, converged=doc["converged"])
                checks.op(label, target_errs + errs)
            agg = summary["aggregate"]
            aggregates.append(agg)
            if agg["mean_cost"] is not None:
                (qaoa_costs if cell.solver == "qaoa" else sa_costs).append(agg["mean_cost"])
        times = [r.wall_time for r in qaoa_records]
        same = aggregates == self.first.setdefault("aggregates", aggregates)
        return checks.result(
            wall, self.planned_operations(), same,
            {
                "circuits": sum(r.iterations_used for r in qaoa_records),
                "trajectory_s": times,
                "shots_costs": qaoa_costs,
                "evals_costs": sa_costs,
                "resume_s": resume_s,
                "statuses": statuses,
            },
        )

    def summarize(self, passes):
        times, rest_s = median_pass(passes, "trajectory_s")
        rate = passes[0].data["circuits"] / sum(times)
        cold_s = sum(times) + rest_s
        p50 = statistics.median(times)
        out = {
            "throughput_per_s": (rate, "1/s"),
            "circuits_per_s": (rate, "1/s"),
            "pass_s": (cold_s, "s"),
            "time_to_solution_s": (cold_s, "s"),
            "pass_s.raw": (statistics.median(p.wall_s for p in passes), "s"),
            "trajectory_s_p50": (p50, "s"),
            "trajectory_samples": (len(times), "count"),
        }
        if len(times) >= 100:  # at least ten samples beyond the 90th percentile
            out["trajectory_s_p90"] = (statistics.quantiles(times, n=10)[8], "s")
        first = passes[0].data
        if first["shots_costs"]:
            out["shots_to_solution"] = (geomean(first["shots_costs"]), "shots")
        if first["evals_costs"]:
            out["evals_to_solution"] = (geomean(first["evals_costs"]), "evaluations")
        return out


WORKLOADS = {w.name: w for w in (Dense, Mps, Anneal, Sweep)}
