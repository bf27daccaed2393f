"""Golden records: refactors must leave every output unchanged.

The expected values in ``golden_records.json`` were produced by this module
and are compared field by field, exactly, with only ``wall_time`` masked:

- one QAOA trajectory per (regime, backend, optimizer, seed, stop mode) on a
  3x2 instance at p=2, plus fixed-budget runs chasing an unreachable target,
  which end in optimizer restarts (some with a budget below COBYLA's 2n+2);
- annealing ensembles of both methods with full, partial and no success;
- the text of every file ``run_experiment`` writes for the smoke plan, with
  trajectories run serially and, in a second test, in a process pool.

COBYLA's points depend on its implementation, so ``golden_environment.json``
beside the records names the scipy version and COBYLA implementation they
were verified against; a mismatch names those and the running ones.
Print both with

    PYTHONPATH=src python tests/test_golden.py --environment

Regenerate (only when a change is meant to alter results) with

    PYTHONPATH=src python tests/test_golden.py

which also rewrites the environment note.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
from pathlib import Path

from rotpack.baselines import SaConfig, brute_force, sa_ensemble
from rotpack.bench import run_experiment
from rotpack.bench.plans import load_plan
from rotpack.driver import (
    FirstGroundState,
    QaoaConfig,
    aggregate_records,
    optimize,
)
from rotpack.problem import random_problem

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_records.json"
ENVIRONMENT = HERE / "golden_environment.json"
PLAN = HERE.parent / "data" / "sample_plan.json"

REGIMES = ("baseline", "penalty", "xy")
BACKENDS = ("statevector", "mps")
OPTIMIZERS = ("cobyla", "nelder-mead")
SEEDS = (0, 1)
# below the ground energy, so trajectories spend their whole budget and
# restart the optimizer whenever it terminates early
UNREACHABLE = 100.0

_WALL_TIME = re.compile(r'"wall_time": [^,\n}]+')


def running_environment() -> dict[str, str]:
    """The running scipy version and the COBYLA implementation it runs.

    The implementation is read from a short ``minimize(method="COBYLA")``
    run under a profiler: ``scipy._lib.pyprima`` if that package's code
    ran, else the compiled code the module ``minimize`` dispatched to
    calls.
    """
    import scipy
    from scipy.optimize import minimize

    ran = []

    def profile(frame, event, arg):
        if event == "call":
            ran.append(frame.f_globals.get("__name__", ""))

    sys.setprofile(profile)
    try:
        minimize(lambda x: x @ x, [1.0, 1.0], method="COBYLA", options={"maxiter": 20})
    finally:
        sys.setprofile(None)
    if any(name.startswith("scipy._lib.pyprima") for name in ran):
        cobyla = "scipy._lib.pyprima"
    else:
        caller = [name for name in ran if "cobyla" in name] or ["scipy"]
        cobyla = f"compiled code called from {caller[-1]}"
    return {"scipy": scipy.__version__, "cobyla": cobyla}


def environments() -> str:
    """The recorded and the running scipy and COBYLA, on one line."""
    recorded = json.loads(ENVIRONMENT.read_text())
    running = running_environment()
    return (
        f"golden records verified on scipy {recorded['scipy']} with COBYLA from"
        f" {recorded['cobyla']}; running scipy {running['scipy']} with COBYLA"
        f" from {running['cobyla']}"
    )


def _plain(obj) -> dict:
    data = json.loads(json.dumps(dataclasses.asdict(obj), sort_keys=True))
    data.pop("wall_time")
    return data


def _masked(text: str) -> str:
    return _WALL_TIME.sub('"wall_time": null', text)


def _trajectory_cases():
    for regime in REGIMES:
        for backend in BACKENDS:
            for optimizer in OPTIMIZERS:
                for seed in SEEDS:
                    yield regime, backend, optimizer, seed, "convergence", 24
                    yield regime, backend, optimizer, seed, "first-hit", 40
    for regime in REGIMES:
        for backend in BACKENDS:
            for seed in SEEDS:
                yield regime, backend, "cobyla", seed, "unreachable", 40


def _stop_mode(stop: str, ground: float):
    if stop == "convergence":
        return None
    if stop == "first-hit":
        return FirstGroundState(ground)
    return FirstGroundState(ground - UNREACHABLE)


def collect(tree: Path) -> dict:
    problem = random_problem(3, 2, seed=5)
    ground = brute_force(problem).ground_energy

    trajectories = []
    by_stop: dict[str, list] = {}
    for regime, backend, optimizer, seed, stop, budget in _trajectory_cases():
        config = QaoaConfig(
            regime=regime,
            p=2,
            backend=backend,
            optimizer=optimizer,
            seed=seed,
            stop_mode=_stop_mode(stop, ground),
            max_iterations=budget,
            shots_per_iteration=16,
        )
        record = optimize(problem, config)
        by_stop.setdefault(stop, []).append(record)
        trajectories.append(
            {
                "case": [regime, backend, optimizer, seed, stop, budget],
                "record": _plain(record),
            }
        )
    aggregates = {}
    for stop, records in by_stop.items():
        ens = aggregate_records(records)
        aggregates[stop] = [ens.success_ratio, ens.mean_cost, ens.std_cost]

    anneal = []
    for method in ("gsa", "discrete"):
        for max_iterations in (1, 3, 30):
            ens = sa_ensemble(
                problem,
                SaConfig(max_iterations=max_iterations, seed=3),
                4,
                target_energy=ground,
                method=method,
            )
            anneal.append(
                {
                    "case": [method, max_iterations],
                    "summary": [ens.success_ratio, ens.mean_cost, ens.std_cost],
                    "results": [_plain(r) for r in ens.results],
                }
            )

    return {
        "trajectories": trajectories,
        "aggregates": aggregates,
        "anneal": anneal,
        "experiment": experiment_files(tree, workers=1),
    }


def experiment_files(tree: Path, *, workers: int) -> dict[str, str]:
    """The masked text of every file ``run_experiment`` writes for the plan."""
    run_experiment(load_plan(PLAN), tree, workers=workers)
    return {
        path.relative_to(tree).as_posix(): _masked(path.read_text())
        for path in sorted(tree.rglob("*"))
        if path.is_file()
    }


def test_outputs_match_golden_records(tmp_path):
    want = json.loads(GOLDEN.read_text())
    got = collect(tmp_path / "tree")
    assert [t["case"] for t in got["trajectories"]] == [
        t["case"] for t in want["trajectories"]
    ]
    for g, w in zip(got["trajectories"], want["trajectories"]):
        assert g["record"] == w["record"], f"{g['case']}; {environments()}"
    assert got["aggregates"] == want["aggregates"], environments()
    for g, w in zip(got["anneal"], want["anneal"], strict=True):
        assert g == w, f"{g['case']}; {environments()}"
    assert sorted(got["experiment"]) == sorted(want["experiment"])
    for name, text in want["experiment"].items():
        assert got["experiment"][name] == text, f"{name}; {environments()}"


def test_pooled_experiment_matches_golden_records(tmp_path):
    # every cell, annealing and QAOA alike, runs its trajectories in a pool
    want = json.loads(GOLDEN.read_text())["experiment"]
    assert experiment_files(tmp_path / "tree", workers=2) == want, environments()


def test_golden_grid_covers_restarts_and_outcomes():
    want = json.loads(GOLDEN.read_text())
    records = [t["record"] for t in want["trajectories"]]
    assert any(r["optimizer_restarts"] > 0 for r in records)
    assert any(r["converged"] for r in records)
    assert any(not r["converged"] for r in records)
    ratios = {a["summary"][0] for a in want["anneal"]}
    assert 0.0 in ratios and 1.0 in ratios and len(ratios) > 2


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] == ["--environment"]:
        print(environments())
        sys.exit()
    with tempfile.TemporaryDirectory() as tmp:
        data = collect(Path(tmp) / "tree")
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    ENVIRONMENT.write_text(
        json.dumps(running_environment(), indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN} and {ENVIRONMENT}", file=sys.stderr)
