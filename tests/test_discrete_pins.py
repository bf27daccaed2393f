"""Pinned ``discrete_anneal`` records on cases the golden grid lacks.

``discrete_anneal`` draws from numpy's Philox stream; these records pin
every result field (``wall_time`` masked) so that a change to how the
draws are taken cannot change a result unnoticed. The cases cover:

- residues with a single rotamer, whose draw takes no word of the stream:
  rotamer counts (1, 3, 7, 2) and (1, 1, 2);
- a one-residue problem, whose residue draw takes no word either;
- a cold (T0 = 1) and the default hot (T0 = 5230) start;
- runs with the ground energy as target and runs without a target.

Regenerate (only when a change is meant to alter results) with

    PYTHONPATH=src python tests/test_discrete_pins.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

from rotpack.baselines import SaConfig, brute_force, discrete_anneal
from rotpack.problem import random_problem

PINS = Path(__file__).resolve().parent / "discrete_pins.json"

INSTANCES = {
    "counts-1-3-7-2": lambda: random_problem(4, (1, 3, 7, 2), seed=1),
    "counts-1-1-2": lambda: random_problem(3, (1, 1, 2), seed=2),
    "one-residue": lambda: random_problem(1, 5, seed=3),
    "all-pairs-5x3": lambda: random_problem(
        5, 3, seed=4, decay=0.5, nearest_neighbor_only=False
    ),
}
TEMPERATURES = (1.0, 5230.0)
SEEDS = (0, 7, 12345678901234567890)
MAX_ITERATIONS = 20


def _cases():
    for name, build in INSTANCES.items():
        problem = build()
        ground = brute_force(problem).ground_energy
        for t0 in TEMPERATURES:
            for targeted in (False, True):
                for seed in SEEDS:
                    yield [name, t0, targeted, seed], problem, ground


def collect() -> list[dict]:
    pins = []
    for case, problem, ground in _cases():
        _, t0, targeted, seed = case
        result = discrete_anneal(
            problem,
            SaConfig(max_iterations=MAX_ITERATIONS, initial_temperature=t0, seed=seed),
            target_energy=ground if targeted else None,
        )
        record = json.loads(json.dumps(dataclasses.asdict(result), sort_keys=True))
        record.pop("wall_time")
        pins.append({"case": case, "record": record})
    return pins


def test_records_match_pins():
    want = json.loads(PINS.read_text())
    got = collect()
    assert [g["case"] for g in got] == [w["case"] for w in want]
    for g, w in zip(got, want):
        assert g["record"] == w["record"], g["case"]


def test_targeted_pins_hold_both_outcomes():
    want = json.loads(PINS.read_text())
    assert {w["record"]["converged"] for w in want if w["case"][2]} == {False, True}


if __name__ == "__main__":
    PINS.write_text(json.dumps(collect(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS}", file=sys.stderr)
