"""Benchmark plans: which cells to run, with what solver settings.

A plan is a JSON document with a name, optional per-cell defaults, and a
list of cells. Each cell pins one problem shape (residues and rotamers per
residue), one solver, and a trajectory count. Cells are content-addressed:
the key is a SHA-256 prefix of the canonical JSON of the fully merged cell,
so editing any knob yields a fresh key while re-running an unchanged plan
reuses finished cells.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, TextIO

from ..driver import _require_integers

SOLVERS = ("qaoa", "sa", "sa-discrete")


@dataclass(frozen=True)
class CellSpec:
    num_residues: int
    rotamers: int
    solver: str = "qaoa"
    trajectories: int = 8
    problem_seed: int = 7
    # cell instances are nearest-neighbour only, so decay would change nothing
    # but the key; it must be 0 and stays a field because every key hashes it
    decay: float = 0.0
    self_scale: float = 1.0
    pair_scale: float = 1.0
    target_energy: float | None = None
    series: str | None = None
    qaoa: dict = field(default_factory=dict)
    sa: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        _require_integers(
            self, "num_residues", "rotamers", "trajectories", "problem_seed"
        )
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}")
        if self.num_residues < 1 or self.rotamers < 1:
            raise ValueError("cells need at least one residue and one rotamer")
        if self.trajectories < 1:
            raise ValueError("trajectories must be at least 1")
        # the key hashes the JSON text, so 0 and 0.0 must not make two cells
        for name in ("decay", "self_scale", "pair_scale", "target_energy"):
            value = getattr(self, name)
            if value is not None:
                value = float(value)
                if not math.isfinite(value):
                    raise ValueError(f"{name} must be finite, not {value}")
                object.__setattr__(self, name, value)
        if self.decay != 0.0:
            raise ValueError("decay must be 0: cell instances are nearest-neighbour only")
        if self.qaoa and self.solver != "qaoa":
            raise ValueError(f"a {self.solver} cell takes no qaoa settings")
        if self.sa and self.solver == "qaoa":
            raise ValueError("a qaoa cell takes no sa settings")

    def series_name(self) -> str:
        if self.series is not None:
            return self.series
        if self.solver == "qaoa":
            regime = self.qaoa.get("regime", "xy")
            backend = self.qaoa.get("backend", "statevector")
            return f"qaoa-{regime}-{backend}"
        return self.solver


@dataclass(frozen=True)
class BenchPlan:
    name: str
    cells: tuple[CellSpec, ...]

    def __post_init__(self) -> None:
        if not self.cells:
            raise ValueError("a plan needs at least one cell")


def cell_key(cell: CellSpec) -> str:
    """Content hash of the merged cell settings."""
    canonical = json.dumps(
        dataclasses.asdict(cell), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def load_plan(path: str | Path) -> BenchPlan:
    """The plan in a JSON file; raises ValueError, naming the cell by its
    position, if the document is malformed."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("plan must be a JSON object")
    if "name" not in raw:
        raise ValueError("plan is missing a name")
    if not isinstance(raw.get("cells"), list) or not raw["cells"]:
        raise ValueError("plan has no cells")
    defaults = raw.get("defaults", {})
    if not isinstance(defaults, dict):
        raise ValueError("plan defaults must be a JSON object")
    names = {f.name for f in dataclasses.fields(CellSpec)}
    cells = []
    for position, entry in enumerate(raw["cells"]):
        if not isinstance(entry, dict):
            raise ValueError(f"cells[{position}] must be a JSON object")
        merged = {**defaults, **entry}
        unknown = set(merged) - names
        if unknown:
            raise ValueError(f"unknown cell fields: {sorted(unknown)}")
        try:
            cells.append(CellSpec(**merged))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"cells[{position}]: {exc}") from exc
    return BenchPlan(name=raw["name"], cells=tuple(cells))


def save_plan(plan: BenchPlan, path: str | Path) -> None:
    doc = {
        "name": plan.name,
        "cells": [dataclasses.asdict(c) for c in plan.cells],
    }
    write_json(doc, path)


@contextmanager
def replacing(path: str | Path) -> Iterator[TextIO]:
    """A text file that replaces ``path`` when the block ends without error.

    The text goes to ``<path>.tmp`` first, so ``path`` holds its old bytes
    or the new ones, never part of them; on an error the temporary file is
    removed.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(doc, path: str | Path) -> None:
    """Sorted, indent-2 JSON and a newline, written through :func:`replacing`."""
    with replacing(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
