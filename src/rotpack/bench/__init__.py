"""Benchmark orchestration, scaling fits, and report generation.

Import each name from its module (``plans``, ``orchestrate``, ``fits``,
``reports``, ``cli``). Only a plan's types and ``run_experiment`` are
also read here.
"""

from .orchestrate import run_experiment
from .plans import BenchPlan, CellSpec

__all__ = ["BenchPlan", "CellSpec", "run_experiment"]
