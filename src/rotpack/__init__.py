"""Rotamer packing on simulated quantum hardware.

Formulates protein side-chain packing as a QUBO over one-hot rotamer
blocks, compiles three QAOA ansatz families (bare transverse mixer,
penalty-weighted cost, and a particle-conserving XY mixer on feasible
states), simulates them on dense statevectors or matrix product states,
and benchmarks sampling cost against classical annealing.

Import each name from the module that defines it (``rotpack.driver``,
``rotpack.baselines``, ...). Only the instance model is also read here.
"""

from .problem import RotamerProblem, decode, random_problem

__version__ = "0.1.0"

__all__ = ["RotamerProblem", "decode", "random_problem", "__version__"]
