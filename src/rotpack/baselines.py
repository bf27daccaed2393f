"""Classical reference solvers.

``brute_force`` enumerates every rotamer assignment and is the ground-truth
oracle for everything else. ``dual_anneal`` is a self-contained generalized
simulated annealing (Tsallis and Stariolo, Physica A 233, 1996) over the
penalized QUBO relaxed to the unit hypercube (rounding to bits at evaluation
time), instrumented the way the benchmarks need: it counts objective
evaluations exactly, can stop mid-chain the moment the target energy is
sampled, and ends with a bit-flip refinement pass. It runs one shape,
visiting parameter ``VISIT`` and acceptance parameter ``ACCEPT``.
``discrete_anneal`` is a plain Metropolis sampler over valid assignments,
kept as a sanity baseline behind the same interface.

Evaluation accounting for ``dual_anneal`` is deliberately simple: one eval
for the initial point, then exactly ``2 * num_qubits`` per completed chain
iteration. The bit-flip refinement adds its own evals on top, so the clean
identity only holds with ``local_search=False``.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from ._rng import generator, trajectory_seed
from .driver import (
    EnsembleResult,
    _require_integers,
    _run_trajectories,
    ensemble_cost,
    stop_threshold,
)
from .problem import RotamerProblem, bits_to_string, encode, valid_mask
from .qubo import QuboMatrix, build_qubo, default_penalty

__all__ = [
    "BruteForceResult",
    "brute_force",
    "SaConfig",
    "AnnealResult",
    "dual_anneal",
    "discrete_anneal",
    "sa_ensemble",
]

TAIL_LIMIT = 1e8
MIN_VISIT_BOUND = 1e-10

# The generalized annealer's shape: the Tsallis visiting parameter (heavier
# jump tails as it grows) and the acceptance parameter.
VISIT = 1.01
ACCEPT = 0.9

# The visiting distribution's two log factors at VISIT.
_FACTOR2 = math.exp((4.0 - VISIT) * math.log(VISIT - 1.0))
_FACTOR3 = math.exp((2.0 - VISIT) * math.log(2.0) / (VISIT - 1.0))
_LOG_FACTOR4_P = math.log(
    math.sqrt(math.pi) * _FACTOR2 / (_FACTOR3 * (3.0 - VISIT))
)
_FACTOR5 = 1.0 / (VISIT - 1.0) - 0.5
_LOG_FACTOR6 = math.log(
    math.pi
    * (1.0 - _FACTOR5)
    / math.sin(math.pi * (1.0 - _FACTOR5))
    / math.exp(gammaln(2.0 - _FACTOR5))
)


@dataclass(frozen=True)
class BruteForceResult:
    ground_energy: float
    ground_configs: tuple[tuple[int, ...], ...]
    evaluations: int


def brute_force(problem: RotamerProblem) -> BruteForceResult:
    """Exact minimum of ``problem.energy_table()`` (so at most
    ``MAX_TABLE_SIZE`` configurations) and every tied minimizer, in
    lexicographic order (last residue fastest)."""
    table = problem.energy_table()
    ground = table.min()
    ties = np.argwhere(table == ground).tolist()
    return BruteForceResult(float(ground), tuple(map(tuple, ties)), table.size)


@dataclass(frozen=True)
class SaConfig:
    """Annealer knobs.

    Both annealers read the budget, the starting temperature and the seed;
    ``local_search`` applies to ``dual_anneal`` only, whose shape is fixed
    (``VISIT``, ``ACCEPT``).
    """

    max_iterations: int = 1000
    initial_temperature: float = 5230.0
    local_search: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        _require_integers(self, "max_iterations", "seed")
        if not isinstance(self.local_search, bool):
            raise ValueError(f"local_search must be a bool, not {self.local_search!r}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not 0.0 < self.initial_temperature < math.inf:
            raise ValueError("initial_temperature must be positive and finite")


@dataclass(frozen=True)
class AnnealResult:
    converged: bool
    best_energy: float
    best_bitstring: str
    valid: bool
    evaluations: int
    iterations_used: int
    restarts: int
    wall_time: float
    seed: int


class _TargetReached(Exception):
    pass


class _CountingObjective:
    """Rounds to bits, evaluates the penalized QUBO, tracks the best, and
    raises the moment a valid configuration reaches the target."""

    def __init__(
        self,
        qubo: QuboMatrix,
        problem: RotamerProblem,
        target: float | None,
    ) -> None:
        self._qubo = qubo
        self._problem = problem
        self._threshold = stop_threshold(target)
        self.evaluations = 0
        self.best_energy = math.inf
        self.best_bits: np.ndarray | None = None

    def __call__(self, y: np.ndarray) -> float:
        self.evaluations += 1
        bits = (np.asarray(y, dtype=float) >= 0.5).astype(np.uint8)
        e = float(self._qubo.energy(bits))
        if e < self.best_energy:
            self.best_energy = e
            self.best_bits = bits.copy()
        if e <= self._threshold and valid_mask(bits, self._problem)[0]:
            raise _TargetReached
        return e


def _visit_draw(temperature: float, dim: int, rng: np.random.Generator) -> np.ndarray:
    """``dim`` jumps from the Tsallis visiting distribution at ``temperature``."""
    x = rng.standard_normal(dim)
    y = rng.standard_normal(dim)
    # the temperature prefactor overflows a float near VISIT = 1, so the
    # whole x scale is assembled in log space
    log_factor4 = _LOG_FACTOR4_P + math.log(temperature) / (VISIT - 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x = x * np.exp(
            -(VISIT - 1.0) * (_LOG_FACTOR6 - log_factor4) / (3.0 - VISIT)
        )
        den = np.exp((VISIT - 1.0) * np.log(np.fabs(y)) / (3.0 - VISIT))
        return x / den


def _visit_move(
    x: np.ndarray,
    step: int,
    temperature: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """One proposal on [0, 1]^M: full-vector for the first M steps of a
    chain, single-coordinate for the rest."""
    dim = x.size
    if step < dim:
        visits = _visit_draw(temperature, dim, rng)
        upper, lower = rng.uniform(size=2)
        visits[visits > TAIL_LIMIT] = TAIL_LIMIT * upper
        visits[visits < -TAIL_LIMIT] = -TAIL_LIMIT * lower
        x_new = visits + x
        x_new = np.fmod(np.fmod(x_new, 1.0) + 1.0, 1.0)
        x_new[np.fabs(x_new) < MIN_VISIT_BOUND] += MIN_VISIT_BOUND
        return x_new
    x_new = x.copy()
    visit = float(_visit_draw(temperature, 1, rng)[0])
    if visit > TAIL_LIMIT:
        visit = TAIL_LIMIT * float(rng.uniform())
    elif visit < -TAIL_LIMIT:
        visit = -TAIL_LIMIT * float(rng.uniform())
    index = step - dim
    moved = math.fmod(math.fmod(visit + x[index], 1.0) + 1.0, 1.0)
    if abs(moved) < MIN_VISIT_BOUND:
        moved += MIN_VISIT_BOUND
    x_new[index] = moved
    return x_new


def _flip_descent(
    objective: _CountingObjective, bits: np.ndarray, energy: float
) -> None:
    """Coordinate-wise first-improvement descent; counts every probe."""
    y = bits.astype(float)
    improved = True
    while improved:
        improved = False
        for q in range(y.size):
            y[q] = 1.0 - y[q]
            probe = objective(y)
            if probe < energy:
                energy = probe
                improved = True
            else:
                y[q] = 1.0 - y[q]


def dual_anneal(
    problem: RotamerProblem,
    config: SaConfig,
    *,
    target_energy: float | None = None,
) -> AnnealResult:
    """Generalized simulated annealing on the penalized QUBO.

    The temperature follows the generalized visiting schedule
    T(i) = T0 * (2**(qv-1) - 1) / ((i+2)**(qv-1) - 1) with qv = ``VISIT``;
    each iteration runs a chain of 2M proposals (M full-vector, then M
    single-coordinate) with the generalized acceptance rule (shape
    ``ACCEPT``) at the stepped temperature T(i)/(i+1), and a refinement
    pass runs at the end if ``local_search``. The walker never re-seeds, so
    ``restarts`` is 0: at qv = 1.01, T(i) stays above 2e-5 * T0 until
    i is about 10**254.
    """
    start = time.perf_counter()
    qubo = build_qubo(problem, penalty=default_penalty(problem))
    rng = generator(config.seed)
    objective = _CountingObjective(qubo, problem, target_energy)
    m = problem.num_qubits
    t1 = math.exp((VISIT - 1.0) * math.log(2.0)) - 1.0

    converged = False
    iterations = 0
    try:
        x = rng.uniform(size=m)
        e_cur = objective(x)
        for i in range(config.max_iterations):
            iterations = i + 1
            t2 = math.exp((VISIT - 1.0) * math.log(float(i) + 2.0)) - 1.0
            temperature = config.initial_temperature * t1 / t2
            t_step = temperature / (float(i) + 1.0)
            for j in range(2 * m):
                x_new = _visit_move(x, j, temperature, rng)
                e_new = objective(x_new)
                if e_new < e_cur:
                    x, e_cur = x_new, e_new
                else:
                    pqv_temp = 1.0 - (1.0 - ACCEPT) * (e_new - e_cur) / t_step
                    if pqv_temp > 0.0:
                        pqv = math.exp(math.log(pqv_temp) / (1.0 - ACCEPT))
                        if rng.uniform() <= pqv:
                            x, e_cur = x_new, e_new
        if config.local_search and objective.best_bits is not None:
            _flip_descent(objective, objective.best_bits, objective.best_energy)
    except _TargetReached:
        converged = True

    bits = objective.best_bits
    assert bits is not None
    return AnnealResult(
        converged=converged,
        best_energy=objective.best_energy,
        best_bitstring=bits_to_string(bits),
        valid=bool(valid_mask(bits, problem)[0]),
        evaluations=objective.evaluations,
        iterations_used=iterations,
        restarts=0,
        wall_time=time.perf_counter() - start,
        seed=config.seed,
    )


def discrete_anneal(
    problem: RotamerProblem,
    config: SaConfig,
    *,
    target_energy: float | None = None,
) -> AnnealResult:
    """Metropolis annealing over valid assignments only.

    Proposals swap a single residue's rotamer, the temperature cools
    geometrically from ``initial_temperature`` down three decades over the
    iteration budget, and each iteration spends 2M proposals to match the
    chain length of ``dual_anneal``. Configurations are always valid, so the
    energies are bare.
    """
    start = time.perf_counter()
    rng = generator(config.seed)
    counts = problem.rotamer_counts
    n_res = problem.num_residues
    m = problem.num_qubits
    # plain lists: a Python list read is several times cheaper than a numpy one
    selves = [problem.self_energies[o : o + n].tolist() for o, n in problem.blocks]
    # each neighbour table's rows are the residue's own rotamers
    neighbors: list[list[tuple[int, list[list[float]]]]] = [[] for _ in range(n_res)]
    for (i, j), block in problem.pair_blocks.items():
        neighbors[i].append((j, block.tolist()))
        neighbors[j].append((i, block.T.tolist()))

    current = [int(rng.integers(c)) for c in counts]
    energy = problem.energy(current)
    evaluations = 1
    best_energy = energy
    best = current.copy()
    threshold = stop_threshold(target_energy)
    converged = energy <= threshold
    iterations = 0
    if config.max_iterations > 1:
        cooling = (1e-3) ** (1.0 / (config.max_iterations - 1))
    else:
        cooling = 1.0

    if not converged:
        for i in range(config.max_iterations):
            iterations = i + 1
            temperature = config.initial_temperature * cooling**i
            for _ in range(2 * m):
                res = int(rng.integers(n_res))
                new_rot = int(rng.integers(counts[res]))
                old_rot = current[res]
                if new_rot == old_rot:
                    evaluations += 1
                    continue
                delta = selves[res][new_rot] - selves[res][old_rot]
                for other, table in neighbors[res]:
                    ro = current[other]
                    delta += table[new_rot][ro] - table[old_rot][ro]
                evaluations += 1
                if delta <= 0.0 or rng.uniform() < math.exp(
                    -delta / temperature
                ):
                    current[res] = new_rot
                    energy += delta
                    if energy < best_energy:
                        best_energy = energy
                        best = current.copy()
                if energy <= threshold:
                    # deltas accumulate float error: confirm before stopping
                    energy = problem.energy(current)
                    if energy <= threshold:
                        converged = True
                        best = current.copy()
                        break
            if converged:
                break

    best_energy = problem.energy(best)
    bits = encode(best, problem)
    return AnnealResult(
        converged=converged,
        best_energy=float(best_energy),
        best_bitstring=bits_to_string(bits),
        valid=True,
        evaluations=evaluations,
        iterations_used=iterations,
        restarts=0,
        wall_time=time.perf_counter() - start,
        seed=config.seed,
    )


def sa_ensemble(
    problem: RotamerProblem,
    config: SaConfig,
    num_trajectories: int,
    *,
    target_energy: float | None = None,
    method: str = "gsa",
    workers: int = 1,
) -> EnsembleResult:
    """Seed-isolated annealing trajectories with ratio-normalized cost.

    Cost of a successful trajectory is its evaluation count, accounted by
    :func:`rotpack.driver.ensemble_cost` exactly as for QAOA ensembles.
    ``workers`` means what it does for :func:`rotpack.driver.run_ensemble`:
    with ``workers > 1`` the trajectories run in a process pool, so a
    script must make this call under ``if __name__ == "__main__":``.
    """
    if method not in ("gsa", "discrete"):
        raise ValueError(f"unknown method {method!r}")
    solve = functools.partial(
        _anneal_trajectory, problem, config, target_energy, method
    )
    results = _run_trajectories(solve, num_trajectories, workers=workers)
    return EnsembleResult(
        tuple(results),
        *ensemble_cost(
            [r.evaluations for r in results], [r.converged for r in results]
        ),
    )


def _anneal_trajectory(
    problem: RotamerProblem,
    config: SaConfig,
    target_energy: float | None,
    method: str,
    trajectory_id: int,
) -> AnnealResult:
    """Trajectory ``trajectory_id`` of an annealing ensemble, on its child seed."""
    anneal = dual_anneal if method == "gsa" else discrete_anneal
    child = dataclasses.replace(
        config, seed=trajectory_seed(config.seed, trajectory_id)
    )
    return anneal(problem, child, target_energy=target_energy)
