"""Classical reference solvers.

``brute_force`` enumerates every rotamer assignment and is the ground-truth
oracle for everything else. ``dual_anneal`` is a self-contained generalized
simulated annealing over the penalized QUBO relaxed to the unit hypercube
(rounding to bits at evaluation time), instrumented the way the benchmarks
need: it counts objective evaluations exactly, can stop mid-chain the moment
the target energy is sampled, and restarts with a refinement pass when the
temperature floor is reached. ``discrete_anneal`` is a plain Metropolis
sampler over valid assignments, kept as a sanity baseline behind the same
interface.

Evaluation accounting for ``dual_anneal`` is deliberately simple: one eval
for the initial point, then exactly ``2 * num_qubits`` per completed chain
iteration. Restarts and the bit-flip refinement add their own evals on top,
so the clean identity only holds with ``local_search=False`` and no
restarts.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from ._rng import generator, trajectory_seed
from .driver import ensemble_cost
from .problem import RotamerProblem, bits_to_string, encode, valid_mask
from .qubo import QuboMatrix, build_qubo, default_penalty

__all__ = [
    "BruteForceResult",
    "brute_force",
    "SaConfig",
    "AnnealResult",
    "dual_anneal",
    "discrete_anneal",
    "SaEnsembleResult",
    "sa_ensemble",
]

TAIL_LIMIT = 1e8
MIN_VISIT_BOUND = 1e-10
RESTART_FRACTION = 2e-5


@dataclass(frozen=True)
class BruteForceResult:
    ground_energy: float
    ground_configs: tuple[tuple[int, ...], ...]
    evaluations: int


def brute_force(problem: RotamerProblem, cap: int = 10**8) -> BruteForceResult:
    """Exact minimum by exhaustive enumeration.

    Enumerates assignments in lexicographic order (last residue fastest)
    and returns every tied minimizer. Refuses instances with more than
    ``cap`` assignments.
    """
    counts = np.asarray(problem.rotamer_counts, dtype=np.int64)
    total = int(np.prod(counts, dtype=object))
    if total > cap:
        raise ValueError(
            f"{total} assignments exceed the enumeration cap of {cap}"
        )
    n_res = problem.num_residues
    offsets = np.asarray(problem.block_offsets, dtype=np.int64)
    selves = problem.self_energies
    chunk = 1 << 17

    ground = math.inf
    ties: list[tuple[int, ...]] = []
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        cfg = np.empty((idx.size, n_res), dtype=np.int64)
        rem = idx
        for i in range(n_res - 1, -1, -1):
            rem, cfg[:, i] = np.divmod(rem, counts[i])
        energies = selves[offsets[None, :] + cfg].sum(axis=1)
        for (i, j), block in problem.pair_blocks.items():
            energies = energies + block[cfg[:, i], cfg[:, j]]
        cmin = float(energies.min())
        if cmin < ground:
            ground = cmin
            ties = []
        if cmin == ground:
            for row in np.flatnonzero(energies == ground):
                ties.append(tuple(int(v) for v in cfg[row]))
    return BruteForceResult(ground, tuple(ties), total)


@dataclass(frozen=True)
class SaConfig:
    """Annealer knobs.

    ``visit`` is the Tsallis visiting-distribution shape (heavier tails as
    it grows; must be in (1, 3]), ``accept`` the generalized acceptance
    shape (must be below 1).
    """

    visit: float = 1.01
    accept: float = 0.9
    max_iterations: int = 1000
    initial_temperature: float = 5230.0
    local_search: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if not 1.0 < self.visit <= 3.0:
            raise ValueError("visit must be in (1, 3]")
        if self.accept >= 1.0:
            raise ValueError("accept must be below 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.initial_temperature <= 0.0:
            raise ValueError("initial_temperature must be positive")


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
        tol: float,
    ) -> None:
        self._qubo = qubo
        self._problem = problem
        self._target = target
        self._tol = tol
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
        if (
            self._target is not None
            and e <= self._target + self._tol
            and valid_mask(bits, self._problem)[0]
        ):
            raise _TargetReached
        return e


class _VisitFactors:
    """Constants of the Tsallis visiting distribution for a fixed shape."""

    def __init__(self, visit: float) -> None:
        self.visit = visit
        self.factor2 = math.exp((4.0 - visit) * math.log(visit - 1.0))
        self.factor3 = math.exp((2.0 - visit) * math.log(2.0) / (visit - 1.0))
        with np.errstate(divide="ignore"):
            # the prefactor diverges at visit = 3 (the heaviest-tail
            # boundary); the draw's tail clamp turns the infinite scale
            # into uniform jumps instead of a crash
            self.factor4_p = float(
                np.float64(math.sqrt(math.pi) * self.factor2)
                / (np.float64(self.factor3) * (3.0 - visit))
            )
            self.log_factor4_p = float(np.log(np.float64(self.factor4_p)))
        factor5 = 1.0 / (visit - 1.0) - 0.5
        d1 = 2.0 - factor5
        self.factor6 = (
            math.pi
            * (1.0 - factor5)
            / math.sin(math.pi * (1.0 - factor5))
            / math.exp(gammaln(d1))
        )
        self.log_factor6 = math.log(self.factor6)

    def draw(
        self, temperature: float, dim: int, rng: np.random.Generator
    ) -> np.ndarray:
        qv = self.visit
        x = rng.standard_normal(dim)
        y = rng.standard_normal(dim)
        # the temperature prefactor overflows a float near qv = 1, so the
        # whole x scale is assembled in log space; near qv = 3 the scale
        # itself diverges, which numpy turns into clampable infinities
        if 3.0 - qv <= 1e-12:
            # at the boundary every draw overflows the tail clamp, so the
            # jumps degenerate to uniform wraps; inf/inf would poison the
            # walker with NaNs here
            return np.sign(x) * (2.0 * TAIL_LIMIT)
        log_factor4 = self.log_factor4_p + math.log(temperature) / (qv - 1.0)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            x = x * np.exp(
                np.float64(-(qv - 1.0))
                * (self.log_factor6 - log_factor4)
                / (3.0 - qv)
            )
            den = np.exp((qv - 1.0) * np.log(np.fabs(y)) / (3.0 - qv))
            return x / den


def _visit_move(
    x: np.ndarray,
    step: int,
    temperature: float,
    rng: np.random.Generator,
    factors: _VisitFactors,
) -> np.ndarray:
    """One proposal on [0, 1]^M: full-vector for the first M steps of a
    chain, single-coordinate for the rest."""
    dim = x.size
    if step < dim:
        visits = factors.draw(temperature, dim, rng)
        upper, lower = rng.uniform(size=2)
        visits[visits > TAIL_LIMIT] = TAIL_LIMIT * upper
        visits[visits < -TAIL_LIMIT] = -TAIL_LIMIT * lower
        x_new = visits + x
        x_new = np.fmod(np.fmod(x_new, 1.0) + 1.0, 1.0)
        x_new[np.fabs(x_new) < MIN_VISIT_BOUND] += MIN_VISIT_BOUND
        return x_new
    x_new = x.copy()
    visit = float(factors.draw(temperature, 1, rng)[0])
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
    tol: float = 1e-9,
) -> AnnealResult:
    """Generalized simulated annealing on the penalized QUBO.

    The temperature follows the generalized visiting schedule
    T(i) = T0 * (2**(qv-1) - 1) / ((i+2)**(qv-1) - 1); each iteration runs a
    chain of 2M proposals (M full-vector, then M single-coordinate) with the
    generalized acceptance rule at the stepped temperature T(i)/(i+1). When
    the temperature drops below ``RESTART_FRACTION`` of its start value the
    walker re-seeds (after a refinement pass if ``local_search``), and a
    final refinement runs at the end.
    """
    start = time.perf_counter()
    qubo = build_qubo(problem, penalty=default_penalty(problem))
    rng = generator(config.seed)
    objective = _CountingObjective(qubo, problem, target_energy, tol)
    m = problem.num_qubits
    qv, qa = config.visit, config.accept
    factors = _VisitFactors(qv)
    t1 = math.exp((qv - 1.0) * math.log(2.0)) - 1.0
    restart_temp = RESTART_FRACTION * config.initial_temperature

    converged = False
    restarts = 0
    iterations = 0
    try:
        x = rng.uniform(size=m)
        e_cur = objective(x)
        for i in range(config.max_iterations):
            iterations = i + 1
            t2 = math.exp((qv - 1.0) * math.log(float(i) + 2.0)) - 1.0
            temperature = config.initial_temperature * t1 / t2
            if temperature < restart_temp:
                restarts += 1
                if config.local_search and objective.best_bits is not None:
                    _flip_descent(
                        objective, objective.best_bits, objective.best_energy
                    )
                x = rng.uniform(size=m)
                e_cur = objective(x)
                continue
            t_step = temperature / (float(i) + 1.0)
            for j in range(2 * m):
                x_new = _visit_move(x, j, temperature, rng, factors)
                e_new = objective(x_new)
                if e_new < e_cur:
                    x, e_cur = x_new, e_new
                else:
                    pqv_temp = 1.0 - (1.0 - qa) * (e_new - e_cur) / t_step
                    if pqv_temp > 0.0:
                        pqv = math.exp(math.log(pqv_temp) / (1.0 - qa))
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
        restarts=restarts,
        wall_time=time.perf_counter() - start,
        seed=config.seed,
    )


def discrete_anneal(
    problem: RotamerProblem,
    config: SaConfig,
    *,
    target_energy: float | None = None,
    tol: float = 1e-9,
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
    neighbors: dict[int, list[tuple[int, np.ndarray, bool]]] = {
        i: [] for i in range(n_res)
    }
    for (i, j), block in problem.pair_blocks.items():
        neighbors[i].append((j, block, False))
        neighbors[j].append((i, block, True))

    current = np.array([rng.integers(c) for c in counts], dtype=np.int64)
    energy = problem.energy(tuple(int(v) for v in current))
    evaluations = 1
    best_energy = energy
    best = current.copy()
    converged = (
        target_energy is not None and energy <= target_energy + tol
    )
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
                old_rot = int(current[res])
                if new_rot == old_rot:
                    evaluations += 1
                    continue
                delta = problem.self_energy(res, new_rot) - problem.self_energy(
                    res, old_rot
                )
                for other, block, transposed in neighbors[res]:
                    ro = int(current[other])
                    if transposed:
                        delta += block[ro, new_rot] - block[ro, old_rot]
                    else:
                        delta += block[new_rot, ro] - block[old_rot, ro]
                evaluations += 1
                if delta <= 0.0 or rng.uniform() < math.exp(
                    -delta / temperature
                ):
                    current[res] = new_rot
                    energy += delta
                    if energy < best_energy:
                        best_energy = energy
                        best = current.copy()
                if (
                    target_energy is not None
                    and energy <= target_energy + tol
                ):
                    # deltas accumulate float error: confirm before stopping
                    energy = problem.energy(tuple(int(v) for v in current))
                    if energy <= target_energy + tol:
                        converged = True
                        best = current.copy()
                        break
            if converged:
                break

    best_energy = problem.energy(tuple(int(v) for v in best))
    bits = encode(tuple(int(v) for v in best), problem)
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


@dataclass(frozen=True)
class SaEnsembleResult:
    results: tuple[AnnealResult, ...]
    success_ratio: float
    mean_cost: float | None
    std_cost: float | None

    def summary_dict(self) -> dict:
        return {
            "num_trajectories": len(self.results),
            "success_ratio": self.success_ratio,
            "mean_cost": self.mean_cost,
            "std_cost": self.std_cost,
        }


def sa_ensemble(
    problem: RotamerProblem,
    config: SaConfig,
    num_trajectories: int,
    *,
    target_energy: float | None = None,
    tol: float = 1e-9,
    method: str = "gsa",
) -> SaEnsembleResult:
    """Seed-isolated annealing trajectories with ratio-normalized cost.

    Cost of a successful trajectory is its evaluation count, accounted by
    :func:`rotpack.driver.ensemble_cost` exactly as for QAOA ensembles.
    """
    if num_trajectories < 1:
        raise ValueError("need at least one trajectory")
    if method not in ("gsa", "discrete"):
        raise ValueError(f"unknown method {method!r}")
    anneal = dual_anneal if method == "gsa" else discrete_anneal
    results = []
    for tid in range(num_trajectories):
        child = dataclasses.replace(
            config, seed=trajectory_seed(config.seed, tid)
        )
        results.append(
            anneal(problem, child, target_energy=target_energy, tol=tol)
        )
    return SaEnsembleResult(
        tuple(results),
        *ensemble_cost(
            [r.evaluations for r in results], [r.converged for r in results]
        ),
    )
