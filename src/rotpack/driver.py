"""The hybrid QAOA loop.

One *trajectory* is: draw initial angles, then repeatedly simulate the
ansatz, sample a batch of shots, scan the batch for a valid bitstring
that reaches the target energy (stopping immediately on a hit), and
otherwise feed the batch's CVaR to a gradient-free optimizer for the next
angles. Cost is counted in circuits executed: iterations times shots per
iteration, with the final iteration always charged in full because batches
execute whole.

The iteration is the objective of ``scipy.optimize.minimize``, called in
the trajectory's own thread (``optimizers.run_minimize``). It raises a
private exception out of ``minimize`` on a hit, and when it is called once
the budget is spent. When the optimizer terminates on its own with budget
left and a target set, ``minimize`` runs again from the best angles so far
with the budget that is left: an optimizer restart.

Each backend simulates the smallest state the regime reaches, prepared
once so that an iteration computes only what its angles change. A
``PreparedSimulator`` holds that preparation: the Hamiltonian, the QUBO,
and the route's pieces and buffers. ``run_ensemble`` builds one per
ensemble and every trajectory reuses it; it prepares inside the first
trajectory, whose ``wall_time`` carries the cost, so the records' summed
times stay the ensemble's. A pool worker prepares its own once per chunk
of trajectories. A lone ``optimize`` call prepares its own.

On the statevector backend an ``xy`` ansatz runs as the one-hot state,
whose cost layer is the exp of its energies
(``qubo.all_bitstring_energies`` on its basis), and the other regimes as
the dense one, through one closure (``statevector.transverse_ansatz``)
that fills the iteration's state: it builds the first layer in closed
form from the basis-state start, multiplies in each later cost layer's
phases, built by doubling over the qubits from the Ising terms with no
energy table (``statevector.cost_phase``), and mixes with real RY
factors in the frame S|psi>, S = diag(1, i) on every qubit, which the
state leaves once, before it is sampled. On the MPS backend
``mps.ansatz_chain`` runs every regime from the tables of its Ising
Hamiltonian, on sites of bit patterns: one site per residue for ``xy``,
runs of at most four qubits of one block for the others. Every route
samples the full qubit register.

The CVaR objective is evaluated under the Hamiltonian the ansatz actually
evolves (penalized in the penalty regime, bare otherwise), while hit
detection and ``best_energy`` always use the physical (unpenalized) energy
of valid samples.

Trajectories are seed-isolated: trajectory k of base seed s uses the hashed
child seed ``trajectory_seed(s, k)``, so ensembles parallelize and single
trajectories reproduce in isolation.
"""

from __future__ import annotations

import functools
import json
import math
import multiprocessing
import multiprocessing.forkserver
import numbers
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from ._rng import generator, trajectory_seed
from .circuits import REGIMES, angle_pairs, ansatz_hamiltonian
from .mps import MAX_BOND, MpsState, ansatz_chain
from .optimizers import OPTIMIZER_METHODS, run_minimize
from .problem import RotamerProblem, bits_to_string, valid_mask
from .qubo import IsingHamiltonian, all_bitstring_energies, build_qubo
from . import statevector as sv

# Unused here: imported only because perfbench/tracing.py's TARGETS wraps
# them on this module (ROADMAP item 12).
from .circuits import assemble_ansatz, build_initial_state, build_mixer
from .mps import run_circuit_mps
from .optimizers import make_optimizer

__all__ = [
    "FirstGroundState",
    "QaoaConfig",
    "RunRecord",
    "EnsembleResult",
    "cvar",
    "cvar_of_values",
    "init_params",
    "optimize",
    "run_ensemble",
    "aggregate_records",
    "ensemble_cost",
    "write_records_jsonl",
]

BACKENDS = ("statevector", "mps")

# A pool splits a QAOA ensemble into at most this many chunks per worker,
# and each chunk prepares its simulator once. On the nine ``xy`` cells of
# the benchmark's ``sweep`` (20 trajectories each, stop on hit, two
# workers of a kept pool), the ensembles' maps took 0.82 s against 1.04 s
# with one trajectory per task, the change ahead in 9 of 10 pairs.
# Annealing prepares nothing per trajectory and keeps one per task.
CHUNKS_PER_WORKER = 4

# Environment variables that size the BLAS thread pool as numpy loads.
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# how far above its target a sampled energy may sit and still reach it
STOP_TOL = 1e-9


def stop_threshold(target_energy: float | None) -> float:
    """The energy at or below which a valid sample reaches ``target_energy``.

    QAOA and both annealers stop on this one rule; with no target, no
    energy reaches it.
    """
    return -math.inf if target_energy is None else target_energy + STOP_TOL


def _require_integers(config: object, *names: str) -> None:
    """Raise ValueError naming the first of ``names`` whose value on
    ``config`` is set but not an integer (a bool is not one)."""
    for name in names:
        value = getattr(config, name)
        if value is not None and (
            isinstance(value, bool) or not isinstance(value, numbers.Integral)
        ):
            raise ValueError(f"{name} must be an integer, not {value!r}")


def check_workers(workers: object) -> None:
    """Raise ValueError unless ``workers`` is an integer of at least 1 (a
    bool is not one)."""
    if (
        isinstance(workers, bool)
        or not isinstance(workers, numbers.Integral)
        or workers < 1
    ):
        raise ValueError(f"workers must be an integer of at least 1, not {workers!r}")


def _finite_pair(value: object) -> bool:
    """Whether ``value`` unpacks into two finite numbers."""
    try:
        low, high = value
        return math.isfinite(low) and math.isfinite(high)
    except (TypeError, ValueError):
        return False


@dataclass(frozen=True)
class FirstGroundState:
    """Stop a trajectory the moment a sampled valid bitstring reaches the
    target (see :func:`stop_threshold`)."""

    target_energy: float


@dataclass(frozen=True)
class QaoaConfig:
    """Everything a trajectory needs besides the problem itself.

    ``shots_per_iteration`` and ``max_iterations`` default per backend:
    statevector runs use 10 shots per qubit clamped to [10, 100] and a
    500-iteration budget; MPS runs use 1000 shots and 2000 iterations.
    With ``stop_mode=None`` a trajectory runs until the optimizer itself
    terminates or the budget runs out.
    """

    regime: str
    p: int = 4
    shots_per_iteration: int | None = None
    cvar_alpha: float = 0.2
    max_iterations: int | None = None
    gamma_range: tuple[float, float] = (-0.1, 0.1)
    beta_range: tuple[float, float] = (-1.0, 1.0)
    seed: int = 0
    backend: str = "statevector"
    max_bond: int = MAX_BOND
    penalty: float | None = None
    optimizer: str = "cobyla"
    stop_mode: FirstGroundState | None = None

    def __post_init__(self) -> None:
        _require_integers(
            self, "p", "shots_per_iteration", "max_iterations", "max_bond", "seed"
        )
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        if not 0.0 < self.cvar_alpha <= 1.0:
            raise ValueError("cvar_alpha must be in (0, 1]")
        if self.p < 1:
            raise ValueError("p must be at least 1")
        if self.penalty is not None and self.regime != "penalty":
            raise ValueError("penalty weight only applies to the penalty regime")
        if self.penalty is not None and not 0.0 < self.penalty < math.inf:
            raise ValueError(
                f"penalty must be positive and finite, not {self.penalty!r}"
            )
        for name in ("gamma_range", "beta_range"):
            if not _finite_pair(getattr(self, name)):
                raise ValueError(
                    f"{name} must be two finite numbers, not {getattr(self, name)!r}"
                )
        if not isinstance(self.optimizer, str):
            raise ValueError(f"optimizer must be a string, not {self.optimizer!r}")
        if self.optimizer.lower() not in OPTIMIZER_METHODS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.shots_per_iteration is not None and self.shots_per_iteration < 1:
            raise ValueError("shots_per_iteration must be at least 1")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.max_bond is not None and self.max_bond < 1:
            raise ValueError("max_bond must be positive")
        if self.stop_mode is not None and not isinstance(
            self.stop_mode, FirstGroundState
        ):
            raise ValueError("stop_mode must be a FirstGroundState or None")

    def resolved_shots(self, num_qubits: int) -> int:
        if self.shots_per_iteration is not None:
            return self.shots_per_iteration
        if self.backend == "statevector":
            return int(min(max(10 * num_qubits, 10), 100))
        return 1000

    def resolved_max_iterations(self) -> int:
        if self.max_iterations is not None:
            return self.max_iterations
        return 500 if self.backend == "statevector" else 2000


@dataclass(frozen=True)
class RunRecord:
    """Per-trajectory log, JSON-serializable."""

    trajectory_id: int
    seed: int
    regime: str
    p: int
    backend: str
    shots_per_iteration: int
    iterations_used: int
    total_shots: int
    first_hit_iteration: int | None
    first_hit_shot: int | None
    converged: bool
    best_energy: float | None
    best_bitstring: str | None
    final_cvar: float | None
    optimizer_restarts: int
    wall_time: float
    rng_family: str = "philox"
    max_bond_reached: int | None = None
    discarded_weight: float | None = None


def cvar_of_values(values: Sequence[float], alpha: float) -> float:
    """Mean of the lowest ceil(alpha * len) values."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("cvar of an empty sample set")
    k = math.ceil(alpha * values.size)
    return float(np.partition(values, k - 1)[:k].mean())


def cvar(samples: np.ndarray, h: IsingHamiltonian, alpha: float) -> float:
    """CVaR of a sampled batch under a spin Hamiltonian."""
    return cvar_of_values(h.energies_of_bits(samples), alpha)


def init_params(
    p: int,
    rng: np.random.Generator,
    gamma_range: tuple[float, float] = (-0.1, 0.1),
    beta_range: tuple[float, float] = (-1.0, 1.0),
) -> np.ndarray:
    """Starting angles (gamma_1, beta_1, ..., gamma_p, beta_p).

    All gammas are drawn first, then all betas, then the two vectors are
    interleaved; the draw order is part of the reproducibility contract.
    """
    gammas = rng.uniform(gamma_range[0], gamma_range[1], size=p)
    betas = rng.uniform(beta_range[0], beta_range[1], size=p)
    out = np.empty(2 * p)
    out[0::2] = gammas
    out[1::2] = betas
    return out


class PreparedSimulator:
    """What every trajectory of one ``(problem, config)`` shares, prepared once.

    It holds ``h_opt``, the Hamiltonian the ansatz evolves and CVaR
    scores; ``bare_qubo``, which scores hits and ``best_energy``; the
    shots per iteration; and the route's prepared pieces and scratch
    buffers: for ``xy`` on the statevector the one-hot start, basis,
    phase profile and mixer, for ``baseline``/``penalty`` there
    ``statevector.transverse_ansatz`` and its state array, and on the MPS
    backend the chain of ``mps.ansatz_chain``. Nothing in it changes with
    the seed or the angles.

    :func:`optimize` prepares it on first use, so that trajectory's
    ``wall_time`` carries the preparation. It pickles as its problem and
    config, and an unpickled copy prepares again on first use.
    """

    def __init__(self, problem: RotamerProblem, config: QaoaConfig) -> None:
        self.problem = problem
        self.config = config
        # the route's sampler, once ``prepare`` has built it
        self._sample = None

    def __reduce__(self):
        return type(self), (self.problem, self.config)

    def prepare(self) -> None:
        """Build what the trajectories share; a no-op once it is built."""
        if self._sample is not None:
            return
        problem, config = self.problem, self.config
        regime = config.regime
        m = problem.num_qubits
        shots = self.shots = config.resolved_shots(m)
        # one Hamiltonian: the cost layers and CVaR share it
        self.h_opt = ansatz_hamiltonian(problem, regime, config.penalty)
        self.bare_qubo = build_qubo(problem)
        # each route's sampler is a closure, not a method: the simulator
        # holds no cycle to itself
        if config.backend == "mps":
            chain = ansatz_chain(problem, self.h_opt, regime, max_bond=config.max_bond)

            def sample_chain(
                params: np.ndarray, rng: np.random.Generator
            ) -> tuple[np.ndarray, MpsState]:
                mstate = chain(params)
                return mstate.sample(shots, rng), mstate

            self._sample = sample_chain
            return
        # the start, the cost layer and the mixer are prepared once from
        # the blocks and the Hamiltonian; only the angles change per layer
        if regime == "xy":
            # every block stays at weight one: keep only those amplitudes
            state0 = sv.one_hot_state(problem.blocks)
            basis = sv.one_hot_basis(problem.blocks)
            phase_profile = all_bitstring_energies(self.h_opt, basis).reshape(
                state0.shape
            )
            mix = sv.one_hot_mixer(problem.blocks)
            state = np.empty_like(state0)
            phase = np.empty_like(state)

            def evolve(params: np.ndarray) -> np.ndarray:
                np.copyto(state, state0)
                for gamma, beta in angle_pairs(params):
                    np.multiply(-1j * gamma, phase_profile, out=phase)
                    np.multiply(state, np.exp(phase, out=phase), out=state)
                    mix(state, beta)
                return state

        else:
            basis = None
            evolve = functools.partial(
                sv.transverse_ansatz(problem.blocks, self.h_opt),
                np.empty(1 << m, dtype=complex),
            )

        def sample_state(
            params: np.ndarray, rng: np.random.Generator
        ) -> tuple[np.ndarray, None]:
            return sv.sample_state(evolve(params), shots, rng, basis), None

        self._sample = sample_state

    def sample(
        self, params: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, MpsState | None]:
        """One iteration's shots of the ansatz at ``params``, and on the
        MPS backend the state they came from, for its truncation stats."""
        return self._sample(params, rng)


class _Stop(Exception):
    """Raised by a trajectory's objective to end ``minimize``: a hit, or an
    evaluation asked for once the budget is spent."""


def optimize(
    problem: RotamerProblem,
    config: QaoaConfig,
    trajectory_id: int = 0,
    *,
    prepared: PreparedSimulator | None = None,
) -> RunRecord:
    """Run one seeded trajectory and return its record.

    The trajectory ends on a hit (``converged=True``), at the budget
    (``converged=False``), or when the optimizer terminates on its own:
    with no target that is convergence; with one, it restarts from the
    best angles, unless the round evaluated nothing, which ends the
    trajectory unconverged. An exception from the simulator or from
    ``minimize`` propagates.

    ``prepared`` is a :class:`PreparedSimulator` for this problem object
    and an equal config, shared by the trajectories of an ensemble; without
    it the trajectory prepares its own.
    """
    start = time.perf_counter()
    if prepared is None:
        prepared = PreparedSimulator(problem, config)
    elif prepared.problem is not problem or prepared.config != config:
        raise ValueError(
            "the prepared simulator was built for another problem or config"
        )
    prepared.prepare()
    shots = prepared.shots
    budget = config.resolved_max_iterations()
    seed = trajectory_seed(config.seed, trajectory_id)
    rng = generator(seed)

    threshold = stop_threshold(
        None if config.stop_mode is None else config.stop_mode.target_energy
    )

    x0 = init_params(config.p, rng, config.gamma_range, config.beta_range)
    iterations = 0
    best_cvar = math.inf
    best_params = x0
    last_cvar: float | None = None
    best_energy: float | None = None
    best_bits: str | None = None
    first_hit: tuple[int, int] | None = None
    max_bond_seen: int | None = None
    worst_discard: float | None = None

    def objective(params: np.ndarray) -> float:
        """One iteration at ``params``: its CVaR, or _Stop on a hit or once
        the budget is spent."""
        nonlocal iterations, best_cvar, best_params, last_cvar, best_energy
        nonlocal best_bits, first_hit, max_bond_seen, worst_discard
        if iterations == budget:
            raise _Stop
        iterations += 1
        bits, mstate = prepared.sample(params, rng)
        if mstate is not None:
            max_bond_seen = max(max_bond_seen or 0, mstate.max_bond_reached)
            worst_discard = max(worst_discard or 0.0, mstate.discarded_weight)

        energies = prepared.bare_qubo.energies(bits)
        valid = valid_mask(bits, problem)
        if valid.any():
            local = np.flatnonzero(valid)
            best_local = local[np.argmin(energies[local])]
            if best_energy is None or energies[best_local] < best_energy:
                best_energy = float(energies[best_local])
                best_bits = bits_to_string(bits[best_local])
        hits = valid & (energies <= threshold)
        if hits.any():
            first_hit = (iterations, int(np.flatnonzero(hits)[0]) + 1)
            raise _Stop

        value = cvar(bits, prepared.h_opt, config.cvar_alpha)
        last_cvar = value
        if value < best_cvar:
            best_cvar = value
            # keep a copy: the array is scipy's
            best_params = np.array(params, copy=True)
        return value

    restarts = 0
    try:
        while True:
            before = iterations
            run_minimize(objective, config.optimizer, best_params, budget - iterations)
            # the optimizer terminated on its own: restart, unless the budget
            # is spent, there is no target, or the round evaluated nothing
            if iterations in (budget, before) or config.stop_mode is None:
                break
            restarts += 1
        converged = iterations < budget and config.stop_mode is None
    except _Stop:
        converged = first_hit is not None

    return RunRecord(
        trajectory_id=trajectory_id,
        seed=seed,
        regime=config.regime,
        p=config.p,
        backend=config.backend,
        shots_per_iteration=shots,
        iterations_used=iterations,
        total_shots=iterations * shots,
        first_hit_iteration=first_hit[0] if first_hit else None,
        first_hit_shot=first_hit[1] if first_hit else None,
        converged=converged,
        best_energy=best_energy,
        best_bitstring=best_bits,
        final_cvar=last_cvar,
        optimizer_restarts=restarts,
        wall_time=time.perf_counter() - start,
        max_bond_reached=max_bond_seen,
        discarded_weight=worst_discard,
    )


@dataclass(frozen=True)
class EnsembleResult:
    """An ensemble's trajectories and their :func:`ensemble_cost`.

    ``results`` holds :class:`RunRecord`s for QAOA and
    ``baselines.AnnealResult``s for annealing.
    """

    results: tuple
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


def ensemble_cost(
    costs: Sequence[float], converged: Sequence[bool]
) -> tuple[float, float | None, float | None]:
    """Success ratio and the ratio-normalized mean and std cost of an ensemble.

    The mean (and std) cost over converged runs is divided by the fraction
    of runs that converged, so that unreliable settings pay for their
    failures. With zero converged runs the costs are undefined and reported
    as None.
    """
    hits = np.array([c for c, ok in zip(costs, converged) if ok], dtype=float)
    if hits.size == 0:
        return 0.0, None, None
    ratio = hits.size / len(costs)
    return ratio, float(hits.mean()) / ratio, float(hits.std()) / ratio


def aggregate_records(records: Sequence[RunRecord]) -> EnsembleResult:
    """:func:`ensemble_cost` over total shots."""
    records = tuple(records)
    if not records:
        raise ValueError("no records to aggregate")
    return EnsembleResult(
        records,
        *ensemble_cost(
            [r.total_shots for r in records], [r.converged for r in records]
        ),
    )


def run_ensemble(
    problem: RotamerProblem,
    config: QaoaConfig,
    num_trajectories: int,
    *,
    workers: int = 1,
) -> EnsembleResult:
    """Independent seeded trajectories plus aggregate statistics.

    With ``workers > 1`` the trajectories run in a process pool (see
    ``_worker_pool``), so a script must make this call under
    ``if __name__ == "__main__":``.
    """
    # looked up per call, so a replaced ``optimize`` is the one that runs;
    # its trajectories share one simulator, which the first one prepares
    solve = functools.partial(
        optimize, problem, config, prepared=PreparedSimulator(problem, config)
    )
    return aggregate_records(
        _run_trajectories(
            solve, num_trajectories, workers=workers, chunks=CHUNKS_PER_WORKER
        )
    )


def _run_trajectories(
    solve: Callable[[int], object],
    num_trajectories: int,
    *,
    workers: int = 1,
    chunks: int | None = None,
) -> list:
    """``solve(k)`` for k in ``range(num_trajectories)``, in that order.

    QAOA and annealing ensembles both run their trajectories here. With
    ``workers > 1`` the calls run in :func:`_worker_pool`; ``solve`` must
    then pickle, as a module-level function or a ``functools.partial`` of
    one does. The pool unpickles ``solve`` once per task. A task is one
    call, or with ``chunks`` a run of consecutive ``k``, at most
    ``chunks`` per worker, so a :class:`PreparedSimulator` in ``solve``
    prepares once per chunk.
    """
    if num_trajectories < 1:
        raise ValueError("need at least one trajectory")
    check_workers(workers)
    if workers > 1:
        size = 1 if chunks is None else -(-num_trajectories // (chunks * workers))
        with _worker_pool(workers) as pool:
            return list(pool.map(solve, range(num_trajectories), chunksize=size))
    return [solve(k) for k in range(num_trajectories)]


def _worker_pool(workers: int) -> ProcessPoolExecutor:
    """A process pool whose workers each run BLAS on one thread.

    Forked workers would keep the parent's BLAS thread pool and, several
    at a time, oversubscribe the CPUs; spawned ones would each import
    numpy and scipy afresh. These fork from a server that started with one
    BLAS thread and imported ``rotpack.baselines`` (and through it this
    module), so QAOA and annealing workers alike start warm; the parent's
    environment is restored once the server runs. The server lives as
    long as the interpreter, so later pools reuse it.

    Each worker imports the parent's ``__main__`` module by path, as
    spawned workers do, so a script that runs a QAOA or annealing
    ensemble with ``workers > 1`` must guard its entry point with
    ``if __name__ == "__main__":``; an unguarded one dies with
    ``BrokenProcessPool``.
    """
    context = multiprocessing.get_context("forkserver")
    context.set_forkserver_preload([f"{__package__}.baselines"])
    saved = {name: os.environ.get(name) for name in _BLAS_THREADS}
    os.environ.update(dict.fromkeys(_BLAS_THREADS, "1"))
    try:
        multiprocessing.forkserver.ensure_running()
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name)
            else:
                os.environ[name] = value
    return ProcessPoolExecutor(max_workers=workers, mp_context=context)


def write_records_jsonl(records: Iterable, path: str | Path) -> None:
    """One JSON document per line, one line per record (any dataclass)."""
    with open(path, "w") as fh:
        for r in records:
            fh.write(json.dumps(asdict(r), sort_keys=True) + "\n")
