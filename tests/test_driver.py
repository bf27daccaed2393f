"""The sampling loop: CVaR objective, stop modes, records, ensembles."""

import dataclasses
import functools
import gc
import json
import math
import os
import pickle
import subprocess
import sys
import threading
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import optimize_counting_hamiltonians
from rotpack import circuits, driver
from rotpack._rng import generator, trajectory_seed
from rotpack.baselines import SaConfig, brute_force, discrete_anneal, dual_anneal
from rotpack.driver import (
    CHUNKS_PER_WORKER,
    FirstGroundState,
    PreparedSimulator,
    QaoaConfig,
    RunRecord,
    aggregate_records,
    cvar,
    cvar_of_values,
    init_params,
    optimize,
    run_ensemble,
    write_records_jsonl,
)
from rotpack.driver import _BLAS_THREADS, _run_trajectories, _worker_pool
from rotpack.mps import MpsState
from rotpack.problem import decode, load_problem, random_problem
from rotpack.qubo import build_qubo, qubo_to_ising


DATA = Path(__file__).resolve().parents[1] / "data"


def make_record(**overrides):
    base = dict(
        trajectory_id=0,
        seed=1,
        regime="xy",
        p=4,
        backend="statevector",
        shots_per_iteration=50,
        iterations_used=4,
        total_shots=200,
        first_hit_iteration=4,
        first_hit_shot=12,
        converged=True,
        best_energy=-1.0,
        best_bitstring="0110",
        final_cvar=-0.5,
        optimizer_restarts=0,
        wall_time=0.01,
    )
    base.update(overrides)
    return RunRecord(**base)


class TestCvar:
    def test_single_value(self):
        assert cvar_of_values([5.0], 0.2) == 5.0

    def test_alpha_one_is_mean(self):
        assert cvar_of_values([1.0, 2.0, 6.0], 1.0) == pytest.approx(3.0)

    def test_hand_computed_tail(self):
        assert cvar_of_values([3.0, 1.0, 2.0], 0.5) == pytest.approx(1.5)
        # ceil(1/3 * 3) = 1: just the minimum
        assert cvar_of_values([3.0, 1.0, 2.0], 1.0 / 3.0) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            cvar_of_values([1.0], 0.0)
        with pytest.raises(ValueError, match="alpha"):
            cvar_of_values([1.0], 1.5)
        with pytest.raises(ValueError, match="empty"):
            cvar_of_values([], 0.5)

    def test_sort_and_average_oracle(self):
        rng = generator(5)
        values = rng.normal(size=1000)
        k = math.ceil(0.2 * 1000)
        want = float(np.sort(values)[:k].mean())
        assert cvar_of_values(values, 0.2) == pytest.approx(want, abs=1e-12)

    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=60),
        st.floats(0.01, 1.0),
        st.floats(0.01, 1.0),
    )
    def test_monotone_in_alpha(self, values, a1, a2):
        lo, hi = sorted((a1, a2))
        assert cvar_of_values(values, lo) <= cvar_of_values(values, hi) + 1e-12
        assert cvar_of_values(values, lo) >= min(values) - 1e-12
        assert cvar_of_values(values, hi) <= np.mean(values) + 1e-12

    def test_batch_form_matches_energy_route(self):
        problem = random_problem(2, 3, seed=8)
        h = qubo_to_ising(build_qubo(problem))
        rng = generator(0)
        samples = rng.integers(0, 2, size=(64, problem.num_qubits)).astype(np.uint8)
        want = cvar_of_values(h.energies_of_bits(samples), 0.3)
        assert cvar(samples, h, 0.3) == pytest.approx(want)


class TestInitParams:
    def test_ranges_and_interleaving(self):
        params = init_params(4, generator(11))
        assert params.shape == (8,)
        gammas, betas = params[0::2], params[1::2]
        assert np.all(np.abs(gammas) <= 0.1)
        assert np.all(np.abs(betas) <= 1.0)
        # generic draws land outside the narrow window, proving the
        # wide-range values really are the betas
        assert np.any(np.abs(betas) > 0.1)

    def test_draw_order_contract(self):
        rng = generator(7)
        gammas = rng.uniform(-0.1, 0.1, size=3)
        betas = rng.uniform(-1.0, 1.0, size=3)
        params = init_params(3, generator(7))
        np.testing.assert_array_equal(params[0::2], gammas)
        np.testing.assert_array_equal(params[1::2], betas)

    def test_custom_ranges(self):
        params = init_params(2, generator(0), gamma_range=(2.0, 3.0), beta_range=(-5.0, -4.0))
        assert np.all((params[0::2] >= 2.0) & (params[0::2] <= 3.0))
        assert np.all((params[1::2] >= -5.0) & (params[1::2] <= -4.0))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown regime"):
            QaoaConfig(regime="vqe")
        with pytest.raises(ValueError, match="unknown backend"):
            QaoaConfig(regime="xy", backend="gpu")
        with pytest.raises(ValueError, match="cvar_alpha"):
            QaoaConfig(regime="xy", cvar_alpha=0.0)
        with pytest.raises(ValueError, match="cvar_alpha"):
            QaoaConfig(regime="xy", cvar_alpha=1.2)
        with pytest.raises(ValueError, match="p must be at least 1"):
            QaoaConfig(regime="xy", p=0)
        with pytest.raises(ValueError, match="penalty regime"):
            QaoaConfig(regime="baseline", penalty=3.0)
        with pytest.raises(ValueError, match="unknown optimizer 'bfgs'"):
            QaoaConfig(regime="xy", optimizer="bfgs")
        with pytest.raises(ValueError, match="optimizer must be a string, not 5"):
            QaoaConfig(regime="xy", optimizer=5)
        with pytest.raises(ValueError, match="shots_per_iteration"):
            QaoaConfig(regime="xy", shots_per_iteration=0)
        with pytest.raises(ValueError, match="max_iterations"):
            QaoaConfig(regime="xy", max_iterations=-1)
        with pytest.raises(ValueError, match="max_bond"):
            QaoaConfig(regime="xy", backend="mps", max_bond=0)
        with pytest.raises(ValueError, match="stop_mode"):
            QaoaConfig(regime="xy", stop_mode=-1.0)
        # the optimizer name is matched in any case, as run_minimize matches it
        assert QaoaConfig(regime="xy", optimizer="Nelder-Mead").optimizer == "Nelder-Mead"

    @pytest.mark.parametrize(
        "field", ["p", "shots_per_iteration", "max_iterations", "max_bond", "seed"]
    )
    @pytest.mark.parametrize("value", [2.5, "3", True])
    def test_integer_fields_reject_other_types(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            QaoaConfig(regime="xy", **{field: value})

    def test_default_shot_schedule(self):
        cfg = QaoaConfig(regime="xy")
        assert cfg.resolved_shots(1) == 10
        assert cfg.resolved_shots(5) == 50
        assert cfg.resolved_shots(40) == 100
        assert QaoaConfig(regime="xy", backend="mps").resolved_shots(40) == 1000
        assert QaoaConfig(regime="xy", shots_per_iteration=77).resolved_shots(40) == 77

    def test_default_budgets(self):
        assert QaoaConfig(regime="xy").resolved_max_iterations() == 500
        assert QaoaConfig(regime="xy", backend="mps").resolved_max_iterations() == 2000
        assert QaoaConfig(regime="xy", max_iterations=9).resolved_max_iterations() == 9


class TestOptimize:
    def test_single_residue_hits_immediately(self):
        problem = random_problem(1, 2, seed=0)
        target = brute_force(problem).ground_energy
        for regime in ("baseline", "penalty", "xy"):
            rec = optimize(
                problem,
                QaoaConfig(
                    regime=regime,
                    seed=3,
                    stop_mode=FirstGroundState(target),
                    max_iterations=60,
                ),
            )
            assert rec.converged
            assert rec.first_hit_iteration == 1
            assert rec.first_hit_shot >= 1
            assert rec.best_energy == pytest.approx(target)
            assert rec.total_shots == rec.iterations_used * rec.shots_per_iteration

    def test_penalty_regime_reports_bare_energy(self):
        problem = random_problem(2, 2, seed=1)
        target = brute_force(problem).ground_energy
        rec = optimize(
            problem,
            QaoaConfig(
                regime="penalty",
                seed=5,
                stop_mode=FirstGroundState(target),
                max_iterations=300,
            ),
        )
        assert rec.converged
        # hit detection and best_energy ignore the penalty shift
        assert rec.best_energy == pytest.approx(target)
        bits = tuple(int(c) for c in rec.best_bitstring)
        config = decode(bits, problem)
        assert isinstance(config, tuple)
        assert problem.energy(config) == pytest.approx(target)

    def test_parameter_convergence_mode(self):
        problem = random_problem(1, 1, seed=2)
        rec = optimize(problem, QaoaConfig(regime="baseline", seed=0, max_iterations=400))
        assert rec.converged
        assert rec.iterations_used < 400
        assert rec.first_hit_iteration is None
        assert rec.first_hit_shot is None
        # the only valid assignment was sampled at some point
        assert rec.best_energy == pytest.approx(problem.energy((0,)))

    def test_budget_exhaustion_with_restarts(self):
        problem = random_problem(2, 2, seed=1)
        target = brute_force(problem).ground_energy
        rec = optimize(
            problem,
            QaoaConfig(
                regime="baseline",
                seed=2,
                stop_mode=FirstGroundState(target - 100.0),
                max_iterations=160,
            ),
        )
        assert not rec.converged
        assert rec.first_hit_iteration is None
        assert rec.iterations_used == 160
        assert rec.optimizer_restarts >= 1
        assert rec.best_energy == pytest.approx(target)

    @pytest.mark.parametrize("backend", ["statevector", "mps"])
    def test_every_solver_stops_below_a_pinned_target(self, backend):
        # the ground lies below the target, so a ground sample reaches it
        problem = load_problem(DATA / "dipeptide.json")
        assert brute_force(problem).ground_energy == pytest.approx(-0.8)
        rec = optimize(
            problem,
            QaoaConfig(
                regime="xy",
                p=1,
                backend=backend,
                max_iterations=30,
                stop_mode=FirstGroundState(0.0),
            ),
        )
        assert rec.converged
        assert rec.first_hit_iteration is not None
        assert rec.best_energy <= 0.0
        for anneal in (dual_anneal, discrete_anneal):
            assert anneal(problem, SaConfig(seed=0), target_energy=0.0).converged

    @pytest.mark.filterwarnings("error")
    def test_short_restart_budget_raises_no_warning(self):
        # the restart gets fewer evaluations than COBYLA's minimum of n + 2
        problem = random_problem(3, 2, seed=5)
        target = brute_force(problem).ground_energy
        rec = optimize(
            problem,
            QaoaConfig(
                regime="baseline",
                p=2,
                seed=0,
                stop_mode=FirstGroundState(target - 100.0),
                max_iterations=40,
                shots_per_iteration=16,
            ),
        )
        assert rec.optimizer_restarts == 1
        assert rec.iterations_used == 40

    def test_simulator_error_does_not_strand_optimizer_thread(self, monkeypatch):
        def broken_sampler(*args, **kwargs):
            raise RuntimeError("sampler failed")

        problem = random_problem(2, 2, seed=1)
        before = threading.active_count()
        monkeypatch.setattr("rotpack.driver.sv.sample_state", broken_sampler)
        with pytest.raises(RuntimeError, match="sampler failed"):
            optimize(problem, QaoaConfig(regime="xy", seed=0, max_iterations=20))
        assert threading.active_count() == before

    def test_optimizer_error_is_raised_not_recorded_as_converged(self, monkeypatch):
        def broken_minimize(*args, **kwargs):
            raise RuntimeError("minimize failed")

        problem = random_problem(2, 2, seed=1)
        before = threading.active_count()
        monkeypatch.setattr("rotpack.optimizers.minimize", broken_minimize)
        with pytest.raises(RuntimeError, match="minimize failed"):
            optimize(problem, QaoaConfig(regime="xy", max_iterations=20))
        assert threading.active_count() == before

    def test_trajectory_starts_no_thread(self, monkeypatch):
        def no_thread(self):
            raise AssertionError("a trajectory started a thread")

        problem = random_problem(3, 2, seed=5)
        target = brute_force(problem).ground_energy
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        # COBYLA spends its first round and restarts: the target is unreachable
        rec = optimize(
            problem,
            QaoaConfig(
                regime="baseline",
                p=2,
                seed=0,
                stop_mode=FirstGroundState(target - 100.0),
                max_iterations=40,
                shots_per_iteration=16,
            ),
        )
        assert rec.optimizer_restarts == 1
        assert rec.iterations_used == 40
        rec = optimize(
            problem,
            QaoaConfig(
                regime="xy",
                optimizer="nelder-mead",
                seed=0,
                stop_mode=FirstGroundState(target),
                max_iterations=60,
            ),
        )
        assert rec.iterations_used >= 1

    @pytest.mark.parametrize(
        "evaluated, budget, target, iterations, converged, restarts",
        [
            (5, 5, "unreachable", 5, False, 0),
            (5, 12, "unreachable", 12, False, 2),
            (0, 10, "unreachable", 0, False, 0),
            (0, 10, None, 0, True, 0),
            (3, 10, None, 3, True, 0),
        ],
    )
    def test_optimizer_return_boundaries(
        self, monkeypatch, evaluated, budget, target, iterations, converged, restarts
    ):
        # a minimize that evaluates ``evaluated`` points and then returns
        def fake_minimize(fun, x0, **kwargs):
            for k in range(evaluated):
                fun(x0 + 0.01 * k)

        problem = random_problem(2, 2, seed=1)
        stop = None
        if target is not None:
            stop = FirstGroundState(brute_force(problem).ground_energy - 100.0)
        monkeypatch.setattr("rotpack.optimizers.minimize", fake_minimize)
        rec = optimize(
            problem,
            QaoaConfig(regime="xy", seed=0, max_iterations=budget, stop_mode=stop),
        )
        assert (rec.iterations_used, rec.converged, rec.optimizer_restarts) == (
            iterations,
            converged,
            restarts,
        )
        assert rec.first_hit_iteration is None

    def test_trajectories_reproduce(self):
        problem = random_problem(2, 2, seed=1)
        cfg = QaoaConfig(
            regime="xy",
            seed=9,
            stop_mode=FirstGroundState(brute_force(problem).ground_energy),
            max_iterations=120,
        )
        a = dataclasses.asdict(optimize(problem, cfg, trajectory_id=2))
        b = dataclasses.asdict(optimize(problem, cfg, trajectory_id=2))
        a.pop("wall_time")
        b.pop("wall_time")
        assert a == b

    def test_trajectory_seed_recorded(self):
        problem = random_problem(1, 2, seed=0)
        cfg = QaoaConfig(regime="xy", seed=31, max_iterations=2)
        rec = optimize(problem, cfg, trajectory_id=6)
        assert rec.seed == trajectory_seed(31, 6)
        assert rec.rng_family == "philox"

    def test_mps_backend_metadata(self):
        problem = random_problem(2, 2, seed=1)
        cfg = QaoaConfig(
            regime="xy",
            seed=1,
            backend="mps",
            shots_per_iteration=40,
            max_iterations=3,
        )
        rec = optimize(problem, cfg, trajectory_id=5)
        assert rec.backend == "mps"
        assert rec.max_bond_reached is not None and rec.max_bond_reached >= 1
        assert rec.discarded_weight is not None
        assert rec.iterations_used == 3
        assert rec.total_shots == 120
        assert not rec.converged

    @pytest.mark.parametrize("regime", ["xy", "penalty"])
    def test_mps_xy_runs_on_residue_sites(self, regime):
        problem = random_problem(3, 3, seed=2)
        cfg = QaoaConfig(regime=regime, backend="mps", max_iterations=2, seed=4)
        rec = optimize(problem, cfg)
        assert rec.iterations_used == 2
        # xy's one-hot sites keep bonds of at most 3 across any cut; a
        # penalty site holds all 8 patterns of its block
        assert (rec.max_bond_reached <= 3) == (regime == "xy")

    @pytest.mark.parametrize("regime", ["penalty", "baseline", "xy"])
    def test_mps_trajectory_applies_no_gates(self, regime, monkeypatch):
        # every regime runs from its energy tables; the per-gate oracle and
        # its gate routing stay out of the pipeline
        def refuse(*args, **kwargs):
            raise AssertionError("gate applied")

        monkeypatch.setattr(MpsState, "apply_gate", refuse)
        monkeypatch.setattr("rotpack.driver.run_circuit_mps", refuse)
        problem = random_problem(3, 3, seed=2)
        cfg = QaoaConfig(regime=regime, backend="mps", max_iterations=2, seed=4)
        assert optimize(problem, cfg).iterations_used == 2

    @pytest.mark.parametrize("backend", ["statevector", "mps"])
    @pytest.mark.parametrize("regime", ["baseline", "penalty", "xy"])
    def test_circuits_are_built_once_per_trajectory(self, regime, backend, monkeypatch):
        # every route is prepared from the problem's blocks and Hamiltonian
        # and runs on them: a trajectory constructs no circuit at all, in its
        # preparation or in any iteration
        built = []
        post_init = circuits.Circuit.__post_init__

        def counted(circuit):
            built.append(circuit)
            post_init(circuit)

        monkeypatch.setattr(circuits.Circuit, "__post_init__", counted)
        cfg = QaoaConfig(
            regime=regime,
            backend=backend,
            shots_per_iteration=20,
            max_iterations=5,
            seed=4,
        )
        assert optimize(random_problem(3, 3, seed=2), cfg).iterations_used == 5
        assert built == []
        # the count sees a circuit when one is built
        circuits.build_initial_state(regime, [(0, 3)])
        assert len(built) == 1

    def test_statevector_runs_leave_mps_fields_empty(self):
        problem = random_problem(1, 2, seed=0)
        rec = optimize(problem, QaoaConfig(regime="xy", seed=0, max_iterations=2))
        assert rec.max_bond_reached is None
        assert rec.discarded_weight is None

    def test_xy_best_bitstring_always_valid(self):
        problem = random_problem(3, 2, seed=6)
        rec = optimize(
            problem,
            QaoaConfig(
                regime="xy",
                seed=2,
                stop_mode=FirstGroundState(brute_force(problem).ground_energy),
                max_iterations=150,
            ),
        )
        assert rec.best_bitstring is not None
        bits = tuple(int(c) for c in rec.best_bitstring)
        assert isinstance(decode(bits, problem), tuple)


def _without_wall_time(records):
    return [dataclasses.asdict(r) | {"wall_time": None} for r in records]


def _prep_case(regime, backend, stop):
    problem = random_problem(3, 2, seed=5)
    ground = brute_force(problem).ground_energy
    # an unreachable target spends the whole budget, restarting COBYLA
    target = ground if stop == "hit" else ground - 100.0
    config = QaoaConfig(
        regime=regime,
        p=2,
        backend=backend,
        seed=3,
        stop_mode=FirstGroundState(target),
        max_iterations=40,
        shots_per_iteration=16,
    )
    return problem, config


def _count_preparations(monkeypatch):
    """Count the driver's calls of what a simulator prepares."""
    calls = Counter()
    for name in (
        "ansatz_hamiltonian",
        "build_qubo",
        "all_bitstring_energies",
    ):
        original = getattr(driver, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(driver, name, counted)
    return calls


class TestPreparedSimulator:
    @pytest.mark.parametrize("stop", ["hit", "unreachable"])
    @pytest.mark.parametrize("backend", ["statevector", "mps"])
    @pytest.mark.parametrize("regime", ["baseline", "penalty", "xy"])
    def test_ensemble_records_equal_lone_trajectories(self, regime, backend, stop):
        problem, config = _prep_case(regime, backend, stop)
        shared = run_ensemble(problem, config, 4).results
        alone = [optimize(problem, config, k) for k in range(4)]
        assert _without_wall_time(shared) == _without_wall_time(alone)
        if stop == "unreachable":
            assert all(r.iterations_used == 40 for r in shared)
            assert any(r.optimizer_restarts > 0 for r in shared)

    @pytest.mark.parametrize("backend", ["statevector", "mps"])
    @pytest.mark.parametrize("regime", ["baseline", "xy"])
    def test_serial_ensemble_prepares_once(self, regime, backend, monkeypatch):
        calls = _count_preparations(monkeypatch)
        problem, config = _prep_case(regime, backend, "unreachable")
        run_ensemble(problem, config, 5)
        assert calls["ansatz_hamiltonian"] == 1
        assert max(calls.values()) == 1

    def test_prepares_inside_the_first_trajectory(self, monkeypatch):
        calls = _count_preparations(monkeypatch)
        problem, config = _prep_case("xy", "statevector", "hit")
        prepared = PreparedSimulator(problem, config)
        assert calls["ansatz_hamiltonian"] == 0
        optimize(problem, config, 0, prepared=prepared)
        optimize(problem, config, 1, prepared=prepared)
        assert calls["ansatz_hamiltonian"] == 1

    def test_pool_prepares_at_most_once_per_chunk(self):
        problem, config = _prep_case("penalty", "statevector", "hit")
        n, workers = 12, 2
        solve = functools.partial(
            optimize_counting_hamiltonians,
            problem,
            config,
            prepared=PreparedSimulator(problem, config),
        )
        got = _run_trajectories(solve, n, workers=workers, chunks=CHUNKS_PER_WORKER)
        records = [record for record, _, _ in got]
        alone = [optimize(problem, config, k) for k in range(n)]
        assert _without_wall_time(records) == _without_wall_time(alone)
        built = {}
        for _, pid, count in got:
            built[pid] = max(built.get(pid, 0), count)
        chunk = -(-n // (CHUNKS_PER_WORKER * workers))
        assert 1 < chunk
        assert 1 <= sum(built.values()) <= -(-n // chunk)

    @pytest.mark.parametrize("backend", ["statevector", "mps"])
    @pytest.mark.parametrize("regime", ["penalty", "xy"])
    def test_freed_without_the_cycle_collector(self, regime, backend):
        # a trajectory's simulator and its buffers go when the last
        # reference does, not at the next collection
        problem, config = _prep_case(regime, backend, "hit")
        prepared = PreparedSimulator(problem, config)
        optimize(problem, config, prepared=prepared)
        gone = weakref.ref(prepared)
        gc.disable()
        try:
            del prepared
            assert gone() is None
        finally:
            gc.enable()

    def test_refuses_another_problem_or_config(self):
        problem, config = _prep_case("xy", "statevector", "hit")
        prepared = PreparedSimulator(problem, config)
        twin = random_problem(3, 2, seed=5)
        with pytest.raises(ValueError, match="another problem or config"):
            optimize(twin, config, prepared=prepared)
        with pytest.raises(ValueError, match="another problem or config"):
            optimize(problem, dataclasses.replace(config, seed=4), prepared=prepared)
        # an equal config built apart is accepted
        optimize(problem, dataclasses.replace(config), prepared=prepared)

    @pytest.mark.parametrize("backend", ["statevector", "mps"])
    @pytest.mark.parametrize("regime", ["penalty", "xy"])
    def test_pickled_simulator_gives_the_same_records(self, regime, backend, monkeypatch):
        problem, config = _prep_case(regime, backend, "hit")
        prepared = PreparedSimulator(problem, config)
        want = [optimize(problem, config, k, prepared=prepared) for k in range(3)]
        copy = pickle.loads(pickle.dumps(prepared))
        calls = _count_preparations(monkeypatch)
        got = [optimize(copy.problem, config, k, prepared=copy) for k in range(3)]
        assert _without_wall_time(got) == _without_wall_time(want)
        # the copy carried no prepared pieces: it built its own, once
        assert calls["ansatz_hamiltonian"] == 1


class TestAggregation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no records"):
            aggregate_records([])

    def test_all_converged(self):
        records = [
            make_record(trajectory_id=0, total_shots=100),
            make_record(trajectory_id=1, total_shots=300),
        ]
        result = aggregate_records(records)
        assert result.success_ratio == 1.0
        assert result.mean_cost == pytest.approx(200.0)
        assert result.std_cost == pytest.approx(100.0)

    def test_failures_inflate_cost(self):
        records = [
            make_record(trajectory_id=0, total_shots=100),
            make_record(
                trajectory_id=1,
                converged=False,
                first_hit_iteration=None,
                first_hit_shot=None,
                total_shots=900,
            ),
        ]
        result = aggregate_records(records)
        assert result.success_ratio == 0.5
        # 100 / 0.5: the failed trajectory's shots are not averaged in,
        # but the failure rate doubles the expected cost
        assert result.mean_cost == pytest.approx(200.0)
        assert result.std_cost == pytest.approx(0.0)

    def test_no_convergence(self):
        records = [make_record(converged=False)]
        result = aggregate_records(records)
        assert result.success_ratio == 0.0
        assert result.mean_cost is None
        assert result.std_cost is None

    def test_summary_dict(self):
        result = aggregate_records([make_record()])
        assert result.summary_dict() == {
            "num_trajectories": 1,
            "success_ratio": 1.0,
            "mean_cost": 200.0,
            "std_cost": 0.0,
        }


class TestEnsemble:
    def test_needs_trajectories(self):
        problem = random_problem(1, 2, seed=0)
        with pytest.raises(ValueError, match="at least one trajectory"):
            run_ensemble(problem, QaoaConfig(regime="xy"), 0)

    @pytest.mark.parametrize("workers", [0, -3, 1.0, 2.5, True, "2", None], ids=repr)
    def test_workers_must_be_a_positive_integer(self, workers):
        problem = random_problem(1, 2, seed=0)
        with pytest.raises(ValueError, match="workers must be an integer of at least 1"):
            run_ensemble(problem, QaoaConfig(regime="xy"), 1, workers=workers)

    def test_sequential_matches_pool(self):
        problem = random_problem(2, 2, seed=1)
        cfg = QaoaConfig(
            regime="xy",
            seed=9,
            stop_mode=FirstGroundState(brute_force(problem).ground_energy),
            max_iterations=120,
        )
        seq = run_ensemble(problem, cfg, 4, workers=1)
        par = run_ensemble(problem, cfg, 4, workers=2)
        strip = lambda r: dataclasses.asdict(r) | {"wall_time": 0.0}
        assert [strip(r) for r in seq.results] == [strip(r) for r in par.results]
        assert [r.trajectory_id for r in seq.results] == [0, 1, 2, 3]
        assert seq.success_ratio == 1.0

    def test_guarded_script_runs_a_pool(self, tmp_path):
        script = tmp_path / "ensemble.py"
        script.write_text(
            "import dataclasses, json\n"
            "from rotpack.driver import QaoaConfig, run_ensemble\n"
            "from rotpack.problem import random_problem\n"
            "\n"
            'if __name__ == "__main__":\n'
            "    problem = random_problem(2, 2, seed=1)\n"
            '    cfg = QaoaConfig(regime="xy", seed=9, max_iterations=20)\n'
            "    result = run_ensemble(problem, cfg, 3, workers=2)\n"
            "    records = [dataclasses.asdict(r) for r in result.results]\n"
            '    print(json.dumps([r | {"wall_time": 0.0} for r in records]))\n'
        )
        path = [str(DATA.parent / "src"), os.getenv("PYTHONPATH")]
        env = os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, path))}
        done = subprocess.run(
            [sys.executable, str(script)],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        cfg = QaoaConfig(regime="xy", seed=9, max_iterations=20)
        local = run_ensemble(random_problem(2, 2, seed=1), cfg, 3, workers=1)
        records = [dataclasses.asdict(r) | {"wall_time": 0.0} for r in local.results]
        assert done.stdout == json.dumps(records) + "\n"

    def test_pool_workers_run_blas_on_one_thread(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        with _worker_pool(2) as pool:
            got = list(pool.map(os.getenv, _BLAS_THREADS))
        assert got == ["1"] * len(_BLAS_THREADS)
        # the parent's environment is as it was
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
        assert "OMP_NUM_THREADS" not in os.environ

    def test_records_jsonl(self, tmp_path):
        records = [make_record(trajectory_id=k) for k in range(3)]
        path = tmp_path / "records.jsonl"
        write_records_jsonl(records, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        parsed = [json.loads(line) for line in lines]
        assert [r["trajectory_id"] for r in parsed] == [0, 1, 2]
        assert lines[0] == json.dumps(dataclasses.asdict(records[0]), sort_keys=True)
