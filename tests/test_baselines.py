"""Exhaustive search, both annealers, and ensemble cost accounting."""

import dataclasses
import functools
import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import problems
from rotpack._rng import trajectory_seed
from rotpack.baselines import (
    AnnealResult,
    SaConfig,
    brute_force,
    discrete_anneal,
    dual_anneal,
    sa_ensemble,
)
from rotpack.problem import RotamerProblem, decode, random_problem, valid_mask
from rotpack.qubo import build_qubo, default_penalty


def tiny_problem() -> RotamerProblem:
    return RotamerProblem(
        rotamer_counts=(2, 2),
        self_energies=np.array([0.5, -1.0, 0.25, 2.0]),
        pair_blocks={(0, 1): np.array([[0.1, -0.2], [0.3, 0.4]])},
    )


def separable_problem(num_residues: int = 3) -> RotamerProblem:
    """Rotamer 0 of every residue is favored by 1; no pair terms."""
    selves = np.zeros(2 * num_residues)
    selves[::2] = -1.0
    return RotamerProblem(
        rotamer_counts=(2,) * num_residues,
        self_energies=selves,
        pair_blocks={},
    )


def permuted_problem(
    problem: RotamerProblem, perm: tuple[int, ...]
) -> RotamerProblem:
    """Relabel residues so that new residue k is old residue perm[k]."""
    offsets = problem.block_offsets
    counts = tuple(problem.rotamer_counts[old] for old in perm)
    selves = np.concatenate(
        [
            problem.self_energies[
                offsets[old] : offsets[old] + problem.rotamer_counts[old]
            ]
            for old in perm
        ]
    )
    position = {old: new for new, old in enumerate(perm)}
    pairs = {}
    for (i, j), block in problem.pair_blocks.items():
        a, b = position[i], position[j]
        pairs[(a, b) if a < b else (b, a)] = block if a < b else block.T
    # relabeling scrambles adjacency, so the chain restriction must go
    return RotamerProblem(
        rotamer_counts=counts,
        self_energies=selves,
        pair_blocks=pairs,
        nearest_neighbor_only=False,
    )


def result_fields(result: AnnealResult) -> dict:
    fields = dataclasses.asdict(result)
    fields.pop("wall_time")
    return fields


class TestBruteForce:
    def test_hand_computed_minimum(self):
        result = brute_force(tiny_problem())
        assert result.ground_energy == pytest.approx(-1.0 + 0.25 + 0.3)
        assert result.ground_configs == ((1, 0),)
        assert result.evaluations == 4

    def test_all_zero_tables_tie_every_config(self):
        p = RotamerProblem(
            rotamer_counts=(2, 2),
            self_energies=np.zeros(4),
            pair_blocks={(0, 1): np.zeros((2, 2))},
        )
        result = brute_force(p)
        assert result.ground_energy == 0.0
        assert result.ground_configs == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_separable_unique_minimum(self):
        result = brute_force(separable_problem(4))
        assert result.ground_energy == pytest.approx(-4.0)
        assert result.ground_configs == ((0, 0, 0, 0),)

    def test_enumeration_cap(self):
        with pytest.raises(ValueError, match="exceed the table limit"):
            brute_force(random_problem(27, 2, seed=0))

    def test_ground_energy_is_the_energy_of_the_ground_config(self):
        # eight residues: a pairwise sum of the self energies would reorder
        # them and miss energy() in the last bit
        problem = random_problem(8, 3, seed=1)
        result = brute_force(problem)
        assert result.ground_energy == problem.energy(result.ground_configs[0])

    @given(problems(max_residues=3, max_rotamers=3))
    def test_matches_direct_enumeration(self, problem):
        result = brute_force(problem)
        table = {
            cfg: problem.energy(cfg)
            for cfg in itertools.product(
                *(range(n) for n in problem.rotamer_counts)
            )
        }
        ground = min(table.values())
        assert result.ground_energy == ground
        assert set(result.ground_configs) == {
            cfg for cfg, e in table.items() if e == ground
        }
        assert result.evaluations == len(table)

    @given(problems(max_residues=4, max_rotamers=3), st.randoms())
    def test_residue_relabeling_invariance(self, problem, rand):
        perm = list(range(problem.num_residues))
        rand.shuffle(perm)
        perm = tuple(perm)
        original = brute_force(problem)
        relabeled = brute_force(permuted_problem(problem, perm))
        assert relabeled.ground_energy == pytest.approx(
            original.ground_energy, abs=1e-12
        )
        mapped = {
            tuple(cfg[old] for old in perm) for cfg in original.ground_configs
        }
        assert set(relabeled.ground_configs) == mapped

    @given(
        problems(max_residues=3, max_rotamers=3),
        st.integers(0, 99),
        st.floats(-5.0, 5.0).filter(lambda c: abs(c) > 1e-6),
    )
    def test_constant_shift_moves_ground_not_argmin(self, problem, k, c):
        k = k % problem.num_residues
        offset = problem.block_offsets[k]
        count = problem.rotamer_counts[k]
        selves = problem.self_energies.copy()
        selves[offset : offset + count] += c
        shifted = RotamerProblem(
            rotamer_counts=problem.rotamer_counts,
            self_energies=selves,
            pair_blocks=problem.pair_blocks,
            nearest_neighbor_only=problem.nearest_neighbor_only,
        )
        before = brute_force(problem)
        after = brute_force(shifted)
        assert after.ground_energy == pytest.approx(
            before.ground_energy + c, abs=1e-9
        )
        assert set(after.ground_configs) == set(before.ground_configs)

    def test_agrees_with_penalized_bitstring_scan(self):
        # independent route: score every 16-bit string with the penalized
        # QUBO and keep only the one-per-block rows
        problem = random_problem(4, 4, seed=13)
        qubo = build_qubo(problem, penalty=default_penalty(problem))
        m = problem.num_qubits
        bits = (
            (np.arange(1 << m)[:, None] >> np.arange(m)[None, :]) & 1
        ).astype(np.int8)
        scan = float(qubo.energies(bits[valid_mask(bits, problem)]).min())
        assert brute_force(problem).ground_energy == pytest.approx(
            scan, abs=1e-12
        )


class TestSaConfig:
    def test_positive_budget_and_temperature(self):
        with pytest.raises(ValueError, match="max_iterations"):
            SaConfig(max_iterations=0)
        with pytest.raises(ValueError, match="initial_temperature"):
            SaConfig(initial_temperature=0.0)

    @pytest.mark.parametrize("field", ["max_iterations", "seed"])
    @pytest.mark.parametrize("value", [2.5, "3", True])
    def test_integer_fields_reject_other_types(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SaConfig(**{field: value})

    @pytest.mark.parametrize("value", ["false", 0, 1.0, None])
    def test_local_search_must_be_a_bool(self, value):
        with pytest.raises(ValueError, match="local_search must be a bool"):
            SaConfig(local_search=value)


class TestDualAnneal:
    def test_evaluation_count_identity(self):
        # one seed evaluation plus a 2M-proposal chain per iteration; holds
        # only without local search or early stopping
        problem = random_problem(3, 3, seed=7)
        for iters in (1, 7, 20):
            result = dual_anneal(
                problem,
                SaConfig(max_iterations=iters, local_search=False, seed=0),
            )
            assert result.evaluations == 1 + 2 * 9 * iters
            assert result.iterations_used == iters
            assert result.restarts == 0

    def test_deterministic_given_seed(self):
        problem = random_problem(2, 3, seed=4)
        config = SaConfig(max_iterations=50, seed=9)
        assert result_fields(dual_anneal(problem, config)) == result_fields(
            dual_anneal(problem, config)
        )

    def test_early_stop_spends_fewer_evaluations(self):
        problem = random_problem(2, 2, seed=1)
        ground = brute_force(problem).ground_energy
        config = SaConfig(local_search=False, seed=0)
        full = dual_anneal(problem, config)
        early = dual_anneal(problem, config, target_energy=ground)
        assert not full.converged
        assert early.converged
        assert early.evaluations < full.evaluations
        assert early.best_energy == pytest.approx(ground, abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_converged_implies_exact_and_valid(self, seed):
        problem = random_problem(2, 3, seed=11)
        ground = brute_force(problem).ground_energy
        result = dual_anneal(
            problem,
            SaConfig(max_iterations=200, seed=seed),
            target_energy=ground,
        )
        if result.converged:
            assert result.best_energy == pytest.approx(ground, abs=1e-9)
            assert result.valid

    def test_separable_instance_converges(self):
        problem = separable_problem()
        for seed in range(5):
            result = dual_anneal(
                problem, SaConfig(seed=seed), target_energy=-3.0
            )
            assert result.converged

    def test_full_run_lands_on_valid_assignment(self):
        # the one-hot penalty dominates, so the rounded minimizer plus the
        # final flip descent must end on a feasible string
        for problem in (random_problem(3, 3, seed=7), random_problem(2, 4, seed=3)):
            result = dual_anneal(problem, SaConfig(seed=0))
            assert result.valid
            bits = [int(ch) for ch in result.best_bitstring]
            config = decode(bits, problem)
            assert isinstance(config, tuple)
            assert problem.energy(config) == pytest.approx(
                result.best_energy, abs=1e-9
            )


class TestDiscreteAnneal:
    def test_converges_on_sixteen_qubit_instance(self):
        problem = random_problem(4, 4, seed=3)
        ground = brute_force(problem).ground_energy
        result = discrete_anneal(
            problem,
            SaConfig(max_iterations=400, seed=3),
            target_energy=ground,
        )
        assert result.converged
        assert result.best_energy == pytest.approx(ground, abs=1e-9)
        assert result.evaluations == 69

    def test_always_valid_with_bare_energies(self):
        problem = random_problem(3, 4, seed=6)
        result = discrete_anneal(problem, SaConfig(max_iterations=40, seed=1))
        assert result.valid
        assert result.restarts == 0
        config = decode([int(ch) for ch in result.best_bitstring], problem)
        assert isinstance(config, tuple)
        assert problem.energy(config) == pytest.approx(
            result.best_energy, abs=1e-12
        )

    def test_instant_convergence_on_forced_assignment(self):
        p = RotamerProblem(
            rotamer_counts=(1,),
            self_energies=np.array([0.3]),
            pair_blocks={},
        )
        result = discrete_anneal(p, SaConfig(seed=0), target_energy=0.3)
        assert result.converged
        assert result.iterations_used == 0
        assert result.evaluations == 1

    def test_deterministic_given_seed(self):
        problem = random_problem(3, 3, seed=2)
        config = SaConfig(max_iterations=30, seed=7)
        assert result_fields(
            discrete_anneal(problem, config)
        ) == result_fields(discrete_anneal(problem, config))


class TestSaEnsemble:
    def test_rejects_bad_arguments(self):
        problem = random_problem(2, 2, seed=0)
        with pytest.raises(ValueError, match="at least one trajectory"):
            sa_ensemble(problem, SaConfig(), 0)
        with pytest.raises(ValueError, match="unknown method"):
            sa_ensemble(problem, SaConfig(), 1, method="tabu")
        for workers in (0, -1, True):
            with pytest.raises(ValueError, match="workers must be an integer"):
                sa_ensemble(problem, SaConfig(), 1, workers=workers)

    def test_trajectories_get_derived_seeds(self):
        problem = random_problem(2, 2, seed=0)
        ensemble = sa_ensemble(
            problem,
            SaConfig(max_iterations=5, seed=42),
            3,
            method="discrete",
        )
        assert [r.seed for r in ensemble.results] == [
            trajectory_seed(42, k) for k in range(3)
        ]

    def test_cost_accounting_on_mixed_outcomes(self):
        # tight budget so some seeds miss: frozen split is 5 of 8
        problem = random_problem(3, 3, seed=7)
        ground = brute_force(problem).ground_energy
        ensemble = sa_ensemble(
            problem,
            SaConfig(max_iterations=30, local_search=False, seed=5),
            8,
            target_energy=ground,
        )
        assert ensemble.success_ratio == pytest.approx(0.625)
        costs = np.array(
            [r.evaluations for r in ensemble.results if r.converged],
            dtype=float,
        )
        assert ensemble.mean_cost == pytest.approx(
            costs.mean() / ensemble.success_ratio
        )
        assert ensemble.std_cost == pytest.approx(
            costs.std() / ensemble.success_ratio
        )

    def test_halved_ratio_doubles_the_cost(self):
        problem = random_problem(3, 3, seed=7)
        ground = brute_force(problem).ground_energy
        ensemble = sa_ensemble(
            problem,
            SaConfig(max_iterations=30, local_search=False, seed=5),
            8,
            target_energy=ground,
        )
        successes = [r.evaluations for r in ensemble.results if r.converged]
        raw_mean = float(np.mean(successes))
        assert ensemble.mean_cost == pytest.approx(
            raw_mean / ensemble.success_ratio
        )
        assert ensemble.mean_cost > raw_mean

    def test_no_successes_leaves_costs_none(self):
        ensemble = sa_ensemble(
            random_problem(2, 2, seed=0),
            SaConfig(max_iterations=2, seed=1),
            2,
            method="discrete",
            target_energy=-1e9,
        )
        assert ensemble.success_ratio == 0.0
        assert ensemble.mean_cost is None
        assert ensemble.std_cost is None

    @pytest.mark.parametrize("method, budget", [("gsa", 30), ("discrete", 5)])
    def test_sequential_matches_pool(self, method, budget):
        # budgets with mixed outcomes, so the summaries count both kinds
        problem = random_problem(3, 3, seed=7)
        run = functools.partial(
            sa_ensemble,
            problem,
            SaConfig(max_iterations=budget, local_search=False, seed=5),
            6,
            target_energy=brute_force(problem).ground_energy,
            method=method,
        )
        seq, par = run(workers=1), run(workers=2)
        assert [result_fields(r) for r in par.results] == [
            result_fields(r) for r in seq.results
        ]
        assert par.summary_dict() == seq.summary_dict()
        assert 0.0 < seq.success_ratio < 1.0

    def test_discrete_dispatch(self):
        ensemble = sa_ensemble(
            random_problem(2, 3, seed=5),
            SaConfig(max_iterations=10, seed=2),
            3,
            method="discrete",
        )
        assert all(r.valid for r in ensemble.results)
        assert all(r.restarts == 0 for r in ensemble.results)

    def test_summary_dict(self):
        problem = random_problem(2, 2, seed=0)
        ground = brute_force(problem).ground_energy
        ensemble = sa_ensemble(
            problem,
            SaConfig(max_iterations=100, seed=3),
            4,
            method="discrete",
            target_energy=ground,
        )
        assert ensemble.summary_dict() == {
            "num_trajectories": 4,
            "success_ratio": ensemble.success_ratio,
            "mean_cost": ensemble.mean_cost,
            "std_cost": ensemble.std_cost,
        }
