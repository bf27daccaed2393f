"""The xy ansatz on the statevector backend, simulated as a one-hot state.

Pinned fixed-budget trajectories: every ``RunRecord`` field but
``wall_time``, recorded from the dense 2^M simulation. The target sits
100 below the ground energy, so each trajectory spends its whole budget
(the 4x3 one restarts its optimizer once).

The start (``one_hot_state``), built from the blocks, and a cost layer
from the energy profile are compared exactly (``np.array_equal``) with a
dense reference, ``run_circuit`` of the state preparation's gates and the
full energy table's phase, and so are their samples. The prepared mixer
(``one_hot_mixer``) applies each block's ring as one unitary, the one the
MPS chain applies too (``circuits.ring_mixer``), so its amplitudes, and
the driver's, are compared with the gates' (``apply_gate`` on the dense
state) to round-off: within ``ROUND_OFF`` on unit-norm states. A
trajectory is checked to prepare each ring size once and to build its
unitary once per layer.
"""

import dataclasses

import numpy as np
import pytest

import rotpack.statevector as sv
from rotpack._rng import generator, trajectory_seed
from rotpack.baselines import brute_force
from rotpack.circuits import (
    ansatz_hamiltonian,
    build_initial_state,
    build_mixer,
    ring_edge_colors,
    ring_mixer,
)
from rotpack.driver import FirstGroundState, QaoaConfig, init_params, optimize
from rotpack.problem import MAX_TABLE_SIZE, decode, random_problem
from rotpack.qubo import all_bitstring_energies

# odd (3, 5) and even (4, 6) rings, and n=2 blocks, whose ring is one edge
SHAPES = [(2, 2), (3, 3), (4, 4), (6, 3), (3, (2, 4, 3)), (2, (5, 6)), (4, (2, 3, 2, 4))]

SEED = 9220990823635741239  # trajectory_seed(5, 1)

# the most an amplitude of a unit-norm state through the prepared mixer,
# which sums each block's ring products in another order, may differ from
# the gates'
ROUND_OFF = 1e-14

PINNED = [
    (
        (4, 3, 41, 2, 30),
        {
            "best_bitstring": "100010010010",
            "best_energy": -4.078094900313034,
            "final_cvar": -4.078094900313033,
            "iterations_used": 30,
            "optimizer_restarts": 1,
            "p": 2,
            "shots_per_iteration": 100,
            "total_shots": 3000,
        },
    ),
    (
        (6, 3, 63, 4, 8),
        {
            "best_bitstring": "010010001001001010",
            "best_energy": -3.904235808761256,
            "final_cvar": -3.2010048463210907,
            "iterations_used": 8,
            "optimizer_restarts": 0,
            "p": 4,
            "shots_per_iteration": 100,
            "total_shots": 800,
        },
    ),
    (
        (3, (2, 4, 3), 7, 3, 30),
        {
            "best_bitstring": "010100001",
            "best_energy": -2.3495626798063953,
            "final_cvar": -2.2844872572897734,
            "iterations_used": 30,
            "optimizer_restarts": 0,
            "p": 3,
            "shots_per_iteration": 90,
            "total_shots": 2700,
        },
    ),
]


@pytest.mark.parametrize(
    "case, fields", PINNED, ids=["4x3", "6x3", "2-4-3"]
)
def test_fixed_budget_trajectories_are_pinned(case, fields):
    residues, rotamers, problem_seed, p, budget = case
    problem = random_problem(residues, rotamers, seed=problem_seed)
    ground = brute_force(problem).ground_energy
    config = QaoaConfig(
        regime="xy",
        p=p,
        seed=5,
        max_iterations=budget,
        stop_mode=FirstGroundState(ground - 100.0),
    )
    got = dataclasses.asdict(optimize(problem, config, trajectory_id=1))
    got.pop("wall_time")
    assert got == {
        "backend": "statevector",
        "converged": False,
        "discarded_weight": None,
        "first_hit_iteration": None,
        "first_hit_shot": None,
        "max_bond_reached": None,
        "regime": "xy",
        "rng_family": "philox",
        "seed": SEED,
        "trajectory_id": 1,
        **fields,
    }


def dense_reference(problem, params):
    """The xy ansatz state on all 2^M amplitudes."""
    blocks = problem.blocks
    h = ansatz_hamiltonian(problem, "xy")
    table = all_bitstring_energies(h, np.arange(1 << problem.num_qubits))
    state = sv.run_circuit(build_initial_state("xy", blocks))
    for gamma, beta in zip(params[0::2], params[1::2]):
        state *= np.exp(-1j * gamma * table)
        for g in build_mixer("xy", blocks, beta).gates:
            sv.apply_gate(state, g)
    return state


def assert_matches_dense(one_hot, dense, blocks, atol=0.0):
    """Equal on the basis, exactly unless ``atol`` is given, and zero off it."""
    basis = sv.one_hot_basis(blocks)
    if atol:
        np.testing.assert_allclose(one_hot.ravel(), dense[basis], rtol=0, atol=atol)
    else:
        assert np.array_equal(one_hot.ravel(), dense[basis])
    outside = np.ones(dense.size, dtype=bool)
    outside[basis] = False
    assert not dense[outside].any()


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_driver_evolution_matches_dense(shape, monkeypatch):
    # the state the driver samples from in its first iteration, whose
    # angles are the optimizer's starting point
    sampled = []
    sample_state = sv.sample_state

    def capture(state, *args):
        sampled.append(state.copy())
        return sample_state(state, *args)

    monkeypatch.setattr("rotpack.driver.sv.sample_state", capture)
    problem = random_problem(*shape, seed=11)
    config = QaoaConfig(regime="xy", p=3, seed=2, max_iterations=1)
    optimize(problem, config, trajectory_id=4)
    x0 = init_params(3, generator(trajectory_seed(2, 4)))
    (state,) = sampled
    assert state.shape == problem.rotamer_counts[::-1]
    assert_matches_dense(
        state, dense_reference(problem, x0), problem.blocks, atol=ROUND_OFF
    )


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_gates_phase_and_samples_match_dense(shape):
    # the start from the blocks against its gates, then a cost layer
    problem = random_problem(*shape, seed=5)
    blocks = problem.blocks
    gamma = np.random.default_rng(3).uniform(-2.0, 2.0)
    h = ansatz_hamiltonian(problem, "xy")
    basis = sv.one_hot_basis(blocks)
    state = sv.one_hot_state(blocks)
    assert state.shape == problem.rotamer_counts[::-1]
    assert state.dtype == np.complex128 and state.flags.c_contiguous
    dense = sv.run_circuit(build_initial_state("xy", blocks))
    assert_matches_dense(state, dense, blocks)
    state *= np.exp(-1j * gamma * all_bitstring_energies(h, basis).reshape(state.shape))
    dense *= np.exp(-1j * gamma * all_bitstring_energies(h, np.arange(dense.size)))
    assert_matches_dense(state, dense, blocks)
    got = sv.sample_state(state, 300, np.random.default_rng(8), basis)
    want = sv.sample_state(dense, 300, np.random.default_rng(8))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("beta", [-2.3, 0.0, 0.4, 4.0], ids=str)
@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_prepared_mixer_matches_gate_by_gate(shape, beta):
    blocks = random_problem(*shape, seed=5).blocks
    dims = tuple(n for _, n in reversed(blocks))
    rng = np.random.default_rng(23)
    state = rng.normal(size=dims) + 1j * rng.normal(size=dims)
    state /= np.linalg.norm(state)
    # the same state on all 2^M amplitudes, mixed by the gates
    dense = np.zeros(1 << max(o + n for o, n in blocks), dtype=complex)
    dense[sv.one_hot_basis(blocks)] = state.ravel()
    mix = sv.one_hot_mixer(blocks)
    for layer in (beta, -beta):  # a second layer on the same preparation
        for g in build_mixer("xy", blocks, layer).gates:
            sv.apply_gate(dense, g)
        assert mix(state, layer) is state
        assert_matches_dense(state, dense, blocks, atol=ROUND_OFF)


def test_prepared_mixer_refuses_what_the_gates_refuse():
    blocks = [(0, 3), (3, 2)]
    mix = sv.one_hot_mixer(blocks)
    for shape in [(3, 2), (2, 3, 1), (6,)]:
        with pytest.raises(ValueError, match="state shape does not match"):
            mix(np.zeros(shape, dtype=complex), 0.3)
    with pytest.raises(ValueError, match="at least 2 rotamers") as refused:
        sv.one_hot_mixer([(0, 3), (3, 1)])
    with pytest.raises(ValueError) as built:
        build_mixer("xy", [(0, 3), (3, 1)], 0.3)
    assert str(refused.value) == str(built.value)


def test_prepared_mixer_refuses_a_state_it_cannot_mix_in_place():
    # a reshape of these copies, so a product written into it would leave
    # the state unmixed
    blocks = [(0, 3), (3, 2)]
    mix = sv.one_hot_mixer(blocks)
    wide = np.ones((2, 6), dtype=complex)
    for state in (wide[:, ::2], np.ones((2, 3), dtype=np.complex64), np.ones((2, 3))):
        before = state.copy()
        with pytest.raises(ValueError, match="C-contiguous complex128"):
            mix(state, 0.3)
        assert np.array_equal(state, before)


def test_trajectory_prepares_its_mixer_once(monkeypatch):
    # 3 iterations at p=3: 9 mixer layers, rings of 3 and 4 qubits on two
    # blocks each. Each size's colors are found once, and its unitary is
    # built once per layer, not per gate or per block
    colorings, builds = [], []

    def counting_colors(size):
        colorings.append(size)
        return ring_edge_colors(size)

    def counting_ring(size):
        unitary = ring_mixer(size)

        def counted(beta):
            builds.append(size)
            return unitary(beta)

        return counted

    monkeypatch.setattr("rotpack.circuits.ring_edge_colors", counting_colors)
    monkeypatch.setattr("rotpack.statevector.ring_mixer", counting_ring)
    config = QaoaConfig(regime="xy", p=3, seed=1, max_iterations=3)
    rec = optimize(random_problem(4, (3, 4, 3, 4), seed=4), config)
    assert rec.iterations_used == 3
    assert sorted(colorings) == [3, 4]
    assert sorted(builds) == [3] * 9 + [4] * 9


def test_basis_is_sorted_and_one_hot():
    blocks = random_problem(3, (2, 4, 3), seed=0).blocks
    basis = sv.one_hot_basis(blocks)
    assert basis.size == 2 * 4 * 3
    assert np.all(np.diff(basis) > 0)
    for off, n in blocks:
        weight = sum((basis >> q) & 1 for q in range(off, off + n))
        assert np.all(weight == 1)


def test_basis_cap_is_checked_before_allocating():
    huge = [(7 * k, 7) for k in range(30)]  # 7^30 amplitudes: no allocation
    just_over = [(2 * k, 2) for k in range(27)]
    assert 2**27 > MAX_TABLE_SIZE
    for blocks in (huge, just_over):
        with pytest.raises(ValueError, match="exceeds"):
            sv.one_hot_basis(blocks)
        with pytest.raises(ValueError, match="exceeds"):
            sv.one_hot_state(blocks)
    with pytest.raises(ValueError, match="exceeds"):
        optimize(random_problem(27, 2, seed=0), QaoaConfig(regime="xy"))
    # 2^24 configurations, but on 64 qubits: indices would overflow int64
    with pytest.raises(ValueError, match="63 qubits"):
        sv.one_hot_basis([(8 * k, 8) for k in range(8)])


def test_energies_at_indices_equal_the_table():
    problem = random_problem(3, 3, seed=2)
    h = ansatz_hamiltonian(problem, "penalty")
    table = all_bitstring_energies(h, np.arange(1 << problem.num_qubits))
    idx = np.random.default_rng(1).integers(0, table.size, size=40)
    assert np.array_equal(all_bitstring_energies(h, idx), table[idx])


def test_5x7_trajectory_runs():
    # 35 qubits: far past the dense table, 16,807 one-hot amplitudes
    problem = random_problem(5, 7, seed=207)
    rec = optimize(problem, QaoaConfig(regime="xy", p=2, seed=1, max_iterations=3))
    assert rec.iterations_used == 3
    bits = tuple(int(c) for c in rec.best_bitstring)
    assert len(bits) == 35
    assert problem.energy(decode(bits, problem)) == pytest.approx(rec.best_energy)
