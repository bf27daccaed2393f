"""The xy ansatz on the statevector backend, simulated as a one-hot state.

Pinned fixed-budget trajectories: every ``RunRecord`` field but
``wall_time``, recorded from the dense 2^M simulation. The target sits
100 below the ground energy, so each trajectory spends its whole budget
(the 4x3 one restarts its optimizer once).

The one-hot evolution is compared exactly (``np.array_equal``) with a
dense reference: ``run_circuit`` of the state preparation, then per layer
the full energy table's phase and the mixer gate by gate with
``apply_gate``. The prepared mixer (``one_hot_mixer``) is compared exactly
with ``build_mixer``'s gates applied one by one with
``apply_one_hot_gate``, and a trajectory is checked to prepare it once.
"""

import dataclasses

import numpy as np
import pytest

import rotpack.statevector as sv
from rotpack._rng import generator, trajectory_seed
from rotpack.baselines import brute_force
from rotpack.circuits import (
    Circuit,
    Gate,
    ansatz_hamiltonian,
    build_initial_state,
    build_mixer,
    gate_matrix,
)
from rotpack.driver import FirstGroundState, QaoaConfig, init_params, optimize
from rotpack.problem import MAX_TABLE_SIZE, decode, random_problem
from rotpack.qubo import all_bitstring_energies

# odd (3, 5) and even (4, 6) rings, and n=2 blocks, whose ring is one edge
SHAPES = [(2, 2), (3, 3), (4, 4), (6, 3), (3, (2, 4, 3)), (2, (5, 6)), (4, (2, 3, 2, 4))]

SEED = 9220990823635741239  # trajectory_seed(5, 1)

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


def assert_matches_dense(one_hot, dense, blocks):
    basis = sv.one_hot_basis(blocks)
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
    assert_matches_dense(state, dense_reference(problem, x0), problem.blocks)


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_gates_phase_and_samples_match_dense(shape):
    problem = random_problem(*shape, seed=5)
    blocks = problem.blocks
    params = np.random.default_rng(3).uniform(-2.0, 2.0, size=4)
    h = ansatz_hamiltonian(problem, "xy")
    basis = sv.one_hot_basis(blocks)
    state = sv.one_hot_state(build_initial_state("xy", blocks), blocks)
    phase = all_bitstring_energies(h, basis).reshape(state.shape)
    for gamma, beta in zip(params[0::2], params[1::2]):
        state *= np.exp(-1j * gamma * phase)
        for g in build_mixer("xy", blocks, beta).gates:
            sv.apply_one_hot_gate(state, g, blocks)
    dense = dense_reference(problem, params)
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
    want = state.copy()
    for g in build_mixer("xy", blocks, beta).gates:
        sv.apply_one_hot_gate(want, g, blocks)
    mix = sv.one_hot_mixer(blocks)
    assert mix(state, beta) is state
    assert np.array_equal(state, want)
    # a second layer on the same preparation
    for g in build_mixer("xy", blocks, -beta).gates:
        sv.apply_one_hot_gate(want, g, blocks)
    assert np.array_equal(mix(state, -beta), want)


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


def test_trajectory_prepares_its_mixer_once(monkeypatch):
    # 3 iterations at p=3: 9 mixer layers from one set of gates, and one
    # xy matrix per layer rather than one per gate
    builds, xy_matrices = [], []

    def counting_build(*args):
        builds.append(args)
        return build_mixer(*args)

    def counting_matrix(gate):
        if gate.kind == "xy":
            xy_matrices.append(gate)
        return gate_matrix(gate)

    for module in ("rotpack.driver", "rotpack.statevector"):
        monkeypatch.setattr(f"{module}.build_mixer", counting_build)
    for module in ("rotpack.circuits", "rotpack.statevector"):
        monkeypatch.setattr(f"{module}.gate_matrix", counting_matrix)
    config = QaoaConfig(regime="xy", p=3, seed=1, max_iterations=3)
    rec = optimize(random_problem(3, 3, seed=4), config)
    assert rec.iterations_used == 3
    assert len(builds) == 1
    assert len(xy_matrices) == 9


@pytest.mark.parametrize("qubits", [(0, 1), (1, 0), (2, 5), (5, 2), (4, 3), (6, 8)])
@pytest.mark.parametrize("kind, params", [("a", (0.7, 0.4)), ("xy", (1.1,))])
def test_any_gate_inside_a_block_matches_dense(kind, params, qubits):
    # either listing order, adjacent or not, on a state with no symmetry
    blocks = [(0, 2), (2, 4), (6, 3)]
    rng = np.random.default_rng(17)
    state = rng.normal(size=(3, 4, 2)) + 1j * rng.normal(size=(3, 4, 2))
    dense = np.zeros(1 << 9, dtype=complex)
    dense[sv.one_hot_basis(blocks)] = state.ravel()
    gate = Gate(kind, qubits, params)
    sv.apply_one_hot_gate(state, gate, blocks)
    assert_matches_dense(state, sv.apply_gate(dense, gate), blocks)


def test_basis_is_sorted_and_one_hot():
    blocks = random_problem(3, (2, 4, 3), seed=0).blocks
    basis = sv.one_hot_basis(blocks)
    assert basis.size == 2 * 4 * 3
    assert np.all(np.diff(basis) > 0)
    for off, n in blocks:
        weight = sum((basis >> q) & 1 for q in range(off, off + n))
        assert np.all(weight == 1)


def test_x_gates_pick_the_starting_configuration():
    blocks = [(0, 3), (3, 2)]
    circuit = Circuit(5, (Gate("x", (4,)), Gate("x", (2,))))
    state = sv.one_hot_state(circuit, blocks)
    bits = sv.sample_state(state, 4, np.random.default_rng(0), sv.one_hot_basis(blocks))
    assert np.array_equal(bits, np.tile([0, 0, 1, 0, 1], (4, 1)))


@pytest.mark.parametrize(
    "gates",
    [
        (Gate("rz", (0,), (0.3,)),),
        (Gate("rx", (1,), (0.3,)),),
        (Gate("rzz", (0, 1), (0.3,)),),
        (Gate("cx", (0, 1)),),
        (Gate("xy", (2, 3), (0.3,)),),  # spans the two blocks
        (Gate("a", (1, 0), (0.3, 0.0)), Gate("x", (1,))),  # x after the prefix
    ],
    ids=["rz", "rx", "rzz", "cx", "two-blocks", "late-x"],
)
def test_gates_that_leave_the_subspace_are_rejected(gates):
    blocks = [(0, 3), (3, 2)]
    circuit = Circuit(5, (Gate("x", (0,)), Gate("x", (3,))) + gates)
    with pytest.raises(ValueError):
        sv.one_hot_state(circuit, blocks)


@pytest.mark.parametrize("xs", [(0,), (0, 1, 3), (0, 3, 3)])
def test_prep_must_set_one_qubit_per_block(xs):
    circuit = Circuit(5, tuple(Gate("x", (q,)) for q in xs))
    with pytest.raises(ValueError, match="one qubit of every block"):
        sv.one_hot_state(circuit, [(0, 3), (3, 2)])


def test_basis_cap_is_checked_before_allocating():
    huge = [(7 * k, 7) for k in range(30)]  # 7^30 amplitudes: no allocation
    just_over = [(2 * k, 2) for k in range(27)]
    assert 2**27 > MAX_TABLE_SIZE
    for blocks in (huge, just_over):
        with pytest.raises(ValueError, match="exceeds"):
            sv.one_hot_basis(blocks)
        with pytest.raises(ValueError, match="exceeds"):
            sv.one_hot_state(build_initial_state("xy", blocks), blocks)
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
