"""Gate matrices, ansatz fragments, and the circuit IR's bookkeeping."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from helpers import all_bitstrings, ansatz_circuit, problems
from rotpack.circuits import (
    CNOT_COST,
    Circuit,
    Gate,
    ansatz_hamiltonian,
    assemble_ansatz,
    build_cost_unitary,
    build_initial_state,
    build_mixer,
    gate_matrix,
    ring_edge_colors,
)
from rotpack.depth import schedule
from rotpack.problem import random_problem
from rotpack.qubo import (
    IsingHamiltonian,
    all_bitstring_energies,
    build_qubo,
    default_penalty,
    qubo_to_ising,
)
from rotpack.statevector import invalid_mass, run_circuit

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1, -1]).astype(complex)

# CX in the package's pair convention: first listed qubit = MSB of the 4x4 index.
CX_FIRST_CTRL = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
CX_SECOND_CTRL = np.array(
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
)


def ry_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz_matrix(theta: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


def a_gate_from_primitives(theta: float, phi: float) -> np.ndarray:
    """Three-CX realization of the block-spreading rotation.

    Time order: CX controlled on the second qubit, R-dagger on the second
    qubit, CX controlled on the first, R on the second, CX controlled on
    the second again, with R = Rz(phi + pi) Ry(theta + pi/2). Multiplying
    these primitives out gives an independent route to the same 4x4 the
    package writes down in closed form.
    """
    r = rz_matrix(phi + math.pi) @ ry_matrix(theta + math.pi / 2.0)
    steps = [
        CX_SECOND_CTRL,
        np.kron(np.eye(2), r.conj().T),
        CX_FIRST_CTRL,
        np.kron(np.eye(2), r),
        CX_SECOND_CTRL,
    ]
    out = np.eye(4, dtype=complex)
    for step in steps:
        out = step @ out
    return out


class TestGateValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown gate kind"):
            Gate("ry", (0,), (0.5,))

    def test_wrong_arity(self):
        with pytest.raises(ValueError, match="takes 2 qubit"):
            Gate("rzz", (0,), (0.5,))
        with pytest.raises(ValueError, match="takes 1 qubit"):
            Gate("x", (0, 1))

    def test_negative_qubits(self):
        # a negative index would count from the end of a state's axes
        for kind, qubits, params in [("x", (-1,), ()), ("rzz", (0, -2), (0.5,))]:
            with pytest.raises(ValueError, match="out of range: negative"):
                Gate(kind, qubits, params)

    def test_duplicate_qubits(self):
        with pytest.raises(ValueError, match="distinct qubits"):
            Gate("cx", (3, 3))

    def test_wrong_parameter_count(self):
        with pytest.raises(ValueError, match="takes 1 parameter"):
            Gate("rz", (0,))
        with pytest.raises(ValueError, match="takes 2 parameter"):
            Gate("a", (0, 1), (0.5,))

    def test_coerces_numpy_scalars(self):
        g = Gate("rzz", (np.int64(2), np.int64(0)), (np.float64(0.25),))
        assert g.qubits == (2, 0)
        assert all(type(q) is int for q in g.qubits)
        assert g.params == (0.25,)
        assert type(g.params[0]) is float

    def test_two_qubit_flag(self):
        assert Gate("xy", (0, 1), (0.1,)).is_two_qubit
        assert not Gate("rx", (0,), (0.1,)).is_two_qubit


class TestCircuitValidation:
    def test_qubit_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Circuit(num_qubits=2, gates=(Gate("x", (2,)),))

    def test_negative_qubit(self):
        with pytest.raises(ValueError, match="out of range"):
            Circuit(num_qubits=2, gates=(Gate("x", (-1,)),))

    def test_prep_len_bounds(self):
        gates = (Gate("x", (0,)),)
        with pytest.raises(ValueError, match="prep_len out of range"):
            Circuit(num_qubits=1, gates=gates, prep_len=2)
        with pytest.raises(ValueError, match="prep_len out of range"):
            Circuit(num_qubits=1, gates=gates, prep_len=-1)

    def test_variational_slice(self):
        gates = (Gate("x", (0,)), Gate("rz", (0,), (0.3,)), Gate("rx", (1,), (0.2,)))
        c = Circuit(num_qubits=2, gates=gates, prep_len=1)
        assert c.variational_gates == gates[1:]

    def test_layers_are_disjoint(self):
        problem = random_problem(3, 3, seed=2)
        circ = ansatz_circuit(problem, "baseline", [0.3, 0.7])
        for layer in schedule(circ.gates):
            touched = [q for k in layer.gate_indices for q in circ.gates[k].qubits]
            assert len(touched) == len(set(touched))


class TestGateMatrices:
    def test_pauli_x(self):
        assert np.array_equal(gate_matrix(Gate("x", (0,))), X)

    def test_cx_permutation(self):
        got = gate_matrix(Gate("cx", (0, 1)))
        want = np.eye(4)[[0, 1, 3, 2]]
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("theta", [0.0, 0.31, -1.2, math.pi])
    def test_single_qubit_rotations_match_exponentials(self, theta):
        rz = gate_matrix(Gate("rz", (0,), (theta,)))
        rx = gate_matrix(Gate("rx", (0,), (theta,)))
        np.testing.assert_allclose(rz, scipy.linalg.expm(-0.5j * theta * Z), atol=1e-12)
        np.testing.assert_allclose(rx, scipy.linalg.expm(-0.5j * theta * X), atol=1e-12)

    @pytest.mark.parametrize("theta", [0.45, -0.8, 2.1])
    def test_rzz_matches_exponential(self, theta):
        got = gate_matrix(Gate("rzz", (0, 1), (theta,)))
        want = scipy.linalg.expm(-0.5j * theta * np.kron(Z, Z))
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("beta", [0.0, 0.37, -1.1, math.pi / 2])
    def test_xy_matches_exponential(self, beta):
        got = gate_matrix(Gate("xy", (0, 1), (beta,)))
        want = scipy.linalg.expm(-0.5j * beta * (np.kron(X, X) + np.kron(Y, Y)))
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_xy_rotates_inside_weight_one_subspace(self):
        u = gate_matrix(Gate("xy", (0, 1), (0.9,)))
        assert u[0, 0] == 1.0 and u[3, 3] == 1.0
        assert u[0, 1] == u[0, 2] == u[3, 1] == u[3, 2] == 0.0

    def test_spread_rotation_frozen_values(self):
        # theta = pi/4, phi = 0: the equal-split special case
        got = gate_matrix(Gate("a", (0, 1), (math.pi / 4.0, 0.0)))
        r = math.sqrt(0.5)
        want = np.array(
            [[1, 0, 0, 0], [0, r, r, 0], [0, r, -r, 0], [0, 0, 0, 1]],
            dtype=complex,
        )
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("theta", [0.3, math.pi / 4.0, 1.1])
    @pytest.mark.parametrize("phi", [0.0, 0.7, -1.3])
    def test_spread_rotation_matches_cx_decomposition(self, theta, phi):
        got = gate_matrix(Gate("a", (0, 1), (theta, phi)))
        np.testing.assert_allclose(
            got, a_gate_from_primitives(theta, phi), atol=1e-12
        )

    @pytest.mark.parametrize("theta", [0.3, 1.1])
    @pytest.mark.parametrize("phi", [0.0, -0.4])
    def test_spread_rotation_is_hermitian_involution(self, theta, phi):
        u = gate_matrix(Gate("a", (0, 1), (theta, phi)))
        np.testing.assert_allclose(u, u.conj().T, atol=1e-12)
        np.testing.assert_allclose(u @ u, np.eye(4), atol=1e-12)

    @given(
        st.sampled_from(["x", "rz", "rx", "rzz", "xy", "a", "cx"]),
        st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=2),
    )
    def test_every_gate_is_unitary(self, kind, angles):
        arity, nparams = {
            "x": (1, 0),
            "rz": (1, 1),
            "rx": (1, 1),
            "rzz": (2, 1),
            "xy": (2, 1),
            "a": (2, 2),
            "cx": (2, 0),
        }[kind]
        g = Gate(kind, tuple(range(arity)), tuple(angles[:nparams]))
        u = gate_matrix(g)
        np.testing.assert_allclose(
            u @ u.conj().T, np.eye(2**arity), atol=1e-12
        )


class TestCostUnitary:
    def test_single_coupling_gives_single_gate(self):
        j = np.zeros((2, 2))
        j[0, 1] = 1.0
        h = IsingHamiltonian(couplings=j, fields=np.zeros(2), constant=0.0)
        circ = build_cost_unitary(h, math.pi)
        assert [g.kind for g in circ.gates] == ["rzz"]
        assert circ.gates[0].qubits == (0, 1)
        assert circ.gates[0].params[0] == pytest.approx(2.0 * math.pi)
        assert circ.phase == 0.0

    def test_single_field_gives_single_gate(self):
        h = IsingHamiltonian(np.zeros((2, 2)), np.array([0.0, 2.0]), 0.5)
        circ = build_cost_unitary(h, 0.25)
        assert [g.kind for g in circ.gates] == ["rz"]
        assert circ.gates[0].qubits == (1,)
        # fields carry a minus sign in the spin energy
        assert circ.gates[0].params[0] == pytest.approx(-2.0 * 0.25 * 2.0)
        assert circ.phase == pytest.approx(-0.25 * 0.5)

    def test_nearest_neighbor_three_by_three_counts(self):
        problem = random_problem(3, 3, seed=7)
        h = qubo_to_ising(build_qubo(problem))
        circ = build_cost_unitary(h, 0.4)
        kinds = [g.kind for g in circ.gates]
        assert kinds.count("rzz") == 18
        assert kinds.count("rz") == int(np.count_nonzero(h.fields)) == 9

    def test_penalty_adds_intra_block_couplings(self):
        problem = random_problem(3, 3, seed=7)
        h = qubo_to_ising(build_qubo(problem, penalty=default_penalty(problem)))
        circ = build_cost_unitary(h, 0.4)
        kinds = [g.kind for g in circ.gates]
        # three extra couplings per block of three rotamers
        assert kinds.count("rzz") == 18 + 9

    def test_couplings_emitted_in_lexicographic_order(self):
        problem = random_problem(4, (2, 3, 2, 4), seed=5)
        h = qubo_to_ising(build_qubo(problem))
        circ = build_cost_unitary(h, 1.0)
        pairs = [g.qubits for g in circ.gates if g.kind == "rzz"]
        assert pairs == sorted(pairs)
        assert len(pairs) == len(set(pairs))

    def test_angles_track_coefficients(self):
        problem = random_problem(2, 3, seed=9)
        h = qubo_to_ising(build_qubo(problem))
        gamma = 0.73
        circ = build_cost_unitary(h, gamma)
        for g in circ.gates:
            if g.kind == "rz":
                (i,) = g.qubits
                assert g.params[0] == pytest.approx(-2.0 * gamma * h.fields[i])
            else:
                i, j = g.qubits
                assert g.params[0] == pytest.approx(2.0 * gamma * h.couplings[i, j])

    @given(
        problems(max_residues=3, max_rotamers=3),
        st.floats(-2.0, 2.0),
        st.integers(0, 2**31 - 1),
    )
    def test_matches_exact_diagonal_evolution(self, problem, gamma, seed):
        h = qubo_to_ising(build_qubo(problem))
        circ = build_cost_unitary(h, gamma)
        rng = np.random.default_rng(seed)
        dim = 2**circ.num_qubits
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi /= np.linalg.norm(psi)
        got = run_circuit(circ, initial=psi)
        want = np.exp(-1j * gamma * all_bitstring_energies(h, np.arange(dim))) * psi
        np.testing.assert_allclose(got, want, atol=1e-10)


class TestRingColors:
    def test_too_small(self):
        with pytest.raises(ValueError, match="at least 2 nodes"):
            ring_edge_colors(1)

    def test_pair_is_single_edge(self):
        assert ring_edge_colors(2) == [[(0, 1)]]

    def test_even_ring_two_colors(self):
        colors = ring_edge_colors(4)
        assert len(colors) == 2
        assert colors[0] == [(0, 1), (2, 3)]
        assert colors[1] == [(1, 2), (3, 0)]

    def test_odd_ring_three_colors(self):
        colors = ring_edge_colors(5)
        assert len(colors) == 3
        assert colors[2] == [(4, 0)]

    @pytest.mark.parametrize("size", range(2, 13))
    def test_colors_partition_the_ring(self, size):
        colors = ring_edge_colors(size)
        edges = [e for color in colors for e in color]
        assert len(edges) == (1 if size == 2 else size)
        assert len(set(edges)) == len(edges)
        wanted = {(j, (j + 1) % size) for j in range(size)}
        if size == 2:
            assert set(edges) == {(0, 1)}
        else:
            assert set(edges) == wanted
        for color in colors:
            touched = [v for e in color for v in e]
            assert len(touched) == len(set(touched))


class TestMixer:
    def test_transverse_field_hits_every_qubit(self):
        for regime in ("baseline", "penalty"):
            circ = build_mixer(regime, [(0, 2), (2, 3)], 0.4)
            assert circ.num_qubits == 5
            assert [g.kind for g in circ.gates] == ["rx"] * 5
            assert [g.qubits[0] for g in circ.gates] == list(range(5))
            assert all(g.params == (0.8,) for g in circ.gates)

    def test_unknown_regime(self):
        with pytest.raises(ValueError, match="unknown regime"):
            build_mixer("grover", [(0, 2)], 0.1)

    def test_xy_needs_two_rotamers(self):
        with pytest.raises(ValueError, match="at least 2 rotamers"):
            build_mixer("xy", [(0, 2), (2, 1)], 0.1)

    def test_xy_pair_blocks(self):
        circ = build_mixer("xy", [(0, 2), (2, 2)], 0.6)
        assert [(g.kind, g.qubits, g.params) for g in circ.gates] == [
            ("xy", (0, 1), (0.6,)),
            ("xy", (2, 3), (0.6,)),
        ]

    def test_xy_ring_emitted_color_major(self):
        circ = build_mixer("xy", [(0, 4)], 0.3)
        pairs = [g.qubits for g in circ.gates]
        assert pairs == [(0, 1), (2, 3), (1, 2), (3, 0)]

    def test_xy_blocks_interleaved_by_color(self):
        circ = build_mixer("xy", [(0, 3), (3, 4)], 0.2)
        pairs = [g.qubits for g in circ.gates]
        # color 0 of both blocks, then color 1 of both, then the odd ring's wrap
        assert pairs == [
            (0, 1),
            (3, 4),
            (5, 6),
            (1, 2),
            (4, 5),
            (6, 3),
            (2, 0),
        ]

    @given(problems(max_residues=3, max_rotamers=4, min_rotamers=2), st.floats(-2, 2))
    def test_xy_mixer_preserves_block_weight(self, problem, beta):
        prep = build_initial_state("xy", problem.blocks)
        state = run_circuit(prep)
        state = run_circuit(build_mixer("xy", problem.blocks, beta), initial=state)
        assert invalid_mass(state, problem) < 1e-12
        assert np.linalg.norm(state) == pytest.approx(1.0)


class TestInitialState:
    def test_default_configuration(self):
        circ = build_initial_state("baseline", [(0, 3), (3, 2)])
        assert [(g.kind, g.qubits) for g in circ.gates] == [("x", (0,)), ("x", (3,))]
        state = run_circuit(circ)
        assert state[(1 << 0) | (1 << 3)] == 1.0

    def test_unknown_regime(self):
        with pytest.raises(ValueError, match="unknown regime"):
            build_initial_state("wsp", [(0, 2)])

    def test_xy_gate_sequence(self):
        circ = build_initial_state("xy", [(0, 3), (3, 2)])
        got = [(g.kind, g.qubits) for g in circ.gates]
        # excitations first, then cascade step k of every block together
        assert got == [
            ("x", (0,)),
            ("x", (3,)),
            ("a", (1, 0)),
            ("a", (4, 3)),
            ("a", (2, 1)),
        ]
        assert all(
            g.params == (math.pi / 4.0, 0.0) for g in circ.gates if g.kind == "a"
        )

    def test_four_rotamer_amplitudes_frozen(self):
        state = run_circuit(build_initial_state("xy", [(0, 4)]))
        want = np.zeros(16)
        want[1] = math.sqrt(0.5)
        want[2] = 0.5
        want[4] = 0.5 * math.sqrt(0.5)
        want[8] = 0.5 * math.sqrt(0.5)
        np.testing.assert_allclose(state, want, atol=1e-12)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_single_block_support_and_positivity(self, n):
        state = run_circuit(build_initial_state("xy", [(0, n)]))
        one_hot = {1 << k for k in range(n)}
        for idx, amp in enumerate(state):
            if idx in one_hot:
                assert amp.real > 0.0
                assert abs(amp.imag) < 1e-12
            else:
                assert abs(amp) < 1e-12
        assert np.linalg.norm(state) == pytest.approx(1.0)

    @given(problems(max_residues=3, max_rotamers=4, min_rotamers=2))
    def test_multi_block_support_is_valid_set(self, problem):
        state = run_circuit(build_initial_state("xy", problem.blocks))
        bits = all_bitstrings(problem.num_qubits)
        from rotpack.problem import valid_mask

        valid = valid_mask(bits, problem)
        support = np.abs(state) > 1e-12
        assert not np.any(support & ~valid)
        # every valid bitstring carries positive real amplitude
        assert np.all(state[valid].real > 0.0)
        assert np.max(np.abs(state.imag)) < 1e-12

    def test_prep_entangling_cost(self):
        for n_res, n_rot in [(2, 3), (3, 4), (4, 2)]:
            circ = build_initial_state("xy", [(n_rot * i, n_rot) for i in range(n_res)])
            two_qubit = [g for g in circ.gates if g.is_two_qubit]
            assert all(g.kind == "a" for g in two_qubit)
            cost = sum(CNOT_COST[g.kind] for g in two_qubit)
            assert cost == 3 * n_res * (n_rot - 1)


class TestAnsatz:
    def test_spec_validation(self):
        problem = random_problem(2, 2, seed=0)
        h = ansatz_hamiltonian(problem, "baseline")
        with pytest.raises(ValueError, match="unknown regime"):
            ansatz_hamiltonian(problem, "adiabatic")
        with pytest.raises(ValueError, match="unknown regime"):
            assemble_ansatz("adiabatic", problem.blocks, h, [0.1, 0.2])
        with pytest.raises(ValueError, match="does not take a penalty"):
            ansatz_hamiltonian(problem, "baseline", 2.0)
        with pytest.raises(ValueError, match="does not take a penalty"):
            ansatz_hamiltonian(problem, "xy", 2.0)
        for params in ([], [0.1], [0.1, 0.2, 0.3]):
            with pytest.raises(ValueError, match="expected 2p angles"):
                assemble_ansatz("baseline", problem.blocks, h, params)

    def test_hamiltonian_penalized_only_for_penalty_regime(self):
        problem = random_problem(2, 2, seed=3)
        bare = ansatz_hamiltonian(problem, "baseline")
        xy = ansatz_hamiltonian(problem, "xy")
        pen = ansatz_hamiltonian(problem, "penalty")
        np.testing.assert_array_equal(bare.couplings, xy.couplings)
        np.testing.assert_array_equal(bare.fields, xy.fields)
        assert bare.constant == xy.constant
        # intra-block couplings only exist in the penalized form
        assert bare.couplings[0, 1] == 0.0
        assert pen.couplings[0, 1] != 0.0

    def test_explicit_penalty_passes_through(self):
        problem = random_problem(2, 2, seed=3)
        lam = 11.5
        got = ansatz_hamiltonian(problem, "penalty", lam)
        want = qubo_to_ising(build_qubo(problem, penalty=lam))
        np.testing.assert_array_equal(got.couplings, want.couplings)
        assert got.constant == want.constant

    def test_parameter_count_checked(self):
        # 2p angles build p cost/mixer layers
        problem = random_problem(2, 2, seed=0)
        for p in (1, 2, 3):
            circ = ansatz_circuit(problem, "baseline", [0.1, 0.2] * p)
            assert sum(g.kind == "rx" for g in circ.gates) == p * problem.num_qubits

    def test_layer_structure(self):
        problem = random_problem(2, 2, seed=1)
        params = [0.3, 0.5, -0.2, 0.9]
        h = ansatz_hamiltonian(problem, "baseline")
        circ = assemble_ansatz("baseline", problem.blocks, h, params)
        init = build_initial_state("baseline", problem.blocks)
        want: list[Gate] = list(init.gates)
        for k in range(2):
            want.extend(build_cost_unitary(h, params[2 * k]).gates)
            want.extend(
                build_mixer("baseline", problem.blocks, params[2 * k + 1]).gates
            )
        assert list(circ.gates) == want
        assert circ.prep_len == len(init.gates)
        assert circ.phase == pytest.approx(-(0.3 + (-0.2)) * h.constant)

    @given(
        problems(max_residues=3, max_rotamers=3, min_rotamers=2),
        st.lists(st.floats(-1.5, 1.5), min_size=4, max_size=4),
    )
    def test_xy_ansatz_never_leaks(self, problem, params):
        circ = ansatz_circuit(problem, "xy", params)
        state = run_circuit(circ)
        assert invalid_mass(state, problem) < 1e-12
