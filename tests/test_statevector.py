"""Dense simulator: gate application, sampling, and diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import all_bitstrings, problems
from rotpack.circuits import AnsatzSpec, Circuit, Gate, assemble_ansatz, gate_matrix
from rotpack.problem import random_problem, valid_mask
from rotpack.statevector import (
    apply_gate,
    bits_from_indices,
    invalid_mass,
    run_circuit,
    sample_state,
    zero_state,
)


def dense_apply(gate: Gate, psi: np.ndarray) -> np.ndarray:
    """Reference gate action: explicit per-amplitude loop over the matrix.

    Deliberately has nothing in common with the package's reshaped-view
    slicing. The first listed qubit selects the more significant bit of the
    4x4 row/column index.
    """
    u = gate_matrix(gate)
    out = np.zeros_like(psi)
    if len(gate.qubits) == 1:
        (q,) = gate.qubits
        for idx in range(psi.size):
            b = (idx >> q) & 1
            for nb in range(2):
                src = (idx & ~(1 << q)) | (nb << q)
                out[idx] += u[b, nb] * psi[src]
        return out
    a, b = gate.qubits
    for idx in range(psi.size):
        row = 2 * ((idx >> a) & 1) + ((idx >> b) & 1)
        for col in range(4):
            wa, wb = col >> 1, col & 1
            src = (idx & ~(1 << a) & ~(1 << b)) | (wa << a) | (wb << b)
            out[idx] += u[row, col] * psi[src]
    return out


def random_state(num_qubits: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return psi / np.linalg.norm(psi)


class TestApplyGate:
    def test_x_flips_basis_state(self):
        state = zero_state(3)
        apply_gate(state, Gate("x", (1,)))
        assert state[2] == 1.0 and abs(state).sum() == 1.0

    def test_rz_phases(self):
        theta = 0.7
        state = zero_state(1)
        apply_gate(state, Gate("rz", (0,), (theta,)))
        assert state[0] == pytest.approx(np.exp(-0.5j * theta))
        state = zero_state(1)
        apply_gate(state, Gate("x", (0,)))
        apply_gate(state, Gate("rz", (0,), (theta,)))
        assert state[1] == pytest.approx(np.exp(0.5j * theta))

    def test_rzz_phases_by_parity(self):
        theta = 1.3
        same, diff = np.exp(-0.5j * theta), np.exp(0.5j * theta)
        for idx, want in [(0, same), (1, diff), (2, diff), (3, same)]:
            state = np.zeros(4, dtype=complex)
            state[idx] = 1.0
            apply_gate(state, Gate("rzz", (0, 1), (theta,)))
            assert state[idx] == pytest.approx(want)

    def test_xy_mixes_single_excitations(self):
        beta = 0.6
        state = np.zeros(4, dtype=complex)
        state[1] = 1.0
        apply_gate(state, Gate("xy", (0, 1), (beta,)))
        # qubit 0 set = column index 1 of the pair matrix
        assert state[1] == pytest.approx(math.cos(beta))
        assert state[2] == pytest.approx(-1j * math.sin(beta))

    def test_out_of_range(self):
        with pytest.raises(IndexError, match="out of range"):
            apply_gate(zero_state(2), Gate("x", (2,)))

    def test_bad_state_length(self):
        with pytest.raises(ValueError, match="power of two"):
            apply_gate(np.zeros(3, dtype=complex), Gate("x", (0,)))

    @given(
        st.sampled_from(["x", "rz", "rx", "rzz", "xy", "a", "cx"]),
        st.permutations(range(3)),
        st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2),
        st.integers(0, 2**31 - 1),
    )
    def test_matches_dense_reference(self, kind, qubit_order, angles, seed):
        arity, nparams = {
            "x": (1, 0),
            "rz": (1, 1),
            "rx": (1, 1),
            "rzz": (2, 1),
            "xy": (2, 1),
            "a": (2, 2),
            "cx": (2, 0),
        }[kind]
        gate = Gate(kind, tuple(qubit_order[:arity]), tuple(angles[:nparams]))
        psi = random_state(3, seed)
        got = apply_gate(psi.copy(), gate)
        np.testing.assert_allclose(got, dense_apply(gate, psi), atol=1e-12)

    def test_listed_order_matters_for_asymmetric_gates(self):
        # the A rotation is not symmetric under qubit exchange
        psi = random_state(2, 11)
        fwd = apply_gate(psi.copy(), Gate("a", (0, 1), (0.5, 0.3)))
        rev = apply_gate(psi.copy(), Gate("a", (1, 0), (0.5, 0.3)))
        assert not np.allclose(fwd, rev)
        np.testing.assert_allclose(
            rev, dense_apply(Gate("a", (1, 0), (0.5, 0.3)), psi), atol=1e-12
        )


class TestRunCircuit:
    def test_gate_order(self):
        circ = Circuit(
            num_qubits=1,
            gates=(Gate("x", (0,)), Gate("rz", (0,), (0.9,))),
        )
        state = run_circuit(circ)
        assert state[1] == pytest.approx(np.exp(0.45j))

    def test_initial_state_not_mutated(self):
        psi = random_state(2, 3)
        before = psi.copy()
        run_circuit(Circuit(num_qubits=2, gates=(Gate("x", (0,)),)), initial=psi)
        np.testing.assert_array_equal(psi, before)

    def test_width_mismatch(self):
        with pytest.raises(ValueError, match="does not match circuit width"):
            run_circuit(Circuit(num_qubits=2, gates=()), initial=zero_state(3))

    def test_global_phase_applied(self):
        circ = Circuit(num_qubits=1, gates=(), phase=0.25)
        state = run_circuit(circ)
        assert state[0] == pytest.approx(np.exp(0.25j))

    @given(
        problems(max_residues=3, max_rotamers=3, min_rotamers=2),
        st.sampled_from(["baseline", "penalty", "xy"]),
        st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2),
    )
    def test_norm_preserved(self, problem, regime, params):
        circ = assemble_ansatz(problem, AnsatzSpec(regime=regime, p=1), params)
        state = run_circuit(circ)
        assert np.linalg.norm(state) == pytest.approx(1.0)


class TestSampling:
    def test_bits_from_indices(self):
        bits = bits_from_indices(np.array([5, 0]), 3)
        assert bits.dtype == np.uint8
        np.testing.assert_array_equal(bits, [[1, 0, 1], [0, 0, 0]])

    def test_needs_positive_shots(self):
        with pytest.raises(ValueError, match="at least one shot"):
            sample_state(zero_state(1), 0, np.random.default_rng(0))

    def test_deterministic_state_deterministic_samples(self):
        state = run_circuit(Circuit(num_qubits=3, gates=(Gate("x", (2,)),)))
        bits = sample_state(state, 7, np.random.default_rng(0))
        assert bits.shape == (7, 3)
        np.testing.assert_array_equal(bits, np.tile([0, 0, 1], (7, 1)))

    def test_same_seed_same_draws(self):
        state = run_circuit(
            Circuit(num_qubits=2, gates=(Gate("rx", (0,), (0.8,)), Gate("rx", (1,), (2.1,))))
        )
        a = sample_state(state, 50, np.random.default_rng(42))
        b = sample_state(state, 50, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_unbiased_coin_within_four_sigma(self):
        state = run_circuit(Circuit(num_qubits=1, gates=(Gate("rx", (0,), (math.pi / 2.0,)),)))
        shots = 10000
        bits = sample_state(state, shots, np.random.default_rng(7))
        ones = int(bits.sum())
        sigma = math.sqrt(shots * 0.25)
        assert abs(ones - shots / 2.0) < 4.0 * sigma

    def test_empirical_distribution_close_to_exact(self):
        problem = random_problem(2, 2, seed=19)
        circ = assemble_ansatz(
            problem, AnsatzSpec(regime="xy", p=1), [0.4, 0.9]
        )
        state = run_circuit(circ)
        shots = 200000
        bits = sample_state(state, shots, np.random.default_rng(5))
        idx = (bits.astype(np.int64) << np.arange(4)).sum(axis=1)
        empirical = np.bincount(idx, minlength=16) / shots
        exact = np.abs(state) ** 2
        assert 0.5 * np.abs(empirical - exact).sum() < 0.01


class TestInvalidMass:
    def test_basis_states(self):
        problem = random_problem(2, 2, seed=0)
        valid = run_circuit(Circuit(num_qubits=4, gates=(Gate("x", (0,)), Gate("x", (2,)))))
        assert invalid_mass(valid, problem) == 0.0
        doubled = run_circuit(Circuit(num_qubits=4, gates=(Gate("x", (0,)), Gate("x", (1,)))))
        assert invalid_mass(doubled, problem) == 1.0

    def test_width_mismatch(self):
        problem = random_problem(2, 2, seed=0)
        with pytest.raises(ValueError, match="widths disagree"):
            invalid_mass(zero_state(3), problem)

    @given(
        problems(max_residues=3, max_rotamers=3),
        st.integers(0, 2**31 - 1),
    )
    def test_matches_mask_route(self, problem, seed):
        psi = random_state(problem.num_qubits, seed)
        mask = valid_mask(all_bitstrings(problem.num_qubits), problem)
        want = float((np.abs(psi) ** 2)[~mask].sum())
        assert invalid_mass(psi, problem) == pytest.approx(want, abs=1e-12)
