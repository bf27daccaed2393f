"""Dense simulator: gate application, the prepared transverse-field ansatz
and cost layer, sampling, and diagnostics."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import all_bitstrings, ansatz_circuit, problems
from rotpack._rng import generator, trajectory_seed
from rotpack.circuits import (
    Circuit,
    Gate,
    ansatz_hamiltonian,
    build_initial_state,
    build_mixer,
    gate_matrix,
)
from rotpack.driver import QaoaConfig, init_params, optimize
from rotpack.problem import MAX_TABLE_SIZE, random_problem, valid_mask
from rotpack.qubo import IsingHamiltonian, all_bitstring_energies, default_penalty
from rotpack.statevector import (
    apply_gate,
    bits_from_indices,
    cost_phase,
    invalid_mass,
    one_hot_basis,
    one_hot_mixer,
    one_hot_state,
    run_circuit,
    sample_state,
    transverse_ansatz,
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
        circ = ansatz_circuit(problem, regime, params)
        state = run_circuit(circ)
        assert np.linalg.norm(state) == pytest.approx(1.0)


# every remainder of M modulo the mixer's group size, with one to five groups
MIXER_WIDTHS = [1, 2, 3, 4, 5, 7, 8, 9, 13]


def random_ising(num_spins: int, seed: int) -> IsingHamiltonian:
    """An Ising Hamiltonian with every coupling, field and the constant drawn."""
    rng = np.random.default_rng(seed)
    couplings = np.triu(rng.normal(size=(num_spins, num_spins)), 1)
    return IsingHamiltonian(couplings, rng.normal(size=num_spins), rng.normal())


def energy_table(h: IsingHamiltonian) -> np.ndarray:
    """Every basis state's energy, from its bits, in index order."""
    return h.energies_of_bits(all_bitstrings(h.num_spins))


def gate_by_gate_mixer(state: np.ndarray, beta: float) -> np.ndarray:
    """The transverse-field mixer as ``build_mixer``'s RX gates, one at a time."""
    m = state.size.bit_length() - 1
    for g in build_mixer("penalty", [(0, m)], beta).gates:
        apply_gate(state, g)
    return state


def blocks_starting_at(firsts, num_qubits: int) -> list[tuple[int, int]]:
    """Blocks that start at each qubit of ``firsts`` and run to the next,
    the last to the register's end: the ansatz starts with those qubits set."""
    firsts = sorted(set(firsts))
    return [(a, b - a) for a, b in zip(firsts, firsts[1:] + [num_qubits])]


def gate_by_gate_ansatz(blocks, h: IsingHamiltonian, params) -> np.ndarray:
    """The transverse-field ansatz from ``build_initial_state``'s start: per
    layer, the exp of the energy table, then the mixer's RX gates one at a
    time."""
    table = energy_table(h)
    state = run_circuit(build_initial_state("baseline", blocks))
    for gamma, beta in zip(params[0::2], params[1::2]):
        state *= np.exp(-1j * gamma * table)
        gate_by_gate_mixer(state, beta)
    return state


def assert_fills_like_the_gates(blocks, h, params, refill) -> None:
    """``transverse_ansatz`` fills a buffer of NaNs as the gates do, and
    fills it again alike after another circuit left it dirty."""
    evolve = transverse_ansatz(blocks, h)
    state = np.full(1 << h.num_spins, np.nan, dtype=complex)
    assert evolve(state, params) is state
    np.testing.assert_allclose(
        state, gate_by_gate_ansatz(blocks, h, params), rtol=0, atol=1e-12
    )
    first = state.copy()
    evolve(state, refill)
    assert not np.array_equal(state, first)
    evolve(state, params)
    assert np.array_equal(state, first)


class TestTransverseMixer:
    @pytest.mark.parametrize("beta", [-2.3, 0.0, 0.4, 4.0], ids=str)
    @pytest.mark.parametrize("m", MIXER_WIDTHS)
    def test_matches_gate_by_gate(self, m, beta):
        # the first layer is built in closed form: the later two run the mixer
        blocks = blocks_starting_at([m // 2], m)
        params = [0.37, 0.6, -0.21, beta, 0.13, -beta]
        assert_fills_like_the_gates(blocks, random_ising(m, seed=m), params, [0.1] * 6)

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", [1, 2, 3, 7, 9, 18])
    def test_matches_gates_at_every_depth(self, m, p):
        rng = np.random.default_rng(10 * m + p)
        blocks = blocks_starting_at([int(q) for q in rng.integers(0, m, size=3)], m)
        params = list(rng.uniform(-2.0, 2.0, size=2 * p))
        refill = list(rng.uniform(-2.0, 2.0, size=2 * p))
        assert_fills_like_the_gates(blocks, random_ising(m, seed=m), params, refill)

    def test_refuses_a_state_of_another_shape(self):
        evolve = transverse_ansatz([(0, 3)], random_ising(3, seed=1))
        for state in (zero_state(2), zero_state(4), zero_state(3).reshape(2, 4)):
            with pytest.raises(ValueError, match="complex128 state of 8 amplitudes"):
                evolve(state, [0.3, 0.2])

    def test_refuses_a_state_the_float_view_cannot_take(self):
        evolve = transverse_ansatz([(0, 3)], random_ising(3, seed=1))
        for state in (
            np.zeros(8),
            np.zeros(8, dtype=np.complex64),
            zero_state(4)[::2],
            zero_state(3).tolist(),
        ):
            with pytest.raises(
                ValueError, match="C-contiguous complex128 state of 8 amplitudes"
            ):
                evolve(state, [0.3, 0.2])

    @pytest.mark.parametrize("regime", ["baseline", "penalty"])
    def test_trajectory_prepares_its_mixer_once(self, regime, monkeypatch):
        # 3 iterations at p=3 from one preparation, and no gate applied at all
        prepared, circuits, gates = [], [], []

        def counting_ansatz(blocks, h):
            evolve = transverse_ansatz(blocks, h)
            prepared.append(h.num_spins)

            def run(state, params):
                circuits.append(len(params))
                return evolve(state, params)

            return run

        def counting_gate(state, gate):
            gates.append(gate.kind)
            return apply_gate(state, gate)

        monkeypatch.setattr("rotpack.statevector.transverse_ansatz", counting_ansatz)
        monkeypatch.setattr("rotpack.statevector.apply_gate", counting_gate)
        config = QaoaConfig(regime=regime, p=3, seed=1, max_iterations=3)
        rec = optimize(random_problem(3, 3, seed=4), config)
        assert rec.iterations_used == 3
        assert prepared == [9]
        assert circuits == [6, 6, 6]
        assert gates == []

    @pytest.mark.parametrize("regime", ["baseline", "penalty"])
    def test_driver_evolution_matches_gates(self, regime, monkeypatch):
        assert_driver_matches_gates(random_problem(4, 3, seed=11), regime, 3, monkeypatch)


def assert_driver_matches_gates(problem, regime, p, monkeypatch):
    """The state and samples of the driver's first iteration, whose angles
    are the optimizer's starting point, against the ansatz's gates applied
    one at a time from the prepared start."""
    sampled = []

    def capture(state, shots, rng, basis=None):
        bits = sample_state(state, shots, rng, basis)
        sampled.append((state.copy(), shots, bits))
        return bits

    monkeypatch.setattr("rotpack.driver.sv.sample_state", capture)
    config = QaoaConfig(regime=regime, p=p, seed=2, max_iterations=1)
    optimize(problem, config, trajectory_id=4)
    rng = generator(trajectory_seed(2, 4))
    x0 = init_params(p, rng)
    table = all_bitstring_energies(
        ansatz_hamiltonian(problem, regime), np.arange(1 << problem.num_qubits)
    )
    want = run_circuit(build_initial_state(regime, problem.blocks))
    for gamma, beta in zip(x0[0::2], x0[1::2]):
        want *= np.exp(-1j * gamma * table)
        for g in build_mixer(regime, problem.blocks, beta).gates:
            apply_gate(want, g)
    ((state, shots, bits),) = sampled
    np.testing.assert_allclose(state, want, rtol=0, atol=1e-12)
    assert np.array_equal(bits, sample_state(want, shots, rng))


# (residues, rotamer counts, seed): blocks of one rotamer, mixed counts,
# widths (12, 3, 3, 9, 9) below MIXER_GROUP and not a multiple of it
FIRST_LAYER_PROBLEMS = [
    (4, 3, 11),
    (2, (1, 2), 12),
    (3, 1, 13),
    (3, (2, 3, 4), 14),
    (4, (1, 4, 1, 3), 15),
]


class TestTransverseFirstLayer:
    @pytest.mark.parametrize("beta", [-2.3, 0.0, 0.4], ids=str)
    @pytest.mark.parametrize(
        "excited", [(0,), (2, 5), (1, 3, 4, 6), (3, 3, 6)], ids=str
    )
    def test_matches_gate_by_gate(self, excited, beta):
        # the qubits the start sets; those below the first are in no block
        blocks = blocks_starting_at(excited, 7)
        h = random_ising(7, seed=3)
        assert_fills_like_the_gates(blocks, h, [0.37, beta], [-0.37, -beta - 0.1])

    def test_refusals(self):
        with pytest.raises(ValueError, match="Hamiltonian of 2 spins"):
            transverse_ansatz([(0, 2)], random_ising(3, seed=0))
        evolve = transverse_ansatz([(0, 2)], random_ising(2, seed=0))
        for state in (zero_state(1), zero_state(3), zero_state(2).reshape(2, 2)):
            with pytest.raises(ValueError, match="state of 4 amplitudes"):
                evolve(state, [0.1, 0.2])
        with pytest.raises(ValueError, match="expected 2p angles"):
            evolve(zero_state(2), [0.1, 0.2, 0.3])

    def test_refuses_a_register_past_the_table_limit(self):
        # 27 qubits: refused while preparing, before any 2^27 buffer exists
        problem = random_problem(9, 3, seed=1)
        h = ansatz_hamiltonian(problem, "penalty")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"exceeds the limit of {MAX_TABLE_SIZE}"):
                transverse_ansatz(problem.blocks, h)
            with pytest.raises(ValueError, match=f"exceeds the limit of {MAX_TABLE_SIZE}"):
                cost_phase(h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("p", [1, 3])
    @pytest.mark.parametrize("regime", ["baseline", "penalty"])
    @pytest.mark.parametrize("shape", FIRST_LAYER_PROBLEMS, ids=str)
    def test_driver_evolution_matches_gates(self, shape, regime, p, monkeypatch):
        residues, rotamers, seed = shape
        problem = random_problem(residues, rotamers, seed=seed)
        assert_driver_matches_gates(problem, regime, p, monkeypatch)


def zero_field_ising(problem) -> IsingHamiltonian:
    """An instance's bare couplings and constant, with every field zero."""
    h = ansatz_hamiltonian(problem, "baseline")
    return IsingHamiltonian(h.couplings, np.zeros(h.num_spins), h.constant)


COST_PROBLEM = random_problem(4, 3, seed=21)

# (name, Hamiltonian) over the shapes a dense cost layer meets
COST_HAMILTONIANS = [
    ("baseline", ansatz_hamiltonian(COST_PROBLEM, "baseline")),
    ("penalty", ansatz_hamiltonian(COST_PROBLEM, "penalty")),
    (
        "penalty-double",
        ansatz_hamiltonian(
            COST_PROBLEM, "penalty", 2.0 * default_penalty(COST_PROBLEM)
        ),
    ),
    ("nearest", ansatz_hamiltonian(random_problem(5, 3, seed=22), "penalty")),
    (
        "long-range",
        ansatz_hamiltonian(
            random_problem(4, 3, seed=23, nearest_neighbor_only=False, decay=0.5),
            "penalty",
        ),
    ),
    (
        "mixed",
        ansatz_hamiltonian(random_problem(4, (1, 4, 2, 3), seed=24), "baseline"),
    ),
    ("zero-fields", zero_field_ising(random_problem(3, 3, seed=25))),
    ("m1", ansatz_hamiltonian(random_problem(1, 1, seed=26), "penalty")),
    ("m2", ansatz_hamiltonian(random_problem(1, 2, seed=27), "penalty")),
    ("m2-two-residues", ansatz_hamiltonian(random_problem(2, 1, seed=28), "baseline")),
]


class TestCostPhase:
    @pytest.mark.parametrize("gamma", [-2.9, 0.0, 0.037, 2.3], ids=str)
    @pytest.mark.parametrize(
        "h", [h for _, h in COST_HAMILTONIANS], ids=[n for n, _ in COST_HAMILTONIANS]
    )
    def test_matches_the_exp_of_the_energy_table(self, h, gamma):
        m = h.num_spins
        table = all_bitstring_energies(h, np.arange(1 << m))
        state = random_state(m, seed=m)
        want = np.exp(-1j * gamma * table) * state
        layer = cost_phase(h)
        assert layer(state, gamma) is state
        np.testing.assert_allclose(state, want, rtol=0, atol=1e-10)
        # a second layer on the same preparation
        layer(state, -0.5 * gamma)
        want *= np.exp(0.5j * gamma * table)
        np.testing.assert_allclose(state, want, rtol=0, atol=1e-10)

    def test_refuses_a_state_of_another_shape(self):
        layer = cost_phase(random_ising(3, seed=1))
        for state in (zero_state(2), zero_state(4), zero_state(3).reshape(2, 4)):
            with pytest.raises(ValueError, match="takes a state of 8 amplitudes"):
                layer(state, 0.3)

    @pytest.mark.parametrize("regime", ["baseline", "penalty", "xy"])
    def test_dense_trajectory_tabulates_no_energies(self, regime, monkeypatch):
        tabulated = []

        def counting_table(h, indices):
            tabulated.append(np.size(indices))
            return all_bitstring_energies(h, indices)

        monkeypatch.setattr("rotpack.driver.all_bitstring_energies", counting_table)
        config = QaoaConfig(regime=regime, p=2, seed=3, max_iterations=3)
        optimize(random_problem(3, 3, seed=5), config)
        # the one-hot state keeps its profile over the 27 valid configurations
        assert tabulated == ([27] if regime == "xy" else [])


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

    @staticmethod
    def assert_draws_equal_choice(state, basis=None, seeds=range(5), shots=100):
        """Bits, and the generator state after, equal those of the
        ``Generator.choice`` draw the sampler replaces."""
        probs = np.abs(state.ravel()) ** 2
        probs /= probs.sum()
        m = state.size.bit_length() - 1 if basis is None else int(basis[-1]).bit_length()
        for seed in seeds:
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sample_state(state, shots, got_rng, basis)
            positions = want_rng.choice(probs.size, size=shots, p=probs)
            want = bits_from_indices(positions if basis is None else basis[positions], m)
            assert np.array_equal(got, want)
            assert got_rng.random() == want_rng.random()

    def test_draws_equal_choice_on_a_dense_state(self):
        self.assert_draws_equal_choice(random_state(18, seed=18), shots=180)

    def test_draws_equal_choice_on_a_one_hot_state(self):
        problem = random_problem(4, (3, 2, 4, 2), seed=6)
        state = one_hot_state(problem.blocks)
        mix = one_hot_mixer(problem.blocks)
        for beta in (0.7, -0.3):
            state *= np.exp(-0.4j * np.arange(state.size)).reshape(state.shape)
            mix(state, beta)
        self.assert_draws_equal_choice(state, one_hot_basis(problem.blocks))

    def test_draws_equal_choice_with_exact_zeros(self):
        state = random_state(8, seed=8)
        # zeros at both ends and in runs and strides between
        state[:5] = state[40:90] = state[::7] = state[-9:] = 0.0
        self.assert_draws_equal_choice(state, seeds=range(40), shots=500)

    def test_refuses_a_state_of_no_or_non_finite_norm(self):
        nan, inf = np.zeros(4, complex), np.zeros(4, complex)
        nan[1], inf[2] = np.nan, np.inf
        # each amplitude finite, but the squared norm overflows
        huge = np.array([1e200, 0.0], dtype=complex)
        for state in (np.zeros(4, complex), nan, inf, huge):
            with np.errstate(over="ignore"), pytest.raises(
                ValueError, match="cannot sample a state"
            ):
                sample_state(state, 3, np.random.default_rng(0))

    def test_empirical_distribution_close_to_exact(self):
        problem = random_problem(2, 2, seed=19)
        circ = ansatz_circuit(problem, "xy", [0.4, 0.9])
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
