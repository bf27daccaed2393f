"""Bonded tensor-chain simulator against the dense reference."""

import math
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import ansatz_circuit, problems
from rotpack.circuits import (
    Circuit,
    Gate,
    ansatz_hamiltonian,
    build_initial_state,
    build_mixer,
)
from rotpack.driver import init_params
from rotpack.mps import MAX_BOND, MpsState, run_circuit_mps, run_one_hot_mps
from rotpack.problem import encode, random_problem, valid_mask
from rotpack.qubo import all_bitstring_energies
from rotpack.statevector import (
    apply_one_hot_gate,
    one_hot_basis,
    one_hot_state,
    run_circuit,
    sample_state,
)


def ghz_circuit(num_qubits: int) -> Circuit:
    gates = [Gate("rx", (0,), (math.pi / 2.0,))]
    gates += [Gate("cx", (q, q + 1)) for q in range(num_qubits - 1)]
    return Circuit(num_qubits=num_qubits, gates=tuple(gates))


def entangling_fixture() -> Circuit:
    """A (2, 4) ring-mixer ansatz whose exact bond dimension is 6."""
    problem = random_problem(2, 4, seed=3)
    return ansatz_circuit(problem, "xy", [0.7, 0.9, -0.4, 0.6])


class TestConstruction:
    def test_starts_in_zero_state(self):
        state = MpsState(3)
        amps = state.amplitudes()
        assert amps[0] == 1.0
        assert np.abs(amps).sum() == 1.0
        assert state.bond_dimensions() == (1, 1)
        assert state.norm() == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one site"):
            MpsState(0)
        with pytest.raises(ValueError, match="max_bond must be positive"):
            MpsState(2, max_bond=0)

    def test_gate_out_of_range(self):
        with pytest.raises(IndexError, match="out of range"):
            MpsState(2).apply_gate(Gate("x", (2,)))

    def test_negative_qubit_never_reaches_a_site(self):
        # Python would index the last site from the end
        state = MpsState(3)
        with pytest.raises(ValueError, match="out of range: negative"):
            state.apply_gate(Gate("x", (-1,)))
        assert state.amplitudes()[0] == 1.0

    def test_amplitude_readout_guard(self):
        state = MpsState(17)
        with pytest.raises(ValueError, match="limited to 16 qubits"):
            state.amplitudes()


@st.composite
def mixed_circuits(draw):
    """Up to 8 qubits of rz, rzz, xy, rx and cx; pairs in either order, repeats allowed."""
    n = draw(st.integers(2, 8))
    qubit = st.integers(0, n - 1)
    angle = st.floats(-math.pi, math.pi)
    gates = []
    for kind in draw(st.lists(st.sampled_from(["rz", "rzz", "xy", "rx", "cx"]), max_size=30)):
        if kind in ("rz", "rx"):
            gates.append(Gate(kind, (draw(qubit),), (draw(angle),)))
        else:
            pair = tuple(draw(st.lists(qubit, min_size=2, max_size=2, unique=True)))
            gates.append(Gate(kind, pair, () if kind == "cx" else (draw(angle),)))
    return Circuit(num_qubits=n, gates=tuple(gates))


def per_gate(circuit: Circuit, max_bond: int | None = 64) -> MpsState:
    """Reference: every gate through ``apply_gate``, routed on its own."""
    state = MpsState(circuit.num_qubits, max_bond=max_bond)
    for gate in circuit.gates:
        state.apply_gate(gate)
    return state


def expected_updates(circuit: Circuit) -> tuple[int, int]:
    """(two-site updates, swap updates) of ``run_circuit_mps`` in closed form.

    A diagonal run costs 2D - 1 updates, 2(D - 1) of them swaps, for each
    lower qubit of its couplings with its farthest partner at distance D;
    every other two-site gate at distance d costs 2(d - 1) swaps plus one.
    """
    updates = swaps = 0
    for diagonal, run in groupby(circuit.gates, key=lambda g: g.kind in ("rz", "rzz")):
        run = [g for g in run if g.is_two_qubit]
        if diagonal:
            farthest: dict[int, int] = {}
            for g in run:
                lo, hi = sorted(g.qubits)
                farthest[lo] = max(farthest.get(lo, 0), hi - lo)
            distances = list(farthest.values())
        else:
            distances = [abs(g.qubits[0] - g.qubits[1]) for g in run]
        updates += sum(2 * d - 1 for d in distances)
        swaps += sum(2 * (d - 1) for d in distances)
    return updates, swaps


class TestAgainstDense:
    @given(
        problems(max_residues=3, max_rotamers=3, min_rotamers=2),
        st.sampled_from(["baseline", "penalty", "xy"]),
        st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2),
    )
    def test_unbounded_chain_is_exact(self, problem, regime, params):
        circ = ansatz_circuit(problem, regime, params)
        dense = run_circuit(circ)
        state = run_circuit_mps(circ, max_bond=None)
        np.testing.assert_allclose(state.amplitudes(), dense, atol=1e-8)
        assert state.discarded_weight == 0.0
        assert state.norm() == pytest.approx(1.0)

    def test_global_phase_carried(self):
        circ = Circuit(num_qubits=2, gates=(), phase=0.7)
        state = run_circuit_mps(circ)
        assert state.amplitudes()[0] == pytest.approx(np.exp(0.7j))

    def test_long_range_gate_routed_with_swaps(self):
        gates = (
            Gate("rx", (0,), (0.9,)),
            Gate("cx", (0, 3)),
            Gate("a", (3, 1), (0.6, 0.2)),
        )
        circ = Circuit(num_qubits=4, gates=gates)
        state = run_circuit_mps(circ, max_bond=None)
        np.testing.assert_allclose(state.amplitudes(), run_circuit(circ), atol=1e-10)

    @given(mixed_circuits())
    def test_mixed_circuits_match_dense(self, circ):
        state = run_circuit_mps(circ, max_bond=None)
        np.testing.assert_allclose(state.amplitudes(), run_circuit(circ), atol=1e-10)

    def test_repeated_and_reversed_couplings_in_one_run(self):
        gates = [Gate("rx", (q,), (0.3 + 0.2 * q,)) for q in range(5)]
        gates += [
            Gate("rzz", (0, 3), (0.4,)),
            Gate("rz", (2,), (0.9,)),
            Gate("rzz", (3, 0), (-1.1,)),
            Gate("rzz", (4, 1), (0.7,)),
            Gate("rz", (2,), (-0.2,)),
            Gate("rzz", (1, 2), (1.3,)),
            Gate("rzz", (0, 3), (0.25,)),
            Gate("rzz", (0, 1), (0.6,)),
        ]
        circ = Circuit(num_qubits=5, gates=tuple(gates))
        state = run_circuit_mps(circ, max_bond=None)
        np.testing.assert_allclose(state.amplitudes(), run_circuit(circ), atol=1e-10)
        # lower qubits 0 (farthest at 3) and 1 (farthest at 4)
        assert (state.two_site_updates, state.swap_updates) == (5 + 5, 4 + 4)

    def test_ghz_chain(self):
        circ = ghz_circuit(6)
        state = run_circuit_mps(circ)
        amps = state.amplitudes()
        assert amps[0] == pytest.approx(math.sqrt(0.5))
        assert amps[-1] == pytest.approx(-1j * math.sqrt(0.5))
        assert np.abs(amps[1:-1]).max() < 1e-12
        assert state.max_bond_reached == 2
        assert set(state.bond_dimensions()) == {2}


def amplitudes_at(state: MpsState, basis: np.ndarray) -> np.ndarray:
    """The MPS amplitude of each basis index, contracted site by site."""
    acc = np.ones((basis.size, 1), dtype=complex)  # (index, bond)
    for q, t in enumerate(state.tensors):
        bit = (basis >> q) & 1
        out = np.empty((basis.size, t.shape[2]), dtype=complex)
        for b in (0, 1):
            out[bit == b] = acc[bit == b] @ t[:, b, :]
        acc = out
    return acc[:, 0]


def one_hot_reference(problem, gamma: float, beta: float, p: int) -> np.ndarray:
    """The layer-tied xy ansatz as a one-hot tensor."""
    blocks = problem.blocks
    h = ansatz_hamiltonian(problem, "xy")
    state = one_hot_state(build_initial_state("xy", blocks), blocks)
    phase = all_bitstring_energies(h, one_hot_basis(blocks)).reshape(state.shape)
    for _ in range(p):
        state *= np.exp(-1j * gamma * phase)
        for g in build_mixer("xy", blocks, beta).gates:
            apply_one_hot_gate(state, g, blocks)
    return state.ravel()


class TestOneHotOracle:
    # criterion 7's instances and layer-tied angles, p=2, default bond cap;
    # 5x7 is 35 qubits, so the MPS is read only on the one-hot basis
    @pytest.mark.parametrize(
        "rotamers, gamma, beta",
        [(3, -0.5485, 0.5362), (5, -0.6175, 0.3649), (7, -0.9459, 0.9606)],
    )
    def test_xy_matches_one_hot_state(self, rotamers, gamma, beta):
        problem = random_problem(5, rotamers, seed=200 + rotamers)
        circ = ansatz_circuit(problem, "xy", [gamma, beta, gamma, beta])
        state = run_circuit_mps(circ)
        got = amplitudes_at(state, one_hot_basis(problem.blocks))
        want = one_hot_reference(problem, gamma, beta, 2)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
        assert state.discarded_weight == 0.0
        assert state.max_bond_reached < MAX_BOND


# criterion 7's layer-tied angles, by rotamer count
CRITERION_7_ANGLES = {
    3: (-0.5485, 0.5362),
    4: (-0.7999, 0.4674),
    5: (-0.6175, 0.3649),
    6: (-0.9018, 0.8198),
    7: (-0.9459, 0.9606),
}


def residue_chain(problem, params, max_bond: int | None = MAX_BOND) -> MpsState:
    h = ansatz_hamiltonian(problem, "xy")
    return run_one_hot_mps(problem.blocks, h, params, max_bond=max_bond)


class TestResidueChain:
    """The xy ansatz with one site per residue against the one-hot tensor
    and the qubit chain."""

    @pytest.mark.parametrize("rotamers", sorted(CRITERION_7_ANGLES))
    def test_matches_one_hot_state_at_criterion_7(self, rotamers):
        gamma, beta = CRITERION_7_ANGLES[rotamers]
        problem = random_problem(5, rotamers, seed=200 + rotamers)
        state = residue_chain(problem, [gamma, beta, gamma, beta])
        want = one_hot_reference(problem, gamma, beta, 2)
        np.testing.assert_allclose(state.amplitudes(), want, rtol=0, atol=1e-9)
        assert state.dims == (rotamers,) * 5
        assert state.discarded_weight == 0.0
        assert state.norm() == pytest.approx(1.0)
        # nearest neighbors only: R - 1 updates per cost layer, no swaps
        assert (state.two_site_updates, state.swap_updates) == (8, 0)

    @pytest.mark.parametrize(
        "problem",
        [
            random_problem(4, (2, 4, 3, 5), seed=11),
            random_problem(5, 3, seed=12, nearest_neighbor_only=False, decay=0.5),
        ],
        ids=["mixed-rotamers", "long-range"],
    )
    def test_matches_one_hot_state(self, problem):
        state = residue_chain(problem, [0.4, -0.7] * 3)
        want = one_hot_reference(problem, 0.4, -0.7, 3)
        np.testing.assert_allclose(state.amplitudes(), want, rtol=0, atol=1e-9)
        assert state.dims == problem.rotamer_counts
        if problem.nearest_neighbor_only:
            assert state.swap_updates == 0
        else:
            # couplings past the next residue are routed with swaps
            assert state.swap_updates > 0

    @pytest.mark.parametrize(
        "residues, rotamers", [(3, 3), (5, 4), (5, 5), (5, 7), (4, (2, 4, 3, 5))]
    )
    def test_samples_equal_qubit_chain(self, residues, rotamers):
        problem = random_problem(residues, rotamers, seed=7)
        params = init_params(2, np.random.default_rng(rotamers))
        state = residue_chain(problem, params, max_bond=64)
        qubits = run_circuit_mps(ansatz_circuit(problem, "xy", params), max_bond=64)
        got = state.sample_one_hot(500, np.random.default_rng(1))
        np.testing.assert_array_equal(got, qubits.sample(500, np.random.default_rng(1)))
        assert got.shape == (500, problem.num_qubits)
        assert state.two_site_updates < qubits.two_site_updates

    def test_basis_state_gives_its_rotamers(self):
        # the chosen rotamers include each block's first and last, where
        # no mass lies above the choice
        problem = random_problem(4, (3, 4, 2, 5), seed=0)
        config = (2, 0, 1, 4)
        state = MpsState([np.eye(n)[a] for n, a in zip(problem.rotamer_counts, config)])
        bits = state.sample_one_hot(300, np.random.default_rng(3))
        np.testing.assert_array_equal(bits, np.tile(encode(config, problem), (300, 1)))

    @pytest.mark.parametrize("idx, residues, rotamers", [(5, 3, 3), (8, 3, 4), (9, 4, 3)])
    def test_samples_match_exact_distribution(self, idx, residues, rotamers):
        # criterion 6's instances and angles for these shapes
        problem = random_problem(residues, rotamers, seed=30 + idx)
        rng = np.random.default_rng(60 + idx)
        p = int(rng.integers(1, 4))
        params = np.empty(2 * p)
        params[0::2] = rng.uniform(-0.5, 0.5, size=p)
        params[1::2] = rng.uniform(-1.0, 1.0, size=p)
        exact = np.abs(run_circuit(ansatz_circuit(problem, "xy", params))) ** 2
        shots = 100_000
        bits = residue_chain(problem, params).sample_one_hot(
            shots, np.random.default_rng(90 + idx)
        )
        indices = bits.astype(np.int64) @ (1 << np.arange(problem.num_qubits))
        counts = np.bincount(indices, minlength=exact.size)
        assert 0.5 * np.abs(counts / shots - exact).sum() < 0.02

    def test_small_cap_truncates(self):
        problem = random_problem(5, 4, seed=3)
        exact = residue_chain(problem, [0.7, 0.9, -0.4, 0.6], max_bond=None)
        assert exact.discarded_weight == 0.0
        assert exact.max_bond_reached > 3
        capped = residue_chain(problem, [0.7, 0.9, -0.4, 0.6], max_bond=3)
        assert capped.max_bond_reached == 3
        assert capped.discarded_weight > 0.0
        assert capped.norm() == pytest.approx(1.0)
        bits = capped.sample_one_hot(200, np.random.default_rng(0))
        # truncation never leaves the one-hot subspace
        assert valid_mask(bits, problem).all()

    def test_validation(self):
        problem = random_problem(2, 3, seed=1)
        h = ansatz_hamiltonian(problem, "xy")
        with pytest.raises(ValueError, match="2p angles"):
            run_one_hot_mps(problem.blocks, h, [0.1, 0.2, 0.3])
        with pytest.raises(ValueError, match="width"):
            run_one_hot_mps(problem.blocks[:1], h, [0.1, 0.2])
        with pytest.raises(ValueError, match="nonempty vector"):
            MpsState([[1.0], []])


class TestRouting:
    def test_diagonal_run_rejects_other_gates(self):
        with pytest.raises(ValueError, match="not diagonal"):
            MpsState(3).apply_diagonal_run([Gate("rzz", (0, 2), (0.1,)), Gate("cx", (0, 1))])
        with pytest.raises(IndexError, match="out of range"):
            MpsState(3).apply_diagonal_run([Gate("rzz", (0, 3), (0.1,))])

    def test_update_counts_match_closed_form(self):
        problem = random_problem(5, 5, seed=3)
        circ = ansatz_circuit(problem, "xy", [0.3] * 4)
        state = run_circuit_mps(circ)
        assert (state.two_site_updates, state.swap_updates) == expected_updates(circ)
        # routing every two-site gate on its own costs 2(d - 1) + 1 updates
        old = per_gate(circ)
        assert old.two_site_updates == 1930
        assert state.two_site_updates == 650

    @pytest.mark.parametrize("regime,residues,rotamers", [
        ("xy", 5, 4), ("xy", 5, 5), ("penalty", 5, 4),
    ])
    def test_matches_per_gate_routing_at_benchmark_shapes(self, regime, residues, rotamers):
        problem = random_problem(residues, rotamers, seed=7)
        params = init_params(2, np.random.default_rng(rotamers))
        circ = ansatz_circuit(problem, regime, params)
        state = run_circuit_mps(circ, max_bond=64)
        ref = per_gate(circ, max_bond=64)
        np.testing.assert_array_equal(
            state.sample(200, np.random.default_rng(1)),
            ref.sample(200, np.random.default_rng(1)),
        )
        # the walk cuts the chain in other places than per-gate routing does,
        # so its peak bond may be lower, never higher
        assert state.max_bond_reached <= ref.max_bond_reached
        assert state.discarded_weight <= ref.discarded_weight
        assert state.two_site_updates < ref.two_site_updates


_SWAP_4X4 = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)


class TestTwoSiteUpdate:
    @pytest.mark.parametrize("kind", ["diagonal-then-swap", "swap", "diagonal", "general"])
    def test_matches_dense_4x4_product(self, kind):
        """Each path of ``_apply_adjacent`` equals applying the matching 4x4 matrix."""
        rng = np.random.default_rng(5)

        def rand(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        diag = np.exp(1j * rng.uniform(-math.pi, math.pi, size=4))
        general = np.linalg.qr(rand(4, 4))[0]
        op, swap, matrix = {
            "diagonal-then-swap": (diag, True, _SWAP_4X4 * diag),
            "swap": (None, True, _SWAP_4X4),
            "diagonal": (diag, False, np.diag(diag)),
            "general": (general, False, general),
        }[kind]
        state = MpsState(4, max_bond=None, threshold=0.0)
        state.tensors = [rand(1, 2, 2), rand(2, 2, 3), rand(3, 2, 2), rand(2, 2, 1)]
        state.center = 1
        left, right = state.tensors[1], state.tensors[2]
        theta = np.einsum("lpa,aqr->lpqr", left, right).reshape(2, 4, 2)
        theta = np.einsum("st,ltr->lsr", matrix, theta)
        expected = theta / np.linalg.norm(theta)
        state._apply_adjacent(1, op, swap=swap)
        got = np.einsum("lpa,aqr->lpqr", state.tensors[1], state.tensors[2]).reshape(2, 4, 2)
        np.testing.assert_allclose(got, expected, atol=1e-12)
        assert state.center == 2
        assert (state.two_site_updates, state.swap_updates) == (1, int(swap))


class TestTruncation:
    def test_cap_forces_discard(self):
        circ = entangling_fixture()
        exact = run_circuit_mps(circ, max_bond=None)
        assert exact.max_bond_reached == 6
        capped = run_circuit_mps(circ, max_bond=2)
        assert capped.max_bond_reached == 2
        assert capped.discarded_weight > 1e-3
        # each split renormalizes, so the chain still has unit norm
        assert capped.norm() == pytest.approx(1.0)

    def test_tighter_cap_discards_more(self):
        circ = entangling_fixture()
        weights = [
            run_circuit_mps(circ, max_bond=cap).discarded_weight for cap in (2, 3, 4)
        ]
        assert weights[0] > weights[1] > weights[2] > 0.0

    def test_mild_truncation_keeps_distribution_close(self):
        circ = entangling_fixture()
        dense_probs = np.abs(run_circuit(circ)) ** 2
        state = run_circuit_mps(circ, max_bond=5)
        probs = np.abs(state.amplitudes()) ** 2
        tv = 0.5 * np.abs(probs - dense_probs).sum()
        assert tv < 0.08
        assert state.discarded_weight < 0.05

    def test_threshold_prunes_noise_bonds(self):
        circ = ghz_circuit(4)
        state = run_circuit_mps(circ, max_bond=None, threshold=1e-6)
        # GHZ needs exactly two singular values per cut; none should be added
        assert state.bond_dimensions() == (2, 2, 2)


class TestSampling:
    def test_needs_positive_shots(self):
        with pytest.raises(ValueError, match="at least one shot"):
            MpsState(2).sample(0, np.random.default_rng(0))

    def test_zero_state_rejected(self):
        state = MpsState(2)
        state.scale(0.0)
        with pytest.raises(ValueError, match="zero state"):
            state.sample(3, np.random.default_rng(0))

    def test_deterministic_for_seed(self):
        circ = entangling_fixture()
        a = run_circuit_mps(circ).sample(40, np.random.default_rng(9))
        b = run_circuit_mps(circ).sample(40, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)
        assert a.shape == (40, 8)
        assert a.dtype == np.uint8

    def test_ghz_bits_fully_correlated(self):
        state = run_circuit_mps(ghz_circuit(7))
        bits = state.sample(200, np.random.default_rng(1))
        assert np.all((bits == bits[:, :1]))
        ones = int(bits[:, 0].sum())
        assert 0 < ones < 200

    def test_marginals_match_dense_within_four_sigma(self):
        circ = entangling_fixture()
        probs = np.abs(run_circuit(circ)) ** 2
        shots = 100000
        bits = run_circuit_mps(circ, max_bond=None).sample(
            shots, np.random.default_rng(17)
        )
        idx = np.arange(probs.size)
        for q in range(circ.num_qubits):
            p1 = float(probs[(idx >> q) & 1 == 1].sum())
            ones = int(bits[:, q].sum())
            sigma = math.sqrt(shots * p1 * (1.0 - p1)) or 1.0
            assert abs(ones - shots * p1) < 4.0 * sigma

    def test_joint_distribution_close_to_dense(self):
        circ = entangling_fixture()
        probs = np.abs(run_circuit(circ)) ** 2
        shots = 100000
        bits = run_circuit_mps(circ, max_bond=None).sample(
            shots, np.random.default_rng(23)
        )
        idx = (bits.astype(np.int64) << np.arange(8)).sum(axis=1)
        empirical = np.bincount(idx, minlength=256) / shots
        assert 0.5 * np.abs(empirical - probs).sum() < 0.02

    def test_sample_agrees_with_dense_sampler_distributionally(self):
        # same state, two samplers: compare both empirical distributions
        circ = ghz_circuit(3)
        shots = 50000
        mps_bits = run_circuit_mps(circ).sample(shots, np.random.default_rng(4))
        dense_bits = sample_state(run_circuit(circ), shots, np.random.default_rng(4))
        for bits in (mps_bits, dense_bits):
            idx = (bits.astype(np.int64) << np.arange(3)).sum(axis=1)
            counts = np.bincount(idx, minlength=8)
            assert counts[0] + counts[7] == shots
            assert abs(counts[0] - shots / 2) < 4 * math.sqrt(shots * 0.25)
