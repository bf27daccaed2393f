"""Quadratic form assembly, the one-hot penalty, and the spin mapping."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import all_bitstrings, problems
from rotpack.problem import RotamerProblem, decode, random_problem, valid_mask
from rotpack.qubo import (
    IsingHamiltonian,
    QuboMatrix,
    all_bitstring_energies,
    build_qubo,
    default_penalty,
    qubo_to_ising,
)


class TestQuboAssembly:
    def test_sparsity_pattern(self):
        """Diagonal carries selves; off-diagonal entries exist only between
        interacting residue blocks, each pair split half-and-half."""
        p = random_problem(3, 2, seed=4)
        q = build_qubo(p).matrix
        assert np.allclose(np.diag(q), p.self_energies)
        b01 = p.pair_blocks[(0, 1)]
        assert np.allclose(q[0:2, 2:4], b01 / 2.0)
        assert np.allclose(q[2:4, 0:2], b01.T / 2.0)
        # residues 0 and 2 do not interact, and blocks are internally empty
        assert np.all(q[0:2, 4:6] == 0.0)
        assert q[0, 1] == 0.0 and q[2, 3] == 0.0 and q[4, 5] == 0.0

    def test_block_banded_for_nearest_neighbor(self):
        p = random_problem(5, 3, seed=2)
        q = build_qubo(p).matrix
        offs = p.block_offsets
        for i in range(5):
            for j in range(i + 2, 5):
                si = slice(offs[i], offs[i] + p.rotamer_counts[i])
                sj = slice(offs[j], offs[j] + p.rotamer_counts[j])
                assert np.all(q[si, sj] == 0.0)

    def test_penalty_block_form(self):
        lam = 3.5
        p = random_problem(2, 3, seed=1)
        bare = build_qubo(p).matrix
        pen = build_qubo(p, penalty=lam)
        for off, n in p.blocks:
            s = slice(off, off + n)
            delta = pen.matrix[s, s] - bare[s, s]
            assert np.allclose(delta, lam * (1.0 - np.eye(n)) - lam * np.eye(n))
        assert pen.offset == pytest.approx(2 * lam)

    def test_penalty_must_be_positive(self):
        p = random_problem(2, 2, seed=0)
        with pytest.raises(ValueError):
            build_qubo(p, penalty=0.0)
        with pytest.raises(ValueError):
            build_qubo(p, penalty=-1.0)

    def test_matrix_symmetry_enforced(self):
        with pytest.raises(ValueError, match="symmetric"):
            QuboMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize(
        "upper, lower",
        [(1.0, np.nextafter(1.0, 2.0)), (np.nan, np.nan)],
        ids=["one-ulp", "nan"],
    )
    def test_symmetry_is_exact(self, upper, lower):
        with pytest.raises(ValueError, match="symmetric"):
            QuboMatrix(np.array([[0.0, upper], [lower, 0.0]]))

    @pytest.mark.parametrize(
        "upper, lower", [(np.inf, np.inf), (-0.0, 0.0)], ids=["inf", "signed-zero"]
    )
    def test_mirrored_values_are_symmetric(self, upper, lower):
        q = QuboMatrix(np.array([[0.0, upper], [lower, 0.0]]))
        assert q.matrix[0, 1] == upper

    def test_energies_batch_matches_scalar(self):
        p = random_problem(3, 2, seed=9)
        q = build_qubo(p, penalty=2.0)
        bits = all_bitstrings(p.num_qubits)
        batch = q.energies(bits)
        for row in range(0, bits.shape[0], 7):
            assert batch[row] == pytest.approx(q.energy(bits[row]), abs=1e-12)


class TestQuboFidelity:
    def test_valid_bitstrings_recover_physical_energy_seed13(self):
        """x^T Q x with no penalty equals the table energy of the decoded
        configuration, exactly, for every valid bitstring."""
        p = random_problem(4, 4, seed=13)
        q = build_qubo(p)
        bits = all_bitstrings(p.num_qubits)
        mask = valid_mask(bits, p)
        energies = q.energies(bits)
        for row in np.flatnonzero(mask):
            config = decode(bits[row], p)
            assert energies[row] == pytest.approx(p.energy(config), abs=1e-12)

    @given(problems(max_residues=3, max_rotamers=3))
    def test_penalty_keeps_valid_energies(self, problem):
        q0 = build_qubo(problem)
        q1 = build_qubo(problem, penalty=default_penalty(problem))
        bits = all_bitstrings(problem.num_qubits)
        mask = valid_mask(bits, problem)
        assert np.allclose(
            q0.energies(bits)[mask], q1.energies(bits)[mask], atol=1e-10
        )

    @given(problems(max_residues=3, max_rotamers=3))
    def test_default_penalty_separates(self, problem):
        """Under the default weight, every invalid bitstring costs strictly
        more than the worst valid one."""
        q = build_qubo(problem, penalty=default_penalty(problem))
        bits = all_bitstrings(problem.num_qubits)
        mask = valid_mask(bits, problem)
        energies = q.energies(bits)
        if mask.any() and (~mask).any():
            assert energies[~mask].min() > energies[mask].max()

    def test_default_penalty_hand_value(self):
        p = RotamerProblem(
            rotamer_counts=(2, 2),
            self_energies=np.array([1.0, -2.0, 0.5, 0.0]),
            pair_blocks={(0, 1): np.array([[3.0, -1.0], [0.0, 2.0]])},
        )
        # upper: max selves 1.0 + 0.5, max pair 3.0; lower: -2.0 - 1.0
        assert default_penalty(p) == pytest.approx((4.5 - (-3.0)) + 1.0)

    def test_all_zero_bitstring_is_separated(self):
        """The empty assignment skips all pair terms, so per-block penalties
        must outweigh any energy it avoids."""
        p = RotamerProblem(
            rotamer_counts=(2, 2, 2),
            self_energies=np.zeros(6),
            pair_blocks={
                (0, 1): np.full((2, 2), 5.0),
                (1, 2): np.full((2, 2), 5.0),
            },
        )
        q = build_qubo(p, penalty=default_penalty(p))
        zero = np.zeros(6, dtype=np.uint8)
        best_valid = min(
            q.energy(bits)
            for bits in all_bitstrings(6)
            if valid_mask(bits[None, :], p).all()
        )
        assert q.energy(zero) > best_valid


def random_symmetric_qubo(m: int, seed: int) -> QuboMatrix:
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, size=(m, m))
    return QuboMatrix((a + a.T) / 2.0, offset=rng.uniform(-1, 1))


class TestIsingMapping:
    def test_single_variable(self):
        q = QuboMatrix(np.array([[2.0]]), offset=0.5)
        h = qubo_to_ising(q)
        assert h.fields == pytest.approx([1.0])
        assert h.constant == pytest.approx(1.5)
        assert h.energies_of_bits([[0], [1]]) == pytest.approx(
            [q.energy([0]), q.energy([1])]
        )

    def test_dense_8x8_seed3_exhaustive(self):
        q = random_symmetric_qubo(8, seed=3)
        h = qubo_to_ising(q)
        bits = all_bitstrings(8)
        assert np.allclose(q.energies(bits), h.energies_of_bits(bits), atol=1e-12)

    @given(st.integers(1, 6), st.integers(0, 2**31 - 1))
    def test_identity_everywhere(self, m, seed):
        q = random_symmetric_qubo(m, seed)
        h = qubo_to_ising(q)
        bits = all_bitstrings(m)
        assert np.allclose(q.energies(bits), h.energies_of_bits(bits), atol=1e-10)

    def test_couplings_strictly_upper(self):
        q = random_symmetric_qubo(5, seed=8)
        h = qubo_to_ising(q)
        assert np.all(np.tril(h.couplings) == 0.0)
        with pytest.raises(ValueError, match="upper triangular"):
            IsingHamiltonian(np.ones((2, 2)), np.zeros(2), 0.0)

    def test_penalized_problem_roundtrip(self):
        p = random_problem(3, 3, seed=13)
        q = build_qubo(p, penalty=default_penalty(p))
        h = qubo_to_ising(q)
        bits = all_bitstrings(p.num_qubits)
        assert np.allclose(q.energies(bits), h.energies_of_bits(bits), atol=1e-9)


class TestEnergyTable:
    def test_matches_batch_evaluation(self):
        p = random_problem(3, 3, seed=21)
        h = qubo_to_ising(build_qubo(p, penalty=default_penalty(p)))
        table = all_bitstring_energies(h)
        bits = all_bitstrings(p.num_qubits)
        assert np.allclose(table, h.energies_of_bits(bits), atol=1e-9)

    def test_index_convention_lsb(self):
        # energy of index 1 must be the energy of bit pattern (1, 0, ...)
        q = QuboMatrix(np.diag([1.0, 10.0]))
        table = all_bitstring_energies(qubo_to_ising(q))
        assert table[1] == pytest.approx(1.0)
        assert table[2] == pytest.approx(10.0)
        assert table[3] == pytest.approx(11.0)

    def test_size_guard(self):
        h = IsingHamiltonian(np.zeros((27, 27)), np.zeros(27), 0.0)
        with pytest.raises(ValueError, match="refusing"):
            all_bitstring_energies(h)
