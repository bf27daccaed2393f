"""QUBO and Ising forms of a packing instance.

The binary cost is ``x^T Q x + offset`` over bitstrings x. Self energies sit
on the diagonal, each pair energy is split as E/2 into both symmetric
off-diagonal slots so the quadratic form counts it exactly once, and the
optional one-rotamer-per-residue penalty adds, per block,

    penalty * (sum_block x - 1)^2
        = penalty * (2 * sum_{a<b} x_a x_b - sum_block x + 1),

i.e. intra-block off-diagonals equal the penalty, the block diagonal is
shifted by -penalty, and a constant +penalty per residue lands in
``offset``. Valid bitstrings therefore keep their physical energy exactly,
while every constraint violation pays at least one penalty unit.

The spin form uses z = 1 - 2x, giving

    x^T Q x + offset = sum_{i<j} J_ij z_i z_j - sum_i h_i z_i + k .
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .problem import RotamerProblem

__all__ = [
    "QuboMatrix",
    "IsingHamiltonian",
    "build_qubo",
    "default_penalty",
    "qubo_to_ising",
    "all_bitstring_energies",
]


@dataclass(frozen=True, eq=False)
class QuboMatrix:
    """Symmetric QUBO with an additive constant."""

    matrix: np.ndarray
    offset: float = 0.0

    def __post_init__(self) -> None:
        q = np.ascontiguousarray(np.asarray(self.matrix, dtype=float))
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("QUBO matrix must be square")
        if not np.array_equal(q, q.T):
            raise ValueError("QUBO matrix must be symmetric")
        q.setflags(write=False)
        object.__setattr__(self, "matrix", q)

    def energy(self, bits: Sequence[int]) -> float:
        x = np.asarray(bits, dtype=float)
        return float(x @ self.matrix @ x + self.offset)

    def energies(self, bits: np.ndarray) -> np.ndarray:
        """Vectorized ``x^T Q x + offset`` over rows of a (S, M) bit array."""
        x = np.atleast_2d(np.asarray(bits, dtype=float))
        return np.einsum("si,ij,sj->s", x, self.matrix, x) + self.offset


def build_qubo(problem: RotamerProblem, penalty: float | None = None) -> QuboMatrix:
    """Assemble the QUBO for a problem, optionally with the one-hot penalty.

    Raises ValueError when a penalty is given but not positive.
    """
    if penalty is not None and penalty <= 0:
        raise ValueError("penalty must be positive")
    m = problem.num_qubits
    q = np.zeros((m, m))
    np.fill_diagonal(q, problem.self_energies)
    offs = problem.block_offsets
    for (i, j), table in problem.pair_blocks.items():
        oi, oj = offs[i], offs[j]
        ni, nj = table.shape
        q[oi : oi + ni, oj : oj + nj] += table / 2.0
        q[oj : oj + nj, oi : oi + ni] += table.T / 2.0
    constant = 0.0
    if penalty is not None:
        for off, n in problem.blocks:
            block = slice(off, off + n)
            q[block, block] += penalty * (1.0 - np.eye(n))
            q[block, block] -= penalty * np.eye(n)
            constant += penalty
    return QuboMatrix(matrix=q, offset=constant)


def default_penalty(problem: RotamerProblem) -> float:
    """A penalty weight guaranteed to separate invalid from valid bitstrings.

    Separation needs penalty > (max energy over valid configs) - (min of the
    unpenalized quadratic form over all bitstrings). Both extremes are
    bounded from tables alone: valid energies are at most the sum of
    per-residue self maxima plus per-block pair maxima, and the quadratic
    form is at least the sum of every table entry's negative part. Returns
    that gap plus one.
    """
    upper = sum(
        float(problem.self_energies[off : off + n].max()) for off, n in problem.blocks
    )
    upper += sum(float(t.max()) for t in problem.pair_blocks.values())
    lower = float(np.minimum(problem.self_energies, 0.0).sum())
    lower += sum(float(np.minimum(t, 0.0).sum()) for t in problem.pair_blocks.values())
    return (upper - lower) + 1.0


@dataclass(frozen=True, eq=False)
class IsingHamiltonian:
    """Spin form: energy(z) = sum_{i<j} J_ij z_i z_j - sum_i h_i z_i + k."""

    couplings: np.ndarray
    fields: np.ndarray
    constant: float

    def __post_init__(self) -> None:
        j = np.ascontiguousarray(np.asarray(self.couplings, dtype=float))
        h = np.ascontiguousarray(np.asarray(self.fields, dtype=float))
        if j.shape != (h.size, h.size):
            raise ValueError("couplings/fields dimensions disagree")
        if np.any(np.tril(j, -1) != 0.0):
            raise ValueError("couplings must be strictly upper triangular")
        j.setflags(write=False)
        h.setflags(write=False)
        object.__setattr__(self, "couplings", j)
        object.__setattr__(self, "fields", h)

    @property
    def num_spins(self) -> int:
        return int(self.fields.size)

    def energies_of_bits(self, bits: np.ndarray) -> np.ndarray:
        """Vectorized spin energy over rows of a (S, M) bit array."""
        z = 1.0 - 2.0 * np.atleast_2d(np.asarray(bits, dtype=float))
        quad = np.einsum("si,ij,sj->s", z, self.couplings, z)
        return quad - z @ self.fields + self.constant


def qubo_to_ising(q: QuboMatrix) -> IsingHamiltonian:
    """Expand x = (1 - z)/2 in ``x^T Q x + offset``.

    The coefficients fall out of the algebra: J_ij = Q_ij / 2 on the upper
    triangle (each pair appears twice in the symmetric quadratic form),
    h_i = (row sum of Q) / 2, and k collects the constant terms plus the
    QUBO's own offset. The defining identity is exact and is what tests
    check; no transcription of any closed-form coefficient table is
    involved.
    """
    mat = q.matrix
    diag = np.diag(mat)
    couplings = np.triu(mat, 1) / 2.0
    fields = mat.sum(axis=1) / 2.0
    constant = (
        float(diag.sum()) / 2.0
        + float(mat.sum() - diag.sum()) / 4.0
        + q.offset
    )
    return IsingHamiltonian(couplings=couplings, fields=fields, constant=constant)


# Largest energy table (and one-hot statevector basis) the package builds.
MAX_TABLE_SIZE = 1 << 26


def all_bitstring_energies(
    h: IsingHamiltonian, indices: np.ndarray | None = None
) -> np.ndarray:
    """Spin energies of basis states given by index, qubit 0 as the LSB.

    Without ``indices`` this is the full 2^M table, in index order. Each
    state's energy is built from its own bits, from the nonzero couplings,
    so cost is O(nnz(J) * size) rather than O(M^2 * size) and a state's
    value does not depend on which other states are tabulated with it.
    Refuses more than ``MAX_TABLE_SIZE`` states.
    """
    m = h.num_spins
    size = 1 << m if indices is None else np.size(indices)
    if size > MAX_TABLE_SIZE:
        raise ValueError(f"refusing to tabulate {size} energies")
    idx = np.arange(size) if indices is None else np.ravel(indices)
    # z_i = +1 when bit i is 0
    z = np.empty((m, size), dtype=np.int8)
    for i in range(m):
        z[i] = 1 - 2 * ((idx >> i) & 1)
    energies = np.full(size, h.constant)
    for i in range(m):
        if h.fields[i] != 0.0:
            energies -= h.fields[i] * z[i]
    rows, cols = np.nonzero(h.couplings)
    for i, j in zip(rows, cols):
        energies += h.couplings[i, j] * (z[i] * z[j])
    return energies
