"""Dense statevector simulation and sampling.

Amplitudes live in one complex array of length 2^M with qubit 0 as the
least-significant index bit. Gates act by in-place mixing of paired
amplitude slices through reshaped views; no 2^M x 2^M matrix is ever
formed, which keeps the high-twenties qubit range workable.
"""

from __future__ import annotations

import numpy as np

from .circuits import Circuit, Gate, gate_matrix
from .problem import RotamerProblem

__all__ = [
    "zero_state",
    "apply_gate",
    "run_circuit",
    "sample_state",
    "bits_from_indices",
    "invalid_mass",
]


def zero_state(num_qubits: int) -> np.ndarray:
    state = np.zeros(1 << num_qubits, dtype=complex)
    state[0] = 1.0
    return state


def _num_qubits(state: np.ndarray) -> int:
    m = int(state.size).bit_length() - 1
    if 1 << m != state.size:
        raise ValueError("state length is not a power of two")
    return m


def apply_gate(state: np.ndarray, gate: Gate) -> np.ndarray:
    """Apply one gate in place and return the state."""
    m = _num_qubits(state)
    if any(q >= m for q in gate.qubits):
        raise IndexError(f"gate {gate} out of range for {m} qubits")
    matrix = gate_matrix(gate)
    if len(gate.qubits) == 1:
        q = gate.qubits[0]
        view = state.reshape(-1, 2, 1 << q)
        v0 = view[:, 0, :].copy()
        v1 = view[:, 1, :]
        view[:, 0, :] = matrix[0, 0] * v0 + matrix[0, 1] * v1
        view[:, 1, :] = matrix[1, 0] * v0 + matrix[1, 1] * v1
        return state
    qa, qb = gate.qubits
    hi, lo = max(qa, qb), min(qa, qb)
    if qa != hi:
        # gate matrix indexes the first listed qubit as the high bit of the
        # pair; flip its qubit roles when the first listed qubit is the low one
        matrix = matrix.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    view = state.reshape(-1, 2, (1 << hi) // (2 << lo), 2, 1 << lo)
    v = [
        view[:, 0, :, 0, :].copy(),
        view[:, 0, :, 1, :].copy(),
        view[:, 1, :, 0, :].copy(),
        view[:, 1, :, 1, :].copy(),
    ]
    for row, (bh, bl) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        acc = matrix[row, 0] * v[0]
        for col in range(1, 4):
            if matrix[row, col] != 0.0:
                acc = acc + matrix[row, col] * v[col]
        view[:, bh, :, bl, :] = acc
    return state


def run_circuit(circuit: Circuit, initial: np.ndarray | None = None) -> np.ndarray:
    """Run all gates from |0...0> (or a supplied state, which is copied)."""
    state = zero_state(circuit.num_qubits) if initial is None else initial.astype(
        complex, copy=True
    )
    if state.size != 1 << circuit.num_qubits:
        raise ValueError("initial state size does not match circuit width")
    for gate in circuit.gates:
        apply_gate(state, gate)
    if circuit.phase != 0.0:
        state *= np.exp(1j * circuit.phase)
    return state


def bits_from_indices(indices: np.ndarray, num_qubits: int) -> np.ndarray:
    """Basis-state indices to a (S, M) bit array, column q = qubit q."""
    indices = np.asarray(indices)
    return ((indices[:, None] >> np.arange(num_qubits)) & 1).astype(np.uint8)


def sample_state(
    state: np.ndarray, shots: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw measurement outcomes; returns a (shots, M) bit array.

    Deterministic for a given generator state. Probabilities are
    renormalized to absorb float drift from long circuits.
    """
    if shots < 1:
        raise ValueError("need at least one shot")
    m = _num_qubits(state)
    probs = np.abs(state) ** 2
    probs /= probs.sum()
    indices = rng.choice(state.size, size=shots, p=probs)
    return bits_from_indices(indices, m)


def invalid_mass(state: np.ndarray, problem: RotamerProblem) -> float:
    """Total probability outside the one-rotamer-per-residue subspace."""
    m = _num_qubits(state)
    if problem.num_qubits != m:
        raise ValueError("state and problem widths disagree")
    idx = np.arange(state.size)
    valid = np.ones(state.size, dtype=bool)
    for off, n in problem.blocks:
        weight = np.zeros(state.size, dtype=np.int32)
        for q in range(off, off + n):
            weight += (idx >> q) & 1
        valid &= weight == 1
    probs = np.abs(state) ** 2
    return float(probs[~valid].sum())
