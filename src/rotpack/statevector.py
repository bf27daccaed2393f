"""Statevector simulation and sampling, dense or one-hot.

A dense state is one complex array of length 2^M with qubit 0 as the
least-significant index bit. Gates act by in-place mixing of paired
amplitude slices through reshaped views; no 2^M x 2^M matrix is ever
formed, which keeps the high-twenties qubit range workable.

A one-hot state keeps only the amplitudes in which every residue block
has exactly one qubit set. That is all the xy ansatz reaches: its state
preparation and ring mixer keep each block at weight one, so the dense
state is exactly zero elsewhere. The amplitudes form a tensor of C-order
shape ``rotamer_counts[::-1]`` (the last block's axis first), so that its
flat order is the sorted order of the basis indices (``one_hot_basis``).
An ``a`` or ``xy`` gate inside one block mixes two slices along that
block's axis with the dense path's matrix entries and arithmetic, so the
amplitudes equal the dense state's on the basis, bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Sequence

import numpy as np

from .circuits import Circuit, Gate, gate_matrix, pair_matrix
from .problem import RotamerProblem
from .qubo import MAX_TABLE_SIZE

__all__ = [
    "zero_state",
    "apply_gate",
    "run_circuit",
    "one_hot_basis",
    "one_hot_state",
    "apply_one_hot_gate",
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
    if len(gate.qubits) == 1:
        matrix = gate_matrix(gate)
        q = gate.qubits[0]
        view = state.reshape(-1, 2, 1 << q)
        v0 = view[:, 0, :].copy()
        v1 = view[:, 1, :]
        view[:, 0, :] = matrix[0, 0] * v0 + matrix[0, 1] * v1
        view[:, 1, :] = matrix[1, 0] * v0 + matrix[1, 1] * v1
        return state
    lo, hi = sorted(gate.qubits)
    matrix = pair_matrix(gate, hi)
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


def _one_hot_shape(blocks: Sequence[tuple[int, int]]) -> tuple[int, ...]:
    """Tensor shape of a one-hot state; refuses a basis too large to hold."""
    counts = [n for _, n in blocks]
    size = math.prod(counts)
    if size > MAX_TABLE_SIZE:
        raise ValueError(
            f"one-hot basis of {size} configurations exceeds {MAX_TABLE_SIZE}"
        )
    if max(o + n for o, n in blocks) > 63:
        raise ValueError("one-hot basis indices need at most 63 qubits")
    return tuple(reversed(counts))


def one_hot_basis(blocks: Sequence[tuple[int, int]]) -> np.ndarray:
    """Basis index of each flat position of a one-hot state, ascending.

    ``blocks`` are the residues' (offset, size) in register order.
    """
    _one_hot_shape(blocks)
    # the last block's bits vary slowest, as in the tensor's C order
    bits = [
        np.left_shift(1, off + np.arange(n, dtype=np.int64))
        for off, n in reversed(blocks)
    ]
    return functools.reduce(np.add.outer, bits).ravel()


def apply_one_hot_gate(
    state: np.ndarray, gate: Gate, blocks: Sequence[tuple[int, int]]
) -> np.ndarray:
    """Apply an ``a`` or ``xy`` gate inside one block in place; return the state."""
    if gate.kind not in ("a", "xy"):
        raise ValueError(f"a one-hot state takes a and xy gates, not {gate.kind}")
    if state.shape != tuple(n for _, n in reversed(blocks)):
        raise ValueError("state shape does not match the blocks")
    lo, hi = sorted(gate.qubits)
    matrix = pair_matrix(gate, hi)
    for i, (off, n) in enumerate(blocks):
        if off <= lo and hi < off + n:
            break
    else:
        raise ValueError(f"gate {gate} does not act inside one block")
    axis = len(blocks) - 1 - i
    view = state.reshape(math.prod(state.shape[:axis]), n, -1)
    v1 = view[:, lo - off, :].copy()
    v2 = view[:, hi - off, :].copy()
    # rows (0, 1) and (1, 0) of the pair matrix; the 0 * v0 term the dense
    # path adds is an exact zero here: v0 is the block's empty state
    view[:, lo - off, :] = matrix[1, 1] * v1 + matrix[1, 2] * v2
    view[:, hi - off, :] = matrix[2, 1] * v1 + matrix[2, 2] * v2
    return state


def one_hot_state(circuit: Circuit, blocks: Sequence[tuple[int, int]]) -> np.ndarray:
    """Run a circuit from |0...0> as a one-hot state.

    The circuit opens with ``x`` gates that set one qubit of every block,
    the starting configuration; every later gate is an ``a`` or ``xy``
    gate inside one block.
    """
    shape = _one_hot_shape(blocks)
    if circuit.num_qubits != max(o + n for o, n in blocks):
        raise ValueError("circuit width does not match the blocks")
    excited = [
        g.qubits[0] for g in itertools.takewhile(lambda g: g.kind == "x", circuit.gates)
    ]
    start = []
    for off, n in blocks:
        hits = [q - off for q in excited if off <= q < off + n]
        if len(hits) != 1:
            raise ValueError("x gates must set exactly one qubit of every block")
        start.append(hits[0])
    state = np.zeros(shape, dtype=complex)
    state[tuple(reversed(start))] = 1.0
    for gate in circuit.gates[len(excited) :]:
        apply_one_hot_gate(state, gate, blocks)
    if circuit.phase != 0.0:
        state *= np.exp(1j * circuit.phase)
    return state


def bits_from_indices(indices: np.ndarray, num_qubits: int) -> np.ndarray:
    """Basis-state indices to a (S, M) bit array, column q = qubit q."""
    indices = np.asarray(indices)
    return ((indices[:, None] >> np.arange(num_qubits)) & 1).astype(np.uint8)


def sample_state(
    state: np.ndarray,
    shots: int,
    rng: np.random.Generator,
    blocks: Sequence[tuple[int, int]] | None = None,
) -> np.ndarray:
    """Draw measurement outcomes; returns a (shots, M) bit array.

    With ``blocks``, ``state`` is a one-hot state over those residue
    blocks and each drawn position maps to its basis index.
    Deterministic for a given generator state. Probabilities are
    renormalized to absorb float drift from long circuits.
    """
    if shots < 1:
        raise ValueError("need at least one shot")
    if blocks is None:
        m, basis = _num_qubits(state), None
    else:
        m, basis = max(o + n for o, n in blocks), one_hot_basis(blocks)
        if basis.size != state.size:
            raise ValueError("state size does not match the blocks")
    probs = np.abs(state.ravel()) ** 2
    probs /= probs.sum()
    positions = rng.choice(probs.size, size=shots, p=probs)
    return bits_from_indices(positions if basis is None else basis[positions], m)


def invalid_mass(state: np.ndarray, problem: RotamerProblem) -> float:
    """Total probability outside the one-rotamer-per-residue subspace."""
    m = _num_qubits(state)
    if problem.num_qubits != m:
        raise ValueError("state and problem widths disagree")
    invalid = np.ones(state.size, dtype=bool)
    invalid[one_hot_basis(problem.blocks)] = False
    probs = np.abs(state) ** 2
    return float(probs[invalid].sum())
