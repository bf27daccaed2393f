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
The xy ring mixer is prepared once per trajectory (``one_hot_mixer``):
its gate order and the rows each gate mixes are fixed, and only the
matrix entries for beta are computed per layer, so the prepared mixer
keeps the bit-for-bit match.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Sequence

import numpy as np

from .circuits import Circuit, Gate, build_mixer, gate_matrix, pair_matrix
from .problem import RotamerProblem
from .qubo import MAX_TABLE_SIZE

__all__ = [
    "zero_state",
    "apply_gate",
    "run_circuit",
    "one_hot_basis",
    "one_hot_state",
    "apply_one_hot_gate",
    "one_hot_mixer",
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


def _block_rows(
    gate: Gate, blocks: Sequence[tuple[int, int]]
) -> tuple[tuple[int, int, int], int, int]:
    """Where a two-qubit gate acts on a one-hot state: the (before, block,
    after) reshape that puts its block's axis in the middle, and the rows
    of its lower and higher qubit on that axis."""
    lo, hi = sorted(gate.qubits)
    for i, (off, n) in enumerate(blocks):
        if off <= lo and hi < off + n:
            break
    else:
        raise ValueError(f"gate {gate} does not act inside one block")
    # the tensor's axes run from the last block to the first
    before = math.prod(c for _, c in blocks[i + 1 :])
    after = math.prod(c for _, c in blocks[:i])
    return (before, n, after), lo - off, hi - off


def _weight_one_entries(matrix: np.ndarray) -> tuple[np.complex128, ...]:
    """Entries (1, 1), (1, 2), (2, 1), (2, 2) of a 4x4 pair matrix: its
    rows and columns for |01> and |10>, the states of weight one."""
    return tuple(matrix[1:3, 1:3].ravel())


def _mix_rows(
    view: np.ndarray, lo: int, hi: int, entries: tuple[np.complex128, ...]
) -> None:
    """Mix rows ``lo`` and ``hi`` of a (before, block, after) view in place
    by the weight-one entries of a pair matrix whose higher qubit is ``hi``.

    The 0 * v0 term the dense path adds is an exact zero here: v0 is the
    block's empty state.
    """
    m11, m12, m21, m22 = entries
    v1 = view[:, lo, :].copy()
    v2 = view[:, hi, :].copy()
    view[:, lo, :] = m11 * v1 + m12 * v2
    view[:, hi, :] = m21 * v1 + m22 * v2


def _check_one_hot_shape(state: np.ndarray, blocks: Sequence[tuple[int, int]]) -> None:
    if state.shape != tuple(n for _, n in reversed(blocks)):
        raise ValueError("state shape does not match the blocks")


def apply_one_hot_gate(
    state: np.ndarray, gate: Gate, blocks: Sequence[tuple[int, int]]
) -> np.ndarray:
    """Apply an ``a`` or ``xy`` gate inside one block in place; return the state."""
    if gate.kind not in ("a", "xy"):
        raise ValueError(f"a one-hot state takes a and xy gates, not {gate.kind}")
    _check_one_hot_shape(state, blocks)
    dims, lo, hi = _block_rows(gate, blocks)
    matrix = pair_matrix(gate, max(gate.qubits))
    _mix_rows(state.reshape(dims), lo, hi, _weight_one_entries(matrix))
    return state


def one_hot_mixer(
    blocks: Sequence[tuple[int, int]],
) -> Callable[[np.ndarray, float], np.ndarray]:
    """The xy ring mixer on a one-hot state, prepared once.

    Returns ``apply(state, beta)``, which applies the gates of
    ``build_mixer("xy", blocks, beta)`` in place, in their order and with
    ``apply_one_hot_gate``'s arithmetic, and returns the state. The gate
    order and each gate's rows are fixed here; per call, the four matrix
    entries come from one ``gate_matrix``. An xy matrix is unchanged, bit
    for bit, when its two qubits swap roles, so one matrix serves every
    gate whichever qubit is listed first.
    """
    steps = [_block_rows(g, blocks) for g in build_mixer("xy", blocks, 0.0).gates]

    def apply(state: np.ndarray, beta: float) -> np.ndarray:
        _check_one_hot_shape(state, blocks)
        entries = _weight_one_entries(gate_matrix(Gate("xy", (0, 1), (beta,))))
        for dims, lo, hi in steps:
            _mix_rows(state.reshape(dims), lo, hi, entries)
        return state

    return apply


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
    basis: np.ndarray | None = None,
) -> np.ndarray:
    """Draw measurement outcomes; returns a (shots, M) bit array.

    With ``basis`` (from ``one_hot_basis``), ``state`` is a one-hot state
    and each drawn position maps to its basis index; M is the bit length
    of the largest index, which sets the last block's last qubit.
    Deterministic for a given generator state. Probabilities are
    renormalized to absorb float drift from long circuits.
    """
    if shots < 1:
        raise ValueError("need at least one shot")
    if basis is None:
        m = _num_qubits(state)
    else:
        m = int(basis[-1]).bit_length()
        if basis.size != state.size:
            raise ValueError("state size does not match the basis")
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
