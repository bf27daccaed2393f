"""Statevector simulation and sampling, dense or one-hot.

A dense state is one complex array of length 2^M with qubit 0 as the
least-significant index bit. Gates act by in-place mixing of paired
amplitude slices through reshaped views; no 2^M x 2^M matrix is ever
formed, which keeps the high-twenties qubit range workable.
The baseline and penalty ansatz is prepared once per ensemble
(``transverse_ansatz``) and runs in real arithmetic. RX(2 beta) =
S^dag RY(2 beta) S with S = diag(1, i) and RY real, and the cost layer is
diagonal, so it commutes with S: the layers run on S|psi>, and the state
leaves that frame once per circuit, by one multiply with
S^dag = diag((-i)^popcount(x)); a circuit of one layer never enters it. The first layer is built in closed form,
since the start is a basis state: the cost layer is a global phase
there, and the mixer gives a product state, which fills the state by
doubling over the qubits with no gate pass. Each later mixer applies
RY(2 beta) to ``MIXER_GROUP`` qubits at once, one real matmul by the
Kronecker power of RY per group on the state's float64 view, so a layer
passes over the state a third as often as gate by gate, at half the
products a complex factor takes. The cost layer is prepared once per
ensemble too (``cost_phase``): its phases fill a table by doubling over
the qubits from the Ising terms, so no energy table over the 2^M basis
states is formed and no phase is an exp of its own. They match
exp(-i gamma E) to round-off, and the ansatz's amplitudes match the
gates' to round-off, not bit for bit. Both refuse a register of more
than ``MAX_TABLE_SIZE`` amplitudes before allocating anything.

A one-hot state keeps only the amplitudes in which every residue block
has exactly one qubit set. That is all the xy ansatz reaches: its state
preparation and ring mixer keep each block at weight one, so the dense
state is exactly zero elsewhere. The amplitudes form a tensor of C-order
shape ``rotamer_counts[::-1]`` (the last block's axis first), so that its
flat order is the sorted order of the basis indices (``one_hot_basis``).
An ``a`` or ``xy`` gate inside one block mixes two slices along that
block's axis with the dense path's matrix entries and arithmetic, so the
amplitudes equal the dense state's on the basis, bit for bit.
The xy ring mixer is prepared once per ensemble (``one_hot_mixer``).
Gates of different blocks commute, so each block's ring is one n x n
unitary on its axis, built per layer once per ring size by
``circuits.ring_mixer``, the helper the MPS chain builds its ring from
too, and applied with one matmul per block. Its amplitudes match the
gates' to round-off, not bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Sequence

import numpy as np

from .circuits import Circuit, Gate, angle_pairs, gate_matrix, pair_matrix, ring_mixer
from .problem import MAX_TABLE_SIZE, RotamerProblem
from .qubo import IsingHamiltonian

__all__ = [
    "zero_state",
    "apply_gate",
    "run_circuit",
    "one_hot_basis",
    "one_hot_state",
    "apply_one_hot_gate",
    "one_hot_mixer",
    "cost_phase",
    "transverse_ansatz",
    "sample_state",
    "bits_from_indices",
    "invalid_mass",
]


# Qubits per Kronecker factor of the transverse-field mixer. A group of k
# costs 2^k real products per float in one pass over the state; on one core
# at M = 18, k = 3 took 3.5 to 3.9 ms per layer, k = 4 and 5 about 4.3 ms
# and k = 2 5.4 ms.
MIXER_GROUP = 3

# The most floats of a row one matmul of the mixer takes: at M = 18 one
# 8 x 65536 product took 0.69 ms, eight 8 x 8192 ones 0.43 ms.
MIXER_BLOCK = 8192


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
    ``build_mixer("xy", blocks, beta)`` in place and returns the state,
    a C-contiguous complex128 array of the blocks' shape. Gates of
    different blocks commute, so each block's ring acts as one n x n
    unitary on its axis, the matrix ``circuits.ring_mixer`` builds, as on
    the MPS chain. Each ring size's colors are fixed here; per call, each
    distinct size's unitary is built once and applied to each of its
    blocks with one matmul, alternating between the state and a scratch
    array this closure owns. The amplitudes match the gates' to
    round-off, not bit for bit.
    """
    rings = {n: ring_mixer(n) for n in {n for _, n in blocks}}
    scratch = np.empty(_one_hot_shape(blocks), dtype=complex)
    # each block's (before, block, after) view of the tensor, whose axes
    # run from the last block to the first
    steps = []
    for i, (_, n) in enumerate(blocks):
        before = math.prod(c for _, c in blocks[i + 1 :])
        after = math.prod(c for _, c in blocks[:i])
        steps.append((n, (before, n, after)))

    def apply(state: np.ndarray, beta: float) -> np.ndarray:
        _check_one_hot_shape(state, blocks)
        if not (state.dtype == np.complex128 and state.flags.c_contiguous):
            raise ValueError("the mixer takes a C-contiguous complex128 state")
        unitaries = {n: ring(beta) for n, ring in rings.items()}
        src, dst = state, scratch
        for n, dims in steps:
            if dims[2] == 1:
                # the first block's axis is the last: one product of rows,
                # not a matrix-vector product per row
                rows = dims[:2]
                np.matmul(src.reshape(rows), unitaries[n].T, out=dst.reshape(rows))
            else:
                np.matmul(unitaries[n], src.reshape(dims), out=dst.reshape(dims))
            src, dst = dst, src
        if len(steps) % 2:
            np.copyto(state, scratch)
        return state

    return apply


def _opening_x(circuit: Circuit) -> list[int]:
    """Qubits of the ``x`` gates a circuit opens with: the qubits its
    starting configuration sets."""
    return [
        g.qubits[0] for g in itertools.takewhile(lambda g: g.kind == "x", circuit.gates)
    ]


def cost_phase(h: IsingHamiltonian) -> Callable[[np.ndarray, float], np.ndarray]:
    """The cost layer exp(-i gamma H) on a dense state, prepared once.

    Returns ``apply(state, gamma)``, which multiplies every amplitude of a
    dense state in place by exp(-i gamma E(x)), E being ``h``'s energy of
    basis state x, and returns the state. No energy table is formed and
    no phase is an exp of its own: the phases fill a table this closure
    owns by doubling over the qubits. T[0] = exp(-i gamma E(0)), and for
    x < 2^q, T[2^q + x] = T[x] C_q(x), where C_q(x) is the phase of the
    energy change from setting bit q,

        2 h_q - 2 sum_{j != q} J_qj + 4 sum_{j < q, bit j of x set} J_jq .

    C_q fills the table's half it multiplies into by the same doubling,
    over the qubits j < q, from the phases of those terms. A layer takes
    O(M^2) scalar exps and about 3 * 2^M complex products, and its phases
    equal exp(-i gamma E) to round-off, not bit for bit. A register of
    more than ``MAX_TABLE_SIZE`` amplitudes is refused before the table
    is allocated.
    """
    m = h.num_spins
    if 1 << m > MAX_TABLE_SIZE:
        raise ValueError(
            f"a dense state of {1 << m} amplitudes exceeds the limit of {MAX_TABLE_SIZE}"
        )
    couplings = h.couplings + h.couplings.T
    start = h.couplings.sum() - h.fields.sum() + h.constant
    flips = 2.0 * h.fields - 2.0 * couplings.sum(axis=1)
    table = np.empty(1 << m, dtype=complex)

    def apply(state: np.ndarray, gamma: float) -> np.ndarray:
        if state.shape != table.shape:
            raise ValueError(f"the cost layer takes a state of {table.size} amplitudes")
        flip = np.exp(-1j * gamma * flips)
        pair = np.exp(-4j * gamma * h.couplings)
        table[0] = np.exp(-1j * gamma * start)
        for q in range(m):
            n = 1 << q
            half = table[n : 2 * n]
            half[0] = flip[q]
            for j in range(q):
                np.multiply(half[: 1 << j], pair[j, q], out=half[1 << j : 2 << j])
            half *= table[:n]
        state *= table
        return state

    return apply


def transverse_ansatz(
    circuit: Circuit, h: IsingHamiltonian
) -> Callable[[np.ndarray, Sequence[float]], np.ndarray]:
    """The baseline and penalty QAOA ansatz on a dense state, prepared once.

    ``circuit`` holds only ``x`` gates (``build_initial_state`` for the
    baseline and penalty regimes), so it prepares one basis state |b>;
    ``h`` is the cost Hamiltonian. Returns ``evolve(state, params)``,
    which fills ``state`` in place with the ansatz at the 2p angles
    (gamma_1, beta_1, ..., gamma_p, beta_p), each layer the cost layer
    exp(-i gamma H) and then RX(2 beta) on every qubit, applied to |b>,
    and returns it. ``state`` must be a C-contiguous complex128 array of
    2^M amplitudes. A register of more than ``MAX_TABLE_SIZE`` amplitudes
    is refused here, before anything is allocated.

    RX(2 beta) = S^dag RY(2 beta) S with S = diag(1, i) and RY real, and
    the cost layer commutes with S, so the layers run on S|psi> and the
    state leaves that frame once, at the end. The first layer is built in
    closed form: on |b> the cost layer is the global phase
    exp(-i gamma E(b)) and the mixer gives the product of each qubit's RX
    column for its bit, the second entry times i in the frame, which
    fills the state by doubling over the qubits. A circuit of one layer
    stays out of the frame: its i factors and the S^dag pass are left
    out. Each later layer is
    ``cost_phase``'s, then RY(2 beta) on ``MIXER_GROUP`` qubits at a
    time, one real matmul by the Kronecker power of RY per group on the
    state's float64 view, which carries each amplitude's real and
    imaginary parts alike. The mixer alternates between the state and a
    scratch array this closure owns; at the end the scratch array is
    filled with S^dag = diag((-i)^popcount(x)) by doubling, and the state
    multiplied by it. Each amplitude sums 2^k products where the gates
    sum two at a time, so the result equals the gates' to round-off, not
    bit for bit.
    """
    m = circuit.num_qubits
    excited = _opening_x(circuit)
    if len(excited) != len(circuit.gates):
        raise ValueError("the ansatz starts from a circuit of x gates only")
    if h.num_spins != m:
        raise ValueError(f"the ansatz takes a Hamiltonian of {m} spins")
    start = 0
    for q in excited:
        start ^= 1 << q
    bits = [(start >> q) & 1 for q in range(m)]
    energy = float(h.energies_of_bits(np.array(bits))[0])
    # refuses a register past MAX_TABLE_SIZE before anything of its size exists
    cost = cost_phase(h)
    # view the float state as (higher qubits, the group's k qubits, lower
    # qubits with each amplitude's real and imaginary parts), the last axis
    # cut into blocks of at most MIXER_BLOCK floats
    steps = []
    for lo in range(0, m, MIXER_GROUP):
        k = min(MIXER_GROUP, m - lo)
        block = min(2 << lo, MIXER_BLOCK)
        steps.append((k, (1 << (m - lo - k), 1 << k, (2 << lo) // block, block)))
    scratch = np.empty(1 << m, dtype=complex)

    def mix(state: np.ndarray, beta: float) -> None:
        c, s = math.cos(beta), math.sin(beta)
        ry = np.array([[c, -s], [s, c]])
        # powers[k - 1]: RY(2 beta) on each of k qubits
        powers = list(itertools.accumulate([ry] * MIXER_GROUP, np.kron))
        src, dst = state.view(float), scratch.view(float)
        for k, shape in steps:
            if shape[3] == 2:
                # qubit 0 is in the group: multiply the rows, re and im alike
                rows = (shape[0], 2 * shape[1])
                lowest = np.kron(powers[k - 1], np.eye(2)).T
                np.matmul(src.reshape(rows), lowest, out=dst.reshape(rows))
            else:
                # the group's axis against each block of columns
                blocks = (0, 2, 1, 3)
                np.matmul(
                    powers[k - 1],
                    src.reshape(shape).transpose(blocks),
                    out=dst.reshape(shape).transpose(blocks),
                )
            src, dst = dst, src
        if len(steps) % 2:
            np.copyto(state, scratch)

    def evolve(state: np.ndarray, params: Sequence[float]) -> np.ndarray:
        if not (
            isinstance(state, np.ndarray)
            and state.dtype == np.complex128
            and state.shape == scratch.shape
            and state.flags.c_contiguous
        ):
            raise ValueError(
                f"the ansatz fills a C-contiguous complex128 state of {scratch.size}"
                " amplitudes"
            )
        (gamma, beta), *rest = angle_pairs(params)
        rx = gate_matrix(Gate("rx", (0,), (2.0 * beta,)))
        # a one-layer circuit never enters the frame
        frame = 1j if rest else 1.0
        state[0] = np.exp(1j * (circuit.phase - gamma * energy))
        for q, b in enumerate(bits):
            n = 1 << q
            # amplitudes with qubit q set, then those with it clear
            np.multiply(state[:n], frame * rx[1, b], out=state[n : 2 * n])
            state[:n] *= rx[0, b]
        if not rest:
            return state
        for gamma, beta in rest:
            cost(state, gamma)
            mix(state, beta)
        # leave the frame: S^dag multiplies by -i per qubit set
        scratch[0] = 1.0
        for q in range(m):
            n = 1 << q
            np.multiply(scratch[:n], -1j, out=scratch[n : 2 * n])
        state *= scratch
        return state

    return evolve


def one_hot_state(circuit: Circuit, blocks: Sequence[tuple[int, int]]) -> np.ndarray:
    """Run a circuit from |0...0> as a one-hot state.

    The circuit opens with ``x`` gates that set one qubit of every block,
    the starting configuration; every later gate is an ``a`` or ``xy``
    gate inside one block.
    """
    shape = _one_hot_shape(blocks)
    if circuit.num_qubits != max(o + n for o, n in blocks):
        raise ValueError("circuit width does not match the blocks")
    excited = _opening_x(circuit)
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
    renormalized to absorb float drift from long circuits. The draw is the
    inverse CDF that ``rng.choice(size, shots, p=probs)`` computes, so it
    takes the same numbers from ``rng`` and gives the same positions, but
    without that call's O(size) checks of ``probs``; a state whose norm is
    zero or not finite is refused.
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
    total = probs.sum()
    if not 0.0 < total < math.inf:
        raise ValueError(f"cannot sample a state of squared norm {total}")
    probs /= total
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    positions = cdf.searchsorted(rng.random(shots), side="right")
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
