"""Gate-level circuit IR and QAOA ansatz construction.

Gates are immutable (kind, qubits, params) records; a circuit is an ordered
gate list plus a tracked global-phase angle (constant cost terms never
become gates). Qubit 0 is the least-significant bit of basis-state indices
everywhere in the package. In every two-qubit matrix the first listed qubit
is the more significant bit of the 4x4 basis index.

Three ansatz regimes are supported:

``baseline``
    Unpenalized cost, transverse-field mixer, and rotamer 0 of every
    residue as the initial state.
``penalty``
    One-hot-penalized cost, transverse-field mixer, same initial state.
``xy``
    Unpenalized cost, per-residue ring XY mixer, and an initial state that
    spreads each block over its weight-one subspace with a cascade of
    two-qubit A rotations. Block weight is conserved by construction, so
    every sample is a valid rotamer choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .problem import RotamerProblem
from .qubo import IsingHamiltonian, build_qubo, default_penalty, qubo_to_ising

__all__ = [
    "Gate",
    "Circuit",
    "REGIMES",
    "gate_matrix",
    "build_cost_unitary",
    "build_mixer",
    "build_initial_state",
    "assemble_ansatz",
    "ansatz_hamiltonian",
    "ring_edge_colors",
]

REGIMES = ("baseline", "penalty", "xy")

# kind -> (arity, parameter count)
_GATE_SHAPES = {
    "x": (1, 0),
    "rz": (1, 1),
    "rx": (1, 1),
    "rzz": (2, 1),
    "xy": (2, 1),
    "a": (2, 2),
    "cx": (2, 0),
}

# CNOT cost of each two-qubit kind in the depth accounting.
CNOT_COST = {"rzz": 2, "xy": 2, "a": 3, "cx": 1}

# Kinds diagonal in the computational basis; gates of these kinds commute.
DIAGONAL_KINDS = frozenset({"rz", "rzz"})


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _GATE_SHAPES:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        arity, nparams = _GATE_SHAPES[self.kind]
        qubits = tuple(int(q) for q in self.qubits)
        params = tuple(float(p) for p in self.params)
        if len(qubits) != arity:
            raise ValueError(f"{self.kind} takes {arity} qubit(s), got {qubits}")
        if min(qubits, default=0) < 0:
            raise ValueError(f"{self.kind} qubits {qubits} out of range: negative")
        if arity == 2 and qubits[0] == qubits[1]:
            raise ValueError("two-qubit gate needs distinct qubits")
        if len(params) != nparams:
            raise ValueError(f"{self.kind} takes {nparams} parameter(s)")
        object.__setattr__(self, "qubits", qubits)
        object.__setattr__(self, "params", params)

    @property
    def is_two_qubit(self) -> bool:
        return len(self.qubits) == 2


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list with a global phase and a state-prep prefix marker.

    ``gates[:prep_len]`` prepare the initial state; the rest is the
    variational part. The circuit's unitary action carries an overall
    factor exp(i * phase).
    """

    num_qubits: int
    gates: tuple[Gate, ...]
    prep_len: int = 0
    phase: float = 0.0

    def __post_init__(self) -> None:
        gates = tuple(self.gates)
        for g in gates:
            if any(q >= self.num_qubits for q in g.qubits):
                raise ValueError(f"gate {g} out of range for {self.num_qubits} qubits")
        if not 0 <= self.prep_len <= len(gates):
            raise ValueError("prep_len out of range")
        object.__setattr__(self, "gates", gates)

    @property
    def variational_gates(self) -> tuple[Gate, ...]:
        return self.gates[self.prep_len :]


def _rz(theta: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


def gate_matrix(gate: Gate) -> np.ndarray:
    """Unitary matrix of a gate (2x2 or 4x4, first listed qubit = MSB)."""
    kind = gate.kind
    if kind == "x":
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if kind == "rz":
        return _rz(gate.params[0])
    if kind == "rx":
        (theta,) = gate.params
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if kind == "rzz":
        (theta,) = gate.params
        lo, hi = np.exp(-0.5j * theta), np.exp(0.5j * theta)
        return np.diag([lo, hi, hi, lo])
    if kind == "xy":
        # exp(-i * beta * (XX + YY) / 2): a rotation inside span{|01>, |10>}
        (beta,) = gate.params
        c, s = math.cos(beta), math.sin(beta)
        out = np.eye(4, dtype=complex)
        out[1, 1] = out[2, 2] = c
        out[1, 2] = out[2, 1] = -1j * s
        return out
    if kind == "a":
        theta, phi = gate.params
        c, s = math.cos(theta), math.sin(theta)
        out = np.eye(4, dtype=complex)
        out[1, 1] = c
        out[1, 2] = np.exp(1j * phi) * s
        out[2, 1] = np.exp(-1j * phi) * s
        out[2, 2] = -c
        return out
    if kind == "cx":
        out = np.eye(4, dtype=complex)
        out[[2, 3]] = out[[3, 2]]
        return out
    raise ValueError(f"unknown gate kind {kind!r}")


def pair_matrix(gate: Gate, high: int) -> np.ndarray:
    """A two-qubit gate's 4x4 matrix with qubit ``high`` as the more
    significant bit."""
    matrix = gate_matrix(gate)
    if gate.qubits[0] == high:
        return matrix
    # gate_matrix takes the first listed qubit as the more significant bit;
    # swap the two qubits' roles in both the row and the column index
    return matrix.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)


# ---------------------------------------------------------------------------
# Fragment builders


def build_cost_unitary(h: IsingHamiltonian, gamma: float) -> Circuit:
    """Exact evolution exp(-i * gamma * H) as RZ and RZZ gates.

    One RZ per nonzero field, one RZZ per nonzero coupling in lexicographic
    order, plus a global-phase contribution from the constant. The RZ angle
    is -2*gamma*h_i because fields enter the spin energy with a minus sign.
    """
    gates: list[Gate] = []
    for i in range(h.num_spins):
        if h.fields[i] != 0.0:
            gates.append(Gate("rz", (i,), (-2.0 * gamma * h.fields[i],)))
    rows, cols = np.nonzero(h.couplings)
    for i, j in zip(rows.tolist(), cols.tolist()):
        gates.append(Gate("rzz", (i, j), (2.0 * gamma * h.couplings[i, j],)))
    return Circuit(
        num_qubits=h.num_spins,
        gates=tuple(gates),
        phase=-gamma * h.constant,
    )


def ring_edge_colors(size: int) -> list[list[tuple[int, int]]]:
    """Edges of a block-internal mixer ring, grouped into parallel colors.

    A two-node block has a single edge (a ring would duplicate it). Even
    rings take two colors, odd rings three (the wrap edge is the third).
    """
    if size < 2:
        raise ValueError("ring needs at least 2 nodes")
    if size == 2:
        return [[(0, 1)]]
    edges = [(j, (j + 1) % size) for j in range(size)]
    if size % 2 == 0:
        return [edges[0::2], edges[1::2]]
    return [edges[0 : size - 2 : 2], edges[1 : size - 1 : 2], [edges[-1]]]


def build_mixer(
    regime: str,
    blocks: Sequence[tuple[int, int]],
    beta: float,
) -> Circuit:
    """One mixer application exp(-i * beta * H_M).

    Transverse-field regimes place RX(2*beta) on every qubit. The xy regime
    places XY(beta) on each block's ring edges, emitted color by color so
    the scheduler packs each color into one layer.
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    m = max(o + n for o, n in blocks)
    gates: list[Gate] = []
    if regime in ("baseline", "penalty"):
        gates = [Gate("rx", (q,), (2.0 * beta,)) for q in range(m)]
        return Circuit(num_qubits=m, gates=tuple(gates))
    if any(n < 2 for _, n in blocks):
        raise ValueError("xy regime needs at least 2 rotamers per residue")
    colorings = [ring_edge_colors(n) for _, n in blocks]
    max_colors = max(len(c) for c in colorings)
    for color in range(max_colors):
        for (off, _), colors in zip(blocks, colorings):
            if color < len(colors):
                for a, b in colors[color]:
                    gates.append(Gate("xy", (off + a, off + b), (beta,)))
    return Circuit(num_qubits=m, gates=tuple(gates))


def build_initial_state(
    regime: str,
    blocks: Sequence[tuple[int, int]],
) -> Circuit:
    """State preparation fragment for a regime.

    Transverse-field regimes start from one valid bitstring: rotamer 0 of
    every residue, an X on each block's first qubit. The xy regime excites
    the same qubits and spreads each excitation down its block with
    A(pi/4, 0) gates on consecutive pairs, leaving a weight-one
    superposition with all-positive amplitudes. Cascade steps are
    interleaved across blocks so step k of every block shares a layer.
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    m = max(o + n for o, n in blocks)
    gates = [Gate("x", (off,)) for off, _ in blocks]
    if regime == "xy":
        max_n = max(n for _, n in blocks)
        for k in range(max_n - 1):
            for off, n in blocks:
                if k + 1 < n:
                    # new qubit listed first: keeps the spread amplitudes positive
                    gates.append(
                        Gate("a", (off + k + 1, off + k), (math.pi / 4.0, 0.0))
                    )
    return Circuit(num_qubits=m, gates=tuple(gates))


# ---------------------------------------------------------------------------
# Full ansatz


def ansatz_hamiltonian(
    problem: RotamerProblem, regime: str, penalty: float | None = None
) -> IsingHamiltonian:
    """The spin Hamiltonian a regime's ansatz evolves under.

    Only the penalty regime is penalized; ``penalty`` applies to it alone,
    and None picks the instance's guaranteed-separating default.
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    if regime != "penalty":
        if penalty is not None:
            raise ValueError(f"{regime} regime does not take a penalty")
        return qubo_to_ising(build_qubo(problem))
    lam = penalty if penalty is not None else default_penalty(problem)
    return qubo_to_ising(build_qubo(problem, penalty=lam))


def assemble_ansatz(
    regime: str,
    blocks: Sequence[tuple[int, int]],
    h: IsingHamiltonian,
    params: Sequence[float],
) -> Circuit:
    """The regime's initial state, then p cost/mixer applications.

    The cost layers evolve under ``h`` (see :func:`ansatz_hamiltonian`);
    ``params`` interleaves the 2p angles as (gamma_1, beta_1, ...,
    gamma_p, beta_p), so p is half its length.
    """
    params = np.asarray(params, dtype=float)
    if params.ndim != 1 or params.size == 0 or params.size % 2:
        raise ValueError(f"expected 2p angles with p >= 1, got shape {params.shape}")
    init = build_initial_state(regime, blocks)
    gates = list(init.gates)
    phase = init.phase
    for gamma, beta in params.reshape(-1, 2).tolist():
        cost = build_cost_unitary(h, gamma)
        gates.extend(cost.gates)
        gates.extend(build_mixer(regime, blocks, beta).gates)
        phase += cost.phase
    return Circuit(
        num_qubits=h.num_spins,
        gates=tuple(gates),
        prep_len=len(init.gates),
        phase=phase,
    )
