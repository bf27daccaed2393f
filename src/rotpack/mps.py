"""Matrix-product-state simulation with bond truncation.

The state is a chain of rank-3 tensors (left bond, physical, right bond),
site q holding qubit q, kept in mixed-canonical form around a moving
orthogonality center. Two-qubit gates contract the two neighboring tensors,
apply the 4x4 unitary (only its diagonal for a cost-layer coupling), and
split back with an SVD truncated to the bond cap and singular-value
threshold; the relative weight thrown away accumulates in
``discarded_weight``.

Qubits that are not neighbors are brought together with SWAP updates that
cost simulator time but never appear in circuit depth accounting; a swap
update exchanges the two qubits' sites after applying whatever gate it
carries. A run of consecutive ``rz``/``rzz`` gates (a cost layer) is
diagonal, so its gates commute: ``run_circuit_mps`` hands each such run to
``MpsState.apply_diagonal_run``, which walks each lower qubit of the run's
couplings once to its farthest partner and back, applying every coupling
inside the swap that passes its partner. Every other run is applied in
block-major order: grouped by connected set of qubits, lowest set first,
each gate keeping its place within its set. Sets act on disjoint qubits,
so this is the same unitary, but the orthogonality center finishes one set
(for ``xy``, one residue's ring mixer or state preparation) before moving
on instead of crossing the chain for every color. Each such gate is routed
on its own, its higher qubit swapped next to the lower one and back.
Either way every qubit ends at its home site, and each split leaves the
orthogonality center on the side the route moves toward, so a route pays no
QR shifts between its steps.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import groupby

import numpy as np

from .circuits import DIAGONAL_KINDS, Circuit, Gate, gate_matrix, pair_matrix

__all__ = ["MpsState", "run_circuit_mps"]

# a split adding less than this relative weight is round-off, not truncation
_EPS = np.finfo(float).eps

# default bond cap and relative singular-value cutoff
MAX_BOND = 64
TRUNCATION_THRESHOLD = 1e-10


class MpsState:
    """Mutable MPS of ``num_qubits`` sites, starting as |0...0>.

    Parameters
    ----------
    num_qubits:
        Chain length.
    max_bond:
        Bond-dimension cap (None leaves bonds unbounded).
    threshold:
        Relative singular-value cutoff: values below
        ``threshold * s_max`` are dropped at each split.

    ``two_site_updates`` counts the two-site splits performed and
    ``swap_updates`` those among them that exchange two qubits for routing
    (with or without a coupling folded in).
    """

    def __init__(
        self,
        num_qubits: int,
        *,
        max_bond: int | None = MAX_BOND,
        threshold: float = TRUNCATION_THRESHOLD,
    ) -> None:
        if num_qubits < 1:
            raise ValueError("need at least one site")
        if max_bond is not None and max_bond < 1:
            raise ValueError("max_bond must be positive")
        self.num_qubits = num_qubits
        self.max_bond = max_bond
        self.threshold = float(threshold)
        self.tensors: list[np.ndarray] = []
        for _ in range(num_qubits):
            t = np.zeros((1, 2, 1), dtype=complex)
            t[0, 0, 0] = 1.0
            self.tensors.append(t)
        self.center = 0
        self.discarded_weight = 0.0
        self.max_bond_reached = 1
        self.two_site_updates = 0
        self.swap_updates = 0

    # -- canonical form ----------------------------------------------------

    def _shift_center_right(self) -> None:
        i = self.center
        t = self.tensors[i]
        l, _, r = t.shape
        q, rmat = np.linalg.qr(t.reshape(l * 2, r))
        self.tensors[i] = q.reshape(l, 2, -1)
        self.tensors[i + 1] = np.einsum("ab,bpr->apr", rmat, self.tensors[i + 1])
        self.center = i + 1

    def _shift_center_left(self) -> None:
        i = self.center
        t = self.tensors[i]
        l, _, r = t.shape
        # LQ via QR of the transpose
        q, rmat = np.linalg.qr(t.reshape(l, 2 * r).T)
        self.tensors[i] = q.T.reshape(-1, 2, r)
        self.tensors[i - 1] = np.einsum("lpa,ba->lpb", self.tensors[i - 1], rmat)
        self.center = i - 1

    def move_center(self, site: int) -> None:
        while self.center < site:
            self._shift_center_right()
        while self.center > site:
            self._shift_center_left()

    def norm(self) -> float:
        return float(np.linalg.norm(self.tensors[self.center]))

    def bond_dimensions(self) -> tuple[int, ...]:
        return tuple(t.shape[2] for t in self.tensors[:-1])

    # -- gate application --------------------------------------------------

    def apply_gate(self, gate: Gate) -> None:
        if any(q >= self.num_qubits for q in gate.qubits):
            raise IndexError(f"gate {gate} out of range")
        if len(gate.qubits) == 1:
            q = gate.qubits[0]
            self.tensors[q] = np.matmul(gate_matrix(gate), self.tensors[q])
            return
        lo, hi = sorted(gate.qubits)
        # the pair sits as (left site, right site) = (lo, hi), so the
        # combined physical index is 2*bit(lo) + bit(hi)
        matrix = pair_matrix(gate, lo)
        # route hi next to lo, apply, route back
        for site in range(hi - 1, lo, -1):
            self._apply_adjacent(site, swap=True, center_left=True)
        self._apply_adjacent(lo, matrix)
        for site in range(lo + 1, hi):
            self._apply_adjacent(site, swap=True)

    def apply_diagonal_run(self, gates: Sequence[Gate]) -> None:
        """Apply commuting ``rz``/``rzz`` gates, routing each lower qubit once.

        ``rz`` phases multiply into their site tensors in place. Then each
        lower qubit of the ``rzz`` pairs, in ascending order, walks right
        with swaps, each swap carrying the coupling with the qubit it
        passes; the coupling with its farthest partner, at distance D, is
        applied without a swap, and the qubit walks home with plain swaps:
        2D - 1 two-site updates. Couplings repeated on one pair are
        multiplied into one. Every qubit ends at its home site.
        """
        phases: dict[int, np.ndarray] = {}
        couplings: dict[int, dict[int, np.ndarray]] = {}
        for gate in gates:
            if gate.kind not in DIAGONAL_KINDS:
                raise ValueError(f"{gate.kind} gate is not diagonal")
            if any(q >= self.num_qubits for q in gate.qubits):
                raise IndexError(f"gate {gate} out of range")
            diag = gate_matrix(gate).diagonal()
            if len(gate.qubits) == 1:
                table, q = phases, gate.qubits[0]
            else:
                # an rzz phase is symmetric in its two qubits
                lo, hi = sorted(gate.qubits)
                table, q = couplings.setdefault(lo, {}), hi
            table[q] = table[q] * diag if q in table else diag
        for q, diag in phases.items():
            self.tensors[q] = self.tensors[q] * diag[None, :, None]
        for lo in sorted(couplings):
            partners = couplings[lo]
            far = max(partners)
            # qubit lo sits at ``site`` and passes qubit site + 1
            for site in range(lo, far - 1):
                self._apply_adjacent(site, partners.get(site + 1), swap=True)
            # the center follows the walk home, then stays on lo + 1, where
            # the next lower qubit's walk starts
            self._apply_adjacent(far - 1, partners[far], center_left=far - 1 > lo)
            for site in range(far - 2, lo - 1, -1):
                self._apply_adjacent(site, swap=True, center_left=site > lo)

    def _apply_adjacent(
        self,
        site: int,
        op: np.ndarray | None = None,
        *,
        swap: bool = False,
        center_left: bool = False,
    ) -> None:
        """Apply ``op`` on (site, site+1) and split the pair back in two.

        ``op`` is a 4x4 unitary, or the length-4 diagonal of one, indexed
        2*bit_left + bit_right; None applies nothing. ``swap`` then
        exchanges the two qubits' sites. The orthogonality center ends on
        the left site with ``center_left`` and on the right one otherwise:
        the side the route moves toward next.
        """
        # either site may hold the center: the pair's contraction is then
        # the whole state's center block
        if self.center < site:
            self.move_center(site)
        elif self.center > site + 1:
            self.move_center(site + 1)
        left, right = self.tensors[site], self.tensors[site + 1]
        l = left.shape[0]
        r = right.shape[2]
        theta = (left.reshape(2 * l, -1) @ right.reshape(-1, 2 * r)).reshape(l, 4, r)
        if op is not None:
            if op.ndim == 1:
                theta *= op[:, None]
            else:
                theta = np.matmul(op, theta)
        if swap:
            theta = theta.reshape(l, 2, 2, r).transpose(0, 2, 1, 3)
        u, s, vh = np.linalg.svd(theta.reshape(2 * l, 2 * r), full_matrices=False)
        keep = int(np.count_nonzero(s > self.threshold * s[0])) if s[0] > 0 else 1
        keep = max(keep, 1)
        if self.max_bond is not None:
            keep = min(keep, self.max_bond)
        weights = s * s
        total = float(weights.sum())
        kept = float(weights[:keep].sum())
        if total > 0.0:
            # summed from the dropped values, so an exact split adds nothing
            # (total - kept is round-off of either sign there)
            dropped = float(weights[keep:].sum()) / total
            if dropped > _EPS:
                self.discarded_weight += dropped
        s = s[:keep] / np.sqrt(kept)
        if center_left:
            self.tensors[site] = (u[:, :keep] * s).reshape(l, 2, keep)
            self.tensors[site + 1] = vh[:keep].reshape(keep, 2, r)
            self.center = site
        else:
            self.tensors[site] = u[:, :keep].reshape(l, 2, keep)
            self.tensors[site + 1] = (s[:, None] * vh[:keep]).reshape(keep, 2, r)
            self.center = site + 1
        self.max_bond_reached = max(self.max_bond_reached, keep)
        self.two_site_updates += 1
        self.swap_updates += swap

    def scale(self, factor: complex) -> None:
        self.tensors[self.center] = self.tensors[self.center] * factor

    # -- readout -----------------------------------------------------------

    def amplitudes(self) -> np.ndarray:
        """Full amplitude vector (qubit 0 = least-significant index bit).

        Exponential in size; guarded to small chains for cross-checks.
        """
        if self.num_qubits > 16:
            raise ValueError("amplitude readout limited to 16 qubits")
        acc = np.ones((1, 1), dtype=complex)  # (batch of bit-prefixes, bond)
        for t in self.tensors:
            acc = np.tensordot(acc, t, axes=([-1], [0]))
            acc = acc.reshape(-1, t.shape[2])
        amps = acc.reshape((2,) * self.num_qubits)
        # prefix axes are site 0 first; index wants qubit 0 fastest-varying
        return np.ascontiguousarray(amps.transpose(range(self.num_qubits - 1, -1, -1))).ravel()

    def sample(self, shots: int, rng: np.random.Generator) -> np.ndarray:
        """Sequential exact sampling; returns a (shots, M) bit array.

        Moves the center to site 0 so every tensor to the right is
        right-orthonormal, then draws each qubit from its conditional
        distribution given the bits already drawn, batched over shots.
        """
        if shots < 1:
            raise ValueError("need at least one shot")
        self.move_center(0)
        tensor0 = self.tensors[0]
        nrm = np.linalg.norm(tensor0)
        if nrm == 0.0:
            raise ValueError("cannot sample the zero state")
        env = np.ones((shots, 1), dtype=complex)
        bits = np.empty((shots, self.num_qubits), dtype=np.uint8)
        for site, t in enumerate(self.tensors):
            if site == 0:
                t = t / nrm
            amp0 = env @ t[:, 0, :]
            amp1 = env @ t[:, 1, :]
            p0 = np.einsum("sr,sr->s", amp0, amp0.conj()).real
            p1 = np.einsum("sr,sr->s", amp1, amp1.conj()).real
            prob0 = p0 / (p0 + p1)
            draw = rng.uniform(size=shots)
            chose1 = draw >= prob0
            bits[:, site] = chose1
            env = np.where(chose1[:, None], amp1, amp0)
            env /= np.sqrt(np.where(chose1, p1, p0))[:, None]
        return bits


def run_circuit_mps(
    circuit: Circuit,
    *,
    max_bond: int | None = MAX_BOND,
    threshold: float = TRUNCATION_THRESHOLD,
) -> MpsState:
    """Simulate a circuit from |0...0> as an MPS.

    Each maximal run of consecutive ``rz``/``rzz`` gates goes to
    :meth:`MpsState.apply_diagonal_run`; every other run goes gate by gate
    to :meth:`MpsState.apply_gate` in block-major order.
    """
    state = MpsState(circuit.num_qubits, max_bond=max_bond, threshold=threshold)
    for diagonal, run in groupby(circuit.gates, key=lambda g: g.kind in DIAGONAL_KINDS):
        if diagonal:
            state.apply_diagonal_run(list(run))
        else:
            for gate in _block_major(list(run)):
                state.apply_gate(gate)
    if circuit.phase != 0.0:
        state.scale(np.exp(1j * circuit.phase))
    return state


def _block_major(gates: list[Gate]) -> list[Gate]:
    """The gates grouped by connected set of qubits, lowest set first.

    Gates of different sets act on disjoint qubits, so the reordered run is
    the same unitary; within a set the gates keep their order.
    """
    root: dict[int, int] = {}

    def find(q: int) -> int:
        while root.get(q, q) != q:
            q = root[q]
        return q

    for gate in gates:
        # each set's root is its lowest qubit
        first, *rest = sorted(find(q) for q in gate.qubits)
        for other in rest:
            root[other] = first
    return sorted(gates, key=lambda g: find(g.qubits[0]))
