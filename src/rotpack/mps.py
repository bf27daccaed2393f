"""Matrix-product-state simulation with bond truncation.

The state is a chain of rank-3 tensors (left bond, physical, right bond),
kept in mixed-canonical form around a moving orthogonality center. Each
site has its own physical dimension: a qubit chain has dimension 2 at
every site, site q holding qubit q; a residue chain has one site per
residue, holding its rotamer. Two-site gates contract the two neighboring
tensors, apply the unitary (only its diagonal for a cost-layer coupling),
and split back with an SVD truncated to the bond cap and singular-value
threshold; the relative weight thrown away accumulates in
``discarded_weight``.

Sites that are not neighbors are brought together with SWAP updates that
cost simulator time but never appear in circuit depth accounting; a swap
update exchanges the two sites after applying whatever gate it carries.
Diagonal phases commute, so a cost layer walks each lower site of its
couplings once to its farthest partner and back, applying every coupling
inside the swap that passes its partner.

``ansatz_chain`` prepares a regime's ansatz once per trajectory and runs
it from the energy tables: each layer is one diagonal walk, then one
unitary per site. ``baseline`` and ``penalty`` run on a qubit chain under
their Ising Hamiltonian, with RX(2 beta) on every site. ``xy`` runs on a
residue chain, whose evolution never leaves the one-hot subspace: site i
holds the weight-one states of residue i's block of qubits, and the layer
reads the instance's own energy tables, so a nearest-neighbor instance
takes R - 1 two-site updates per cost layer and no swaps.
``MpsState.sample_one_hot`` draws from it with the qubit sampler's random
stream (Vidal, quant-ph/0310089; Hadfield et al., arXiv:1709.03489).

``run_circuit_mps`` is the oracle: it runs any gate circuit on a qubit
chain through ``MpsState.apply_gate``, gate by gate in circuit order, a
two-qubit gate routed on its own (its higher qubit swapped next to the
lower one and back). Every route leaves each qubit at its home site, and
each split leaves the orthogonality center on the side the route moves
toward, so a route pays no QR shifts between its steps.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable, Mapping, Sequence

import numpy as np

from .circuits import (
    REGIMES,
    Circuit,
    Gate,
    angle_pairs,
    build_initial_state,
    build_mixer,
    gate_matrix,
    pair_matrix,
)
from .problem import RotamerProblem
from .qubo import IsingHamiltonian
from .statevector import one_hot_state

__all__ = ["MpsState", "ansatz_chain", "run_circuit_mps"]

# a split adding less than this relative weight is round-off, not truncation
_EPS = np.finfo(float).eps

# default bond cap and relative singular-value cutoff
MAX_BOND = 64
TRUNCATION_THRESHOLD = 1e-10


class MpsState:
    """Mutable MPS, one physical dimension per site, starting as a product state.

    Parameters
    ----------
    sites:
        An integer n for a chain of n qubits in |0...0>, or one starting
        vector per site, whose length is that site's physical dimension.
    max_bond:
        Bond-dimension cap (None leaves bonds unbounded).
    threshold:
        Relative singular-value cutoff: values below
        ``threshold * s_max`` are dropped at each split.

    ``two_site_updates`` counts the two-site splits performed and
    ``swap_updates`` those among them that exchange two sites for routing
    (with or without a coupling folded in).
    """

    def __init__(
        self,
        sites: int | Sequence[Sequence[complex]],
        *,
        max_bond: int | None = MAX_BOND,
        threshold: float = TRUNCATION_THRESHOLD,
    ) -> None:
        if isinstance(sites, numbers.Integral):
            sites = [(1.0, 0.0)] * sites
        vectors = [np.array(v, dtype=complex) for v in sites]
        if not vectors:
            raise ValueError("need at least one site")
        if any(v.ndim != 1 or v.size < 1 for v in vectors):
            raise ValueError("each site needs a nonempty vector")
        if max_bond is not None and max_bond < 1:
            raise ValueError("max_bond must be positive")
        self.num_sites = len(vectors)
        self.max_bond = max_bond
        self.threshold = float(threshold)
        self.tensors: list[np.ndarray] = [v.reshape(1, -1, 1) for v in vectors]
        self.center = 0
        self.discarded_weight = 0.0
        self.max_bond_reached = 1
        self.two_site_updates = 0
        self.swap_updates = 0

    @property
    def dims(self) -> tuple[int, ...]:
        """The physical dimension of each site."""
        return tuple(t.shape[1] for t in self.tensors)

    # -- canonical form ----------------------------------------------------

    def _shift_center_right(self) -> None:
        i = self.center
        t = self.tensors[i]
        l, d, r = t.shape
        q, rmat = np.linalg.qr(t.reshape(l * d, r))
        self.tensors[i] = q.reshape(l, d, -1)
        self.tensors[i + 1] = np.einsum("ab,bpr->apr", rmat, self.tensors[i + 1])
        self.center = i + 1

    def _shift_center_left(self) -> None:
        i = self.center
        t = self.tensors[i]
        l, d, r = t.shape
        # LQ via QR of the transpose
        q, rmat = np.linalg.qr(t.reshape(l, d * r).T)
        self.tensors[i] = q.T.reshape(-1, d, r)
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
        """Apply a qubit gate; a two-qubit one is routed on its own."""
        if any(q >= self.num_sites for q in gate.qubits):
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

    def _apply_diagonal(
        self,
        phases: Mapping[int, np.ndarray],
        couplings: Mapping[tuple[int, int], np.ndarray],
    ) -> None:
        """Multiply in diagonal phases: one vector per site in ``phases``,
        one table per site pair (lo, hi), lo < hi, in ``couplings``.

        A pair's table holds one phase per (index of lo, index of hi), flat
        with lo's index major or shaped (d_lo, d_hi). Each lower site, in
        ascending order, walks right with swaps, each swap carrying the
        coupling with the site it passes; the coupling with its farthest
        partner, at distance D, is applied without a swap, and the site
        walks home with plain swaps: 2D - 1 two-site updates. Every site
        ends at its home position.
        """
        for q, diag in phases.items():
            self.tensors[q] = self.tensors[q] * diag[None, :, None]
        walks: dict[int, dict[int, np.ndarray]] = {}
        for (lo, hi), table in couplings.items():
            walks.setdefault(lo, {})[hi] = np.ravel(table)
        for lo in sorted(walks):
            partners = walks[lo]
            far = max(partners)
            # site lo sits at ``site`` and passes site + 1
            for site in range(lo, far - 1):
                self._apply_adjacent(site, partners.get(site + 1), swap=True)
            # the center follows the walk home, then stays on lo + 1, where
            # the next lower site's walk starts
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

        ``op`` is a (d_left * d_right)-square unitary, or the diagonal of
        one, indexed d_right * index_left + index_right; None applies
        nothing. ``swap`` then exchanges the two sites. The orthogonality
        center ends on the left site with ``center_left`` and on the right
        one otherwise: the side the route moves toward next.
        """
        # either site may hold the center: the pair's contraction is then
        # the whole state's center block
        if self.center < site:
            self.move_center(site)
        elif self.center > site + 1:
            self.move_center(site + 1)
        left, right = self.tensors[site], self.tensors[site + 1]
        l, dl, _ = left.shape
        _, dr, r = right.shape
        theta = (left.reshape(l * dl, -1) @ right.reshape(-1, dr * r)).reshape(
            l, dl * dr, r
        )
        if op is not None:
            if op.ndim == 1:
                theta *= op[:, None]
            else:
                theta = np.matmul(op, theta)
        if swap:
            theta = theta.reshape(l, dl, dr, r).transpose(0, 2, 1, 3)
            dl, dr = dr, dl
        u, s, vh = np.linalg.svd(theta.reshape(l * dl, dr * r), full_matrices=False)
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
            self.tensors[site] = (u[:, :keep] * s).reshape(l, dl, keep)
            self.tensors[site + 1] = vh[:keep].reshape(keep, dr, r)
            self.center = site
        else:
            self.tensors[site] = u[:, :keep].reshape(l, dl, keep)
            self.tensors[site + 1] = (s[:, None] * vh[:keep]).reshape(keep, dr, r)
            self.center = site + 1
        self.max_bond_reached = max(self.max_bond_reached, keep)
        self.two_site_updates += 1
        self.swap_updates += swap

    def scale(self, factor: complex) -> None:
        self.tensors[self.center] = self.tensors[self.center] * factor

    # -- readout -----------------------------------------------------------

    def amplitudes(self) -> np.ndarray:
        """Full amplitude vector, site 0's index varying fastest.

        For a qubit chain that is the statevector (qubit 0 the
        least-significant index bit); for a residue chain, the flat one-hot
        tensor of ``statevector.one_hot_state``. Exponential in size;
        guarded to small chains for cross-checks.
        """
        dims = self.dims
        if math.prod(dims) > 1 << 16:
            raise ValueError(
                "amplitude readout limited to 16 qubits, 65536 amplitudes"
            )
        acc = np.ones((1, 1), dtype=complex)  # (batch of index prefixes, bond)
        for t in self.tensors:
            acc = np.tensordot(acc, t, axes=([-1], [0]))
            acc = acc.reshape(-1, t.shape[2])
        amps = acc.reshape(dims)
        # prefix axes are site 0 first; the vector wants site 0 fastest-varying
        return np.ascontiguousarray(amps.transpose(range(self.num_sites - 1, -1, -1))).ravel()

    def sample(self, shots: int, rng: np.random.Generator) -> np.ndarray:
        """Sample a qubit chain; returns a (shots, M) bit array.

        Each qubit draws one uniform per shot, in qubit order, and is 1
        where the draw reaches the conditional probability of 0.
        """

        def choose(site: int, probs: list[np.ndarray], bits: np.ndarray) -> np.ndarray:
            p0, p1 = probs
            prob0 = p0 / (p0 + p1)
            draw = rng.uniform(size=shots)
            chose1 = draw >= prob0
            bits[:, site] = chose1
            return chose1

        return self._draw(shots, self.num_sites, choose)

    def sample_one_hot(self, shots: int, rng: np.random.Generator) -> np.ndarray:
        """Sample a residue chain; returns a (shots, M) bit array.

        Site i stands for a block of ``dims[i]`` qubits, one per rotamer,
        exactly one of them set; M is the sum of ``dims``. The draws are
        the qubit chain's: one uniform per shot for each qubit, in qubit
        order. Block qubit a is 1 where the draw reaches the conditional
        probability that it is 0: 1 once the block has chosen, and
        otherwise the mass of rotamers above a over the mass of rotamers a
        and above. So a residue chain and a qubit chain holding the same
        state give the same samples, up to round-off in the probabilities.
        """
        dims = self.dims
        offsets = np.cumsum((0,) + dims[:-1])

        def choose(site: int, probs: list[np.ndarray], bits: np.ndarray) -> np.ndarray:
            # tails[a]: the mass of rotamers a and above
            tails = np.zeros((len(probs) + 1, shots))
            tails[:-1] = np.cumsum(probs[::-1], axis=0)[::-1]
            # a tail without mass takes rotamer a, so every block chooses
            above, here = tails[1:], tails[:-1]
            prob0 = np.divide(above, here, out=np.zeros_like(here), where=here > 0.0)
            # row a holds qubit a's draws: the stream of one call per qubit
            hits = rng.uniform(size=prob0.shape) >= prob0
            # the block's first hit chooses; the qubits after it are 0
            pick = hits.argmax(axis=0)
            bits[np.arange(shots), offsets[site] + pick] = 1
            return pick

        return self._draw(shots, sum(dims), choose)

    def _draw(
        self,
        shots: int,
        width: int,
        choose: Callable[[int, list[np.ndarray], np.ndarray], np.ndarray],
    ) -> np.ndarray:
        """Sequential exact sampling into a (shots, width) bit array.

        Moves the center to site 0 so every tensor to the right is
        right-orthonormal, then calls ``choose(site, probs, bits)`` site by
        site: ``probs[k]`` is each shot's unnormalized probability of
        index k given the indices already drawn; ``choose`` writes the
        site's bits and returns the index each shot takes.
        """
        if shots < 1:
            raise ValueError("need at least one shot")
        self.move_center(0)
        tensor0 = self.tensors[0]
        nrm = np.linalg.norm(tensor0)
        if nrm == 0.0:
            raise ValueError("cannot sample the zero state")
        bits = np.zeros((shots, width), dtype=np.uint8)
        env = np.ones((shots, 1), dtype=complex)
        for site, t in enumerate(self.tensors):
            if site == 0:
                t = t / nrm
            amps = [env @ t[:, k, :] for k in range(t.shape[1])]
            probs = [np.einsum("sr,sr->s", a, a.conj()).real for a in amps]
            pick = choose(site, probs, bits)
            env, taken = amps[0], probs[0]
            for k in range(1, len(amps)):
                chose_k = pick == k
                env = np.where(chose_k[:, None], amps[k], env)
                taken = np.where(chose_k, probs[k], taken)
            env /= np.sqrt(taken)[:, None]
        return bits


def run_circuit_mps(
    circuit: Circuit,
    *,
    max_bond: int | None = MAX_BOND,
    threshold: float = TRUNCATION_THRESHOLD,
) -> MpsState:
    """Simulate a circuit from |0...0> on a qubit chain, gate by gate: the oracle.

    Every gate goes through :meth:`MpsState.apply_gate` in circuit order, a
    two-qubit gate routed on its own. The pipeline runs :func:`ansatz_chain`
    instead; the tests check that chain against this one.
    """
    state = MpsState(circuit.num_qubits, max_bond=max_bond, threshold=threshold)
    for gate in circuit.gates:
        state.apply_gate(gate)
    if circuit.phase != 0.0:
        state.scale(np.exp(1j * circuit.phase))
    return state


def ansatz_chain(
    problem: RotamerProblem,
    h: IsingHamiltonian,
    regime: str,
    *,
    max_bond: int | None = MAX_BOND,
) -> Callable[[Sequence[float]], MpsState]:
    """The regime's ansatz on an MPS, prepared once.

    Returns ``evolve(params)``: ``circuits.assemble_ansatz``'s ansatz at the
    2p angles, up to its global phase. Each layer multiplies in
    exp(-i * gamma * E) through :meth:`MpsState._apply_diagonal`, then
    applies one mixer unitary per site. ``baseline``/``penalty`` run on
    qubit sites under ``h``: field h_q gives site q the energies (-h_q, h_q),
    coupling J_ij the pair J_ij * z_i z_j, and the mixer is RX(2 beta).
    ``xy`` runs on residue sites, each holding the weight-one states of its
    block, from the block's part of the state preparation. Its energies are
    ``problem``'s tables (the bare Ising energy of a one-hot state), and
    its mixer is the block's ``build_mixer`` gates multiplied in their
    order, keeping the Trotter order. Sample qubit sites with
    :meth:`MpsState.sample` and residue sites with
    :meth:`MpsState.sample_one_hot`.
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    blocks = problem.blocks
    if regime == "xy":
        starts = [one_hot_state(build_initial_state("xy", [(0, n)]), [(0, n)]) for _, n in blocks]
        phases = {i: problem.self_energies[off : off + n] for i, (off, n) in enumerate(blocks)}
        couplings = {pair: e for pair, e in problem.pair_blocks.items() if e.any()}
        rings = {n: build_mixer("xy", [(0, n)], 0.0).gates for n in set(problem.rotamer_counts)}

        def mixers(beta: float) -> list[np.ndarray]:
            # an xy gate rotates span{|01>, |10>}, the same way for either qubit order
            rotation = gate_matrix(Gate("xy", (0, 1), (beta,)))[1:3, 1:3]
            unitaries = {n: np.eye(n, dtype=complex) for n in rings}
            for n, ring in rings.items():
                for gate in ring:
                    rows = list(gate.qubits)
                    unitaries[n][rows] = rotation @ unitaries[n][rows]
            return [unitaries[n] for _, n in blocks]

    else:
        first = {off for off, _ in blocks}
        starts = [(0.0, 1.0) if q in first else (1.0, 0.0) for q in range(h.num_spins)]
        # spin z = 1 - 2 * bit; the energy is sum J z z - sum h z
        phases = {q: np.array([-f, f]) for q, f in enumerate(h.fields) if f != 0.0}
        zz = np.array([1.0, -1.0, -1.0, 1.0])
        couplings = {(i, j): h.couplings[i, j] * zz for i, j in np.argwhere(h.couplings).tolist()}

        def mixers(beta: float) -> list[np.ndarray]:
            return [gate_matrix(Gate("rx", (0,), (2.0 * beta,)))] * len(starts)

    def evolve(params: Sequence[float]) -> MpsState:
        state = MpsState(starts, max_bond=max_bond)
        for gamma, beta in angle_pairs(params):
            state._apply_diagonal(
                {i: np.exp(-1j * gamma * e) for i, e in phases.items()},
                {pair: np.exp(-1j * gamma * e) for pair, e in couplings.items()},
            )
            for i, unitary in enumerate(mixers(beta)):
                state.tensors[i] = np.matmul(unitary, state.tensors[i])
        return state

    return evolve
