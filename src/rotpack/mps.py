"""Matrix-product-state simulation with bond truncation.

The state is a chain of rank-3 tensors (left bond, physical, right bond),
kept in mixed-canonical form around a moving orthogonality center. A site
holds a run of consecutive qubits and one bit pattern of them per
physical index. Two-site gates contract the two neighboring tensors,
apply the unitary (only its diagonal for a cost-layer coupling), and
split back with an SVD truncated to the bond cap and singular-value
threshold; the relative weight thrown away accumulates in
``discarded_weight``.

Sites that are not neighbors are brought together with SWAP updates that
cost simulator time but never appear in circuit depth accounting. Diagonal
phases commute, so a cost layer walks each lower site of its couplings
once to its farthest partner and back, applying every coupling inside the
swap that passes its partner.

``ansatz_chain`` runs every regime from the Ising energies of its sites'
patterns: ``xy`` on one site per residue holding its one-hot patterns
(Hadfield et al., arXiv:1709.03489), the others on runs of at most
``SITE_QUBITS`` qubits holding all of theirs (Schollwoeck,
arXiv:1008.3477). ``MpsState.sample`` draws any grouping with the law and
stream of a chain of qubit sites (Vidal, quant-ph/0310089).

``run_circuit_mps`` is the oracle: it runs any gate circuit on a chain of
qubit sites through ``MpsState.apply_gate``, gate by gate, a two-qubit
gate routed on its own (its higher qubit swapped next to the lower one
and back). Every route leaves each qubit at its home site, and each split
leaves the orthogonality center on the side the route moves toward, so a
route pays no QR shifts between its steps.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from collections.abc import Callable, Mapping, Sequence

import numpy as np

from .circuits import (
    REGIMES,
    Circuit,
    Gate,
    angle_pairs,
    gate_matrix,
    pair_matrix,
    ring_mixer,
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

SITE_QUBITS = 4  # the most qubits of one block a transverse-field site holds


class MpsState:
    """Mutable MPS of sites holding bit patterns, starting as a product state.

    Parameters
    ----------
    sites:
        An integer n for a chain of n qubits in |0...0>, or one starting
        vector per site, whose length is that site's physical dimension.
    patterns:
        Per site, one distinct row of 0/1 bits per physical index: the
        values of the site's qubits, which follow the previous site's.
        None makes every site one qubit, holding (0) and (1).
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
        patterns: Sequence[Sequence[Sequence[int]]] | None = None,
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
        if patterns is None:
            patterns = [[[0], [1]]] * len(vectors)
        patterns = [np.asarray(p) for p in patterns]
        if len(patterns) != len(vectors) or any(
            p.ndim != 2 or len(p) != v.size or not ((p == 0) | (p == 1)).all()
            or len({row.tobytes() for row in p}) < len(p)
            for p, v in zip(patterns, vectors)
        ):
            raise ValueError("each site needs one distinct row of 0/1 bits per dimension")
        self.patterns = [p.astype(np.uint8) for p in patterns]
        self.num_qubits = sum(p.shape[1] for p in self.patterns)
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
        """Apply a gate to a chain of qubit sites; a two-qubit one is routed
        on its own."""
        if any(q >= self.num_sites for q in gate.qubits):
            raise IndexError(f"gate {gate} out of range")
        # qubit q is site q only on a chain of sites each holding (0), (1)
        if self.num_qubits != self.num_sites or any(self.patterns[q][0, 0] for q in gate.qubits):
            raise ValueError(f"gate {gate} needs sites holding (0), (1), one qubit each")
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
        gamma: float,
        energies: Mapping[int, np.ndarray],
        couplings: Mapping[tuple[int, int], np.ndarray],
    ) -> None:
        """Multiply in exp(-i * gamma * E), E summed from one vector per site
        in ``energies`` and one table per site pair (lo, hi), lo < hi, in
        ``couplings``.

        A pair's table holds one energy per (index of lo, index of hi), flat
        with lo's index major or shaped (d_lo, d_hi). Each lower site, in
        ascending order, walks right with swaps, each swap carrying the
        coupling with the site it passes; the coupling with its farthest
        partner, at distance D, is applied without a swap, and the site
        walks home with plain swaps: 2D - 1 two-site updates. Every site
        ends at its home position.
        """
        for q, e in energies.items():
            self.tensors[q] = self.tensors[q] * np.exp(-1j * gamma * e)[None, :, None]
        walks: dict[int, dict[int, np.ndarray]] = {}
        for (lo, hi), table in couplings.items():
            walks.setdefault(lo, {})[hi] = np.exp(-1j * gamma * np.ravel(table))
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

        Where each site's row k sets bit j of k on its j-th qubit, that is
        the statevector (qubit 0 the least-significant index bit); for
        ``xy``, the flat tensor of ``statevector.one_hot_state``.
        Exponential in size; guarded to small chains for cross-checks.
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
        """Exact sequential sampling; returns a (shots, num_qubits) bit array.

        Each qubit, in qubit order, draws one uniform per shot and is 1
        where the draw reaches the probability that it is 0 given the
        qubits already drawn: any grouping of one state into sites gives
        the samples of a chain of qubit sites, up to round-off. A state that
        is zero or holds a NaN or inf is refused.
        """
        if shots < 1:
            raise ValueError("need at least one shot")
        # checked before the center moves: a QR would spread a NaN or inf
        if not all(np.isfinite(t).all() for t in self.tensors):
            raise ValueError("cannot sample a state with a non-finite entry")
        self.move_center(0)
        nrm = np.linalg.norm(self.tensors[0])
        if nrm == 0.0:
            raise ValueError("cannot sample the zero state")
        env = np.full((shots, 1), 1.0 / nrm, dtype=complex)
        drawn = []
        for t, pats in zip(self.tensors, self.patterns):
            # amps[a]: each shot's amplitudes with this site on pattern a
            amps = np.matmul(env, t.transpose(1, 0, 2))
            flat = amps.view(float)
            probs = np.einsum("dsx,dsx->ds", flat, flat)
            levels, sides = _forks(pats.tobytes(), pats.shape[1])
            mass = (sides.reshape(-1, len(pats)) @ probs).reshape(-1, 2, shots)
            # row j holds qubit j's draws, the stream of one call per qubit;
            # a fork's bit is 1 where its draw reaches P(0 | the fork)
            draws = rng.uniform(size=(pats.shape[1], shots))[levels]
            ones = draws * (mass[:, 0] + mass[:, 1]) >= mass[:, 0]
            # forks on each pattern's path whose bit went the other way; a
            # shot takes the one pattern with none
            wrong = sides[:, 0].T @ ones + sides[:, 1].T @ ~ones
            pick = np.arange(len(pats)) @ (wrong < 0.5)
            drawn.append(pats[pick])
            row = pick * shots + np.arange(shots)  # in amps' (pattern, shot) rows
            env = np.take(amps.reshape(-1, amps.shape[2]), row, axis=0)
            env /= np.sqrt(np.take(probs, row))[:, None]
        return np.concatenate(drawn, axis=1)


@functools.lru_cache(maxsize=64)
def _forks(key: bytes, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The forks of a site's patterns (uint8 bytes, ``width`` qubits each):
    the prefixes of qubits 0..j-1 whose patterns differ on qubit j. Returns
    each fork's j and ``sides[f, v, a]``, 1 where pattern a is past fork f
    with qubit j at v."""
    pats = np.frombuffer(key, dtype=np.uint8).reshape(-1, width)
    levels, sides = [], []
    for j in range(width):
        for prefix in np.unique(pats[:, :j], axis=0):
            under = (pats[:, :j] == prefix).all(axis=1)
            side = np.array([under & (pats[:, j] == v) for v in (0, 1)], dtype=float)
            if side.any(axis=1).all():
                levels.append(j)
                sides.append(side)
    levels, sides = np.array(levels, dtype=int), np.array(sides).reshape(-1, 2, len(pats))
    # the cache hands them to every caller
    levels.flags.writeable = sides.flags.writeable = False
    return levels, sides


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

    Returns ``evolve(params)``: ``circuits.assemble_ansatz``'s ansatz under
    ``h`` at the 2p angles, global phase included. ``xy`` keeps one site
    per residue holding the block's one-hot patterns, mixed by its ring
    as one unitary from ``circuits.ring_mixer``, the helper the one-hot
    statevector builds its ring from too. ``baseline``/``penalty`` split
    each block evenly into runs of at most ``SITE_QUBITS`` qubits holding
    all their patterns, mixed by RX(2 beta) on each qubit. Each layer
    multiplies in exp(-i * gamma * E), E from ``h`` over the sites' spins
    z = 1 - 2 * bit, then applies one mixer unitary per site.
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    if regime == "xy":
        sites = [np.arange(off, off + n) for off, n in problem.blocks]
        patterns = [np.eye(q.size, dtype=np.uint8) for q in sites]
        counts = set(problem.rotamer_counts)
        start_of = {n: one_hot_state([(0, n)]) for n in counts}
        starts = [start_of[n] for n in problem.rotamer_counts]
        rings = {n: ring_mixer(n) for n in counts}

        def mixers(beta: float) -> list[np.ndarray]:
            unitaries = {n: ring(beta) for n, ring in rings.items()}
            return [unitaries[q.size] for q in sites]

    else:
        sites = [run for off, n in problem.blocks
                 for run in np.array_split(np.arange(off, off + n), -(-n // SITE_QUBITS))]
        # pattern k sets bit j of k on the site's j-th qubit
        patterns = [(np.arange(1 << q.size)[:, None] >> np.arange(q.size)) & 1 for q in sites]
        # rotamer 0 sets the first qubit of each block
        starts = [np.eye(1 << q.size)[int(q[0] in problem.block_offsets)] for q in sites]

        def mixers(beta: float) -> list[np.ndarray]:
            rx = gate_matrix(Gate("rx", (0,), (2.0 * beta,)))
            # powers[w]: RX(2 beta) on each of w qubits
            powers = list(itertools.accumulate([rx] * SITE_QUBITS, np.kron, initial=np.ones(1)))
            return [powers[q.size] for q in sites]

    # the energy is sum J z z - sum h z + constant, spin z = 1 - 2 * bit
    spins = [1.0 - 2.0 * p for p in patterns]
    energies = {
        s: np.einsum("ai,ij,aj->a", z, h.couplings[np.ix_(q, q)], z) - z @ h.fields[q]
        for s, (q, z) in enumerate(zip(sites, spins))
    }
    # the constant carries the circuit's global phase
    energies[0] += h.constant
    couplings = {}
    for (s, q), (t, r) in itertools.combinations(enumerate(sites), 2):
        if h.couplings[np.ix_(q, r)].any():
            couplings[s, t] = spins[s] @ h.couplings[np.ix_(q, r)] @ spins[t].T

    def evolve(params: Sequence[float]) -> MpsState:
        state = MpsState(starts, patterns=patterns, max_bond=max_bond)
        for gamma, beta in angle_pairs(params):
            state._apply_diagonal(gamma, energies, couplings)
            state.tensors = [np.matmul(u, t) for u, t in zip(mixers(beta), state.tensors)]
        return state

    return evolve
