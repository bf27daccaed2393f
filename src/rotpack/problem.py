"""Side-chain packing instances.

A problem is a chain of residues, each with a small menu of rotamers
(discrete side-chain conformations). Choosing one rotamer per residue costs
the rotamer's self energy plus pairwise interaction energies between chosen
rotamers of interacting residues. Energies are dimensionless table values
consumed from files or from the bundled generator; nothing here touches
atomic coordinates.

Encoding: residue ``i`` owns a contiguous block of ``n_i`` binary variables
(qubits), one per rotamer. Qubit ``block_offsets[i] + a`` is 1 iff residue
``i`` takes rotamer ``a``. A bitstring is *valid* iff every block has weight
exactly one.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._rng import generator

__all__ = [
    "RotamerProblem",
    "InvalidBitstring",
    "ProblemFormatError",
    "load_problem",
    "save_problem",
    "random_problem",
    "decode",
    "encode",
    "bits_to_string",
    "valid_mask",
]

Config = tuple[int, ...]

PAIR_SYMMETRY_TOL = 1e-9

# Largest exhaustive table the package builds: energies over configurations
# or bitstrings, and the one-hot statevector basis.
MAX_TABLE_SIZE = 1 << 26


class ProblemFormatError(ValueError):
    """Raised for malformed or inconsistent problem files."""


@dataclass(frozen=True, eq=False)
class RotamerProblem:
    """Validated, immutable energy tables for one packing instance.

    Parameters
    ----------
    rotamer_counts:
        Number of rotamers per residue, in chain order.
    self_energies:
        Flat array of length ``sum(rotamer_counts)``; entry
        ``block_offsets[i] + a`` is the self energy of rotamer ``a`` of
        residue ``i``.
    pair_blocks:
        Maps residue pairs ``(i, j)`` with ``i < j`` to an
        ``(n_i, n_j)`` array of interaction energies. Residue pairs
        without a block do not interact.
    nearest_neighbor_only:
        When True, only ``j == i + 1`` blocks are permitted.
    """

    rotamer_counts: tuple[int, ...]
    self_energies: np.ndarray
    pair_blocks: Mapping[tuple[int, int], np.ndarray]
    nearest_neighbor_only: bool = True

    def __post_init__(self) -> None:
        counts = tuple(int(n) for n in self.rotamer_counts)
        if not counts:
            raise ValueError("problem needs at least one residue")
        if any(n < 1 for n in counts):
            raise ValueError("every residue needs at least one rotamer")
        selves = np.ascontiguousarray(np.asarray(self.self_energies, dtype=float))
        if selves.shape != (sum(counts),):
            raise ValueError(
                f"self_energies has shape {selves.shape}, expected ({sum(counts)},)"
            )
        selves.setflags(write=False)
        blocks: dict[tuple[int, int], np.ndarray] = {}
        for (i, j), table in self.pair_blocks.items():
            if not (0 <= i < j < len(counts)):
                raise ValueError(f"bad residue pair ({i}, {j})")
            if self.nearest_neighbor_only and j - i != 1:
                raise ValueError(
                    f"pair block ({i}, {j}) in nearest-neighbor-only mode"
                )
            arr = np.ascontiguousarray(np.asarray(table, dtype=float))
            if arr.shape != (counts[i], counts[j]):
                raise ValueError(
                    f"pair block ({i}, {j}) has shape {arr.shape}, "
                    f"expected ({counts[i]}, {counts[j]})"
                )
            arr.setflags(write=False)
            blocks[(i, j)] = arr
        object.__setattr__(self, "rotamer_counts", counts)
        object.__setattr__(self, "self_energies", selves)
        object.__setattr__(self, "pair_blocks", blocks)

    @property
    def num_residues(self) -> int:
        return len(self.rotamer_counts)

    @property
    def num_qubits(self) -> int:
        return int(self.self_energies.size)

    @cached_property
    def block_offsets(self) -> tuple[int, ...]:
        """First variable index of each residue block."""
        return tuple(int(x) for x in np.cumsum((0,) + self.rotamer_counts[:-1]))

    @property
    def blocks(self) -> tuple[tuple[int, int], ...]:
        """(offset, size) of each residue block."""
        return tuple(zip(self.block_offsets, self.rotamer_counts))

    def self_energy(self, residue: int, rotamer: int) -> float:
        return float(self.self_energies[self.block_offsets[residue] + rotamer])

    def pair_energy(self, res_i: int, rot_i: int, res_j: int, rot_j: int) -> float:
        if res_i > res_j:
            res_i, rot_i, res_j, rot_j = res_j, rot_j, res_i, rot_i
        block = self.pair_blocks.get((res_i, res_j))
        if block is None:
            return 0.0
        return float(block[rot_i, rot_j])

    def energy(self, config: Sequence[int]) -> float:
        """Total energy of one rotamer choice per residue.

        Sum of the chosen rotamers' self energies plus every stored pair
        block's entry for the chosen pair.
        """
        config = tuple(int(c) for c in config)
        if len(config) != self.num_residues:
            raise ValueError("config length does not match residue count")
        for i, (c, n) in enumerate(zip(config, self.rotamer_counts)):
            if not 0 <= c < n:
                raise ValueError(f"rotamer {c} out of range for residue {i}")
        total = sum(
            self.self_energies[off + c] for off, c in zip(self.block_offsets, config)
        )
        for (i, j), table in self.pair_blocks.items():
            total += table[config[i], config[j]]
        return float(total)

    def energy_table(self) -> np.ndarray:
        """``energy(c)`` of every configuration ``c``, in an array of shape
        ``rotamer_counts``; the terms are added in ``energy``'s order, so the
        two agree bit for bit. Refuses more than ``MAX_TABLE_SIZE`` entries.
        """
        counts = self.rotamer_counts
        size = math.prod(counts)
        if size > MAX_TABLE_SIZE:
            raise ValueError(
                f"{size} configurations exceed the table limit of {MAX_TABLE_SIZE}"
            )
        table = np.zeros(counts)
        axes = range(len(counts))
        for i, (off, n) in enumerate(self.blocks):
            others = tuple(k for k in axes if k != i)
            table += np.expand_dims(self.self_energies[off : off + n], others)
        for (i, j), block in self.pair_blocks.items():
            others = tuple(k for k in axes if k not in (i, j))
            table += np.expand_dims(block, others)
        return table


@dataclass(frozen=True)
class InvalidBitstring:
    """Marker returned by :func:`decode` for constraint-violating bitstrings."""

    bad_residues: tuple[int, ...]

    def __bool__(self) -> bool:
        return False


def decode(bits: Sequence[int], problem: RotamerProblem) -> Config | InvalidBitstring:
    """Map a bitstring to per-residue rotamer indices.

    Returns the rotamer configuration when every residue block has weight
    exactly one, otherwise an :class:`InvalidBitstring` listing the
    offending residues.
    """
    arr = np.asarray(bits, dtype=int)
    if arr.shape != (problem.num_qubits,):
        raise ValueError(
            f"bitstring length {arr.shape} does not match {problem.num_qubits} qubits"
        )
    config: list[int] = []
    bad: list[int] = []
    for i, (off, n) in enumerate(problem.blocks):
        block = arr[off : off + n]
        if int(block.sum()) != 1:
            bad.append(i)
        else:
            config.append(int(np.argmax(block)))
    if bad:
        return InvalidBitstring(tuple(bad))
    return tuple(config)


def encode(config: Sequence[int], problem: RotamerProblem) -> np.ndarray:
    """Inverse of :func:`decode` on valid configurations."""
    bits = np.zeros(problem.num_qubits, dtype=np.uint8)
    if len(config) != problem.num_residues:
        raise ValueError("config length does not match residue count")
    for i, (off, n) in enumerate(problem.blocks):
        c = int(config[i])
        if not 0 <= c < n:
            raise ValueError(f"rotamer {c} out of range for residue {i}")
        bits[off + c] = 1
    return bits


def bits_to_string(bits: Sequence[int]) -> str:
    """A bitstring as text, qubit 0 first."""
    return "".join("1" if b else "0" for b in bits)


def valid_mask(bits: np.ndarray, problem: RotamerProblem) -> np.ndarray:
    """Boolean mask of the rows of a (S, M) bit array whose every block has
    weight exactly one (a single bitstring counts as one row)."""
    bits = np.atleast_2d(np.asarray(bits))
    mask = np.ones(bits.shape[0], dtype=bool)
    for off, n in problem.blocks:
        mask &= bits[:, off : off + n].sum(axis=1) == 1
    return mask


# ---------------------------------------------------------------------------
# Instance generator


def random_problem(
    num_residues: int,
    rotamers: int | Sequence[int],
    *,
    seed: int,
    self_scale: float = 1.0,
    pair_scale: float = 1.0,
    decay: float = 0.0,
    nearest_neighbor_only: bool = True,
) -> RotamerProblem:
    """Generate a reproducible random instance.

    Self energies are drawn uniformly from ``[-self_scale, self_scale)`` and
    adjacent-residue pair energies from ``[-pair_scale, pair_scale)``. With
    ``nearest_neighbor_only=False`` the instance carries pair blocks at every
    residue separation d, drawn within ``decay**(d-1)`` times the largest
    magnitude realized at d=1, so the geometric decay envelope is a hard
    bound rather than an expectation; ``decay=0`` zeroes everything beyond
    adjacent residues while keeping the blocks present.

    Draw order is fixed (all self energies, then pair blocks in
    lexicographic residue order), so a seed pins the instance exactly.
    """
    if isinstance(rotamers, numbers.Integral):
        counts = (rotamers,) * num_residues
    else:
        counts = tuple(int(n) for n in rotamers)
        if len(counts) != num_residues:
            raise ValueError("rotamer count list length must equal num_residues")
    rng = generator(seed)
    selves = rng.uniform(-self_scale, self_scale, size=sum(counts))
    blocks: dict[tuple[int, int], np.ndarray] = {}
    for i in range(num_residues):
        for j in range(i + 1, num_residues):
            d = j - i
            if nearest_neighbor_only and d != 1:
                continue
            blocks[(i, j)] = rng.uniform(-1.0, 1.0, size=(counts[i], counts[j]))
    adjacent_max = max(
        (float(np.abs(b).max()) for (i, j), b in blocks.items() if j - i == 1),
        default=0.0,
    )
    for (i, j), block in blocks.items():
        d = j - i
        scale = pair_scale if d == 1 else adjacent_max * pair_scale * decay ** (d - 1)
        blocks[(i, j)] = block * scale
    return RotamerProblem(
        rotamer_counts=counts,
        self_energies=selves,
        pair_blocks=blocks,
        nearest_neighbor_only=nearest_neighbor_only,
    )


# ---------------------------------------------------------------------------
# File formats
#
# JSON document:
#   {
#     "num_residues": 2,
#     "rotamers_per_residue": [2, 2],
#     "nearest_neighbor_only": true,
#     "self_energy":  [{"residue": 0, "rotamer": 0, "energy": 0.0}, ...],
#     "pair_energy":  [{"res_i": 0, "rot_i": 0, "res_j": 1, "rot_j": 0,
#                       "energy": -1.0}, ...],
#     "tables": "optional/relative/path.csv"
#   }
# When "tables" is present the two energy arrays may be omitted and the
# referenced CSV supplies them in bulk, one row per entry:
#   kind,res_i,rot_i,res_j,rot_j,energy
#   self,0,0,,,0.25
#   pair,0,1,1,0,-0.5


def load_problem(path: str | Path) -> RotamerProblem:
    """Load and validate a problem file (JSON, optionally with a CSV table).

    Raises :class:`ProblemFormatError` for missing self-energy entries,
    pair entries given in both orientations that disagree beyond 1e-9, and
    pair entries between non-adjacent residues when
    ``nearest_neighbor_only`` is declared.
    """
    path = Path(path)
    doc = json.loads(path.read_text())
    try:
        num_residues = _integer(doc["num_residues"], "num_residues")
        counts_raw = doc["rotamers_per_residue"]
    except KeyError as exc:
        raise ProblemFormatError(f"missing required field {exc}") from exc
    if isinstance(counts_raw, list):
        counts = tuple(_integer(n, "rotamers_per_residue") for n in counts_raw)
    else:
        counts = (_integer(counts_raw, "rotamers_per_residue"),) * num_residues
    if len(counts) != num_residues:
        raise ProblemFormatError(
            "rotamers_per_residue length does not match num_residues"
        )
    nn_only = doc.get("nearest_neighbor_only", True)
    if not isinstance(nn_only, bool):
        raise ProblemFormatError(
            f"nearest_neighbor_only must be true or false, not {nn_only!r}"
        )

    self_rows = _json_rows(doc, "self_energy", ("residue", "rotamer"))
    pair_rows = _json_rows(doc, "pair_energy", ("res_i", "rot_i", "res_j", "rot_j"))
    if "tables" in doc:
        s_rows, p_rows = _read_table_csv(path.parent / doc["tables"])
        self_rows.extend(s_rows)
        pair_rows.extend(p_rows)
    return _assemble(counts, nn_only, self_rows, pair_rows)


def _json_rows(doc: dict, kind: str, keys: tuple[str, ...]) -> list[tuple]:
    """Each row of ``doc[kind]`` as its integer ``keys``, then its energy."""
    return [
        (*(_integer(r[k], f"{kind} {k}") for k in keys), float(r["energy"]))
        for r in doc.get(kind, [])
    ]


def _integer(value: object, field: str) -> int:
    """``value`` if it is an integer (a bool is not one), else
    :class:`ProblemFormatError` naming ``field``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ProblemFormatError(f"{field} must be an integer, not {value!r}")
    return int(value)


def _read_table_csv(
    path: Path,
) -> tuple[list[tuple[int, int, float]], list[tuple[int, int, int, int, float]]]:
    self_rows: list[tuple[int, int, float]] = []
    pair_rows: list[tuple[int, int, int, int, float]] = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            kind = row["kind"].strip().lower()
            if kind == "self":
                self_rows.append(
                    (int(row["res_i"]), int(row["rot_i"]), float(row["energy"]))
                )
            elif kind == "pair":
                pair_rows.append(
                    (
                        int(row["res_i"]),
                        int(row["rot_i"]),
                        int(row["res_j"]),
                        int(row["rot_j"]),
                        float(row["energy"]),
                    )
                )
            else:
                raise ProblemFormatError(f"unknown table row kind {kind!r}")
    return self_rows, pair_rows


def _assemble(
    counts: tuple[int, ...],
    nn_only: bool,
    self_rows: Iterable[tuple[int, int, float]],
    pair_rows: Iterable[tuple[int, int, int, int, float]],
) -> RotamerProblem:
    num_residues = len(counts)
    offsets = np.cumsum((0,) + counts[:-1])
    selves = np.full(sum(counts), np.nan)
    for res, rot, e in self_rows:
        if not (0 <= res < num_residues and 0 <= rot < counts[res]):
            raise ProblemFormatError(f"self-energy index ({res}, {rot}) out of range")
        idx = offsets[res] + rot
        if not np.isnan(selves[idx]) and abs(selves[idx] - e) > PAIR_SYMMETRY_TOL:
            raise ProblemFormatError(
                f"conflicting self-energy entries for residue {res} rotamer {rot}"
            )
        selves[idx] = e
    if np.isnan(selves).any():
        missing = int(np.flatnonzero(np.isnan(selves))[0])
        res = int(np.searchsorted(offsets, missing, side="right") - 1)
        raise ProblemFormatError(
            f"missing self-energy entry for residue {res} "
            f"rotamer {missing - offsets[res]}"
        )

    blocks: dict[tuple[int, int], np.ndarray] = {}
    seen: dict[tuple[int, int], np.ndarray] = {}
    for ri, ai, rj, bj, e in pair_rows:
        if ri == rj:
            raise ProblemFormatError(f"pair entry within a single residue {ri}")
        (i, a), (j, b) = sorted(((ri, ai), (rj, bj)))
        if not (0 <= i < j < num_residues):
            raise ProblemFormatError(f"pair residue indices ({ri}, {rj}) out of range")
        if not (0 <= a < counts[i] and 0 <= b < counts[j]):
            raise ProblemFormatError(
                f"pair rotamer indices out of range for residues ({i}, {j})"
            )
        if nn_only and j - i != 1:
            raise ProblemFormatError(
                f"pair entry between non-adjacent residues {i} and {j} "
                "in nearest-neighbor-only mode"
            )
        if (i, j) not in blocks:
            blocks[(i, j)] = np.zeros((counts[i], counts[j]))
            seen[(i, j)] = np.zeros((counts[i], counts[j]), dtype=bool)
        if seen[(i, j)][a, b]:
            if abs(blocks[(i, j)][a, b] - e) > PAIR_SYMMETRY_TOL:
                raise ProblemFormatError(
                    f"asymmetric pair energy for ({i},{a})-({j},{b}): "
                    f"{blocks[(i, j)][a, b]} vs {e}"
                )
        else:
            blocks[(i, j)][a, b] = e
            seen[(i, j)][a, b] = True
    return RotamerProblem(
        rotamer_counts=counts,
        self_energies=selves,
        pair_blocks=blocks,
        nearest_neighbor_only=nn_only,
    )


def save_problem(
    problem: RotamerProblem,
    path: str | Path,
    *,
    tables: str | None = None,
) -> None:
    """Write a problem file; with ``tables`` the energies go to a companion CSV."""
    path = Path(path)
    doc: dict = {
        "num_residues": problem.num_residues,
        "rotamers_per_residue": list(problem.rotamer_counts),
        "nearest_neighbor_only": problem.nearest_neighbor_only,
    }
    self_rows = [
        {"residue": i, "rotamer": a, "energy": problem.self_energy(i, a)}
        for i, n in enumerate(problem.rotamer_counts)
        for a in range(n)
    ]
    pair_rows = [
        {"res_i": i, "rot_i": a, "res_j": j, "rot_j": b, "energy": float(tab[a, b])}
        for (i, j), tab in sorted(problem.pair_blocks.items())
        for a in range(tab.shape[0])
        for b in range(tab.shape[1])
    ]
    if tables is None:
        doc["self_energy"] = self_rows
        doc["pair_energy"] = pair_rows
    else:
        doc["tables"] = tables
        with open(path.parent / tables, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["kind", "res_i", "rot_i", "res_j", "rot_j", "energy"])
            for r in self_rows:
                writer.writerow(["self", r["residue"], r["rotamer"], "", "", r["energy"]])
            for r in pair_rows:
                writer.writerow(
                    ["pair", r["res_i"], r["rot_i"], r["res_j"], r["rot_j"], r["energy"]]
                )
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
