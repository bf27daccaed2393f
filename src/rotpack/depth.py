"""Circuit-depth accounting in units of CNOT layers.

Depth here is a logical, hardware-agnostic count: every two-qubit gate is
charged its CNOT expansion (RZZ and XY cost 2, the A rotation costs 3, CX
costs 1), gates are packed into qubit-disjoint layers, and a layer is
charged the largest expansion it contains. Packing never reorders across
non-commuting gates: the gate list is first cut into maximal runs of
mutually commuting gates, and each run is scheduled greedily
(earliest-available layer per gate, in emission order). Single-qubit gates
participate in the commutation cuts but are free.

This model reproduces the reference depth table for the three ansatz
regimes; :mod:`rotpack.bench.reports` compares against those reference
values and attaches the scheduling trace to any cell that disagrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circuits import CNOT_COST, AnsatzSpec, Circuit, Gate, assemble_ansatz
from .problem import RotamerProblem

__all__ = [
    "DepthSummary",
    "ScheduledLayer",
    "commutes",
    "schedule",
    "schedule_trace",
    "logical_depth",
    "depth_report",
    "uniform_problem",
]

_DIAGONAL = frozenset({"rz", "rzz"})
_TRANSVERSE = frozenset({"x", "rx"})


def commutes(a: Gate, b: Gate) -> bool:
    """Whether two gates commute as operators.

    Disjoint supports always commute. On shared qubits: diagonal gates
    commute among themselves, X-axis gates among themselves, and XY/RZZ
    gates on the same qubit pair commute with each other. Everything else
    (notably the A rotation and CX) is treated as non-commuting, which can
    only over-count depth, never under-count it.
    """
    if not set(a.qubits) & set(b.qubits):
        return True
    if a.kind in _DIAGONAL and b.kind in _DIAGONAL:
        return True
    if a.kind in _TRANSVERSE and b.kind in _TRANSVERSE:
        return True
    if {a.kind, b.kind} <= {"xy", "rzz"} and set(a.qubits) == set(b.qubits):
        return True
    return False


@dataclass(frozen=True)
class ScheduledLayer:
    group: int
    cnot_cost: int
    gate_indices: tuple[int, ...]


def schedule(gates: Sequence[Gate]) -> list[ScheduledLayer]:
    """Pack two-qubit gates into layers without crossing commutation cuts."""
    layers: list[ScheduledLayer] = []
    group_id = 0
    pos = 0
    gates = list(gates)
    while pos < len(gates):
        # grow the commuting run
        end = pos
        while end < len(gates) and all(
            commutes(gates[end], gates[k]) for k in range(pos, end)
        ):
            end += 1
        # greedy earliest-fit packing inside the run: each gate lands in the
        # first layer that touches none of its qubits
        used: list[set[int]] = []
        packed: list[list[int]] = []
        for k in range(pos, end):
            g = gates[k]
            if not g.is_two_qubit:
                continue
            for layer, taken in enumerate(used):
                if not taken & set(g.qubits):
                    break
            else:
                layer = len(used)
                used.append(set())
                packed.append([])
            used[layer].update(g.qubits)
            packed[layer].append(k)
        for idxs in packed:
            layers.append(
                ScheduledLayer(
                    group=group_id,
                    cnot_cost=max(CNOT_COST[gates[k].kind] for k in idxs),
                    gate_indices=tuple(idxs),
                )
            )
        group_id += 1
        pos = end
    return layers


@dataclass(frozen=True)
class DepthSummary:
    cd: int
    cnot_count: int
    num_layers: int


def logical_depth(circuit: Circuit, include_state_prep: bool = True) -> DepthSummary:
    """CNOT-layer depth and total CNOT count of a circuit.

    With ``include_state_prep=False`` the state-preparation prefix is
    dropped before scheduling.
    """
    gates = circuit.gates if include_state_prep else circuit.variational_gates
    layers = schedule(gates)
    cd = sum(layer.cnot_cost for layer in layers)
    cnots = sum(CNOT_COST[g.kind] for g in gates if g.is_two_qubit)
    return DepthSummary(cd=cd, cnot_count=cnots, num_layers=len(layers))


def uniform_problem(num_residues: int, rotamers: int) -> RotamerProblem:
    """Structurally dense instance (every energy 1) for depth analysis.

    Depth only depends on which Hamiltonian terms are nonzero, so an
    all-ones instance stands in for any generic one of the same shape.
    """
    counts = (rotamers,) * num_residues
    blocks = {
        (i, i + 1): np.ones((rotamers, rotamers)) for i in range(num_residues - 1)
    }
    return RotamerProblem(
        rotamer_counts=counts,
        self_energies=np.ones(sum(counts)),
        pair_blocks=blocks,
        nearest_neighbor_only=True,
    )


def depth_report(
    problem: RotamerProblem,
    regime: str,
    p: int = 1,
    *,
    penalty: float | None = None,
) -> dict:
    """Depth figures for one (problem shape, regime) cell as a JSON-ready dict."""
    spec = AnsatzSpec(regime=regime, p=p, penalty=penalty)
    params = [0.5] * (2 * p)
    circuit = assemble_ansatz(problem, spec, params)
    with_prep = logical_depth(circuit, include_state_prep=True)
    without = logical_depth(circuit, include_state_prep=False)
    counts = set(problem.rotamer_counts)
    return {
        "regime": regime,
        "N": problem.num_residues,
        "n": counts.pop() if len(counts) == 1 else list(problem.rotamer_counts),
        "p": p,
        "cd": without.cd,
        "cd_sp": with_prep.cd,
        "cnot_count": with_prep.cnot_count,
    }


def schedule_trace(circuit: Circuit, include_state_prep: bool = True) -> list[dict]:
    """Human-readable layer listing used in mismatch reports."""
    gates = circuit.gates if include_state_prep else circuit.variational_gates
    rows = []
    for layer_index, layer in enumerate(schedule(gates)):
        rows.append(
            {
                "layer": layer_index,
                "group": layer.group,
                "cnot_cost": layer.cnot_cost,
                "gates": [
                    f"{gates[k].kind}{gates[k].qubits}" for k in layer.gate_indices
                ],
            }
        )
    return rows
