"""Commutation-aware layer packing and the CNOT-layer depth model."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import ansatz_circuit, problems
from rotpack.circuits import Circuit, Gate
from rotpack.depth import (
    commutes,
    depth_report,
    logical_depth,
    schedule,
    schedule_trace,
    uniform_problem,
)

# (cd without prep, cd with prep) for square (s, s) instances at p = 1.
# Frozen from the reference analysis; any scheduler change that shifts one
# of these numbers is a behavior change, not a refactor.
SQUARE_DEPTHS = {
    "baseline": {2: (4, 4), 3: (16, 16), 4: (16, 16), 5: (28, 28), 6: (32, 32), 7: (34, 34)},
    "penalty": {2: (6, 6), 3: (20, 20), 4: (22, 22), 5: (30, 30), 6: (42, 42), 7: (46, 46)},
    "xy": {2: (6, 9), 3: (22, 28), 4: (20, 29), 5: (34, 46), 6: (36, 51), 7: (40, 58)},
}


def rzz(a, b):
    return Gate("rzz", (a, b), (0.5,))


class TestCommutation:
    def test_disjoint_supports(self):
        assert commutes(rzz(0, 1), Gate("a", (2, 3), (0.1, 0.2)))
        assert commutes(Gate("x", (0,)), Gate("rz", (1,), (0.3,)))

    def test_diagonal_family(self):
        assert commutes(rzz(0, 1), rzz(1, 2))
        assert commutes(rzz(0, 1), Gate("rz", (0,), (0.2,)))

    def test_transverse_family(self):
        assert commutes(Gate("x", (0,)), Gate("rx", (0,), (0.4,)))

    def test_diagonal_vs_transverse(self):
        assert not commutes(Gate("rz", (0,), (0.1,)), Gate("rx", (0,), (0.1,)))
        assert not commutes(rzz(0, 1), Gate("x", (1,)))

    def test_xy_with_rzz_same_pair_only(self):
        xy01 = Gate("xy", (0, 1), (0.3,))
        assert commutes(xy01, rzz(0, 1))
        assert commutes(xy01, rzz(1, 0))
        assert not commutes(xy01, rzz(1, 2))
        assert not commutes(xy01, Gate("xy", (1, 2), (0.3,)))

    def test_spread_rotation_never_assumed_to_commute(self):
        a01 = Gate("a", (0, 1), (0.2, 0.0))
        assert not commutes(a01, Gate("a", (1, 2), (0.2, 0.0)))
        assert not commutes(a01, Gate("x", (0,)))
        assert not commutes(a01, rzz(0, 1))

    def test_symmetry(self):
        pairs = [
            (rzz(0, 1), Gate("xy", (0, 1), (0.1,))),
            (Gate("x", (0,)), Gate("rz", (0,), (0.1,))),
            (Gate("a", (0, 1), (0.1, 0.0)), rzz(1, 2)),
        ]
        for a, b in pairs:
            assert commutes(a, b) == commutes(b, a)


class TestSchedule:
    def test_empty(self):
        assert schedule([]) == []

    def test_single_qubit_gates_cost_nothing(self):
        layers = schedule([Gate("rz", (0,), (0.1,)), Gate("rz", (1,), (0.2,))])
        assert layers == []

    def test_parallel_pack(self):
        layers = schedule([rzz(0, 1), rzz(2, 3), rzz(1, 2)])
        assert len(layers) == 2
        assert layers[0].gate_indices == (0, 1)
        assert layers[1].gate_indices == (2,)

    def test_earliest_fit_backfills(self):
        # the third gate fits next to the first even though it is emitted
        # after a conflicting one
        layers = schedule([rzz(0, 1), rzz(1, 2), rzz(2, 3)])
        assert [l.gate_indices for l in layers] == [(0, 2), (1,)]
        assert sum(l.cnot_cost for l in layers) == 4

    def test_commutation_cut_blocks_reorder(self):
        # an X on a shared qubit separates the two couplers
        gates = [rzz(0, 1), Gate("x", (1,)), rzz(2, 3)]
        layers = schedule(gates)
        assert [l.gate_indices for l in layers] == [(0,), (2,)]
        # the X opens a second run and the last coupler joins it
        assert [l.group for l in layers] == [0, 1]

    def test_layer_cost_is_max_expansion(self):
        gates = [Gate("a", (0, 1), (0.1, 0.0)), Gate("xy", (2, 3), (0.2,))]
        layers = schedule(gates)
        assert len(layers) == 1
        assert layers[0].cnot_cost == 3

    def test_groups_monotone(self):
        problem = uniform_problem(3, 3)
        circ = ansatz_circuit(problem, "xy", [0.1] * 4)
        layers = schedule(circ.gates)
        groups = [l.group for l in layers]
        assert groups == sorted(groups)

    @given(problems(max_residues=4, max_rotamers=3, min_rotamers=2), st.sampled_from(["baseline", "penalty", "xy"]))
    def test_layers_partition_two_qubit_gates(self, problem, regime):
        circ = ansatz_circuit(problem, regime, [0.3, 0.4])
        layers = schedule(circ.gates)
        seen = [k for l in layers for k in l.gate_indices]
        two_qubit = [k for k, g in enumerate(circ.gates) if g.is_two_qubit]
        assert sorted(seen) == two_qubit
        for l in layers:
            touched = [q for k in l.gate_indices for q in circ.gates[k].qubits]
            assert len(touched) == len(set(touched))


class TestLogicalDepth:
    def test_counts_are_packing_independent(self):
        gates = (rzz(0, 1), rzz(1, 2), Gate("a", (0, 3), (0.1, 0.0)))
        circ = Circuit(num_qubits=4, gates=gates)
        summary = logical_depth(circ)
        assert summary.cnot_count == 2 + 2 + 3

    def test_state_prep_toggle(self):
        problem = uniform_problem(2, 3)
        circ = ansatz_circuit(problem, "xy", [0.2, 0.3])
        full = logical_depth(circ, include_state_prep=True)
        bare = logical_depth(circ, include_state_prep=False)
        assert full.cd > bare.cd
        assert full.cnot_count - bare.cnot_count == 3 * 2 * (3 - 1)

    @pytest.mark.parametrize("regime", ["baseline", "penalty", "xy"])
    @pytest.mark.parametrize("size", range(2, 8))
    def test_square_instances_match_frozen_table(self, regime, size):
        report = depth_report(uniform_problem(size, size), regime)
        assert (report["cd"], report["cd_sp"]) == SQUARE_DEPTHS[regime][size]

    @pytest.mark.parametrize("regime", ["baseline", "penalty", "xy"])
    def test_depth_saturates_in_chain_length(self, regime):
        # nearest-neighbor couplings let distant blocks share layers, so at
        # fixed rotamer count the depth stops growing
        depths = [
            depth_report(uniform_problem(n_res, 3), regime)["cd"]
            for n_res in range(3, 11)
        ]
        assert len(set(depths)) == 1

    @pytest.mark.parametrize("regime", ["baseline", "penalty", "xy"])
    @pytest.mark.parametrize("shape", [(3, 3), (4, 2), (2, 4)])
    def test_depth_linear_in_ansatz_layers(self, regime, shape):
        base = depth_report(uniform_problem(*shape), regime, p=1)["cd"]
        for p in (2, 3):
            assert depth_report(uniform_problem(*shape), regime, p=p)["cd"] == p * base


class TestDepthReport:
    def test_shape_and_counts(self):
        report = depth_report(uniform_problem(3, 3), "baseline")
        assert report["regime"] == "baseline"
        assert report["N"] == 3
        assert report["n"] == 3
        assert report["p"] == 1
        assert report["cnot_count"] == 18 * 2

    def test_mixed_counts_reported_as_list(self):
        problem = uniform_problem(2, 2)
        mixed = problem.__class__(
            rotamer_counts=(2, 3),
            self_energies=np.ones(5),
            pair_blocks={(0, 1): np.ones((2, 3))},
        )
        assert depth_report(mixed, "baseline")["n"] == [2, 3]

    def test_trace_matches_schedule(self):
        problem = uniform_problem(2, 2)
        circ = ansatz_circuit(problem, "xy", [0.5, 0.5])
        rows = schedule_trace(circ)
        layers = schedule(circ.gates)
        assert len(rows) == len(layers)
        for row, layer in zip(rows, layers):
            assert row["group"] == layer.group
            assert row["cnot_cost"] == layer.cnot_cost
            assert len(row["gates"]) == len(layer.gate_indices)
        assert rows[0]["layer"] == 0
        first = circ.gates[layers[0].gate_indices[0]]
        assert rows[0]["gates"][0] == f"{first.kind}{first.qubits}"


class TestUniformProblem:
    def test_structure(self):
        p = uniform_problem(4, 3)
        assert p.rotamer_counts == (3, 3, 3, 3)
        assert p.nearest_neighbor_only
        assert set(p.pair_blocks) == {(0, 1), (1, 2), (2, 3)}
        assert np.all(p.self_energies == 1.0)
        for block in p.pair_blocks.values():
            assert np.all(block == 1.0)
