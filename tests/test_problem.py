"""Energy tables, bitstring codec, file formats, and the instance generator."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import all_bitstrings, problems, problems_with_config
from rotpack.problem import (
    MAX_TABLE_SIZE,
    InvalidBitstring,
    ProblemFormatError,
    RotamerProblem,
    decode,
    encode,
    load_problem,
    random_problem,
    save_problem,
    valid_mask,
)


def max_abs_by_distance(problem: RotamerProblem) -> dict[int, float]:
    """Largest |pair energy| at each residue separation with a stored block."""
    out: dict[int, float] = {}
    for (i, j), table in problem.pair_blocks.items():
        out[j - i] = max(out.get(j - i, 0.0), float(np.abs(table).max()))
    return out


def tiny_problem() -> RotamerProblem:
    return RotamerProblem(
        rotamer_counts=(2, 2),
        self_energies=np.array([0.5, -1.0, 0.25, 2.0]),
        pair_blocks={(0, 1): np.array([[0.1, -0.2], [0.3, 0.4]])},
    )


class TestEnergy:
    def test_hand_computed(self):
        p = tiny_problem()
        assert p.energy((1, 0)) == pytest.approx(-1.0 + 0.25 + 0.3)
        assert p.energy((0, 1)) == pytest.approx(0.5 + 2.0 - 0.2)

    def test_missing_block_contributes_nothing(self):
        p = RotamerProblem(
            rotamer_counts=(2, 2, 2),
            self_energies=np.zeros(6),
            pair_blocks={(0, 1): np.ones((2, 2))},
        )
        # no (1, 2) block stored, so only the (0, 1) coupling counts
        assert p.energy((0, 0, 0)) == 1.0
        assert p.pair_energy(1, 0, 2, 0) == 0.0

    def test_pair_energy_order_insensitive(self):
        p = tiny_problem()
        assert p.pair_energy(1, 0, 0, 1) == p.pair_energy(0, 1, 1, 0) == 0.3

    def test_config_validation(self):
        p = tiny_problem()
        with pytest.raises(ValueError):
            p.energy((0,))
        with pytest.raises(ValueError):
            p.energy((0, 2))

    @given(problems_with_config())
    def test_energy_matches_term_sum(self, case):
        problem, config = case
        expected = sum(
            problem.self_energy(i, c) for i, c in enumerate(config)
        ) + sum(
            problem.pair_energy(i, config[i], j, config[j])
            for (i, j) in problem.pair_blocks
        )
        assert problem.energy(config) == pytest.approx(expected, abs=1e-12)

    @given(problems(max_residues=5, max_rotamers=3))
    def test_energy_table_is_energy_bit_for_bit(self, problem):
        counts = problem.rotamer_counts
        configs = itertools.product(*(range(n) for n in counts))
        expected = np.array([problem.energy(c) for c in configs]).reshape(counts)
        assert np.array_equal(problem.energy_table(), expected)

    def test_energy_table_limit_is_checked_before_allocating(self):
        huge = random_problem(30, 7, seed=0)  # 7^30 configurations: no allocation
        just_over = random_problem(27, 2, seed=0)
        assert 2**27 > MAX_TABLE_SIZE
        for problem in (huge, just_over):
            with pytest.raises(ValueError, match="exceed the table limit"):
                problem.energy_table()


class TestValidation:
    def test_rejects_empty_and_zero_rotamers(self):
        with pytest.raises(ValueError):
            RotamerProblem((), np.zeros(0), {})
        with pytest.raises(ValueError):
            RotamerProblem((2, 0), np.zeros(2), {})

    def test_rejects_bad_block_shape(self):
        with pytest.raises(ValueError):
            RotamerProblem(
                (2, 2), np.zeros(4), {(0, 1): np.zeros((2, 3))}
            )

    def test_rejects_nonadjacent_block_in_nn_mode(self):
        blocks = {(0, 2): np.zeros((2, 2))}
        with pytest.raises(ValueError):
            RotamerProblem((2, 2, 2), np.zeros(6), blocks)
        # allowed once the instance declares full range
        RotamerProblem(
            (2, 2, 2), np.zeros(6), blocks, nearest_neighbor_only=False
        )

    def test_rejects_misordered_pair(self):
        with pytest.raises(ValueError):
            RotamerProblem((2, 2), np.zeros(4), {(1, 0): np.zeros((2, 2))})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_energies(self, bad):
        with pytest.raises(ValueError, match="self_energies must all be finite"):
            RotamerProblem((2, 2), [0.0, bad, 0.0, 0.0], {})
        with pytest.raises(ValueError, match=r"pair block \(0, 1\) must be all finite"):
            RotamerProblem((2, 2), np.zeros(4), {(0, 1): [[0.0, 0.0], [bad, 0.0]]})

    def test_tables_frozen(self):
        p = tiny_problem()
        with pytest.raises(ValueError):
            p.self_energies[0] = 9.0
        with pytest.raises(ValueError):
            p.pair_blocks[(0, 1)][0, 0] = 9.0


class TestCodec:
    def test_decode_valid(self):
        p = tiny_problem()
        assert decode([0, 1, 1, 0], p) == (1, 0)

    def test_decode_invalid_is_falsy_marker(self):
        p = tiny_problem()
        out = decode([1, 1, 0, 0], p)
        assert isinstance(out, InvalidBitstring)
        assert not out
        assert out.bad_residues == (0, 1)

    def test_decode_length_check(self):
        with pytest.raises(ValueError):
            decode([0, 1], tiny_problem())

    def test_valid_bitstring_counts(self):
        # exactly n^N of the 2^M bitstrings satisfy one-hot blocks
        for counts, expected in [((2, 2), 4), ((2, 4), 8), ((4, 4), 16)]:
            p = random_problem(len(counts), counts, seed=0)
            bits = all_bitstrings(p.num_qubits)
            assert int(valid_mask(bits, p).sum()) == expected

    @given(problems_with_config())
    def test_encode_decode_roundtrip(self, case):
        problem, config = case
        bits = encode(config, problem)
        assert decode(bits, problem) == config
        assert valid_mask(bits[None, :], problem).all()

    def test_encode_range_check(self):
        with pytest.raises(ValueError):
            encode((0, 2), tiny_problem())


class TestGenerator:
    def test_seed7_four_by_four(self):
        p = random_problem(4, 4, seed=7)
        assert p.num_qubits == 16
        assert p.block_offsets == (0, 4, 8, 12)
        assert set(p.pair_blocks) == {(0, 1), (1, 2), (2, 3)}

    def test_deterministic(self):
        a = random_problem(3, 3, seed=42)
        b = random_problem(3, 3, seed=42)
        assert np.array_equal(a.self_energies, b.self_energies)
        for key in a.pair_blocks:
            assert np.array_equal(a.pair_blocks[key], b.pair_blocks[key])
        c = random_problem(3, 3, seed=43)
        assert not np.array_equal(a.self_energies, c.self_energies)

    def test_per_residue_counts(self):
        p = random_problem(3, (2, 4, 3), seed=0)
        assert p.rotamer_counts == (2, 4, 3)
        assert p.pair_blocks[(0, 1)].shape == (2, 4)
        assert p.pair_blocks[(1, 2)].shape == (4, 3)

    def test_decay_envelope_seed11(self):
        p = random_problem(
            5, 3, seed=11, decay=0.05, nearest_neighbor_only=False
        )
        max_abs = max_abs_by_distance(p)
        assert sorted(max_abs) == [1, 2, 3, 4]
        ratio = max(max_abs[d] for d in (2, 3, 4)) / max_abs[1]
        assert ratio <= 0.05

    @given(
        st.integers(0, 2**31 - 1),
        st.integers(3, 6),
        st.integers(2, 4),
        st.floats(0.01, 0.5),
    )
    def test_decay_envelope_is_structural(self, seed, n_res, n_rot, decay):
        """The generator bounds every far coupling, whatever the seed."""
        p = random_problem(
            n_res, n_rot, seed=seed, decay=decay, nearest_neighbor_only=False
        )
        max_abs = max_abs_by_distance(p)
        for d in range(2, n_res):
            assert max_abs[d] <= decay ** (d - 1) * max_abs[1] + 1e-15

    def test_numpy_integer_rotamer_count(self):
        p = random_problem(2, np.int64(3), seed=1)
        q = random_problem(2, 3, seed=1)
        assert p.rotamer_counts == q.rotamer_counts == (3, 3)
        np.testing.assert_array_equal(p.self_energies, q.self_energies)
        np.testing.assert_array_equal(p.pair_blocks[(0, 1)], q.pair_blocks[(0, 1)])

    def test_scales(self):
        p = random_problem(2, 2, seed=3, self_scale=0.0, pair_scale=2.0)
        assert np.all(p.self_energies == 0.0)
        assert np.abs(p.pair_blocks[(0, 1)]).max() <= 2.0


# marks a field the test deletes
MISSING = object()


class TestFiles:
    def test_json_roundtrip(self, tmp_path):
        p = random_problem(3, (2, 3, 2), seed=5)
        path = tmp_path / "instance.json"
        save_problem(p, path)
        q = load_problem(path)
        assert q.rotamer_counts == p.rotamer_counts
        assert np.allclose(q.self_energies, p.self_energies)
        for key in p.pair_blocks:
            assert np.allclose(q.pair_blocks[key], p.pair_blocks[key])

    def test_table_roundtrip(self, tmp_path):
        p = random_problem(2, 3, seed=8, nearest_neighbor_only=False)
        path = tmp_path / "instance.json"
        save_problem(p, path, tables="instance_tables.csv")
        assert (tmp_path / "instance_tables.csv").exists()
        doc = json.loads(path.read_text())
        assert "self_energy" not in doc
        q = load_problem(path)
        assert np.allclose(q.self_energies, p.self_energies)
        assert np.allclose(q.pair_blocks[(0, 1)], p.pair_blocks[(0, 1)])

    def _write(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        return path

    def _base_doc(self):
        return {
            "num_residues": 2,
            "rotamers_per_residue": [2, 2],
            "nearest_neighbor_only": True,
            "self_energy": [
                {"residue": r, "rotamer": a, "energy": 0.0}
                for r in range(2)
                for a in range(2)
            ],
            "pair_energy": [],
        }

    def test_missing_required_field(self, tmp_path):
        with pytest.raises(ProblemFormatError, match="missing required"):
            load_problem(self._write(tmp_path, {"num_residues": 2}))

    @pytest.mark.parametrize(
        "field, keys, value",
        [
            ("num_residues", ("num_residues",), 2.7),
            ("rotamers_per_residue", ("rotamers_per_residue",), [2.9, 2]),
            ("rotamers_per_residue", ("rotamers_per_residue",), 2.5),
            ("rotamers_per_residue", ("rotamers_per_residue",), "22"),
            ("rotamers_per_residue", ("rotamers_per_residue",), [True, 2]),
            ("nearest_neighbor_only", ("nearest_neighbor_only",), "false"),
            ("self_energy residue", ("self_energy", 2, "residue"), 1.0),
            ("self_energy rotamer", ("self_energy", 0, "rotamer"), 0.5),
            ("pair_energy res_i", ("pair_energy", 0, "res_i"), True),
            ("pair_energy rot_i", ("pair_energy", 0, "rot_i"), 0.5),
            ("pair_energy res_j", ("pair_energy", 0, "res_j"), "1"),
            ("pair_energy rot_j", ("pair_energy", 0, "rot_j"), 1.0),
            ("self_energy energy", ("self_energy", 1, "energy"), MISSING),
            ("pair_energy res_j", ("pair_energy", 0, "res_j"), MISSING),
            ("self_energy energy", ("self_energy", 1, "energy"), "abc"),
            ("self_energy energy", ("self_energy", 1, "energy"), ""),
            ("self_energy energy", ("self_energy", 1, "energy"), True),
            ("self_energy energy", ("self_energy", 1, "energy"), math.inf),
            ("self_energy energy", ("self_energy", 1, "energy"), math.nan),
            ("pair_energy energy", ("pair_energy", 0, "energy"), math.nan),
            ("bad.json", (), [1, 2]),
            ("self_energy", ("self_energy",), 5),
            ("self_energy", ("self_energy", 1), [0, 1, 0.0]),
        ],
        ids=[
            "num_residues-float",
            "counts-float-in-list",
            "counts-float",
            "counts-string",
            "counts-bool-in-list",
            "nn_only-string",
            "self-residue-float",
            "self-rotamer-float",
            "pair-res_i-bool",
            "pair-rot_i-float",
            "pair-res_j-string",
            "pair-rot_j-float",
            "self-energy-missing",
            "pair-res_j-missing",
            "self-energy-string",
            "self-energy-empty",
            "self-energy-bool",
            "self-energy-inf",
            "self-energy-nan",
            "pair-energy-nan",
            "document-list",
            "self-not-list",
            "self-row-not-object",
        ],
    )
    def test_field_of_wrong_type_rejected(self, tmp_path, field, keys, value):
        doc = self._base_doc()
        doc["pair_energy"] = [
            {"res_i": 0, "rot_i": 1, "res_j": 1, "rot_j": 1, "energy": 0.5}
        ]
        if keys:
            *parents, last = keys
            target = doc
            for key in parents:
                target = target[key]
            if value is MISSING:
                del target[last]
            else:
                target[last] = value
        else:
            doc = value
        with pytest.raises(ProblemFormatError, match=f"^{field} must be"):
            load_problem(self._write(tmp_path, doc))

    def test_missing_self_entry(self, tmp_path):
        doc = self._base_doc()
        del doc["self_energy"][2]
        with pytest.raises(ProblemFormatError, match="missing self-energy"):
            load_problem(self._write(tmp_path, doc))

    def test_conflicting_self_entries(self, tmp_path):
        doc = self._base_doc()
        doc["self_energy"].append({"residue": 0, "rotamer": 0, "energy": 5.0})
        with pytest.raises(ProblemFormatError, match="conflicting"):
            load_problem(self._write(tmp_path, doc))

    def test_duplicate_consistent_self_entry_ok(self, tmp_path):
        doc = self._base_doc()
        doc["self_energy"].append({"residue": 0, "rotamer": 0, "energy": 0.0})
        load_problem(self._write(tmp_path, doc))

    def test_asymmetric_pair_rejected(self, tmp_path):
        doc = self._base_doc()
        doc["pair_energy"] = [
            {"res_i": 0, "rot_i": 0, "res_j": 1, "rot_j": 1, "energy": 1.0},
            {"res_i": 1, "rot_i": 1, "res_j": 0, "rot_j": 0, "energy": 1.5},
        ]
        with pytest.raises(ProblemFormatError, match="asymmetric"):
            load_problem(self._write(tmp_path, doc))

    def test_mirrored_pair_accepted(self, tmp_path):
        doc = self._base_doc()
        doc["pair_energy"] = [
            {"res_i": 0, "rot_i": 0, "res_j": 1, "rot_j": 1, "energy": 1.0},
            {"res_i": 1, "rot_i": 1, "res_j": 0, "rot_j": 0, "energy": 1.0},
        ]
        p = load_problem(self._write(tmp_path, doc))
        assert p.pair_energy(0, 0, 1, 1) == 1.0

    def test_nonadjacent_pair_rejected_in_nn_mode(self, tmp_path):
        doc = self._base_doc()
        doc["num_residues"] = 3
        doc["rotamers_per_residue"] = [2, 2, 2]
        doc["self_energy"] = [
            {"residue": r, "rotamer": a, "energy": 0.0}
            for r in range(3)
            for a in range(2)
        ]
        doc["pair_energy"] = [
            {"res_i": 0, "rot_i": 0, "res_j": 2, "rot_j": 0, "energy": 1.0}
        ]
        with pytest.raises(ProblemFormatError, match="non-adjacent"):
            load_problem(self._write(tmp_path, doc))

    def test_out_of_range_indices(self, tmp_path):
        doc = self._base_doc()
        doc["self_energy"].append({"residue": 5, "rotamer": 0, "energy": 0.0})
        with pytest.raises(ProblemFormatError, match="out of range"):
            load_problem(self._write(tmp_path, doc))
        doc = self._base_doc()
        doc["pair_energy"] = [
            {"res_i": 0, "rot_i": 3, "res_j": 1, "rot_j": 0, "energy": 1.0}
        ]
        with pytest.raises(ProblemFormatError, match="out of range"):
            load_problem(self._write(tmp_path, doc))

    def test_unknown_table_kind(self, tmp_path):
        doc = self._base_doc()
        del doc["self_energy"]
        del doc["pair_energy"]
        doc["tables"] = "rows.csv"
        (tmp_path / "rows.csv").write_text(
            "kind,res_i,rot_i,res_j,rot_j,energy\nwobble,0,0,,,1.0\n"
        )
        with pytest.raises(ProblemFormatError, match="unknown table row"):
            load_problem(self._write(tmp_path, doc))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("self,1.0,0,,,0.0", "res_i must be an integer, not 1.0"),
            ("pair,0,0,1,1e0,0.5", "rot_j must be an integer, not 1.0"),
            ("self,0,0,,,abc", "energy must be a finite number, not 'abc'"),
            ("self,0,0,,,", "energy must be a finite number, not ''"),
            ("self,0,0,,,true", "energy must be a finite number, not 'true'"),
            ("self,0,0,,,inf", "energy must be a finite number, not inf"),
            ("pair,0,0,1,1,nan", "energy must be a finite number, not nan"),
            ("pair,0,0,1", "rot_j must be an integer, not None"),
        ],
        ids=[
            "index-float",
            "index-exponent",
            "energy-string",
            "energy-empty",
            "energy-bool",
            "energy-inf",
            "energy-nan",
            "short-row",
        ],
    )
    def test_table_row_of_wrong_type_rejected(self, tmp_path, text, message):
        doc = self._base_doc()
        doc["tables"] = "rows.csv"
        (tmp_path / "rows.csv").write_text(
            f"kind,res_i,rot_i,res_j,rot_j,energy\nself,0,1,,,0.0\n{text}\n"
        )
        with pytest.raises(ProblemFormatError) as info:
            load_problem(self._write(tmp_path, doc))
        assert str(info.value) == f"rows.csv {message} in line 3"

    def test_table_without_kind_column_rejected(self, tmp_path):
        doc = self._base_doc()
        doc["tables"] = "rows.csv"
        (tmp_path / "rows.csv").write_text("res_i,rot_i,res_j,rot_j,energy\n0,0,,,1.0\n")
        with pytest.raises(ProblemFormatError, match="unknown table row kind None"):
            load_problem(self._write(tmp_path, doc))

    @pytest.mark.parametrize("tables", [5, None, ["rows.csv"]])
    def test_tables_must_name_a_file(self, tmp_path, tables):
        doc = self._base_doc()
        doc["tables"] = tables
        with pytest.raises(ProblemFormatError) as info:
            load_problem(self._write(tmp_path, doc))
        assert str(info.value) == f"bad.json tables must be a file name, not {tables!r}"

    @pytest.mark.parametrize("cut", [0, 1, 40, -1])
    def test_truncated_json_rejected(self, tmp_path, cut):
        path = self._write(tmp_path, self._base_doc())
        path.write_text(path.read_text()[:cut])
        with pytest.raises(ProblemFormatError, match=r"^bad\.json is not valid JSON: "):
            load_problem(path)

    @given(problems(max_residues=3, max_rotamers=3))
    def test_save_load_identity(self, tmp_path_factory, problem):
        path = tmp_path_factory.mktemp("files") / "p.json"
        save_problem(problem, path)
        loaded = load_problem(path)
        assert loaded.rotamer_counts == problem.rotamer_counts
        assert np.allclose(loaded.self_energies, problem.self_energies)
        assert set(loaded.pair_blocks) == set(problem.pair_blocks)
        for key, tab in problem.pair_blocks.items():
            assert np.allclose(loaded.pair_blocks[key], tab)
