import numpy as np
import pytest

from mbang import Dataset, SchemaError, simulate
from mbang.fileio import (
    canonical_sha256,
    load_graph,
    load_spec,
    read_dataset,
    read_dataset_bin,
    read_dataset_csv,
    save_graph,
    save_spec,
    spec_from_json_dict,
    spec_to_json_dict,
    write_dataset_bin,
    write_dataset_csv,
)

from helpers import showcase_mixed, showcase_spec


@pytest.fixture
def data():
    return simulate(showcase_spec(), 64, seed=3)


class TestCsv:
    def test_round_trip_is_exact(self, data, tmp_path):
        path = tmp_path / "d.csv"
        write_dataset_csv(data, path)
        back = read_dataset_csv(path)
        assert np.array_equal(back.values, data.values)

    def test_write_is_deterministic(self, data, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_dataset_csv(data, a)
        write_dataset_csv(data, b)
        assert a.read_bytes() == b.read_bytes()

    def test_row_labels_lead_each_line(self, tmp_path):
        path = tmp_path / "d.csv"
        write_dataset_csv(Dataset(np.array([[1.5, -2.0], [0.25, 0.5]])), path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("1,") and lines[1].startswith("2,")

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,1.0,2.0\n2,3.0\n")
        with pytest.raises(SchemaError):
            read_dataset_csv(path)

    def test_non_numeric_rejected_with_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,1.0\n2,zap\n")
        with pytest.raises(SchemaError, match="bad.csv:2"):
            read_dataset_csv(path)

    def test_shuffled_rows_are_reordered_by_label(self, tmp_path):
        path = tmp_path / "shuffled.csv"
        path.write_text("2,20.0,21.0\n1,10.0,11.0\n")
        back = read_dataset_csv(path)
        assert np.array_equal(back.values, [[10.0, 11.0], [20.0, 21.0]])

    def test_bad_label_set_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,1.0\n3,2.0\n")
        with pytest.raises(SchemaError, match="permutation"):
            read_dataset_csv(path)


class TestBinary:
    def test_round_trip(self, data, tmp_path):
        path = tmp_path / "d.bin"
        write_dataset_bin(data, path)
        back = read_dataset_bin(path)
        assert np.array_equal(back.values, data.values)

    def test_header_is_16_bytes(self, data, tmp_path):
        path = tmp_path / "d.bin"
        write_dataset_bin(data, path)
        raw = path.read_bytes()
        assert raw[:4] == b"MBD1"
        assert len(raw) == 16 + data.p * data.n * 8

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"XXXX" + bytes(12))
        with pytest.raises(SchemaError, match="magic"):
            read_dataset_bin(path)

    def test_truncated_payload(self, data, tmp_path):
        path = tmp_path / "trunc.bin"
        write_dataset_bin(data, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(SchemaError, match="payload"):
            read_dataset_bin(path)

    def test_read_dispatches_on_extension(self, data, tmp_path):
        b, c = tmp_path / "d.bin", tmp_path / "d.csv"
        write_dataset_bin(data, b)
        write_dataset_csv(data, c)
        assert np.array_equal(read_dataset(b).values, read_dataset(c).values)


class TestSpecJson:
    def test_round_trip(self, tmp_path):
        spec = showcase_spec()
        path = tmp_path / "spec.json"
        save_spec(spec, path)
        back = load_spec(path)
        assert back.graph == spec.graph
        assert np.array_equal(back.B, spec.B)
        assert back.noise == spec.noise
        assert back.hidden == spec.hidden

    def test_document_states_matrix_convention(self):
        doc = spec_to_json_dict(showcase_spec())
        assert "direct effect of vertex i on vertex j" in doc["b_convention"]

    def test_malformed_document(self):
        with pytest.raises(SchemaError):
            spec_from_json_dict({"p": 2, "directed": [], "multi": []})

    def test_simulation_from_loaded_spec_matches(self, tmp_path):
        spec = showcase_spec()
        path = tmp_path / "spec.json"
        save_spec(spec, path)
        back = load_spec(path)
        a = simulate(spec, 32, seed=5)
        b = simulate(back, 32, seed=5)
        assert np.array_equal(a.values, b.values)


class TestGraphJson:
    def test_round_trip(self, tmp_path):
        g = showcase_mixed()
        path = tmp_path / "g.json"
        save_graph(g, path)
        assert load_graph(path) == g

    def test_missing_file(self, tmp_path):
        with pytest.raises(SchemaError):
            load_graph(tmp_path / "absent.json")


def test_canonical_hash_is_stable():
    doc = {"b": 1, "a": [1, 2]}
    assert canonical_sha256(doc) == canonical_sha256({"a": [1, 2], "b": 1})
    assert len(canonical_sha256(doc)) == 64
