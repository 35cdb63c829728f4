import dataclasses
import json
import pathlib

import numpy as np
import pytest

from mbang import simulate
from mbang.cli import main
from mbang.fileio import read_dataset_csv, save_graph, save_spec, write_dataset_csv

from helpers import (
    case1_graph,
    case2_spec,
    showcase_mixed,
    showcase_spec,
)


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    save_spec(showcase_spec(), path)
    return str(path)


@pytest.fixture
def case2_files(tmp_path):
    spec = case2_spec()
    spec_path = tmp_path / "case2_spec.json"
    save_spec(spec, spec_path)
    data_path = tmp_path / "case2.csv"
    write_dataset_csv(simulate(spec, 50000, seed=17), data_path)
    return str(spec_path), str(data_path)


class TestSimulate:
    def test_writes_expected_shape_and_echoes_hash(self, spec_file, tmp_path, capsys):
        out = tmp_path / "data.csv"
        rc = main(["simulate", "--spec", spec_file, "--n", "200", "--seed", "1",
                   "--out", str(out)])
        assert rc == 0
        err = capsys.readouterr().err
        assert "spec sha256:" in err
        data = read_dataset_csv(out)
        assert data.p == 5 and data.n == 200  # observed vertices only

    def test_zero_samples_is_usage_error(self, spec_file, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--spec", spec_file, "--n", "0", "--seed", "1",
                  "--out", str(tmp_path / "x.csv")])
        assert err.value.code == 2

    def test_same_seed_is_byte_identical(self, spec_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            main(["simulate", "--spec", spec_file, "--n", "64", "--seed", "9",
                  "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_binary_format(self, spec_file, tmp_path):
        out = tmp_path / "data.bin"
        rc = main(["simulate", "--spec", spec_file, "--n", "32", "--seed", "2",
                   "--out", str(out), "--format", "bin"])
        assert rc == 0
        assert out.read_bytes()[:4] == b"MBD1"


class TestDiscover:
    def test_case2_oracle_stage(self, case2_files, tmp_path, capsys):
        spec_path, data_path = case2_files
        out = tmp_path / "graph.json"
        rc = main(["discover", "--data", data_path, "--oracle-spec", spec_path,
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["multi"] == [[2, 3, 4]]
        assert "(2,3,4) <-*->" in capsys.readouterr().out

    def test_huge_tolerance_keeps_pairs(self, case2_files, tmp_path):
        spec_path, data_path = case2_files
        out = tmp_path / "graph.json"
        rc = main(["discover", "--data", data_path, "--oracle-spec", spec_path,
                   "--tolerance", "1e9", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["multi"] == [[2, 3], [2, 4], [3, 4]]

    def test_zero_tolerance_warns_and_merges_everything(self, case2_files, tmp_path, capsys):
        spec_path, data_path = case2_files
        out = tmp_path / "graph.json"
        rc = main(["discover", "--data", data_path, "--oracle-spec", spec_path,
                   "--tolerance", "0", "--out", str(out)])
        assert rc == 0
        assert "tolerance 0" in capsys.readouterr().err
        doc = json.loads(out.read_text())
        assert doc["multi"] == [[2, 3, 4]]

    def test_external_stage_with_bow_fails_validation(self, tmp_path):
        stage = {"p": 2, "directed": [[1, 2]], "bidirected": [[1, 2]],
                 "B": [[0.0, 0.5], [0.0, 0.0]]}
        stage_path = tmp_path / "stage.json"
        stage_path.write_text(json.dumps(stage))
        data_path = tmp_path / "d.csv"
        write_dataset_csv(simulate(case2_spec(), 100, seed=1), data_path)
        rc = main(["discover", "--data", str(data_path), "--stage", str(stage_path),
                   "--out", str(tmp_path / "g.json")])
        assert rc == 3

    def test_dimension_mismatch_is_validation_error(self, tmp_path, spec_file):
        data_path = tmp_path / "d.csv"
        write_dataset_csv(simulate(case2_spec(), 100, seed=1), data_path)  # p=4
        rc = main(["discover", "--data", str(data_path), "--oracle-spec", spec_file,
                   "--out", str(tmp_path / "g.json")])  # spec has p=5
        assert rc == 3

    def test_zero_variance_row_is_numerical_error(self, tmp_path):
        data_path = tmp_path / "flat.csv"
        data_path.write_text("1,1.0,1.0,1.0,1.0\n2,0.1,-0.2,0.3,-0.4\n")
        stage_path = tmp_path / "stage.json"
        stage_path.write_text(json.dumps({
            "p": 2, "directed": [], "bidirected": [[1, 2]],
            "B": [[0.0, 0.0], [0.0, 0.0]],
        }))
        rc = main(["discover", "--data", str(data_path), "--stage", str(stage_path),
                   "--out", str(tmp_path / "g.json")])
        assert rc == 4


class TestTreks:
    def test_witness_for_three_edge(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        save_graph(showcase_mixed(), path)
        rc = main(["treks", "--graph", str(path), "--tuple", "2,3,4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "3-trek found" in out
        assert "multidirected edge (2,3,4)" in out

    def test_case1_has_none(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        save_graph(case1_graph(), path)
        rc = main(["treks", "--graph", str(path), "--tuple", "2,3,4"])
        assert rc == 0
        assert "no 3-trek" in capsys.readouterr().out

    def test_single_vertex_tuple_is_usage_error(self, tmp_path):
        path = tmp_path / "g.json"
        save_graph(case1_graph(), path)
        with pytest.raises(SystemExit) as err:
            main(["treks", "--graph", str(path), "--tuple", "2"])
        assert err.value.code == 2

    def test_out_of_range_tuple_is_validation_error(self, tmp_path):
        path = tmp_path / "g.json"
        save_graph(case1_graph(), path)
        rc = main(["treks", "--graph", str(path), "--tuple", "2,9"])
        assert rc == 3

    def test_cyclic_graph_is_validation_error(self, tmp_path):
        from mbang import MixedGraph

        path = tmp_path / "g.json"
        save_graph(MixedGraph(3, {(1, 2), (2, 3), (3, 1)}), path)
        rc = main(["treks", "--graph", str(path), "--tuple", "1,2"])
        assert rc == 3


class TestCumulants:
    def test_tensor_file_matches_library(self, tmp_path):
        from mbang import center_rows, sample_cumulant_tensor

        data = simulate(case2_spec(), 5000, seed=8)
        data_path = tmp_path / "d.csv"
        write_dataset_csv(data, data_path)
        out = tmp_path / "t.json"
        rc = main(["cumulants", "--data", str(data_path), "--order", "3",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        expected = sample_cumulant_tensor(center_rows(data), 3)
        got = {tuple(e["idx"]): e["value"] for e in doc["entries"]}
        assert got == pytest.approx(expected.values)

    def test_index_subset_selection(self, tmp_path):
        data_path = tmp_path / "d.csv"
        write_dataset_csv(simulate(case2_spec(), 1000, seed=8), data_path)
        idx_path = tmp_path / "idx.json"
        idx_path.write_text(json.dumps([[2, 3, 4], [4, 3, 2]]))
        out = tmp_path / "t.json"
        rc = main(["cumulants", "--data", str(data_path), "--order", "3",
                   "--indices", str(idx_path), "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert [e["idx"] for e in doc["entries"]] == [[2, 3, 4]]

    def test_order_overflow(self, tmp_path):
        data_path = tmp_path / "d.csv"
        write_dataset_csv(simulate(case2_spec(), 100, seed=8), data_path)
        rc = main(["cumulants", "--data", str(data_path), "--order", "9",
                   "--out", str(tmp_path / "t.json")])
        assert rc == 3


class TestBenchmark:
    def test_emits_csv_and_json(self, tmp_path, capsys):
        out_csv = tmp_path / "trials.csv"
        out_json = tmp_path / "agg.json"
        rc = main(["benchmark", "--p-pre", "6", "--edges", "5", "--noise", "chi2",
                   "--n", "2000", "--trials", "3", "--seed", "5",
                   "--out-csv", str(out_csv), "--out-json", str(out_json)])
        assert rc == 0
        agg = json.loads(out_json.read_text())
        assert agg["trials"] == 3
        header = out_csv.read_text().splitlines()[0]
        assert header == "trial,seed,n,edges,noise,edge_correct,edge_total,graph_exact,stage_exact,wall_ms"
        assert json.loads(capsys.readouterr().out)["trials"] == 3

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(json.dumps({
            "p_pre": 6, "edges": 5, "noise": "chi2", "n": 2000,
            "trials": 5, "seed": 5,
        }))
        out_json = tmp_path / "agg.json"
        rc = main(["benchmark", "--config", str(cfg_path), "--trials", "2",
                   "--out-json", str(out_json)])
        assert rc == 0
        assert json.loads(out_json.read_text())["trials"] == 2

    def test_unknown_noise_tag(self, tmp_path):
        rc = main(["benchmark", "--p-pre", "6", "--edges", "5", "--noise", "gauss",
                   "--n", "1000", "--trials", "1", "--seed", "0"])
        assert rc == 3


class TestGraphTools:
    def test_info(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        save_graph(showcase_mixed(), path)
        rc = main(["graph-tools", "info", "--graph", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "acyclic: True" in out and "bow-free: True" in out
        assert "{2,3,4}" in out

    def test_dot_export(self, tmp_path):
        path = tmp_path / "g.json"
        save_graph(showcase_mixed(), path)
        out = tmp_path / "g.dot"
        rc = main(["graph-tools", "dot", "--graph", str(path), "--out", str(out)])
        assert rc == 0
        assert '"H1"' in out.read_text()

    def test_subdivide(self, tmp_path):
        path = tmp_path / "g.json"
        save_graph(showcase_mixed(), path)
        out = tmp_path / "pairs.json"
        rc = main(["graph-tools", "subdivide", "--graph", str(path), "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["bidirected"] == [[2, 3], [2, 4], [3, 4], [4, 5]]

    def test_missing_out_is_usage_error(self, tmp_path):
        path = tmp_path / "g.json"
        save_graph(showcase_mixed(), path)
        with pytest.raises(SystemExit) as err:
            main(["graph-tools", "dot", "--graph", str(path)])
        assert err.value.code == 2


class TestSamples:
    # the files shipped under samples/ must stay loadable and consistent
    def test_spec_samples_load(self):
        import pathlib

        from mbang.fileio import load_spec

        root = pathlib.Path(__file__).resolve().parent.parent / "samples"
        for name in (
            "showcase_spec.json",
            "two_pair_causes_spec.json",
            "single_triple_cause_spec.json",
        ):
            spec = load_spec(root / name)
            assert spec.graph.p >= 3

    def test_external_stage_sample_loads(self):
        import pathlib

        from mbang import load_first_stage

        root = pathlib.Path(__file__).resolve().parent.parent / "samples"
        stage = load_first_stage(root / "external_stage_example.json")
        assert stage.p == 8 and len(stage.bidirected.pairs) == 7

    def test_bench_config_sample_constructs(self):
        import pathlib

        from mbang.bench import TrialConfig
        from mbang.fileio import load_json

        root = pathlib.Path(__file__).resolve().parent.parent / "samples"
        cfg = TrialConfig(**load_json(root / "bench_config.json"))
        assert cfg.p_pre == 7 and cfg.noise == "uniform10"


def test_cli_simulate_parity_with_library(spec_file, tmp_path):
    from mbang.fileio import load_spec, write_dataset_csv

    out = tmp_path / "cli.csv"
    main(["simulate", "--spec", spec_file, "--n", "80", "--seed", "21", "--out", str(out)])
    lib_out = tmp_path / "lib.csv"
    write_dataset_csv(simulate(load_spec(spec_file), 80, seed=21), lib_out)
    assert out.read_bytes() == lib_out.read_bytes()


def test_cli_benchmark_parity_with_library(tmp_path):
    from mbang.bench import TrialConfig, run_benchmark, write_trials_csv

    args = dict(p_pre=6, edges=5, noise="chi2", n=2000, trials=3, seed=5)
    cli_csv = tmp_path / "cli.csv"
    main(["benchmark", "--p-pre", "6", "--edges", "5", "--noise", "chi2",
          "--n", "2000", "--trials", "3", "--seed", "5", "--out-csv", str(cli_csv)])
    cfg = TrialConfig(**args)
    outcomes, _ = run_benchmark(cfg)
    lib_csv = tmp_path / "lib.csv"
    write_trials_csv(cfg, outcomes, lib_csv)
    cli_rows = cli_csv.read_text().splitlines()
    lib_rows = lib_csv.read_text().splitlines()
    # wall-clock column differs run to run; everything else must match
    strip = lambda rows: [",".join(r.split(",")[:-1]) for r in rows]
    assert strip(cli_rows) == strip(lib_rows)


def test_full_workflow_round_trip(tmp_path):
    # generate -> save spec -> simulate (binary) -> discover -> verify truth
    from mbang import noise_from_tag, random_bowfree
    from mbang.fileio import load_graph, save_spec

    spec, truth = random_bowfree(7, 8, noise_from_tag("chi2"), seed=99)
    spec_path = tmp_path / "spec.json"
    save_spec(spec, spec_path)
    data_path = tmp_path / "data.bin"
    rc = main(["simulate", "--spec", str(spec_path), "--n", "50000", "--seed", "1",
               "--out", str(data_path), "--format", "bin"])
    assert rc == 0
    graph_path = tmp_path / "graph.json"
    rc = main(["discover", "--data", str(data_path), "--oracle-spec", str(spec_path),
               "--out", str(graph_path)])
    assert rc == 0
    assert load_graph(graph_path) == truth


def test_library_parity_with_cli_discover(case2_files, tmp_path):
    # thin-wrapper contract: identical output to direct library calls
    from mbang import DiscoveryConfig, oracle_first_stage, run_mbang
    from mbang.fileio import load_spec, read_dataset_csv

    spec_path, data_path = case2_files
    out = tmp_path / "graph.json"
    main(["discover", "--data", data_path, "--oracle-spec", spec_path,
          "--out", str(out)])
    doc = json.loads(out.read_text())
    spec = load_spec(spec_path)
    direct = run_mbang(read_dataset_csv(data_path), oracle_first_stage(spec),
                       DiscoveryConfig())
    assert doc == direct.to_json_dict()


# Each bad input must end in its documented exit code, returned or raised by
# argparse as SystemExit; any other exception escaping main fails the test.
BAD_INPUTS = [
    ("simulate-negative-seed", ["simulate", "--spec", "{spec}", "--n", "5", "--seed", "-1",
                                "--out", "{tmp}/x.csv"], 2),
    ("discover-negative-seed", ["discover", "--data", "{data}", "--oracle-spec", "{spec}",
                                "--seed", "-1", "--out", "{tmp}/g.json"], 2),
    ("benchmark-negative-seed", ["benchmark", "--trials", "1", "--seed", "-1"], 2),
    ("config-file-negative-seed", ["benchmark", "--config", "{neg_seed_config}"], 3),
    ("treks-non-integer-tuple", ["treks", "--graph", "{graph}", "--tuple", "1,a"], 2),
    ("simulate-into-missing-directory", ["simulate", "--spec", "{spec}", "--n", "5", "--seed", "1",
                                         "--out", "{tmp}/missing/x.bin", "--format", "bin"], 3),
    ("simulate-onto-a-directory", ["simulate", "--spec", "{spec}", "--n", "5", "--seed", "1",
                                   "--out", "{tmp}"], 3),
    ("dot-into-missing-directory", ["graph-tools", "dot", "--graph", "{graph}",
                                    "--out", "{tmp}/missing/g.dot"], 3),
    ("graph-with-non-integral-p", ["graph-tools", "info", "--graph", "{fractional_graph}"], 3),
    ("stage-with-non-integral-p", ["discover", "--data", "{data}", "--stage", "{fractional_stage}",
                                   "--out", "{tmp}/g.json"], 3),
    ("graph-with-fractional-vertex", ["graph-tools", "info", "--graph", "{fractional_vertex_graph}"], 3),
    ("graph-with-infinite-vertex", ["graph-tools", "info", "--graph", "{infinite_vertex_graph}"], 3),
    ("stage-with-bool-vertex", ["discover", "--data", "{data}", "--stage", "{bool_vertex_stage}",
                                "--out", "{tmp}/g.json"], 3),
    ("spec-with-fractional-member", ["simulate", "--spec", "{fractional_member_spec}", "--n", "5",
                                     "--seed", "1", "--out", "{tmp}/x.csv"], 3),
    ("config-file-fractional-n", ["benchmark", "--config", "{fractional_n_config}"], 3),
    ("discover-no-standardize", ["discover", "--data", "{data}", "--oracle-spec", "{spec}",
                                 "--no-standardize", "--out", "{tmp}/g.json"], 2),
    ("spec-with-bool-noise-param", ["simulate", "--spec", "{bool_param_spec}", "--n", "5",
                                    "--seed", "1", "--out", "{tmp}/x.csv"], 3),
    ("spec-with-string-noise-param", ["simulate", "--spec", "{string_param_spec}", "--n", "5",
                                      "--seed", "1", "--out", "{tmp}/x.csv"], 3),
    ("spec-with-infinite-noise-param", ["simulate", "--spec", "{infinite_param_spec}", "--n", "5",
                                        "--seed", "1", "--out", "{tmp}/x.csv"], 3),
    ("spec-with-nan-noise-param", ["simulate", "--spec", "{nan_param_spec}", "--n", "5",
                                   "--seed", "1", "--out", "{tmp}/x.csv"], 3),
    ("spec-with-bool-loading", ["simulate", "--spec", "{bool_loading_spec}", "--n", "5",
                                "--seed", "1", "--out", "{tmp}/x.csv"], 3),
    ("spec-with-string-loading", ["simulate", "--spec", "{string_loading_spec}", "--n", "5",
                                  "--seed", "1", "--out", "{tmp}/x.csv"], 3),
    ("spec-with-bool-effect", ["simulate", "--spec", "{bool_effect_spec}", "--n", "5",
                               "--seed", "1", "--out", "{tmp}/x.csv"], 3),
    ("spec-with-string-effect", ["simulate", "--spec", "{string_effect_spec}", "--n", "5",
                                 "--seed", "1", "--out", "{tmp}/x.csv"], 3),
    ("stage-with-bool-effect", ["discover", "--data", "{data}", "--stage", "{bool_effect_stage}",
                                "--out", "{tmp}/g.json"], 3),
    ("stage-with-string-effect", ["discover", "--data", "{data}", "--stage", "{string_effect_stage}",
                                  "--out", "{tmp}/g.json"], 3),
    ("discover-lenient-retired", ["discover", "--data", "{data}", "--stage", "{bow_stage}",
                                  "--lenient", "--out", "{tmp}/g.json"], 2),
    *[(f"discover-perturbation-{value}", ["discover", "--data", "{data}", "--oracle-spec", "{spec}",
                                          "--stage-perturbation", value, "--seed", "1",
                                          "--out", "{tmp}/g.json"], 3)
      for value in ("nan", "inf", "1e308", "-1")],
    ("discover-perturbation-overflows-sd", ["discover", "--data", "{data}", "--oracle-spec", "{spec}",
                                            "--stage-perturbation", "1e200", "--seed", "1",
                                            "--out", "{tmp}/g.json"], 4),
    ("stage-effect-overflows-sd", ["discover", "--data", "{data}", "--stage", "{huge_effect_stage}",
                                   "--out", "{tmp}/g.json"], 4),
    ("discover-perturbation-without-seed", ["discover", "--data", "{data}", "--oracle-spec", "{spec}",
                                            "--stage-perturbation", "0.01", "--out", "{tmp}/g.json"], 2),
    ("benchmark-nan-tolerance", ["benchmark", "--trials", "1", "--tolerance", "nan"], 3),
    ("benchmark-hide-prob-above-one", ["benchmark", "--trials", "1", "--hide-prob", "2"], 3),
    ("cumulants-indices-fractional-label", ["cumulants", "--data", "{data}", "--order", "3",
                                           "--indices", "{indices_fractional}", "--out", "{tmp}/t.json"], 3),
    ("cumulants-indices-bool-label", ["cumulants", "--data", "{data}", "--order", "3",
                                     "--indices", "{indices_bool}", "--out", "{tmp}/t.json"], 3),
    ("cumulants-indices-infinite-label", ["cumulants", "--data", "{data}", "--order", "3",
                                         "--indices", "{indices_infinite}", "--out", "{tmp}/t.json"], 3),
    ("cumulants-indices-object", ["cumulants", "--data", "{data}", "--order", "3",
                                 "--indices", "{indices_object}", "--out", "{tmp}/t.json"], 3),
    ("cumulants-indices-bare-number", ["cumulants", "--data", "{data}", "--order", "3",
                                      "--indices", "{indices_bare}", "--out", "{tmp}/t.json"], 3),
    ("cumulants-indices-label-above-p", ["cumulants", "--data", "{data}", "--order", "3",
                                        "--indices", "{indices_above_p}", "--out", "{tmp}/t.json"], 3),
    ("cumulants-indices-short-list", ["cumulants", "--data", "{data}", "--order", "3",
                                     "--indices", "{indices_short}", "--out", "{tmp}/t.json"], 3),
]

# Benchmark config files whose fields have the wrong type; each must exit 3.
BAD_CONFIGS = {
    "stage_zero": {"stage": 0},
    "stage_fraction": {"stage": 1.5},
    "stage_bool": {"stage": True},
    "stage_null": {"stage": None},
    "stage_list": {"stage": [1]},
    "noise_number": {"noise": 5},
    "hide_prob_bool": {"hide_prob": True},
    "relaxed_test_string": {"relaxed_test": "false"},
    "standardize_string": {"standardize": "no"},
    "standardize_retired": {"standardize": True},
    "tolerance_bool": {"cumulant_tolerance": True},
}
BAD_INPUTS += [
    (f"config-file-{name.replace('_', '-')}", ["benchmark", "--config", f"{{{name}}}"], 3)
    for name in BAD_CONFIGS
]


def _edited(doc, path, value):
    """A deep copy of ``doc`` with the item at ``path`` set to ``value``."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@pytest.mark.parametrize("argv, code", [case[1:] for case in BAD_INPUTS],
                         ids=[case[0] for case in BAD_INPUTS])
def test_bad_input_exit_code(argv, code, spec_file, tmp_path):
    files = {"spec": spec_file, "tmp": str(tmp_path)}
    spec_doc = json.loads(pathlib.Path(spec_file).read_text())
    fractional_member_spec = _edited(spec_doc, ("hidden_sources", 0, "members", 0), 2.5)
    stage_doc = {"p": 5, "directed": [[1, 2]], "bidirected": [],
                 "B": [[0.0, 0.5, 0.0, 0.0, 0.0]] + [[0.0] * 5] * 4}
    for name, doc in (
        ("bool_param_spec", _edited(spec_doc, ("noise", 0, "params", 0), True)),
        ("string_param_spec", _edited(spec_doc, ("noise", 0, "params", 0), "2")),
        ("infinite_param_spec", _edited(spec_doc, ("noise", 0, "params", 0), float("inf"))),
        ("nan_param_spec", _edited(spec_doc, ("noise", 0, "params", 0), float("nan"))),
        ("bool_loading_spec", _edited(spec_doc, ("hidden_sources", 0, "loadings", 0), True)),
        ("string_loading_spec", _edited(spec_doc, ("hidden_sources", 0, "loadings", 0), "0.8")),
        ("bool_effect_spec", _edited(spec_doc, ("B", 0, 0), False)),
        ("string_effect_spec", _edited(spec_doc, ("B", 0, 0), "0")),
        ("bool_effect_stage", _edited(stage_doc, ("B", 0, 1), True)),
        ("string_effect_stage", _edited(stage_doc, ("B", 0, 1), "0.5")),
        ("huge_effect_stage", _edited(stage_doc, ("B", 0, 1), 1e200)),
        ("bow_stage", {**stage_doc, "bidirected": [[1, 2]]}),
        ("neg_seed_config", {"trials": 1, "seed": -1}),
        ("fractional_n_config", {"n": 2.5}),
        ("fractional_graph", {"p": 2.5, "directed": [], "multi": []}),
        ("fractional_vertex_graph", {"p": 3, "directed": [[1.5, 2]], "multi": []}),
        ("infinite_vertex_graph", {"p": 3, "directed": [[float("inf"), 2]], "multi": []}),
        ("fractional_stage", {"p": 5.5, "directed": [], "bidirected": [], "B": [[0.0] * 5] * 5}),
        ("bool_vertex_stage", {"p": 5, "directed": [], "bidirected": [[True, 2]], "B": [[0.0] * 5] * 5}),
        ("fractional_member_spec", fractional_member_spec),
        ("indices_fractional", [[1.5, 2, 3]]),
        ("indices_bool", [[True, 2, 3]]),
        ("indices_infinite", [[float("inf"), 2, 3]]),
        ("indices_object", {"a": 1}),
        ("indices_bare", [5]),
        ("indices_above_p", [[99, 1, 2]]),
        ("indices_short", [[1, 2]]),
        *BAD_CONFIGS.items(),
    ):
        files[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    files["graph"] = str(tmp_path / "g.json")
    save_graph(showcase_mixed(), files["graph"])
    files["data"] = str(tmp_path / "d.csv")
    write_dataset_csv(simulate(showcase_spec(), 50, seed=1), files["data"])
    try:
        rc = main([arg.format(**files) for arg in argv])
    except SystemExit as exc:
        rc = exc.code
    assert rc == code


# Seeded mutations of the shipped sample files: one value becomes one of
# MUTANTS, or one key or list item is dropped.  The subcommand that reads the
# file must end in a documented exit code, never in an escaping exception.
MUTANTS = [1.5, -1, 0, 1e400, True, None, "x", [1]]
MUTATIONS_PER_FILE = 100
SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "samples"


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        items = sorted(node.items())
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        items = ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _mutate(doc, rng):
    paths = list(_paths(doc))
    path = paths[int(rng.integers(len(paths)))]
    pick = int(rng.integers(len(MUTANTS) + 1))
    if not path:
        return MUTANTS[pick % len(MUTANTS)]
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if pick == len(MUTANTS):
        del parent[path[-1]]
    else:
        parent[path[-1]] = MUTANTS[pick]
    return doc


def _is_declared_type(value, declared: str) -> bool:
    if declared in ("bool", "str"):
        return type(value).__name__ == declared
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@pytest.mark.parametrize("name", sorted(p.name for p in SAMPLES.glob("*.json")))
def test_mutated_sample_files_exit_cleanly(name, tmp_path):
    from mbang import Dataset
    from mbang.bench import TrialConfig

    original = json.loads((SAMPLES / name).read_text())
    target = tmp_path / name
    out = tmp_path / "out.json"
    if name == "bench_config.json":
        argv = ["benchmark", "--config", str(target), "--trials", "1", "--n", "200",
                "--out-json", str(out)]
    elif name == "external_stage_example.json":
        data = tmp_path / "d.csv"
        rng = np.random.default_rng(0)
        write_dataset_csv(Dataset(rng.exponential(size=(original["p"], 300))), data)
        argv = ["discover", "--data", str(data), "--stage", str(target), "--out", str(out)]
    else:
        argv = ["simulate", "--spec", str(target), "--n", "50", "--seed", "1", "--out", str(out)]
    rng = np.random.default_rng(list(name.encode()))
    codes = set()
    for _ in range(MUTATIONS_PER_FILE):
        doc = _mutate(original, rng)
        target.write_text(json.dumps(doc))
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        assert rc in (0, 2, 3, 4), (doc, rc)
        codes.add(rc)
        if rc == 0 and name == "bench_config.json":
            config = json.loads(out.read_text())["config"]
            for field in dataclasses.fields(TrialConfig):
                assert _is_declared_type(config[field.name], field.type), (doc, field.name)
    assert codes - {0}, "no mutation was refused"
