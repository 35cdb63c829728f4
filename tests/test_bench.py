import csv
import json
import os
import pathlib
import subprocess
import sys
from dataclasses import asdict

import pytest

import mbang
from mbang import MixedGraph, ValidationError, bidirected_subdivision, score
from mbang.bench import (
    CSV_FIELDS,
    TrialConfig,
    aggregate_outcomes,
    run_benchmark,
    write_trials_csv,
)
from mbang.fileio import save_json


def small_cfg(**kw):
    base = dict(p_pre=6, edges=5, noise="chi2", n=2000, trials=6, seed=7)
    base.update(kw)
    return TrialConfig(**base)


class TestScore:
    def test_subdivided_triple_scores_zero_exactly_but_full_pairwise(self):
        truth = MixedGraph(4, frozenset(), [{2, 3, 4}])
        recovered = MixedGraph(4, frozenset(), [{2, 3}, {3, 4}, {2, 4}])
        assert score(truth, recovered) == (0, 1, False)
        # at pair level the two graphs coincide
        assert score(bidirected_subdivision(truth), bidirected_subdivision(recovered)) == (3, 3, True)

    def test_identical_graphs_get_full_marks(self):
        g = MixedGraph(5, {(1, 2)}, [{2, 3, 4}])
        assert score(g, g) == (1, 1, True)
        assert score(bidirected_subdivision(g), bidirected_subdivision(g)) == (3, 3, True)

    def test_partial_recovery(self):
        truth = MixedGraph(5, frozenset(), [{1, 2}, {3, 4, 5}])
        recovered = MixedGraph(5, frozenset(), [{1, 2}])
        assert score(truth, recovered) == (1, 2, False)

    def test_directed_mismatch_breaks_exactness(self):
        truth = MixedGraph(3, {(1, 2)}, [{2, 3}])
        recovered = MixedGraph(3, frozenset(), [{2, 3}])
        assert score(truth, recovered) == (1, 1, False)

    def test_vertex_count_mismatch(self):
        with pytest.raises(ValidationError):
            score(MixedGraph(3), MixedGraph(4))


class TestRunBenchmark:
    def test_deterministic_across_runs(self):
        a, agg_a = run_benchmark(small_cfg())
        b, agg_b = run_benchmark(small_cfg())
        assert [o.truth for o in a] == [o.truth for o in b]
        assert [o.recovered for o in a] == [o.recovered for o in b]
        assert {k: v for k, v in agg_a.items() if k != "mean_wall_ms"} == {
            k: v for k, v in agg_b.items() if k != "mean_wall_ms"
        }

    def test_worker_count_does_not_change_results(self):
        seq, _ = run_benchmark(small_cfg())
        par, _ = run_benchmark(small_cfg(workers=2))
        assert [o.recovered for o in seq] == [o.recovered for o in par]

    def test_pool_never_exceeds_the_trial_count(self, monkeypatch):
        # A fake pool: it records its size and maps serially, so no process starts.
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)
        run_benchmark(small_cfg(trials=3, workers=10**6))
        assert sizes == [3]
        run_benchmark(small_cfg(trials=1, workers=10**6))
        assert sizes == [3]  # one trial takes the serial path

    def test_importing_the_package_loads_no_process_pool(self):
        # The pool is imported where it is used, so start-up skips multiprocessing.
        code = "import sys, mbang, mbang.cli; print('concurrent.futures' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(mbang.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr

    def test_no_edges_means_perfect_recovery(self):
        _, agg = run_benchmark(small_cfg(edges=0, trials=5))
        assert agg["graph_exact_rate"] == 1.0
        assert agg["edge_recovery_rate"] is None  # no ground-truth edges anywhere

    def test_aggregates_are_plain_means(self):
        outcomes, agg = run_benchmark(small_cfg())
        exact = [o.graph_exact for o in outcomes]
        assert agg["graph_exact_rate"] == sum(exact) / len(exact)
        ratios = [o.edge_correct / o.edge_total for o in outcomes if o.edge_total]
        if ratios:
            assert agg["edge_recovery_rate"] == pytest.approx(sum(ratios) / len(ratios))

    def test_conditional_accuracy_reported(self):
        _, agg = run_benchmark(small_cfg())
        assert agg["stage_exact_rate"] == 1.0  # oracle stage is always exact
        assert agg["graph_exact_rate_given_stage_exact"] == agg["graph_exact_rate"]

    def test_external_stage_failures_are_recorded_not_fatal(self, tmp_path):
        cfg = small_cfg(stage=str(tmp_path), trials=3)  # no stage files present
        outcomes, agg = run_benchmark(cfg)
        assert agg["failed_trials"] == 3
        assert agg["errors"] == {"SchemaError": 3}
        assert all(o.error is not None and o.recovered is None for o in outcomes)
        assert agg["graph_exact_rate"] == 0.0

    def test_metric_detects_a_degraded_pipeline(self):
        # same trials, crippled merge stage: the exact-recovery rate must drop,
        # which guards against the scorer trivially reporting success
        base = TrialConfig(p_pre=7, edges=8, noise="t10", n=10000, trials=25, seed=11)
        _, healthy = run_benchmark(base)
        _, strict = run_benchmark(TrialConfig(**{**asdict(base), "relaxed_test": False}))
        _, blinded = run_benchmark(TrialConfig(**{**asdict(base), "cumulant_tolerance": 1e9}))
        assert strict["graph_exact_rate"] < healthy["graph_exact_rate"]
        assert blinded["graph_exact_rate"] < healthy["graph_exact_rate"]

    def test_recovery_does_not_improve_with_density(self):
        rates = []
        for edges in (5, 8, 12):
            cfg = TrialConfig(
                p_pre=7, edges=edges, noise="uniform10", n=10000, trials=25, seed=3
            )
            _, agg = run_benchmark(cfg)
            rates.append(agg["graph_exact_rate"])
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_invalid_config(self):
        with pytest.raises(ValidationError):
            TrialConfig(trials=0)
        with pytest.raises(ValidationError):
            TrialConfig(noise="gauss")

    @pytest.mark.parametrize("knob", [
        {"n": 2.5}, {"trials": True}, {"edges": 1.0}, {"hide_prob": 2.0}, {"hide_prob": float("nan")},
        {"cumulant_tolerance": float("nan")}, {"cumulant_tolerance": -1.0},
    ])
    def test_bad_knob_refused_at_construction(self, knob):
        with pytest.raises(ValidationError):
            TrialConfig(**knob)


class TestEmission:
    def test_csv_schema_and_round_trip(self, tmp_path):
        cfg = small_cfg(trials=4)
        outcomes, agg = run_benchmark(cfg)
        path = tmp_path / "trials.csv"
        write_trials_csv(cfg, outcomes, path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == CSV_FIELDS
        assert len(rows) == 4
        assert [int(r["trial"]) for r in rows] == [0, 1, 2, 3]
        assert all(int(r["edge_correct"]) <= int(r["edge_total"]) for r in rows)

    def test_aggregate_json(self, tmp_path):
        cfg = small_cfg(trials=3)
        outcomes, agg = run_benchmark(cfg)
        path = tmp_path / "agg.json"
        save_json(agg, path)
        with open(path) as fh:
            loaded = json.load(fh)
        assert loaded["trials"] == 3
        assert loaded["config"]["noise"] == "chi2"

    def test_aggregate_of_empty_edge_trials_excluded(self):
        cfg = small_cfg()
        outcomes, _ = run_benchmark(cfg)
        agg = aggregate_outcomes(cfg, [o for o in outcomes if o.edge_total == 0])
        assert agg["edge_recovery_rate"] is None
