import gc
import itertools
import json
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest

from mbang import (
    Dataset,
    DiscoveryConfig,
    FirstStageResult,
    MixedGraph,
    PopulationCumulants,
    SampleCumulants,
    SchemaError,
    ValidationError,
    bidirected_subdivision,
    cumulant_test,
    enumerate_cliques,
    find_multidirected,
    load_first_stage,
    oracle_first_stage,
    run_mbang,
    run_mbang_population,
    simulate,
)
import mbang.discovery as discovery
from mbang.discovery import EXACT_EPS, first_stage_from_json_dict

from helpers import (
    ECO_EDGES,
    adjacency,
    case1_spec,
    case2_spec,
    ecology_like_spec,
    ecology_like_stage_dict,
    random_mixed_graph,
    random_spec,
    showcase_spec,
    symmetric_triangle_spec,
)


def edges(result):
    return {tuple(sorted(h)) for h in result.graph.multi}


def algorithm2(provider, bg, cfg):
    """The paper's Algorithm 2 as written, with no early return: each reported
    edge mapped to the gate evidence along the first path that reported it."""
    adj = adjacency(bg)
    out = {}

    def alg2(R, P, Q, chain):
        if not P and not Q and len(R) >= 2:
            out.setdefault(frozenset(R), list(chain))
        P, Q = set(P), set(Q)
        for v in sorted(P):
            if adj[v]:
                ok, evidence = cumulant_test(provider, R, v, cfg)
                if ok:
                    alg2(R + (v,), P & adj[v], Q & adj[v], chain + (evidence,))
            P.discard(v)
            Q.add(v)

    alg2((), set(range(1, bg.p + 1)), set(), ())
    return out


class TestOracleFirstStage:
    def test_exact_without_perturbation(self):
        spec = showcase_spec()
        stage = oracle_first_stage(spec)
        assert np.array_equal(stage.B_hat, spec.B)
        assert stage.graph.directed == spec.graph.directed
        assert stage.graph.multi == bidirected_subdivision(spec.graph).multi

    def test_result_rejects_off_support_entries(self):
        B = np.zeros((2, 2))
        B[0, 1] = 0.5
        with pytest.raises(ValidationError):
            FirstStageResult(B, MixedGraph(2))

    @pytest.mark.parametrize(
        "directed, pairs",
        [({(1, 2)}, {frozenset((1, 2))}), ({(1, 1)}, set()), ({(1, 3)}, set())],
        ids=["bow", "self-loop", "out-of-range"],
    )
    def test_result_rejects_bad_directed_edges(self, directed, pairs):
        with pytest.raises(ValidationError):
            FirstStageResult(np.zeros((2, 2)), MixedGraph(2, directed, pairs))


class TestExternalFirstStage:
    def test_ecology_shaped_stage_parses(self):
        stage = first_stage_from_json_dict(ecology_like_stage_dict())
        assert len(stage.graph.multi) == 7
        assert {v for pr in stage.graph.multi for v in pr} == {1, 5, 6, 7, 8}
        assert enumerate_cliques(stage.graph) == sorted(
            (frozenset(h) for h in ECO_EDGES), key=lambda s: tuple(sorted(s))
        )

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "stage.json"
        path.write_text(json.dumps(ecology_like_stage_dict()))
        stage = load_first_stage(path)
        assert stage.graph.p == 8

    def test_bow_rejected_in_strict_mode(self):
        doc = {
            "p": 2,
            "directed": [[1, 2]],
            "bidirected": [[1, 2]],
            "B": [[0.0, 0.5], [0.0, 0.0]],
        }
        with pytest.raises(SchemaError):
            first_stage_from_json_dict(doc)

    def test_malformed_document(self):
        with pytest.raises(SchemaError):
            first_stage_from_json_dict({"p": 2, "directed": "nope", "B": []})

    @pytest.mark.parametrize("entry", ["NaN", "Infinity"])
    def test_non_finite_effect_names_b_hat(self, entry):
        doc = json.loads(f'{{"p": 2, "directed": [[1, 2]], "B": [[0.0, {entry}], [0.0, 0.0]]}}')
        with pytest.raises(SchemaError, match="B_hat entries must be finite"):
            first_stage_from_json_dict(doc)

    def test_empty_bidirected_set_yields_no_edges(self):
        spec = case2_spec()
        stage = FirstStageResult(
            spec.B, MixedGraph(4, spec.graph.directed)
        )
        result = run_mbang(simulate(spec, 2000, seed=0), stage)
        assert result.graph.multi == frozenset()


class TestCumulantTest:
    def test_case2_population_triple_passes(self):
        provider = PopulationCumulants.from_spec(case2_spec())
        cfg = DiscoveryConfig(cumulant_tolerance=EXACT_EPS)
        ok, evidence = cumulant_test(provider, (2, 3), 4, cfg)
        assert ok and evidence["kind"] == "primary" and evidence["order"] == 3

    def test_case1_population_triple_fails(self):
        provider = PopulationCumulants.from_spec(case1_spec())
        cfg = DiscoveryConfig(cumulant_tolerance=EXACT_EPS)
        ok, evidence = cumulant_test(provider, (2, 3), 4, cfg)
        assert not ok and evidence is None

    def test_symmetric_source_needs_relaxed_test(self):
        provider = PopulationCumulants.from_spec(symmetric_triangle_spec())
        exact_relaxed = DiscoveryConfig(cumulant_tolerance=EXACT_EPS, relaxed_test=True)
        exact_strict = DiscoveryConfig(cumulant_tolerance=EXACT_EPS, relaxed_test=False)
        ok, evidence = cumulant_test(provider, (1, 2), 3, exact_relaxed)
        assert ok and evidence["kind"] == "relaxed" and evidence["order"] == 4
        ok, _ = cumulant_test(provider, (1, 2), 3, exact_strict)
        assert not ok

    @pytest.mark.parametrize("relaxed", [True, False])
    def test_asks_the_primary_then_each_member_until_one_passes(self, relaxed):
        # R + v first, then (relaxed only) R + v + j for each j in R's order;
        # an entry whose magnitude equals the threshold does not pass.
        class Recording:
            def __init__(self, values):
                self.values, self.asked = values, []

            def entry(self, idx):
                self.asked.append(tuple(idx))
                return self.values.get(tuple(idx), 0.0)

        cfg = DiscoveryConfig(cumulant_tolerance=0.1, relaxed_test=relaxed)
        primary = (5, 2, 7, 3)
        repeats = [primary + (j,) for j in (5, 2, 7)]

        provider = Recording({})
        assert cumulant_test(provider, (5, 2, 7), 3, cfg) == (False, None)
        assert provider.asked == [primary] + (repeats if relaxed else [])

        provider = Recording({primary: -0.5, repeats[0]: 1.0})
        ok, evidence = cumulant_test(provider, (5, 2, 7), 3, cfg)
        assert ok and provider.asked == [primary]
        assert list(evidence.items()) == [("vertex", 3), ("kind", "primary"), ("order", 4),
                                          ("index", [2, 3, 5, 7]), ("value", -0.5)]

        provider = Recording({primary: 0.1, repeats[0]: -0.1, repeats[1]: 0.25, repeats[2]: 1.0})
        ok, evidence = cumulant_test(provider, (5, 2, 7), 3, cfg)
        if relaxed:
            assert ok and provider.asked == [primary] + repeats[:2]
            assert list(evidence.items()) == [("vertex", 3), ("kind", "relaxed"), ("order", 5),
                                              ("index", [2, 2, 3, 5, 7]), ("value", 0.25)]
        else:
            assert (ok, evidence) == (False, None) and provider.asked == [primary]

    def test_empty_clique_always_passes(self):
        provider = PopulationCumulants.from_spec(case1_spec())
        ok, evidence = cumulant_test(provider, (), 2, DiscoveryConfig())
        assert ok and evidence["kind"] == "root"

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            DiscoveryConfig(cumulant_tolerance=-0.1)


class TestFindMultidirected:
    def test_case2_population(self):
        spec = case2_spec()
        provider = PopulationCumulants.from_spec(spec)
        got, _ = find_multidirected(
            provider,
            bidirected_subdivision(spec.graph),
            DiscoveryConfig(cumulant_tolerance=EXACT_EPS),
        )
        assert got == {frozenset({2, 3, 4})}

    def test_case1_population(self):
        spec = case1_spec()
        provider = PopulationCumulants.from_spec(spec)
        got, _ = find_multidirected(
            provider,
            bidirected_subdivision(spec.graph),
            DiscoveryConfig(cumulant_tolerance=EXACT_EPS),
        )
        assert got == {frozenset({2, 3}), frozenset({3, 4})}

    def test_case2_sample(self):
        spec = case2_spec()
        data = simulate(spec, 50000, seed=17)
        result = run_mbang(data, oracle_first_stage(spec))
        assert edges(result) == {(2, 3, 4)}

    def test_case1_sample(self):
        spec = case1_spec()
        data = simulate(spec, 50000, seed=17)
        result = run_mbang(data, oracle_first_stage(spec))
        assert edges(result) == {(2, 3), (3, 4)}

    def test_empty_bidirected_graph(self):
        provider = PopulationCumulants.from_spec(case1_spec())
        got, diags = find_multidirected(provider, MixedGraph(4), DiscoveryConfig())
        assert got == set() and diags == []

    def test_degenerates_to_bron_kerbosch_when_gate_is_forced(self):
        class AlwaysNonzero:
            def entry(self, idx):
                return 1.0

        rng = np.random.default_rng(41)
        for _ in range(30):
            p = int(rng.integers(2, 9))
            pairs = {
                frozenset(pr)
                for pr in itertools.combinations(range(1, p + 1), 2)
                if rng.random() < 0.4
            }
            bg = MixedGraph(p, multi=frozenset(pairs))
            got, _ = find_multidirected(AlwaysNonzero(), bg, DiscoveryConfig())
            assert got == set(enumerate_cliques(bg))

    def test_matches_reference_transcription_under_random_gates(self):
        # pseudo-random pass/fail gate patterns exercise the P/Q bookkeeping
        # far from the happy path; compare against a direct transcription of
        # the recursion
        import hashlib

        class HashProvider:
            def __init__(self, salt):
                self.salt = salt

            def entry(self, idx):
                key = f"{self.salt}:{sorted(idx)}".encode()
                h = int.from_bytes(hashlib.sha256(key).digest()[:4], "big")
                return (h / 2**32) * 0.2 - 0.1  # uniform-ish in [-0.1, 0.1)

        def reference(provider, bg, cfg):
            adj = adjacency(bg)
            out = set()

            def alg2(R, P, Q):
                if not P and not Q and len(R) >= 2:
                    out.add(frozenset(R))
                P, Q = set(P), set(Q)
                for v in sorted(P):
                    if adj[v]:
                        if not R:
                            ok = True
                        else:
                            ok = abs(provider.entry(R + (v,))) > cfg.cumulant_tolerance
                            if not ok and cfg.relaxed_test:
                                ok = any(
                                    abs(provider.entry(R + (v, j))) > cfg.cumulant_tolerance
                                    for j in R
                                )
                        if ok:
                            alg2(R + (v,), P & adj[v], Q & adj[v])
                    P.discard(v)
                    Q.add(v)

            alg2((), set(range(1, bg.p + 1)), set())
            return out

        rng = np.random.default_rng(71)
        for salt in range(40):
            p = int(rng.integers(3, 8))
            pairs = {
                frozenset(pr)
                for pr in itertools.combinations(range(1, p + 1), 2)
                if rng.random() < 0.5
            }
            bg = MixedGraph(p, multi=frozenset(pairs))
            for relaxed in (True, False):
                cfg = DiscoveryConfig(relaxed_test=relaxed)
                provider = HashProvider(salt)
                got, _ = find_multidirected(provider, bg, cfg)
                assert got == reference(provider, bg, cfg)

    def test_early_return_keeps_algorithm2_edges_and_chains(self):
        # Dense graphs, where whole subtrees are dead, under pseudo-random
        # gates: the walk must report what Algorithm 2 reports, through the
        # same admissions, while asking fewer entries.
        import hashlib

        class HashGate:
            def __init__(self, salt):
                self.salt = salt
                self.calls = 0

            def entry(self, idx):
                self.calls += 1
                key = f"{self.salt}:{sorted(idx)}".encode()
                h = int.from_bytes(hashlib.sha256(key).digest()[:4], "big")
                return (h / 2**32) * 0.2 - 0.1

        rng = np.random.default_rng(83)
        asked = Counter()
        for salt in range(200):
            p = int(rng.integers(4, 12))
            density = rng.uniform(0.4, 0.9)
            pairs = {
                frozenset(pr)
                for pr in itertools.combinations(range(1, p + 1), 2)
                if rng.random() < density
            }
            bg = MixedGraph(p, multi=frozenset(pairs))
            for relaxed in (True, False):
                cfg = DiscoveryConfig(relaxed_test=relaxed)
                reference, walked = HashGate(salt), HashGate(salt)
                want = algorithm2(reference, bg, cfg)
                got, diags = find_multidirected(walked, bg, cfg)
                assert got == set(want)
                assert {frozenset(d["edge"]): d["tests"] for d in diags} == want
                asked.update(reference=reference.calls, walk=walked.calls)
        assert asked["walk"] < asked["reference"] / 2

    @pytest.mark.parametrize("k", [10, 12, 14, 16, 1500])
    def test_one_edge_asks_one_entry_per_admission(self, k):
        # Below R = (1, ..., j) every vertex moved to Q is adjacent to all of
        # P, so only the path that reports the edge is walked.  The walk uses
        # no Python frame per member, so k = 1500 needs no recursion limit.
        class CountingNonzero:
            calls = 0

            def entry(self, idx):
                self.calls += 1
                return 1.0

        provider = CountingNonzero()
        members = frozenset(range(1, k + 1))
        got, _ = find_multidirected(provider, MixedGraph(k, multi=[members]))
        assert got == {members}
        assert provider.calls == k - 1

    def test_wide_edge_walks_in_memory_linear_in_the_edge(self):
        # P, Q and each neighborhood are int bitmasks, so one 3000-member edge
        # needs no set of neighbors per vertex and no copied set per node.
        class AlwaysNonzero:
            def entry(self, idx):
                return 1.0

        k = 3000
        members = frozenset(range(1, k + 1))
        graph = MixedGraph(k, multi=[members])
        tracemalloc.start()
        try:
            got, _ = find_multidirected(AlwaysNonzero(), graph)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == {members}
        assert peak < 200 * 2**20

    def test_walk_requests_each_entry_at_most_once(self):
        # Every gate query extends a distinct clique path by one or two
        # indices, so no sorted index comes up twice: a per-entry memo in a
        # provider never hits.
        class CountingProvider:
            def __init__(self, rng):
                self.rng = rng
                self.requests = Counter()

            def entry(self, idx):
                self.requests[tuple(sorted(idx))] += 1
                return float(self.rng.integers(2))

        rng = np.random.default_rng(29)
        for _ in range(150):
            p = int(rng.integers(3, 11))
            pairs = {
                frozenset(pr)
                for pr in itertools.combinations(range(1, p + 1), 2)
                if rng.random() < 0.6
            }
            bg = MixedGraph(p, multi=frozenset(pairs))
            for relaxed in (True, False):
                provider = CountingProvider(rng)
                find_multidirected(provider, bg, DiscoveryConfig(relaxed_test=relaxed))
                repeated = [key for key, count in provider.requests.items() if count > 1]
                assert not repeated, (sorted(bg.multi, key=sorted), relaxed, repeated)

    def test_order_overflow_raises_clearly(self):
        # both providers refuse queries past the supported order; a clique of
        # 8 with a failing primary at the top would land here through the
        # relaxed gate
        rng = np.random.default_rng(0)
        sample = SampleCumulants(Dataset(rng.normal(size=(9, 50))))
        with pytest.raises(ValidationError, match="order"):
            sample.entry((1, 2, 3, 4, 5, 6, 7, 8, 9))
        population = PopulationCumulants.from_spec(case2_spec())
        with pytest.raises(ValidationError, match="order"):
            population.entry((1,) * 9)

    def test_refused_walk_frees_its_provider_without_the_collector(self):
        # Nine rows sharing one skewed source pass every gate up to order 8, so
        # the walk is refused at order 9.  The provider and its p x n rows must
        # go when the exception is dropped, not at the next full collection.
        rng = np.random.default_rng(3)
        X = rng.exponential(size=2000) + 0.1 * rng.normal(size=(9, 2000))
        X -= X.mean(axis=1, keepdims=True)
        bg = MixedGraph(9, multi=frozenset(map(frozenset, itertools.combinations(range(1, 10), 2))))
        provider = SampleCumulants(Dataset(X))
        ref = weakref.ref(provider)
        gc.disable()
        try:
            try:
                find_multidirected(provider, bg)
            except ValidationError as exc:
                assert "order" in str(exc)
            else:
                pytest.fail("an order-9 clique was not refused")
            del provider
            freed = ref() is None
        finally:
            gc.enable()
        assert freed

    def test_walk_frees_its_provider_on_return_without_the_collector(self, monkeypatch):
        # The provider run_mbang builds, with its p x n rows, must go when
        # run_mbang returns, not at the next full collection.
        refs = []
        walk = discovery.find_multidirected

        def spy(provider, graph, cfg=None):
            refs.append(weakref.ref(provider))
            return walk(provider, graph, cfg)

        monkeypatch.setattr(discovery, "find_multidirected", spy)
        spec = case2_spec()
        data = simulate(spec, 2000, seed=4)
        gc.disable()
        try:
            run_mbang(data, oracle_first_stage(spec))
            freed = [ref() is None for ref in refs]
        finally:
            gc.enable()
        assert freed == [True]

    def test_deterministic(self):
        spec = case2_spec()
        data = simulate(spec, 20000, seed=5)
        a = run_mbang(data, oracle_first_stage(spec))
        b = run_mbang(data, oracle_first_stage(spec))
        assert a.graph == b.graph
        assert a.diagnostics == b.diagnostics


class TestRunMbang:
    def test_showcase_model_recovered_at_large_sample(self):
        spec = showcase_spec()
        data = simulate(spec, 50000, seed=1)
        result = run_mbang(data, oracle_first_stage(spec))
        assert result.graph == spec.graph

    def test_population_pipeline_on_fixtures(self):
        for spec in (showcase_spec(), case1_spec(), case2_spec(), ecology_like_spec()):
            result = run_mbang_population(spec)
            assert result.graph == spec.graph

    def test_population_pipeline_random_specs(self):
        rng = np.random.default_rng(53)
        hits = 0
        for _ in range(40):
            g = random_mixed_graph(rng, int(rng.integers(3, 7)))
            spec = random_spec(rng, g)
            result = run_mbang_population(spec)
            hits += result.graph == spec.graph
        assert hits >= 38  # misses only on pathological overlap patterns

    def test_reported_edges_are_cliques_and_cover_all_pairs(self):
        rng = np.random.default_rng(59)
        for _ in range(25):
            g = random_mixed_graph(rng, int(rng.integers(3, 7)))
            spec = random_spec(rng, g)
            bg = bidirected_subdivision(spec.graph)
            adj = adjacency(bg)
            result = run_mbang_population(spec)
            merged = [d for d in result.diagnostics if d["source"] == "merged"]
            for record in merged:
                members = record["edge"]
                assert all(b in adj[a] for a in members for b in members if a != b)
            covered = set()
            for h in result.graph.multi:
                covered.update(
                    frozenset(pr) for pr in itertools.combinations(sorted(h), 2)
                )
            assert bg.multi <= covered

    def test_symmetric_triangle_needs_relaxed_test(self):
        spec = symmetric_triangle_spec()
        data = simulate(spec, 50000, seed=2)
        relaxed = run_mbang(data, oracle_first_stage(spec))
        strict = run_mbang(
            data, oracle_first_stage(spec), DiscoveryConfig(relaxed_test=False)
        )
        assert edges(relaxed) == {(1, 2, 3)}
        assert edges(strict) == {(1, 2), (1, 3), (2, 3)}

    def test_huge_tolerance_leaves_the_bidirected_pairs(self):
        spec = case2_spec()
        data = simulate(spec, 5000, seed=9)
        result = run_mbang(
            data, oracle_first_stage(spec), DiscoveryConfig(cumulant_tolerance=1e9)
        )
        assert edges(result) == {(2, 3), (2, 4), (3, 4)}
        assert all(d["source"] == "retained" for d in result.diagnostics)

    def test_ecology_like_sample_run(self):
        spec = ecology_like_spec()
        data = simulate(spec, 50000, seed=12)
        result = run_mbang(data, oracle_first_stage(spec))
        assert edges(result) == {tuple(sorted(h)) for h in ECO_EDGES}

    def test_six_edge_exercises_top_orders(self):
        # largest edge the 7-vertex regime can produce; the relaxed gate runs
        # at orders 7 and 8 when the source is symmetric
        from mbang import HiddenSource, LsemSpec, MixedGraph, Noise

        g = MixedGraph(7, {(7, 1)}, [set(range(1, 7))])
        loadings = (0.8, 0.7, 0.9, -0.8, 0.75, -0.85)
        want = {tuple(range(1, 7))}
        for tag, params in (("chi2", (2.0,)), ("uniform", (-5.0, 5.0))):
            nz = Noise(tag, params)
            spec = LsemSpec(
                g, np.zeros((7, 7)), (nz,) * 7,
                (HiddenSource(frozenset(range(1, 7)), loadings, nz),),
            )
            assert edges(run_mbang_population(spec)) == want
            data = simulate(spec, 50000, seed=0)
            assert edges(run_mbang(data, oracle_first_stage(spec))) == want

    def test_plain_dag_recovers_no_multi_edges(self):
        from mbang import Noise, random_bowfree

        spec, truth = random_bowfree(6, 7, Noise("chi2", (2.0,)), seed=2, hide_prob=0.0)
        assert not truth.multi
        data = simulate(spec, 20000, seed=3)
        result = run_mbang(data, oracle_first_stage(spec))
        assert result.graph == truth
        assert result.graph.multi == frozenset()

    def test_stage_dimension_mismatch(self):
        spec = case2_spec()
        data = simulate(spec, 100, seed=3)
        other = oracle_first_stage(symmetric_triangle_spec())
        with pytest.raises(ValidationError):
            run_mbang(data, other)

    def test_diagnostics_trace_each_admission(self):
        spec = case2_spec()
        result = run_mbang_population(spec)
        merged = [d for d in result.diagnostics if d["source"] == "merged"]
        assert len(merged) == 1
        trace = merged[0]
        assert trace["edge"] == [2, 3, 4]
        kinds = [t["kind"] for t in trace["tests"]]
        assert kinds[0] == "root" and set(kinds[1:]) <= {"primary", "relaxed"}
        assert len(trace["tests"]) == 3

    def test_result_json_has_config_echo(self):
        result = run_mbang_population(case2_spec())
        doc = result.to_json_dict()
        assert doc["multi"] == [[2, 3, 4]]
        assert doc["config"]["cumulant_tolerance"] == EXACT_EPS
        assert "B_hat" in doc and "diagnostics" in doc
