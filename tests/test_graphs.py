import itertools

import numpy as np
import pytest

from mbang import (
    BidirectedGraph,
    MixedGraph,
    ValidationError,
    bidirected_subdivision,
    enumerate_cliques,
    find_k_trek,
    has_k_trek,
    is_acyclic,
    is_bow_free,
    topological_order,
)
from mbang import FirstStageResult
from mbang.graphs import (
    bows,
    check_vertex_tuple,
    format_graph,
    graph_from_json_dict,
    graph_to_dot,
    graph_to_json_dict,
)

from helpers import (
    case1_graph,
    case2_graph,
    exhaustive_maximal_cliques,
    random_mixed_graph,
    showcase_dag,
    showcase_mixed,
)


class TestConstruction:
    def test_rejects_out_of_range_edges(self):
        with pytest.raises(ValidationError):
            MixedGraph(3, {(1, 4)})

    def test_rejects_self_loop(self):
        with pytest.raises(ValidationError):
            MixedGraph(3, {(2, 2)})

    def test_rejects_singleton_multi_edge(self):
        with pytest.raises(ValidationError):
            MixedGraph(3, frozenset(), [{2}])

    def test_multi_edges_deduplicate(self):
        g = MixedGraph(4, frozenset(), [{2, 3}, {3, 2}])
        assert len(g.multi) == 1

    def test_overlapping_multi_edges_allowed(self):
        g = MixedGraph(4, frozenset(), [{1, 2, 3}, {2, 3, 4}])
        assert len(g.multi) == 2

    def test_bidirected_pair_must_have_two_vertices(self):
        with pytest.raises(ValidationError):
            BidirectedGraph(3, [{1, 2, 3}])


class TestAcyclic:
    def test_showcase_dag_is_acyclic(self):
        assert is_acyclic(showcase_dag())

    def test_three_cycle(self):
        assert not is_acyclic(MixedGraph(3, {(1, 2), (2, 3), (3, 1)}))

    def test_empty_graph(self):
        assert is_acyclic(MixedGraph(5))

    def test_topological_order_puts_edges_forward(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            g = random_mixed_graph(rng, int(rng.integers(2, 8)))
            order = topological_order(g)
            pos = {v: k for k, v in enumerate(order)}
            # equivalent to the coefficient matrix being lower triangular
            # after permuting by the order
            assert all(pos[i] < pos[j] for i, j in g.directed)


class TestBowFree:
    def test_directed_plus_bidirected_pair_is_a_bow(self):
        assert not is_bow_free(MixedGraph(2, {(1, 2)}, [{1, 2}]))

    def test_showcase_mixed_is_bow_free(self):
        assert is_bow_free(showcase_mixed())

    def test_no_multi_edges_no_bow(self):
        assert is_bow_free(MixedGraph(4, {(1, 2), (2, 3)}))

    def test_bow_inside_larger_edge(self):
        assert not is_bow_free(MixedGraph(3, {(1, 2)}, [{1, 2, 3}]))

    @staticmethod
    def _random_edges(rng, p):
        ends = rng.integers(1, p + 1, size=(int(rng.integers(0, 6)), 2))
        return {(int(i), int(j)) for i, j in ends if i != j}

    def test_bows_agree_with_pair_membership(self):
        # A directed edge is a bow when its endpoints form a pair of the
        # bidirected subdivision; these graphs are drawn with bows allowed.
        rng = np.random.default_rng(22)
        found = 0
        for _ in range(200):
            p = int(rng.integers(2, 8))
            multi = [
                rng.choice(p, size=int(rng.integers(2, p + 1)), replace=False) + 1
                for _ in range(int(rng.integers(0, 3)))
            ]
            g = MixedGraph(p, self._random_edges(rng, p), multi)
            pairs = bidirected_subdivision(g).pairs
            want = sorted(e for e in g.directed if frozenset(e) in pairs)
            assert bows(g.directed, g.multi) == want
            assert bows(g.directed, pairs) == want
            assert is_bow_free(g) == (not want)
            found += bool(want)
        assert 0 < found < 200

    def test_first_stage_refuses_exactly_the_bows(self):
        rng = np.random.default_rng(23)
        refused = 0
        for _ in range(200):
            p = int(rng.integers(2, 7))
            directed = self._random_edges(rng, p)
            pairs = {frozenset(e) for e in self._random_edges(rng, p)}
            want = sorted(e for e in directed if frozenset(e) in pairs)
            try:
                FirstStageResult(np.zeros((p, p)), directed, BidirectedGraph(p, pairs))
            except ValidationError as exc:
                assert f"bows {want}" in str(exc)
                refused += 1
            else:
                assert not want
        assert 0 < refused < 200


class TestSubdivision:
    def test_triple(self):
        bg = bidirected_subdivision(MixedGraph(4, frozenset(), [{2, 3, 4}]))
        assert bg.pairs == frozenset(
            {frozenset({2, 3}), frozenset({2, 4}), frozenset({3, 4})}
        )

    def test_pair_is_identity(self):
        bg = bidirected_subdivision(MixedGraph(2, frozenset(), [{1, 2}]))
        assert bg.pairs == frozenset({frozenset({1, 2})})

    def test_overlapping_edges(self):
        bg = bidirected_subdivision(MixedGraph(4, frozenset(), [{1, 2, 3}, {3, 4}]))
        expected = {
            frozenset({1, 2}),
            frozenset({1, 3}),
            frozenset({2, 3}),
            frozenset({3, 4}),
        }
        assert bg.pairs == frozenset(expected)

    def test_monotone_under_added_edges(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            g = random_mixed_graph(rng, 6)
            extra = frozenset({1, 2})
            bigger = MixedGraph(
                g.p, frozenset(), frozenset(g.multi) | {extra}
            )
            assert bidirected_subdivision(g).pairs <= bidirected_subdivision(bigger).pairs


class TestTreks:
    def test_showcase_three_edge_members(self):
        assert has_k_trek(showcase_mixed(), (2, 3, 4))

    def test_case1_has_no_three_trek(self):
        assert not has_k_trek(case1_graph(), (2, 3, 4))

    def test_case2_has_three_trek(self):
        assert has_k_trek(case2_graph(), (2, 3, 4))

    def test_edgeless_pair(self):
        assert not has_k_trek(MixedGraph(3), (1, 2))

    def test_common_source_via_directed_paths(self):
        g = MixedGraph(4, {(1, 2), (2, 3), (1, 4)})
        assert has_k_trek(g, (3, 4))

    def test_repeated_sources_inside_an_edge_count(self):
        # sources (b, b) style: the 2-edge {a, b} plus b -> c gives a trek to
        # (a, c) even though only one member reaches c
        g = MixedGraph(3, {(2, 3)}, [{1, 2}])
        assert has_k_trek(g, (1, 3))
        assert has_k_trek(g, (1, 2, 3))

    def test_rejects_repeated_vertices(self):
        with pytest.raises(ValidationError):
            has_k_trek(showcase_mixed(), (2, 2, 3))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            has_k_trek(showcase_mixed(), (2, 9))

    def test_rejects_short_tuple(self):
        with pytest.raises(ValidationError):
            check_vertex_tuple(5, (3,))

    def test_every_sub_tuple_of_a_multi_edge_has_a_trek(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            g = random_mixed_graph(rng, int(rng.integers(3, 7)))
            for h in g.multi:
                for m in range(2, len(h) + 1):
                    for sub in itertools.combinations(sorted(h), m):
                        assert has_k_trek(g, sub)

    def test_witness_paths_are_real(self):
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(40):
            g = random_mixed_graph(rng, 6)
            for sub in itertools.combinations(range(1, 7), 3):
                w = find_k_trek(g, sub)
                if w is None:
                    continue
                checked += 1
                for sink, src, path in zip(sub, w.sources, w.paths):
                    assert path[0] == src and path[-1] == sink
                    for a, b in zip(path, path[1:]):
                        assert (a, b) in g.directed
                if w.hidden_edge is None:
                    assert len(set(w.sources)) == 1
                else:
                    assert w.hidden_edge in g.multi
                    assert set(w.sources) <= set(w.hidden_edge)
        assert checked > 20

    def test_matrix_closure_oracle_agreement(self):
        # reachability through boolean matrix powers, independent of the
        # ancestor-map implementation
        rng = np.random.default_rng(11)
        for _ in range(25):
            p = int(rng.integers(2, 7))
            g = random_mixed_graph(rng, p)
            adj = np.zeros((p, p), dtype=bool)
            for i, j in g.directed:
                adj[i - 1, j - 1] = True
            reach = np.eye(p, dtype=bool)
            step = np.eye(p, dtype=bool)
            for _ in range(p):
                step = step @ adj
                reach |= step
            for k in (2, 3):
                for sub in itertools.combinations(range(1, p + 1), k):
                    cols = [reach[:, v - 1] for v in sub]
                    common = np.logical_and.reduce(cols).any()
                    via_multi = any(
                        all(any(reach[u - 1, v - 1] for u in h) for v in sub)
                        for h in g.multi
                    )
                    assert has_k_trek(g, sub) == (common or via_multi)


class TestCliques:
    def test_triangle(self):
        bg = BidirectedGraph(4, [{2, 3}, {2, 4}, {3, 4}])
        assert enumerate_cliques(bg) == [frozenset({2, 3, 4})]

    def test_disjoint_pairs(self):
        bg = BidirectedGraph(4, [{1, 2}, {3, 4}])
        assert enumerate_cliques(bg) == [frozenset({1, 2}), frozenset({3, 4})]

    def test_triangle_with_pendant(self):
        bg = BidirectedGraph(4, [{1, 2}, {1, 3}, {2, 3}, {3, 4}])
        assert enumerate_cliques(bg) == [frozenset({1, 2, 3}), frozenset({3, 4})]

    def test_against_exhaustive_enumeration(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            p = int(rng.integers(2, 9))
            pairs = {
                frozenset(pair)
                for pair in itertools.combinations(range(1, p + 1), 2)
                if rng.random() < 0.4
            }
            bg = BidirectedGraph(p, frozenset(pairs))
            assert enumerate_cliques(bg) == exhaustive_maximal_cliques(bg)


class TestSerialization:
    def test_json_round_trip(self):
        g = showcase_mixed()
        assert graph_from_json_dict(graph_to_json_dict(g)) == g

    def test_dot_renders_hidden_stars(self):
        dot = graph_to_dot(showcase_mixed())
        assert '"H1" [shape=box, style=dashed]' in dot
        assert '"H2"' in dot
        assert '"1" -> "2";' in dot
        assert dot.count("style=dashed]") == 1 + 1 + 5  # 2 node decls + 5 dashed arrows

    def test_format_graph_notation(self):
        text = format_graph(showcase_mixed())
        assert "1 -> 2" in text
        assert "(2,3,4) <-*->" in text
