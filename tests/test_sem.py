from dataclasses import replace

import numpy as np
import pytest

from mbang import (
    Dataset,
    HiddenSource,
    LsemSpec,
    MixedGraph,
    NumericalError,
    ValidationError,
    center_rows,
    dedirect,
    is_acyclic,
    is_bow_free,
    marginalize,
    random_bowfree,
    simulate,
    standardize_rows,
)
from mbang.graphs import sorted_multi

from helpers import (
    CHI2,
    SKEWED,
    UNIFORM10,
    case2_spec,
    showcase_dag,
    showcase_mixed,
    SHOWCASE_HIDDEN,
)


class TestTypes:
    def test_dataset_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            Dataset(np.array([[1.0, np.inf]]))

    def test_dataset_rejects_empty(self):
        with pytest.raises(ValidationError):
            Dataset(np.empty((2, 0)))

    def test_spec_rejects_unsupported_coefficient(self):
        B = np.zeros((2, 2))
        B[1, 0] = 0.5  # edge 2 -> 1 not in the graph
        with pytest.raises(ValidationError):
            LsemSpec(MixedGraph(2, {(1, 2)}), B, (CHI2, CHI2))

    def test_spec_rejects_bow(self):
        with pytest.raises(ValidationError):
            LsemSpec(
                MixedGraph(2, {(1, 2)}, [{1, 2}]),
                np.zeros((2, 2)),
                (CHI2, CHI2),
                (HiddenSource(frozenset({1, 2}), (0.7, 0.7), CHI2),),
            )

    def test_spec_rejects_cycle(self):
        with pytest.raises(ValidationError):
            LsemSpec(MixedGraph(2, {(1, 2), (2, 1)}), np.zeros((2, 2)), (CHI2, CHI2))

    def test_spec_requires_hidden_alignment(self):
        with pytest.raises(ValidationError):
            LsemSpec(
                MixedGraph(3, frozenset(), [{1, 2}]),
                np.zeros((3, 3)),
                (CHI2,) * 3,
                (),
            )


class TestSimulate:
    def test_single_vertex_uniform_moments(self):
        spec = LsemSpec(MixedGraph(1), np.zeros((1, 1)), (UNIFORM10,))
        data = simulate(spec, 200000, seed=5)
        assert data.values.mean() == pytest.approx(0.0, abs=0.05)
        assert data.values.var() == pytest.approx(100.0 / 3.0, rel=0.02)

    def test_independent_rows_without_edges(self):
        spec = LsemSpec(MixedGraph(3), np.zeros((3, 3)), (CHI2, CHI2, CHI2))
        data = simulate(spec, 200000, seed=6)
        c = np.cov(data.values)
        assert abs(c[0, 1]) < 0.05 and abs(c[0, 2]) < 0.05 and abs(c[1, 2]) < 0.05

    def test_same_index_cumulants_match_noise(self):
        from mbang import sample_cumulant_tensor

        spec = LsemSpec(MixedGraph(2), np.zeros((2, 2)), (CHI2, UNIFORM10))
        data = simulate(spec, 200000, seed=13)
        assert data.values[0].var() == pytest.approx(CHI2.cumulant(2), rel=0.10)
        assert data.values[1].var() == pytest.approx(UNIFORM10.cumulant(2), rel=0.10)
        from mbang import center_rows

        third = sample_cumulant_tensor(center_rows(data), 3)
        assert third.entry((1, 1, 1)) == pytest.approx(CHI2.cumulant(3), rel=0.10)

    def test_reproducible_given_seed(self):
        spec = case2_spec()
        a = simulate(spec, 50, seed=99)
        b = simulate(spec, 50, seed=99)
        assert np.array_equal(a.values, b.values)

    def test_rejects_zero_samples(self):
        with pytest.raises(ValidationError):
            simulate(case2_spec(), 0, seed=1)

    def test_matches_direct_linear_solve(self):
        # independent route: Y = (I - B^T)^{-1} eps column by column
        from helpers import showcase_spec

        spec = showcase_spec()
        data = simulate(spec, 500, seed=33)
        noise = simulate(replace(spec, B=np.zeros_like(spec.B)), 500, seed=33).values
        solved = np.linalg.solve(np.eye(spec.graph.p) - spec.B.T, noise)
        assert np.max(np.abs(data.values - solved)) < 1e-10


class TestDedirect:
    def test_zero_effects_is_identity(self):
        data = Dataset(np.arange(6.0).reshape(2, 3) + 1.0)
        out = dedirect(data, np.zeros((2, 2)))
        assert np.array_equal(out.values, data.values)

    def test_two_by_two_hand_case(self):
        B = np.zeros((2, 2))
        B[0, 1] = 0.8
        data = Dataset(np.array([[1.0], [0.8]]))
        out = dedirect(data, B)
        assert out.values[:, 0] == pytest.approx([1.0, 0.0])

    def test_recovers_recorded_noise(self):
        spec = case2_spec()
        data = simulate(spec, 5000, seed=21)
        noise = simulate(replace(spec, B=np.zeros_like(spec.B)), 5000, seed=21).values
        out = dedirect(data, spec.B)
        assert np.max(np.abs(out.values - noise)) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            dedirect(Dataset(np.ones((2, 3))), np.zeros((3, 3)))


class TestStandardize:
    def test_unit_sd_rows_unchanged(self):
        data = Dataset(np.array([[-1.0, 1.0]]))
        assert np.array_equal(standardize_rows(data).values, data.values)

    def test_scales_by_sd(self):
        data = Dataset(np.array([[-2.0, 2.0]]))
        assert np.allclose(standardize_rows(data).values, [[-1.0, 1.0]])

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        data = Dataset(rng.normal(size=(3, 50)) * [[1.0], [5.0], [0.2]])
        once = standardize_rows(data)
        twice = standardize_rows(once)
        assert np.allclose(once.values, twice.values)
        assert np.allclose(twice.values.std(axis=1), 1.0)

    def test_means_scale_with_rows(self):
        data = Dataset(np.array([[2.0, 6.0]]))  # mean 4, sd 2
        assert standardize_rows(data).values.mean() == pytest.approx(2.0)

    def test_zero_variance_row_raises(self):
        with pytest.raises(NumericalError):
            standardize_rows(Dataset(np.ones((1, 4))))


class TestCenter:
    def test_overflow_after_a_finite_mean_names_the_vertex(self):
        row = [1.7e308, -0.675e308, -0.675e308, -0.675e308, -0.675e308]
        with pytest.raises(NumericalError, match="vertex 2"):
            center_rows(Dataset(np.array([[1.0] * 5, row])))


class TestMarginalize:
    def test_showcase_dag_collapses_to_showcase_mixed(self):
        got, relabel = marginalize(showcase_dag(), SHOWCASE_HIDDEN)
        assert got == showcase_mixed()
        assert relabel == {2: 1, 3: 2, 4: 3, 6: 4, 7: 5}

    def test_no_hidden_is_identity(self):
        dag = MixedGraph(4, {(1, 2), (2, 3)})
        got, relabel = marginalize(dag, set())
        assert got == dag
        assert relabel == {v: v for v in range(1, 5)}

    def test_hidden_with_single_child_vanishes(self):
        dag = MixedGraph(3, {(1, 2)})
        got, _ = marginalize(dag, {1})
        assert got == MixedGraph(2)

    def test_hidden_with_parent_rejected(self):
        dag = MixedGraph(3, {(1, 2), (2, 3)})
        with pytest.raises(ValidationError):
            marginalize(dag, {2})

    def test_bow_trimming_drops_parent_from_edge(self):
        # hidden 2 covers {1, 4}; hidden 3 covers {4, 5}; observed edge 1 -> 4
        # creates a bow with the first edge, so 1 is trimmed out and the edge
        # dies; the second edge survives
        dag = MixedGraph(5, {(2, 1), (2, 4), (3, 4), (3, 5), (1, 4)})
        got, relabel = marginalize(dag, {2, 3})
        assert relabel == {1: 1, 4: 2, 5: 3}
        assert got == MixedGraph(3, {(1, 2)}, [{2, 3}])

    def test_result_is_bow_free(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            p = int(rng.integers(4, 9))
            e = int(rng.integers(0, p * (p - 1) // 2 + 1))
            pairs = [(i, j) for i in range(1, p + 1) for j in range(i + 1, p + 1)]
            chosen = rng.choice(len(pairs), size=e, replace=False)
            dag = MixedGraph(p, frozenset(pairs[k] for k in chosen))
            hidden = {
                v
                for v in range(1, p + 1)
                if not dag.parents[v] and len(dag.children[v]) >= 2 and rng.random() < 0.5
            }
            got, _ = marginalize(dag, hidden)
            assert is_bow_free(got) and is_acyclic(got)


class TestRandomBowfree:
    def test_always_acyclic_and_bow_free(self):
        for seed in range(30):
            spec, truth = random_bowfree(7, 8, CHI2, seed=seed)
            assert is_acyclic(truth) and is_bow_free(truth)
            assert spec.graph == truth

    def test_reproducible(self):
        a, _ = random_bowfree(7, 12, UNIFORM10, seed=4)
        b, _ = random_bowfree(7, 12, UNIFORM10, seed=4)
        assert a.graph == b.graph
        assert np.array_equal(a.B, b.B)
        assert a.hidden == b.hidden

    def test_no_edges_gives_empty_graph(self):
        spec, truth = random_bowfree(5, 0, CHI2, seed=0)
        assert truth == MixedGraph(5)
        assert not spec.hidden

    def test_coefficients_in_band(self):
        for seed in range(10):
            spec, _ = random_bowfree(7, 12, CHI2, seed=seed)
            mags = [abs(x) for x in spec.B[spec.B != 0.0]]
            mags += [abs(x) for src in spec.hidden for x in src.loadings]
            assert all(0.6 < m < 1.0 for m in mags)

    def test_observed_count_stays_near_p(self):
        # hiding parentless vertices typically leaves 5 or 6 of 7 observed
        for seed in range(40):
            for edges in (5, 8):
                _, truth = random_bowfree(7, edges, CHI2, seed=seed)
                assert 4 <= truth.p <= 7

    def test_edge_count_out_of_range(self):
        with pytest.raises(ValidationError):
            random_bowfree(4, 7, CHI2, seed=0)

    def test_noise_pool_draws_per_source(self):
        spec, _ = random_bowfree(7, 12, SKEWED, seed=3)
        seen = {nz.dist for nz in spec.noise}
        assert len(seen) >= 2

    def test_sorted_multi_alignment(self):
        spec, truth = random_bowfree(7, 12, CHI2, seed=8)
        assert [sorted(s.members) for s in spec.hidden] == [
            list(h) for h in sorted_multi(truth.multi)
        ]

    def test_hide_prob_extremes(self):
        spec, truth = random_bowfree(7, 8, CHI2, seed=0, hide_prob=0.0)
        assert truth.p == 7 and not truth.multi
        _, truth_all = random_bowfree(7, 8, CHI2, seed=0, hide_prob=1.0)
        assert truth_all.p < 7  # seed 0 at 8 edges has a hidden candidate
