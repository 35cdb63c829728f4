import itertools

import numpy as np
import pytest

from mbang import (
    Dataset,
    ValidationError,
    center_rows,
    cumulant_from_moments,
    has_k_trek,
    population_cumulant_tensor,
    sample_cumulant_tensor,
    sample_moments,
    simulate,
    standardize_rows,
)
from mbang.cumulants import (
    CumulantTensor,
    MomentTable,
    tensor_to_json_dict,
)
from mbang.discovery import SampleCumulants

from helpers import (
    SKEWED,
    bell_cumulant,
    case1_spec,
    case2_spec,
    oracle_population_cumulant,
    random_mixed_graph,
    random_spec,
    set_partitions,
)

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877, 8: 4140}


# The oracle's partitions (tests/helpers.py), which the Bell-sum oracle below
# is built on.
class TestPartitions:
    @pytest.mark.parametrize("k", sorted(BELL))
    def test_counts_are_bell_numbers(self, k):
        assert len(set_partitions(k)) == BELL[k]

    def test_blocks_partition_the_positions(self):
        for partition in set_partitions(5):
            flat = sorted(pos for block in partition for pos in block)
            assert flat == list(range(5))

    def test_partitions_are_distinct(self):
        parts = set_partitions(6)
        canon = {tuple(sorted(tuple(sorted(b)) for b in p)) for p in parts}
        assert len(canon) == len(parts)

    def test_order_cap(self):
        with pytest.raises(ValidationError):
            set_partitions(9)


class TestSampleMoments:
    def test_univariate_second_moment(self):
        data = Dataset(np.array([[1.0, -1.0, 2.0, -2.0]]))
        table = sample_moments(data, 2)
        assert table.get((1, 1)) == pytest.approx(2.5)

    def test_centered_first_moment_is_zero(self):
        rng = np.random.default_rng(1)
        data = center_rows(Dataset(rng.normal(size=(3, 500))))
        table = sample_moments(data, 1)
        for v in (1, 2, 3):
            assert table.get((v,)) == pytest.approx(0.0, abs=1e-14)

    def test_constant_data_cubes(self):
        data = Dataset(np.full((1, 10), 3.0))
        table = sample_moments(data, 3)
        assert table.get((1, 1, 1)) == pytest.approx(27.0)

    def test_symmetric_key_lookup(self):
        data = Dataset(np.arange(8.0).reshape(2, 4))
        table = sample_moments(data, 2)
        assert table.get((2, 1)) == table.get((1, 2))

    def test_missing_entry_raises(self):
        table = MomentTable({(1,): 0.0})
        with pytest.raises(ValidationError):
            table.get((1, 2))

    def test_bad_kmax(self):
        with pytest.raises(ValidationError):
            sample_moments(Dataset(np.ones((1, 3))), 0)


class TestCumulantFromMoments:
    def test_univariate_fourth_cumulant_by_hand(self):
        # data [1, -1, 2, -2]: m2 = 2.5, m4 = 8.5, kappa4 = 8.5 - 3 * 2.5^2
        data = Dataset(np.array([[1.0, -1.0, 2.0, -2.0]]))
        table = sample_moments(data, 4)
        assert cumulant_from_moments(table, (1, 1, 1, 1)) == pytest.approx(-10.25)

    def test_order_four_zero_mean_identity(self):
        # full partition sum reduces to m1234 - m12*m34 - m13*m24 - m14*m23
        # on exactly centered data
        rng = np.random.default_rng(4)
        data = center_rows(Dataset(rng.normal(size=(4, 300))))
        table = sample_moments(data, 4)
        direct = (
            table.get((1, 2, 3, 4))
            - table.get((1, 2)) * table.get((3, 4))
            - table.get((1, 3)) * table.get((2, 4))
            - table.get((1, 4)) * table.get((2, 3))
        )
        assert cumulant_from_moments(table, (1, 2, 3, 4)) == pytest.approx(direct, abs=1e-12)

    def test_independent_coordinates_covariance(self):
        rng = np.random.default_rng(8)
        data = center_rows(Dataset(rng.normal(size=(2, 200000))))
        table = sample_moments(data, 2)
        assert cumulant_from_moments(table, (1, 2)) == pytest.approx(0.0, abs=0.01)

    def test_order_cap(self):
        with pytest.raises(ValidationError):
            cumulant_from_moments(MomentTable({}), (1,) * 9)


# Orders 1..8 with repeated indices (the relaxed test's shape (1, 2, 3, 3)),
# in sorted and unsorted order.
RECURSION_CASES = [
    (1,), (2, 3), (3, 3), (1, 2, 3), (1, 2, 3, 3), (2, 3, 4, 4, 4), (1, 2, 2, 3, 4, 4),
    (4, 1, 3, 3, 1, 2, 4), (1, 1, 2, 2, 3, 3, 4, 4), (3, 4, 2, 1, 4, 3, 2, 1), (4,) * 8,
]


class TestRecursionMatchesBellSum:
    """The subset recursion against the signed sum over all Bell(k) partitions."""

    @pytest.fixture(scope="class")
    def data(self):
        return standardize_rows(center_rows(simulate(case2_spec(), 4000, seed=41)))

    @pytest.mark.parametrize("idx", RECURSION_CASES)
    def test_moment_table(self, data, idx):
        table = sample_moments(data, len(idx))
        assert cumulant_from_moments(table, idx) == pytest.approx(
            bell_cumulant(table, idx), rel=1e-12, abs=1e-12
        )

    @pytest.mark.parametrize("idx", RECURSION_CASES)
    def test_sample_provider(self, data, idx):
        provider = SampleCumulants(data)
        assert provider.entry(idx) == pytest.approx(
            bell_cumulant(provider, idx), rel=1e-12, abs=1e-12
        )

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_provider_equals_tensor_bit_for_bit(self, data, k):
        # Both sample routes read the caller's centered rows as given.
        tensor = sample_cumulant_tensor(data, k)
        provider = SampleCumulants(data)
        for idx in tensor.values:
            assert provider.entry(idx) == tensor.entry(idx)


class TestSampleTensor:
    def test_independent_rows_off_diagonal_vanishes(self):
        rng = np.random.default_rng(2)
        data = center_rows(Dataset(rng.uniform(-1, 1, size=(3, 150000))))
        t = sample_cumulant_tensor(data, 3)
        assert t.entry((1, 2, 3)) == pytest.approx(0.0, abs=0.01)
        assert t.entry((1, 1, 2)) == pytest.approx(0.0, abs=0.01)

    def test_case2_third_order_entry_is_visible(self):
        data = center_rows(simulate(case2_spec(), 50000, seed=123))
        t = sample_cumulant_tensor(data, 3)
        pop = population_cumulant_tensor(case2_spec(), 3)
        assert abs(t.entry((2, 3, 4))) > 0.5 * abs(pop.entry((2, 3, 4)))

    def test_entries_symmetric_under_permutation(self):
        rng = np.random.default_rng(3)
        data = center_rows(Dataset(rng.normal(size=(3, 500))))
        t = sample_cumulant_tensor(data, 3)
        assert t.entry((3, 1, 2)) == t.entry((1, 2, 3))
        with pytest.raises(ValidationError):
            t.entry((1, 2))


class TestPopulationTensor:
    def test_no_trek_entries_are_exact_zeros(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            g = random_mixed_graph(rng, 5)
            spec = random_spec(rng, g)
            for k in (2, 3):
                tensor = population_cumulant_tensor(spec, k)
                for idx in itertools.combinations(range(1, 6), k):
                    if not has_k_trek(g, idx):
                        assert tensor.entry(idx) == 0.0

    def test_case1_triple_vanishes_case2_does_not(self):
        t1 = population_cumulant_tensor(case1_spec(), 3)
        assert t1.entry((2, 3, 4)) == 0.0
        t2 = population_cumulant_tensor(case2_spec(), 3)
        assert t2.entry((2, 3, 4)) != 0.0

    def test_single_hidden_source_with_unit_loadings(self):
        # only one source reaches all of 2, 3, 4, so the sum has one term
        from mbang import HiddenSource, LsemSpec, MixedGraph, Noise

        chi = Noise("chi2", (2.0,))
        spec = LsemSpec(
            MixedGraph(4, frozenset(), [{2, 3, 4}]),
            np.zeros((4, 4)),
            (chi,) * 4,
            (HiddenSource(frozenset({2, 3, 4}), (1.0, 1.0, 1.0), chi),),
        )
        tensor = population_cumulant_tensor(spec, 3)
        assert tensor.entry((2, 3, 4)) == pytest.approx(chi.cumulant(3))

    def test_matches_moment_route_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(6):
            g = random_mixed_graph(rng, 4)
            spec = random_spec(rng, g)
            for k in (2, 3, 4):
                tensor = population_cumulant_tensor(spec, k)
                for idx in itertools.combinations_with_replacement(range(1, 5), k):
                    expected = oracle_population_cumulant(spec, idx)
                    assert tensor.entry(idx) == pytest.approx(expected, rel=1e-8, abs=1e-10)

    def test_sample_converges_to_population(self):
        spec = case2_spec()
        data = center_rows(simulate(spec, 200000, seed=7))
        for k in (2, 3):
            sample = sample_cumulant_tensor(data, k)
            pop = population_cumulant_tensor(spec, k)
            for idx in pop.values:
                if abs(pop.entry(idx)) >= 0.1:
                    assert sample.entry(idx) == pytest.approx(pop.entry(idx), rel=0.10)

    def test_sample_converges_fourth_order_bounded_noise(self):
        from helpers import symmetric_triangle_spec

        spec = symmetric_triangle_spec()
        data = center_rows(simulate(spec, 200000, seed=11))
        sample = sample_cumulant_tensor(data, 4)
        pop = population_cumulant_tensor(spec, 4)
        for idx in pop.values:
            if abs(pop.entry(idx)) >= 0.1:
                assert sample.entry(idx) == pytest.approx(pop.entry(idx), rel=0.10)

    def test_multi_trek_rule_small(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            p = int(rng.integers(3, 6))
            g = random_mixed_graph(rng, p)
            spec = random_spec(rng, g, noises=SKEWED)
            for k in (2, 3, 4):
                if k > p:
                    continue
                tensor = population_cumulant_tensor(spec, k)
                for idx in itertools.combinations(range(1, p + 1), k):
                    is_zero = abs(tensor.entry(idx)) <= 1e-9
                    assert is_zero == (not has_k_trek(g, idx))


def test_tensor_json_document():
    t = CumulantTensor(2, 2, {(2, 2): 2.0, (1, 1): 1.5, (1, 2): -0.25})
    assert tensor_to_json_dict(t) == {
        "order": 2,
        "p": 2,
        "entries": [
            {"idx": [1, 1], "value": 1.5},
            {"idx": [1, 2], "value": -0.25},
            {"idx": [2, 2], "value": 2.0},
        ],
    }
