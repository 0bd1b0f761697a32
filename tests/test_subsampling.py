"""Tests for the error-estimation library: variational, traditional, bootstrap, CLT."""

import math

import numpy as np
import pytest

from repro.connectors import BuiltinConnector, SqliteConnector
from repro.core.rewriter import _h_expression
from repro.sqlengine import sqlast as ast
from repro.subsampling import (
    assign_sids,
    bootstrap,
    clt,
    combine_sids,
    default_subsample_count,
    default_subsample_size,
    relative_error,
    traditional,
    variational,
)
from repro.subsampling.intervals import ConfidenceInterval, empirical_interval, normal_interval


class TestSidMachinery:
    def test_default_subsample_count_is_perfect_square_and_capped(self):
        for n in (10, 1_000, 50_000, 10_000_000):
            b = default_subsample_count(n)
            root = int(math.isqrt(b))
            assert root * root == b
            assert b <= 100

    def test_default_subsample_size_is_sqrt(self):
        assert default_subsample_size(10_000) == 100

    def test_assign_sids_partition_mode(self):
        sids = assign_sids(10_000, 100, rng=np.random.default_rng(0))
        assert sids.min() >= 1 and sids.max() <= 100
        # Roughly equal subsample sizes.
        counts = np.bincount(sids, minlength=101)[1:]
        assert counts.std() < 30

    def test_assign_sids_partial_mode_has_zeros(self):
        sids = assign_sids(
            100_000, 100, rng=np.random.default_rng(0), partial=True, subsample_size=100
        )
        assert (sids == 0).mean() > 0.5  # most rows belong to no subsample

    def test_combine_sids_range_and_partition(self):
        rng = np.random.default_rng(0)
        left = rng.integers(1, 101, 10_000)
        right = rng.integers(1, 101, 10_000)
        combined = combine_sids(left, right, 100)
        assert combined.min() >= 1 and combined.max() <= 100
        # h(i, j) must hit every joined-subsample id.
        assert len(np.unique(combined)) == 100

    def test_combine_sids_zero_propagates(self):
        combined = combine_sids(np.array([0, 5]), np.array([3, 0]), 100)
        assert combined.tolist() == [0, 0]

    def test_combine_sids_requires_perfect_square(self):
        with pytest.raises(ValueError):
            combine_sids(np.array([1]), np.array([1]), 50)

    @pytest.mark.parametrize("connector", [BuiltinConnector, SqliteConnector])
    def test_the_rewriters_h_is_combine_sids_on_every_pair(self, connector):
        """The SQL the rewriter joins two samples' sids with, run by the
        backend over every (i, j) in 1..b, is the reference h(i, j)."""
        b = 100
        sids = np.arange(1, b + 1)
        left, right = (pair.ravel() for pair in np.meshgrid(sids, sids))
        backend = connector()
        backend.load_table("pairs", {"i": left, "j": right})
        h = _h_expression(ast.ColumnRef("i"), ast.ColumnRef("j"), b)
        combined = backend.execute(f"SELECT {h.to_sql()} AS h FROM pairs").column("h")
        assert [int(value) for value in combined] == combine_sids(left, right, b).tolist()
        backend.close()


class TestIntervals:
    def test_normal_interval_symmetric(self):
        interval = normal_interval(10.0, 1.0, confidence=0.95)
        assert interval.lower == pytest.approx(10.0 - 1.96, abs=0.01)
        assert interval.upper == pytest.approx(10.0 + 1.96, abs=0.01)
        assert interval.contains(10.0)
        assert interval.relative_error == pytest.approx(interval.half_width / 10.0)

    def test_empirical_interval_orientation(self):
        deviations = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        interval = empirical_interval(100.0, deviations, scale=10.0)
        assert interval.lower < 100.0 < interval.upper

    def test_empirical_interval_degenerate(self):
        interval = empirical_interval(5.0, np.array([]), scale=0.0)
        assert interval.lower == interval.upper == 5.0

    def test_relative_error_helper(self):
        assert relative_error(110.0, 100.0) == pytest.approx(0.1)
        assert relative_error(0.0, 0.0) == 0.0
        assert relative_error(1.0, 0.0) == float("inf")


class TestVariationalSubsampling:
    def test_mean_interval_covers_true_mean(self):
        rng = np.random.default_rng(0)
        covered = 0
        trials = 200
        for _ in range(trials):
            sample = rng.normal(10.0, 10.0, 4_000)
            interval = variational.mean_interval(sample, rng=rng)
            covered += interval.contains(10.0)
        # Nominal coverage is 95%; allow slack for the asymptotic approximation.
        assert covered / trials > 0.85

    def test_interval_width_shrinks_with_sample_size(self):
        rng = np.random.default_rng(1)
        small = variational.mean_interval(rng.normal(10, 10, 1_000), rng=rng)
        large = variational.mean_interval(rng.normal(10, 10, 100_000), rng=rng)
        assert large.half_width < small.half_width

    def test_width_close_to_clt_width(self):
        rng = np.random.default_rng(2)
        sample = rng.normal(10.0, 10.0, 50_000)
        ours = variational.mean_interval(sample, rng=rng)
        reference = clt.mean_interval(sample)
        assert ours.half_width == pytest.approx(reference.half_width, rel=0.5)

    def test_sum_and_count_intervals_scale_with_population(self):
        rng = np.random.default_rng(3)
        sample = rng.normal(10.0, 10.0, 10_000)
        mean_interval = variational.mean_interval(sample, rng=np.random.default_rng(0))
        sum_interval = variational.sum_interval(
            sample, population_size=1_000_000, rng=np.random.default_rng(0)
        )
        assert sum_interval.estimate == pytest.approx(mean_interval.estimate * 1_000_000)
        indicator = (rng.random(10_000) < 0.3).astype(float)
        count_interval = variational.count_interval(indicator, 1_000_000, rng=rng)
        assert abs(count_interval.estimate - 300_000) / 300_000 < 0.1

    def test_subsample_statistics_standard_error(self):
        rng = np.random.default_rng(4)
        sample = rng.normal(10.0, 10.0, 40_000)
        stats = variational.subsample_means(sample, rng=rng)
        # Appendix G's closed form should approximate the CLT standard error.
        clt_se = float(np.std(sample, ddof=1) / math.sqrt(len(sample)))
        assert stats.standard_error() == pytest.approx(clt_se, rel=0.5)

    def test_empty_sample(self):
        interval = variational.mean_interval(np.array([]))
        assert math.isnan(interval.estimate)

    def test_optimal_subsample_size(self):
        assert variational.optimal_subsample_size(10_000) == 100


class TestBaselineEstimators:
    def test_traditional_subsampling_coverage(self):
        rng = np.random.default_rng(5)
        covered = 0
        for _ in range(100):
            sample = rng.normal(10.0, 10.0, 2_000)
            interval = traditional.mean_interval(sample, subsample_count=60, rng=rng)
            covered += interval.contains(10.0)
        assert covered > 80

    def test_bootstrap_coverage(self):
        rng = np.random.default_rng(6)
        covered = 0
        for _ in range(100):
            sample = rng.normal(10.0, 10.0, 1_000)
            interval = bootstrap.mean_interval(sample, resample_count=80, rng=rng)
            covered += interval.contains(10.0)
        assert covered > 85

    def test_consolidated_bootstrap_matches_plain_bootstrap_width(self):
        rng = np.random.default_rng(7)
        sample = rng.normal(10.0, 10.0, 5_000)
        plain = bootstrap.mean_interval(sample, resample_count=100, rng=np.random.default_rng(0))
        consolidated = bootstrap.consolidated_mean_interval(
            sample, resample_count=100, rng=np.random.default_rng(0)
        )
        assert consolidated.half_width == pytest.approx(plain.half_width, rel=0.5)

    def test_clt_interval_matches_formula(self):
        rng = np.random.default_rng(8)
        sample = rng.normal(10.0, 10.0, 10_000)
        interval = clt.mean_interval(sample)
        expected = 1.96 * np.std(sample, ddof=1) / math.sqrt(len(sample))
        assert interval.half_width == pytest.approx(expected, rel=0.01)

    def test_clt_count_interval(self):
        interval = clt.count_interval(300, 1_000, 1_000_000)
        assert interval.estimate == pytest.approx(300_000)
        assert interval.lower < 300_000 < interval.upper

    def test_sum_intervals_consistent_across_methods(self):
        rng = np.random.default_rng(9)
        sample = rng.normal(10.0, 10.0, 5_000)
        population = 200_000
        estimates = [
            clt.sum_interval(sample, population).estimate,
            bootstrap.sum_interval(sample, population, rng=rng).estimate,
            traditional.sum_interval(sample, population, rng=rng).estimate,
            variational.sum_interval(sample, population, rng=rng).estimate,
        ]
        assert max(estimates) - min(estimates) < 1e-6 * population * 10

    def test_empty_inputs(self):
        assert math.isnan(bootstrap.mean_interval(np.array([])).estimate)
        assert math.isnan(traditional.mean_interval(np.array([])).estimate)
        assert math.isnan(clt.mean_interval(np.array([])).estimate)


class TestConfidenceIntervalDataclass:
    def test_half_width_and_contains(self):
        interval = ConfidenceInterval(10.0, 8.0, 12.0)
        assert interval.half_width == 2.0
        assert interval.contains(8.0) and not interval.contains(7.9)

    def test_relative_error_zero_estimate(self):
        assert ConfidenceInterval(0.0, -1.0, 1.0).relative_error == float("inf")
        assert ConfidenceInterval(0.0, 0.0, 0.0).relative_error == 0.0
