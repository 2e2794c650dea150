import numpy as np
import pytest

from cause_sieve import seeding
from cause_sieve.errors import BadParam, ConstantInput, OutOfRange, TooFewRows
from cause_sieve.model import CandidateSet
from cause_sieve.regress import _MeanSmoother
from cause_sieve.stattests import (
    _product_rbf_kernel,
    ad_uniform_test,
    hsic_test,
    perm_significance,
)

from conftest import table


class TestHsic:
    def test_constant_noise_rejected(self):
        x = np.random.default_rng(0).standard_normal(50)
        with pytest.raises(ConstantInput):
            hsic_test(x, np.full(50, 0.3))

    def test_statistic_non_negative_with_ties(self):
        rng = np.random.default_rng(1)
        e = rng.standard_normal(50)
        e[1] = e[0]
        assert hsic_test(rng.standard_normal(50), e).statistic >= 0.0

    def test_identical_samples_dependent(self):
        # permutation reference with 1000 draws is the oracle here
        x = np.random.default_rng(2).standard_normal(200)
        res = hsic_test(x, x, method="permutation", n_perm=1000, seed=0)
        assert res.p_value < 0.01
        assert hsic_test(x, x).p_value < 0.01

    def test_independent_pairs_accepted(self):
        rng = np.random.default_rng(3)
        rejections = 0
        for seed in range(40):
            x = rng.standard_normal(200)
            e = rng.standard_normal(200)
            rejections += hsic_test(x, e).p_value < 0.05
        assert rejections <= 6  # around the nominal level

    def test_translation_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((80, 2))
        e = rng.standard_normal(80)
        base = hsic_test(x, e)
        shifted = hsic_test(x + 17.0, e - 3.0)
        assert base.statistic == pytest.approx(shifted.statistic, rel=1e-9)
        assert base.p_value == pytest.approx(shifted.p_value, rel=1e-9)

    def test_kernel_matches_pairwise_definition(self):
        # the sorted-lag median and the in-place exponent give exactly the
        # floats of the textbook (n, n) construction, ties included
        x = np.round(np.random.default_rng(6).standard_normal((60, 2)), 1)
        expo = np.zeros((60, 60))
        for j in range(2):
            d = x[:, j][:, None] - x[:, j][None, :]
            tri = np.abs(d)[np.triu_indices(60, k=1)]
            h = np.median(tri[tri > 0])
            expo += (d * d) / (2.0 * h * h)
        np.testing.assert_array_equal(_product_rbf_kernel(x), np.exp(-expo))

    def test_gamma_matches_permutation_reference(self):
        # the permutation null is the reference the Gamma approximation is
        # held to, across independent and weakly dependent pairs
        for seed in range(20):
            rng = seeding.substream(seed, 920)
            x = rng.standard_normal((150, 2))
            e = rng.standard_normal(150) + 0.1 * (seed % 4) * x[:, 0] * x[:, 1]
            p_gamma = hsic_test(x, e).p_value
            p_perm = hsic_test(x, e, method="permutation", n_perm=999, seed=seed).p_value
            assert abs(p_gamma - p_perm) <= 0.1, (seed, p_gamma, p_perm)

    def test_permutation_p_on_grid(self):
        rng = np.random.default_rng(5)
        res = hsic_test(rng.standard_normal(60), rng.standard_normal(60), method="permutation", n_perm=99, seed=1)
        assert 0.0 < res.p_value <= 1.0
        assert (res.p_value * 100) == pytest.approx(round(res.p_value * 100))

    def test_needs_twenty_rows(self):
        with pytest.raises(TooFewRows):
            hsic_test(np.arange(10.0), np.arange(10.0))


class TestAndersonDarling:
    def test_analytic_point(self):
        res = ad_uniform_test([0.5])
        assert res.statistic == pytest.approx(2 * np.log(2) - 1, abs=1e-12)

    def test_near_perfect_grid(self):
        u = (np.arange(1, 101) - 0.5) / 100
        assert ad_uniform_test(u).p_value >= 0.5

    def test_extreme_pile_up(self):
        u = np.full(100, 0.999) + np.linspace(0, 1e-6, 100)
        assert ad_uniform_test(u).p_value < 1e-6

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            ad_uniform_test([0.2, 1.0])

    def test_p_monotone_in_statistic(self):
        from cause_sieve.stattests import _ad_p_value

        zs = np.concatenate([np.linspace(0.01, 5, 200), np.linspace(5, 600, 100)])
        ps = [_ad_p_value(z) for z in zs]
        assert all(a >= b - 1e-12 for a, b in zip(ps, ps[1:]))


class TestPermSignificance:
    def test_floor_on_permutations(self):
        rng = np.random.default_rng(8)
        data = table(rng.standard_normal(100), rng.standard_normal(100))
        with pytest.raises(BadParam):
            perm_significance(data, CandidateSet((1,)), lambda x, y: None, n_perm=49)

    def test_strong_and_null_covariates(self):
        strong_min = 0
        null_ok = 0
        for seed in range(20):
            rng = seeding.substream(seed, 800)
            x = rng.standard_normal((400, 2))
            y = x[:, 0] + 0.3 * rng.standard_normal(400)
            data = table(y, x[:, 0], x[:, 1])
            p = perm_significance(data, CandidateSet((1, 2)), _MeanSmoother, n_perm=99, seed=seed)
            strong_min += p[0] == pytest.approx(1 / 100)
            null_ok += p[1] > 0.05
        assert strong_min == 20
        assert null_ok >= 17
