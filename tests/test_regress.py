import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.stats import kstest

from cause_sieve import seeding
from cause_sieve.errors import BadParam, DomainViolation, RankDeficient
from cause_sieve.model import CandidateSet
from cause_sieve.regress import (
    _CpcmLocalEvaluator,
    _CpcmLocalModel,
    _LocationScaleModel,
    _MeanSmoother,
    fit_additive,
    fit_cpcm,
    fit_linear,
    fit_location_scale,
    recover_noise,
)
from cause_sieve.stattests import _PermutedLoss, ad_uniform_test, hsic_test, permutation_evaluator

from conftest import table


class TestFitLinear:
    def test_perfect_line(self):
        x = np.linspace(0, 2, 21)
        data = table(0.1 + x, x)
        rec = fit_linear(data, CandidateSet((1,)))
        assert rec.model.beta[0] == pytest.approx(1.0, abs=1e-10)
        assert rec.model.intercept == pytest.approx(0.1, abs=1e-10)
        assert rec.fit_loss < 1e-20
        # with exact-tie residuals the averaged-rank PIT collapses to 1/2;
        # floating-point residuals differ in their last bits, so assert the
        # tie behaviour on the transform directly
        from cause_sieve.model import pit_rescale

        np.testing.assert_allclose(pit_rescale(np.zeros(21)), 0.5)
        assert np.all((rec.eps > 0) & (rec.eps < 1))

    def test_residual_orthogonality(self):
        rng = seeding.substream(0, 900)
        x = rng.standard_normal((300, 3))
        y = x @ np.array([1.0, -2.0, 0.5]) + rng.standard_normal(300)
        data = table(y, *(x[:, j] for j in range(3)))
        rec = fit_linear(data, CandidateSet((1, 2, 3)))
        resid = y - rec.model.predict(x)
        bound = 1e-8 * 300 * np.std(y)
        for j in range(3):
            assert abs(resid @ x[:, j]) <= bound * np.std(x[:, j])

    def test_rank_deficient(self):
        rng = seeding.substream(1, 900)
        x1 = rng.standard_normal(100)
        data = table(rng.standard_normal(100), x1, 2.0 * x1)
        with pytest.raises(RankDeficient):
            fit_linear(data, CandidateSet((1, 2)))

    def test_near_collinear_slopes_keep_finite_p_values(self):
        # x2 = x1 + 1e-8 noise: each slope's t-test is the test of the tiny
        # independent direction, so its p-value is U(0,1) under this target.
        # Inverting X'X squares the condition number past 1/eps; the inverse's
        # diagonal then goes negative and both slopes read p = 0
        rng = seeding.substream(5, 903)
        x1 = rng.standard_normal(500)
        x2 = x1 + 1e-8 * rng.standard_normal(500)
        y = x1 + rng.standard_normal(500)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rec = fit_linear(table(y, x1, x2), CandidateSet((1, 2)))
        p = rec.significance_p
        assert np.all(np.isfinite(p)) and np.all(p > 0.05), p
        se = np.sqrt(float(rec.residuals @ rec.residuals) / (500 - 3) * rec.model.xtx_inv_diag[1:])
        assert np.all(se > 0), se

    def test_null_significance_uniform(self):
        # pure-noise target: the t-test p-value for an irrelevant slope is U(0,1)
        ps = []
        for seed in range(300):
            rng = seeding.substream(seed, 901)
            data = table(rng.standard_normal(100), rng.standard_normal(100))
            ps.append(fit_linear(data, CandidateSet((1,))).significance_p[0])
        assert np.mean(np.asarray(ps) > 0.05) > 0.9
        assert kstest(ps, "uniform").pvalue > 0.01

    def test_partial_linear_fit_leaves_independent_noise(self):
        # target linear in two covariates; fitting on one alone still yields
        # noise independent of that covariate
        passes = 0
        for seed in range(30):
            rng = seeding.substream(seed, 902)
            x = rng.standard_normal((400, 2))
            y = 1.5 * x[:, 0] - 2.0 * x[:, 1] + rng.standard_normal(400)
            data = table(y, x[:, 0], x[:, 1])
            rec = fit_linear(data, CandidateSet((1,)))
            passes += hsic_test(x[:, 0], rec.residuals).p_value > 0.05
        assert passes >= 25


class TestFitAdditive:
    def test_smooth_signal_recovered(self):
        losses = []
        for seed in range(3):
            rng = seeding.substream(seed, 903)
            x = rng.standard_normal(500)
            y = np.sin(3 * x) + 0.1 * rng.standard_normal(500)
            rec = fit_additive(table(y, x), CandidateSet((1,)), seed=seed)
            losses.append(rec.fit_loss)
        assert max(losses) <= 0.05

    def test_exact_linear_reproduced(self):
        x = np.linspace(-2, 2, 200)
        rec = fit_additive(table(3.0 * x, x), CandidateSet((1,)), seed=0)
        assert rec.fit_loss <= 1e-4

    def test_dimension_cap(self):
        rng = seeding.substream(2, 903)
        cols = [rng.standard_normal(60) for _ in range(7)]
        data = table(rng.standard_normal(60), *cols)
        with pytest.raises(BadParam):
            fit_additive(data, CandidateSet(tuple(range(1, 8))))

    def test_deterministic_replay(self):
        rng = seeding.substream(3, 903)
        x = rng.standard_normal((300, 2))
        y = x[:, 0] ** 2 + rng.standard_normal(300)
        data = table(y, x[:, 0], x[:, 1])
        a = fit_additive(data, CandidateSet((1, 2)), seed=11)
        b = fit_additive(data, CandidateSet((1, 2)), seed=11)
        np.testing.assert_array_equal(a.eps, b.eps)
        np.testing.assert_array_equal(a.significance_p, b.significance_p)


class TestFitLocationScale:
    def test_heteroscedastic_noise_standardized(self):
        passes = 0
        for seed in range(20):
            rng = seeding.substream(seed, 904)
            x = rng.standard_normal(1000)
            y = (1.0 + x * x) * rng.standard_normal(1000)
            rec = fit_location_scale(table(y, x), CandidateSet((1,)), seed=seed)
            passes += hsic_test(x, rec.residuals).p_value > 0.05
        assert passes >= 17

    def test_homoscedastic_scale_nearly_constant(self):
        rng = seeding.substream(4, 904)
        x = rng.standard_normal(1000)
        y = rng.standard_normal(1000)
        rec = fit_location_scale(table(y, x), CandidateSet((1,)), seed=0)
        sigma = rec.model.sigma(x[:, None])
        assert np.std(sigma) / np.mean(sigma) <= 0.2

    def test_degenerate_residuals_clamped(self):
        # an exactly representable target drives residuals to zero; the
        # sigma floor keeps the standardization finite
        x = np.linspace(-1, 1, 50)
        rec = fit_location_scale(table(2.0 * x, x), CandidateSet((1,)), seed=0)
        assert np.all(np.isfinite(rec.eps))
        assert np.all((rec.eps > 0) & (rec.eps < 1))


class TestFitCpcm:
    def test_pareto_pointwise_formula(self):
        # constant tail index 1: eps = 1 - y^(-1), so y = 2 maps to 1/2
        rng = seeding.substream(5, 905)
        y = (1.0 - rng.random(2000)) ** -1.0
        x = rng.standard_normal(2000)
        rec = fit_cpcm(table(y, x), CandidateSet((1,)), "pareto", seed=0)
        theta = rec.model.theta(np.zeros((1, 1)))[0]
        assert theta == pytest.approx(1.0, abs=0.1)
        assert 1.0 - 2.0 ** (-theta) == pytest.approx(0.5, abs=0.05)

    def test_uniform_weights_match_global_mle(self):
        rng = seeding.substream(6, 905)
        y = (1.0 - rng.random(300)) ** (-1.0 / 2.0)
        x = rng.standard_normal((300, 1))
        model = _CpcmLocalModel(x, y, "pareto")
        model.bandwidths = np.array([1e6])  # effectively uniform weights
        theta = model.theta(x)
        np.testing.assert_allclose(theta, 1.0 / np.mean(np.log(y)), rtol=1e-6)

    @pytest.mark.parametrize("family", ["pareto", "gamma"])
    def test_theta_sums_factors_in_place(self, family):
        # one (m, n) array, summed column by column, gives exactly the
        # parameters of the stacked (d, m, n) factors
        rng = seeding.substream(7, 905)
        x = rng.standard_normal((200, 3))
        y = (1.0 - rng.random(200)) ** -0.5 if family == "pareto" else rng.gamma(2.0, 1.0 + x[:, 0] ** 2)
        model = _CpcmLocalModel(x[:100], y[:100], family)
        for x_ev in (x[:100], x[100:]):
            expected = model._local_params(np.exp(model.log_factors(x_ev).sum(axis=0)))
            np.testing.assert_array_equal(model.theta(x_ev), expected)

    def test_theta_holds_one_kernel_array(self):
        # the kernel weights are one (m, n) array; further columns join it
        # in row blocks, not as whole (m, n) temporaries
        rng = seeding.substream(8, 905)
        x = rng.standard_normal((1000, 3))
        model = _CpcmLocalModel(x, (1.0 - rng.random(1000)) ** -0.5, "pareto")
        tracemalloc.start()
        try:
            model.theta(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 1000 * 1000 * 8

    def test_pareto_iid_uniform_eps(self):
        passes = 0
        for seed in range(20):
            rng = seeding.substream(seed, 906)
            y = (1.0 - rng.random(1000)) ** (-1.0 / 2.0)
            x = rng.standard_normal(1000)
            rec = fit_cpcm(table(y, x), CandidateSet((1,)), "pareto", seed=seed)
            passes += ad_uniform_test(rec.eps).p_value > 0.05
        assert passes >= 17

    def test_gaussian_family_on_location_scale_data(self):
        hsic_passes = ad_passes = 0
        for seed in range(20):
            rng = seeding.substream(seed, 907)
            x = rng.standard_normal(1000)
            y = (1.0 + x * x) * rng.standard_normal(1000)
            rec = fit_cpcm(table(y, x), CandidateSet((1,)), "gaussian", seed=seed)
            hsic_passes += hsic_test(x, rec.residuals).p_value > 0.05
            ad_passes += ad_uniform_test(rec.eps).p_value > 0.05
        assert hsic_passes >= 16
        assert ad_passes >= 16

    def test_domain_violations(self):
        rng = seeding.substream(7, 905)
        x = rng.standard_normal(100)
        with pytest.raises(DomainViolation):
            fit_cpcm(table(rng.random(100), x), CandidateSet((1,)), "pareto")
        with pytest.raises(DomainViolation):
            fit_cpcm(table(rng.standard_normal(100), x), CandidateSet((1,)), "gamma")

    def test_gaussian_eps_ranks_match_location_scale(self):
        rng = seeding.substream(8, 905)
        x = rng.standard_normal(400)
        y = x + (1.0 + 0.5 * x * x) * rng.standard_normal(400)
        data = table(y, x)
        ls = fit_location_scale(data, CandidateSet((1,)), seed=1)
        cg = fit_cpcm(data, CandidateSet((1,)), "gaussian", seed=1)
        np.testing.assert_array_equal(np.argsort(ls.eps), np.argsort(cg.eps))

    def test_gamma_family_recovers_uniform_eps(self):
        passes = 0
        for seed in range(10):
            rng = seeding.substream(seed, 908)
            x = rng.standard_normal(800)
            shape = 2.0 + np.tanh(x) ** 2
            y = rng.gamma(shape, 1.5)
            rec = fit_cpcm(table(y, x), CandidateSet((1,)), "gamma", seed=seed)
            passes += ad_uniform_test(rec.eps).p_value > 0.05
        assert passes >= 7


def test_recover_noise_dispatch():
    rng = seeding.substream(9, 909)
    x = rng.standard_normal(200)
    y = x + rng.standard_normal(200)
    data = table(y, x)
    for label in ("linear", "additive", "location-scale", "cpcm:gaussian"):
        from cause_sieve.model import FunctionClass

        rec = recover_noise(data, CandidateSet((1,)), FunctionClass.parse(label), seed=0)
        assert rec.function_class.label == label
        assert rec.eps.shape == (200,)


class TestPermutationEvaluator:
    """The identity permutation reproduces each evaluator's held-out baseline."""

    @pytest.mark.parametrize("model_cls", [_MeanSmoother, _LocationScaleModel])
    def test_generic_evaluator_identity_is_exact(self, model_cls):
        rng = seeding.substream(0, 910)
        x = rng.standard_normal((200, 2))
        y = np.sin(x[:, 0]) + (1.0 + 0.5 * x[:, 1] ** 2) * rng.standard_normal(200)
        model = model_cls(x[:100], y[:100])
        ev = permutation_evaluator(model, x[100:], y[100:])
        assert isinstance(ev, _PermutedLoss)
        assert ev.baseline == model.loss(x[100:], y[100:])
        for pos in range(2):
            assert ev.loss_with_permuted(pos, np.arange(100)) == ev.baseline

    @pytest.mark.parametrize("family", ["pareto", "gamma"])
    def test_factorised_cpcm_identity_within_rounding(self, family):
        rng = seeding.substream(1, 910)
        x = rng.standard_normal((200, 2))
        if family == "pareto":
            y = (1.0 - rng.random(200)) ** (-1.0 / (2.0 + np.tanh(x[:, 0])))
        else:
            y = rng.gamma(2.0 + np.tanh(x[:, 0]) ** 2, 1.5)
        model = _CpcmLocalModel(x[:100], y[:100], family)
        ev = permutation_evaluator(model, x[100:], y[100:])
        assert isinstance(ev, _CpcmLocalEvaluator)
        for pos in range(2):
            assert ev.loss_with_permuted(pos, np.arange(100)) == pytest.approx(ev.baseline, rel=1e-12, abs=0.0)
