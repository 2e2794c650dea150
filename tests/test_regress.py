import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.interpolate import RBFInterpolator
from scipy.spatial.distance import cdist
from scipy.stats import gamma as gamma_dist
from scipy.stats import kstest
from scipy.stats import t as student_t

from cause_sieve import regress, seeding, stattests
from cause_sieve.errors import BadParam, DomainViolation, RankDeficient, StatError
from cause_sieve.model import CLASS_CODES, CandidateSet, FunctionClass, enumerate_candidates
from cause_sieve.regress import (
    MODELS,
    PENALTY_GRID,
    _GammaLocalModel,
    _KernelLocalModel,
    _LinearModel,
    _LocationScaleModel,
    _ParetoLocalModel,
    recover_noise,
)
from cause_sieve.stattests import ad_uniform_test, gaussian_log_kernel, hsic_test
from cause_sieve.synth import gen_benchmark1, gen_benchmark3

from conftest import table

LINEAR = FunctionClass("linear")
ADDITIVE = FunctionClass("additive")
LOCATION_SCALE = FunctionClass("location-scale")


def cpcm(family: str) -> FunctionClass:
    return FunctionClass("cpcm", family)


class TestFitLinear:
    def test_perfect_line(self):
        x = np.linspace(0, 2, 21)
        data = table(0.1 + x, x)
        rec = recover_noise(data, CandidateSet((1,)), LINEAR)
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
        rec = recover_noise(data, CandidateSet((1, 2, 3)), LINEAR)
        resid = rec.residuals
        bound = 1e-8 * 300 * np.std(y)
        for j in range(3):
            assert abs(resid @ x[:, j]) <= bound * np.std(x[:, j])

    def test_rank_deficient(self):
        rng = seeding.substream(1, 900)
        x1 = rng.standard_normal(100)
        data = table(rng.standard_normal(100), x1, 2.0 * x1)
        with pytest.raises(RankDeficient):
            recover_noise(data, CandidateSet((1, 2)), LINEAR)

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
            rec = recover_noise(table(y, x1, x2), CandidateSet((1, 2)), LINEAR)
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
            ps.append(recover_noise(data, CandidateSet((1,)), LINEAR).significance_p[0])
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
            rec = recover_noise(data, CandidateSet((1,)), LINEAR)
            passes += hsic_test(x[:, 0], rec.residuals).p_value > 0.05
        assert passes >= 25


class TestFitAdditive:
    def test_smooth_signal_recovered(self):
        losses = []
        for seed in range(3):
            rng = seeding.substream(seed, 903)
            x = rng.standard_normal(500)
            y = np.sin(3 * x) + 0.1 * rng.standard_normal(500)
            rec = recover_noise(table(y, x), CandidateSet((1,)), ADDITIVE, seed=seed)
            losses.append(rec.fit_loss)
        assert max(losses) <= 0.05

    def test_exact_linear_reproduced(self):
        x = np.linspace(-2, 2, 200)
        rec = recover_noise(table(3.0 * x, x), CandidateSet((1,)), ADDITIVE, seed=0)
        assert rec.fit_loss <= 1e-4

    def test_dimension_cap(self):
        rng = seeding.substream(2, 903)
        cols = [rng.standard_normal(60) for _ in range(7)]
        data = table(rng.standard_normal(60), *cols)
        with pytest.raises(BadParam):
            recover_noise(data, CandidateSet(tuple(range(1, 8))), ADDITIVE)

    def test_deterministic_replay(self):
        rng = seeding.substream(3, 903)
        x = rng.standard_normal((300, 2))
        y = x[:, 0] ** 2 + rng.standard_normal(300)
        data = table(y, x[:, 0], x[:, 1])
        a = recover_noise(data, CandidateSet((1, 2)), ADDITIVE, seed=11)
        b = recover_noise(data, CandidateSet((1, 2)), ADDITIVE, seed=11)
        np.testing.assert_array_equal(a.eps, b.eps)
        np.testing.assert_array_equal(a.significance_p, b.significance_p)


class TestFitLocationScale:
    def test_heteroscedastic_noise_standardized(self):
        passes = 0
        for seed in range(20):
            rng = seeding.substream(seed, 904)
            x = rng.standard_normal(1000)
            y = (1.0 + x * x) * rng.standard_normal(1000)
            # the noise alone: recover_noise would also pay for significance
            residuals = MODELS[LOCATION_SCALE.key](x[:, None], y).noise(y)[1]
            passes += hsic_test(x, residuals).p_value > 0.05
        assert passes >= 17

    def test_homoscedastic_scale_nearly_constant(self):
        rng = seeding.substream(4, 904)
        x = rng.standard_normal(1000)
        y = rng.standard_normal(1000)
        rec = recover_noise(table(y, x), CandidateSet((1,)), LOCATION_SCALE, seed=0)
        sigma = rec.model.sigma_fitted()
        assert np.std(sigma) / np.mean(sigma) <= 0.2

    def test_fit_holds_few_kernel_arrays(self):
        # each spline holds one (n, n) kernel, its CV folds are blocks of it
        # and its system is solved in place; a (d, n, n) stack of per-column
        # distances would read 6 or more (n, n) arrays here
        rng = seeding.substream(5, 904)
        x = rng.standard_normal((1000, 4))
        y = np.sin(x[:, 0]) + rng.standard_normal(1000)
        tracemalloc.start()
        try:
            _LocationScaleModel(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 1000 * 1000 * 8

    def test_fit_builds_one_kernel(self, monkeypatch):
        # the mean and log-variance splines share the one (n, n) kernel
        calls = []
        squared_differences = stattests.squared_differences

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return squared_differences(*args, **kwargs)

        monkeypatch.setattr(stattests, "squared_differences", counting)
        rng = seeding.substream(6, 904)
        x = rng.standard_normal((200, 3))
        _LocationScaleModel(x, np.sin(x[:, 0]) + rng.standard_normal(200))
        assert len(calls) == 1

    def test_degenerate_residuals_clamped(self):
        # an exactly representable target drives residuals to zero; the
        # sigma floor keeps the standardization finite
        x = np.linspace(-1, 1, 50)
        rec = recover_noise(table(2.0 * x, x), CandidateSet((1,)), LOCATION_SCALE, seed=0)
        assert np.all(np.isfinite(rec.eps))
        assert np.all((rec.eps > 0) & (rec.eps < 1))


class TestFitCpcm:
    def test_pareto_pointwise_formula(self):
        # constant tail index 1: eps = 1 - y^(-1), so y = 2 maps to 1/2
        rng = seeding.substream(5, 905)
        y = (1.0 - rng.random(2000)) ** -1.0
        x = rng.standard_normal(2000)
        rec = recover_noise(table(y, x), CandidateSet((1,)), cpcm("pareto"), seed=0)
        theta = rec.model.theta(np.zeros((1, 1)))[0]
        assert theta == pytest.approx(1.0, abs=0.1)
        assert 1.0 - 2.0 ** (-theta) == pytest.approx(0.5, abs=0.05)

    def test_uniform_weights_match_global_mle(self):
        rng = seeding.substream(6, 905)
        y = (1.0 - rng.random(300)) ** (-1.0 / 2.0)
        x = rng.standard_normal((300, 1))
        model = _ParetoLocalModel(x, y)
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
        model = MODELS[("cpcm", family)](x[:100], y[:100])
        for x_ev in (x[:100], x[100:]):
            factors = stattests.column_pieces(x_ev, model.x_train, stattests.gaussian_denoms(model.bandwidths))
            expected = model._local_params(np.exp(factors.sum(axis=0)))
            np.testing.assert_array_equal(model.theta(x_ev), expected)

    def test_theta_holds_one_kernel_array(self):
        # the kernel weights are one (m, n) array; further columns join it
        # in row blocks, not as whole (m, n) temporaries
        rng = seeding.substream(8, 905)
        x = rng.standard_normal((1000, 3))
        model = _ParetoLocalModel(x, (1.0 - rng.random(1000)) ** -0.5)
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
            rec = recover_noise(table(y, x), CandidateSet((1,)), cpcm("pareto"), seed=seed)
            passes += ad_uniform_test(rec.eps).p_value > 0.05
        assert passes >= 17

    def test_gaussian_family_on_location_scale_data(self):
        hsic_passes = ad_passes = 0
        for seed in range(20):
            rng = seeding.substream(seed, 907)
            x = rng.standard_normal(1000)
            y = (1.0 + x * x) * rng.standard_normal(1000)
            eps, residuals, _ = MODELS[cpcm("gaussian").key](x[:, None], y).noise(y)
            hsic_passes += hsic_test(x, residuals).p_value > 0.05
            ad_passes += ad_uniform_test(eps).p_value > 0.05
        assert hsic_passes >= 16
        assert ad_passes >= 16

    def test_domain_violations(self):
        rng = seeding.substream(7, 905)
        x = rng.standard_normal(100)
        with pytest.raises(DomainViolation):
            recover_noise(table(rng.random(100), x), CandidateSet((1,)), cpcm("pareto"))
        with pytest.raises(DomainViolation):
            recover_noise(table(rng.standard_normal(100), x), CandidateSet((1,)), cpcm("gamma"))

    def test_gaussian_eps_ranks_match_location_scale(self):
        rng = seeding.substream(8, 905)
        x = rng.standard_normal(400)
        y = x + (1.0 + 0.5 * x * x) * rng.standard_normal(400)
        data = table(y, x)
        ls = recover_noise(data, CandidateSet((1,)), LOCATION_SCALE, seed=1)
        cg = recover_noise(data, CandidateSet((1,)), cpcm("gaussian"), seed=1)
        np.testing.assert_array_equal(np.argsort(ls.eps), np.argsort(cg.eps))

    def test_gamma_family_recovers_uniform_eps(self):
        passes = 0
        for seed in range(10):
            rng = seeding.substream(seed, 908)
            x = rng.standard_normal(800)
            shape = 2.0 + np.tanh(x) ** 2
            y = rng.gamma(shape, 1.5)
            rec = recover_noise(table(y, x), CandidateSet((1,)), cpcm("gamma"), seed=seed)
            passes += ad_uniform_test(rec.eps).p_value > 0.05
        assert passes >= 7


class TestScipyEquivalence:
    """The package's stand-ins for scipy.stats and scipy.spatial agree with
    them bit for bit."""

    @pytest.mark.parametrize("d", range(1, 7))
    def test_squared_distances_are_cdist(self, d):
        rng = seeding.substream(d, 910)
        for n in (7, 64, 301):
            a = rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0, d)
            b = rng.standard_normal((n + 5, d))
            for u, v in ((a, a), (a, b)):
                expected = cdist(u, v, "sqeuclidean")
                np.testing.assert_array_equal(stattests.squared_differences(u, v), expected)
                pieces = stattests.column_pieces(u, v)
                np.testing.assert_array_equal(pieces, np.square(u.T[:, :, None] - v.T[:, None, :]))

    def test_gamma_transform_is_gamma_cdf(self):
        rng = seeding.substream(0, 910)
        x = rng.standard_normal((300, 2))
        y = rng.gamma(2.0 + np.tanh(x[:, 0]) ** 2, 1.5)
        model = _GammaLocalModel(x, y)
        shape, scale = model.theta(x)
        eps = model._transform(y, (shape, scale))[0]
        np.testing.assert_array_equal(eps, gamma_dist.cdf(y, a=shape, scale=scale))
        shape, scale = rng.uniform(0.2, 30.0, 300), rng.uniform(0.01, 20.0, 300)
        eps = _GammaLocalModel._transform(y, (shape, scale))[0]
        np.testing.assert_array_equal(eps, gamma_dist.cdf(y, a=shape, scale=scale))

    def test_gamma_marginal_noise_is_gamma_cdf(self):
        y = seeding.substream(1, 910).gamma(3.0, 0.7, 500)
        mu, var = np.mean(y), np.var(y, ddof=1)
        expected = gamma_dist.cdf(y, a=mu * mu / var, scale=var / mu)
        np.testing.assert_array_equal(_GammaLocalModel.marginal_noise(y), expected)

    @pytest.mark.parametrize("n", [20, 40, 500])
    def test_linear_p_is_two_t_tails(self, n):
        rng = seeding.substream(n, 911)
        x = rng.standard_normal((n, 3))
        y = x @ np.array([0.0, 0.3, 2.0]) + rng.standard_normal(n)
        data = table(y, *(x[:, j] for j in range(3)))
        model = _LinearModel(x, y)
        model.xtx_inv_diag[2] = 0.0  # slope 2 reads se = 0
        resid = y - model.fitted
        dof = n - 4
        se = np.sqrt(float(resid @ resid) / dof * model.xtx_inv_diag[1:])
        with np.errstate(divide="ignore"):
            t_stats = np.where(se > 0, model.beta / se, np.inf)
        expected = 2.0 * student_t.sf(np.abs(t_stats), dof)
        p = model.significance_p(data, CandidateSet((1, 2, 3)), seed=0)
        np.testing.assert_array_equal(p, np.clip(expected, 0.0, 1.0))
        assert p[1] == 0.0 and np.all(p[[0, 2]] > 0.0)


# sha256 over every candidate's eps, residuals, significance_p and fit_loss
# (float64 bytes, in that order), or its error class name when the fit
# fails.  The result JSON carries none of these floats, so this pins the
# fit layer itself; a digest may move only with a deliberate numeric change
FIT_PINNED = {
    "linear": "c7639541290a1d4fc2dce0cf5f368d9c911384209835260ee15a856ca6afdb48",
    "additive": "e325efc619e8fdffecf964eb6a73135951f13ad9af632defca50faf1d340c1fa",
    "location-scale": "e17ffc9a13a3cddad394aa8f370bda194d3f0f144ad4f2a5cd507d3a2009df8e",
    "cpcm:gaussian": "0db027d937caaf27bda6456864afbd12326dc9ebe746cf2aeb3596c34fdd1055",
    "cpcm:gamma": "fa32c62a9c2c7931842222a0486e55a137dc7e33ac53238102b7d2413ce508e1",
    "cpcm:pareto": "e63af3a8d563dfe4ef29e36b6a0c7746df42fbb716285f1a1c89e00cb5decfdb",
}


def test_recover_noise_bytes_pinned():
    tables = {1: gen_benchmark1(3, 120).data, 3: gen_benchmark3(3, 120).data}
    for label, digest in FIT_PINNED.items():
        f_class = FunctionClass.parse(label)
        data = tables[3 if f_class.family in ("gamma", "pareto") else 1]
        h = hashlib.sha256()
        for s in enumerate_candidates(data.p):
            try:
                rec = recover_noise(data, s, f_class, seed=7)
            except StatError as exc:
                h.update(type(exc).__name__.encode())
                continue
            for a in (rec.eps, rec.residuals, rec.significance_p, rec.fit_loss):
                h.update(np.asarray(a, dtype=np.float64).tobytes())
        assert h.hexdigest() == digest, label


def test_recover_noise_dispatch():
    rng = seeding.substream(9, 909)
    x = rng.standard_normal(200)
    y = x + rng.standard_normal(200)
    data = table(y, x)
    for label in ("linear", "additive", "location-scale", "cpcm:gaussian"):
        rec = recover_noise(data, CandidateSet((1,)), FunctionClass.parse(label), seed=0)
        assert rec.function_class.label == label
        assert rec.eps.shape == (200,)


def test_one_model_per_function_class():
    assert MODELS.keys() == CLASS_CODES.keys()


# every non-linear model is a held-out refit of the significance test, and
# its permutation pieces factorise by column: the splines' thin-plate
# distances, the kernel-local ones' log-kernels
_KERNEL_LOCAL = {key: cls for key, cls in MODELS.items() if issubclass(cls, _KernelLocalModel)}
_SPLINES = [cls for key, cls in MODELS.items() if key != ("linear", None) and key not in _KERNEL_LOCAL]


class _ReferenceSpline:
    """scipy's penalized thin-plate spline of y on x, through its public API:
    x rescaled to unit variance and y standardized, with the grid penalty
    that two-fold CV over the even and odd rows picks."""

    def __init__(self, x, y):
        self.x_scale, self.y_mean, self.y_scale = np.std(x, axis=0), np.mean(y), np.std(y)
        xn, yn = x / self.x_scale, (y - self.y_mean) / self.y_scale
        folds = ((slice(0, None, 2), slice(1, None, 2)), (slice(1, None, 2), slice(0, None, 2)))

        def cv_error(lam):
            return sum(float(np.mean((yn[te] - _tps(xn[tr], yn[tr], lam)(xn[te])) ** 2)) for tr, te in folds)

        self.penalty = min(PENALTY_GRID, key=cv_error)
        self._spline = _tps(xn, yn, self.penalty)

    def __call__(self, x):
        return self._spline(x / self.x_scale) * self.y_scale + self.y_mean


def _tps(xn, yn, penalty):
    return RBFInterpolator(xn, yn, kernel="thin_plate_spline", smoothing=penalty)


def _references(model, x, y):
    """One reference spline per smoother of the model, built from (x, y) alone."""
    mu = _ReferenceSpline(x, y)
    if not isinstance(model, _LocationScaleModel):
        return (mu,)
    resid = y - mu(x)
    return mu, _ReferenceSpline(x, np.log(resid * resid + model.floor**2))


def _spline_loss(model, refs, x, y):
    """The model's held-out loss with the reference splines' values."""
    return model.prediction_loss(np.column_stack([ref(x) for ref in refs]), y)


def _permuted_loss(model, x, y, pos, perm):
    """The held-out loss with column ``pos`` of ``x`` reordered by ``perm``,
    summed from the model's permutation pieces as perm_significance sums
    them, scored as a batch of one."""
    pieces, transform, score = model.permutation_pieces(x, y)
    rest = sum(pieces[j] for j in range(len(pieces)) if j != pos)
    return score(transform((pieces[pos][perm] + rest)[None]), pos, perm[None])[0]


def _baseline(model, x, y):
    """The held-out loss: the identity permutation of column 0."""
    return _permuted_loss(model, x, y, 0, np.arange(x.shape[0]))


def _permuted(x, pos, perm):
    out = x.copy()
    out[:, pos] = x[perm, pos]
    return out


class TestPermutationEvaluator:
    """The losses factorised from each model's permutation pieces reproduce
    its held-out losses within rounding."""

    @pytest.mark.parametrize("d", [1, 2, 4])
    @pytest.mark.parametrize("model_cls", _SPLINES, ids=lambda cls: cls.__name__)
    def test_thin_plate_matches_scipy(self, model_cls, d):
        # the spline, its CV penalty, its fitted values and the factorised
        # losses agree with scipy's public RBFInterpolator
        rng = seeding.substream(d, 910)
        x = rng.standard_normal((200, d))
        y = np.sin(x[:, 0]) + (1.0 + 0.5 * x[:, -1] ** 2) * rng.standard_normal(200)
        model = model_cls(x[:100], y[:100])
        refs = _references(model, x[:100], y[:100])
        for spline, ref in zip(model.splines, refs):
            assert spline.penalty == ref.penalty
            np.testing.assert_allclose(spline.fitted, ref(x[:100]), rtol=1e-10, atol=0.0)
        xt, yt = x[100:], y[100:]
        baseline = _baseline(model, xt, yt)
        assert baseline == pytest.approx(_spline_loss(model, refs, xt, yt), rel=1e-10, abs=0.0)
        for _ in range(3):
            for pos in range(d):
                perm = rng.permutation(100)
                want = _spline_loss(model, refs, _permuted(xt, pos, perm), yt)
                assert _permuted_loss(model, xt, yt, pos, perm) == pytest.approx(want, rel=1e-10, abs=0.0)
        for pos in range(d):
            assert _permuted_loss(model, xt, yt, pos, np.arange(100)) == pytest.approx(baseline, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("model_cls", _SPLINES, ids=lambda cls: cls.__name__)
    def test_thin_plate_at_training_rows(self, model_cls):
        # held-out rows 0-29 duplicate training rows (r^2 = 0 at their centre);
        # rows 30-59 equal training rows in column 1 alone, so permuting
        # column 0 leaves them the rest r^2 = 0 as well.  A log(0) would
        # raise, since pytest turns a RuntimeWarning into a failure.
        rng = seeding.substream(2, 910)
        x = rng.standard_normal((200, 2))
        y = np.sin(x[:, 0]) + (1.0 + 0.5 * x[:, 1] ** 2) * rng.standard_normal(200)
        model = model_cls(x[:100], y[:100])
        refs = _references(model, x[:100], y[:100])
        xt, yt = x[100:].copy(), y[100:]
        xt[:30] = x[:30]
        xt[30:60, 1] = x[30:60, 1]
        half_fixed = np.concatenate([np.arange(50), 50 + rng.permutation(50)])
        baseline = _baseline(model, xt, yt)
        assert np.isfinite(baseline)
        assert baseline == pytest.approx(_spline_loss(model, refs, xt, yt), rel=1e-10, abs=0.0)
        for perm in (np.arange(100), half_fixed, rng.permutation(100)):
            got = _permuted_loss(model, xt, yt, 0, perm)
            assert np.isfinite(got)
            assert got == pytest.approx(_spline_loss(model, refs, _permuted(xt, 0, perm), yt), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("family", [family for _, family in _KERNEL_LOCAL])
    def test_factorised_cpcm_identity_within_rounding(self, family):
        rng = seeding.substream(1, 910)
        x = rng.standard_normal((200, 2))
        if family == "pareto":
            y = (1.0 - rng.random(200)) ** (-1.0 / (2.0 + np.tanh(x[:, 0])))
        else:
            y = rng.gamma(2.0 + np.tanh(x[:, 0]) ** 2, 1.5)
        model = _KERNEL_LOCAL[("cpcm", family)](x[:100], y[:100])
        xt, yt = x[100:], y[100:]
        baseline = _baseline(model, xt, yt)
        for pos in range(2):
            assert _permuted_loss(model, xt, yt, pos, np.arange(100)) == pytest.approx(baseline, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("family", [family for _, family in _KERNEL_LOCAL])
    def test_factorised_cpcm_matches_rebuilt_kernel(self, family, d):
        # each factorised permuted loss equals the likelihood under a
        # kernel built afresh from the permuted held-out rows
        rng = seeding.substream(d, 911)
        x = rng.standard_normal((200, d))
        if family == "pareto":
            y = (1.0 - rng.random(200)) ** (-1.0 / (2.0 + np.tanh(x[:, 0])))
        else:
            y = rng.gamma(2.0 + np.tanh(x[:, 0]) ** 2, 1.5)
        model = _KERNEL_LOCAL[("cpcm", family)](x[:100], y[:100])
        xt, yt = x[100:], y[100:]
        for pos in range(d):
            for _ in range(3):
                perm = rng.permutation(100)
                logw = gaussian_log_kernel(_permuted(xt, pos, perm), model.x_train, model.bandwidths)
                want = model.nll(np.exp(logw), yt)
                assert _permuted_loss(model, xt, yt, pos, perm) == pytest.approx(want, rel=1e-12, abs=0.0)


class _RecordingRefit:
    """A refit for ``perm_significance`` that fits ``model_cls`` and records
    the held-out rows, a copy of the pieces (a one-member call transforms
    them in place), the shape of every stack transformed and every batch
    scored."""

    def __init__(self, model_cls):
        self.model_cls, self.transformed, self.batches = model_cls, [], []

    def __call__(self, x, y):
        self.model = self.model_cls(x, y)
        return self

    def permutation_pieces(self, x, y):
        self.x, self.y = x, y
        pieces, transform, score = self.model.permutation_pieces(x, y)
        self.pieces = pieces.copy()

        def recording_transform(stack):
            self.transformed.append(stack.shape)
            return transform(stack)

        def recording_score(stack, pos, perms):
            losses = score(stack, pos, perms)
            self.batches.append((pos, perms.copy(), np.array(losses)))
            return losses

        return pieces, recording_transform, recording_score


def _one_at_a_time(model, pieces, x, y, pos, perm):
    """The held-out loss of one permutation as it was computed before the
    losses were batched: one sum, ``_thin_plate`` with its 1/2 and floor,
    and one product per block of the spline coefficients."""
    r2 = pieces[pos][perm] + sum(pieces[j] for j in range(len(pieces)) if j != pos)
    if isinstance(model, _KernelLocalModel):
        return model.nll(np.exp(r2), y)
    kernel = regress._thin_plate(r2)
    xn = x / model.x_scale
    coeffs = np.column_stack([s.coeffs for s in model.splines])
    n_centres = model.centres.shape[0]
    values = kernel @ coeffs[:n_centres] + (coeffs[n_centres] + _permuted(xn, pos, perm) @ coeffs[n_centres + 1 :])
    return model.prediction_loss(values, y)


class TestBatchedPermutedLosses:
    """perm_significance scores its permutations in batches; every batched
    loss is the float the one-at-a-time loss gives."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("model_cls", _SPLINES + list(_KERNEL_LOCAL.values()), ids=lambda cls: cls.__name__)
    def test_batches_equal_one_at_a_time(self, model_cls, d):
        # 97 held-out rows: one product over a whole stack would round some
        # rows differently from the product of their slice alone
        n = 194
        for tied in (False, True):
            n_perm = (50, 99, 100)[(d + tied) % 3]
            rng = seeding.substream(d + 10 * tied, 912)
            x = rng.standard_normal((n, d))
            if tied:  # every row twice, so held-out rows sit on training rows
                x[n // 2 :] = x[: n // 2]
            if model_cls is _ParetoLocalModel:
                y = (1.0 - rng.random(n)) ** (-1.0 / (2.0 + np.tanh(x[:, 0])))
            elif model_cls is _GammaLocalModel:
                y = rng.gamma(2.0 + np.tanh(x[:, 0]) ** 2, 1.5)
            else:
                y = np.sin(x[:, 0]) + (1.0 + 0.5 * x[:, -1] ** 2) * rng.standard_normal(n)
            refit = _RecordingRefit(model_cls)
            s = CandidateSet(tuple(range(1, d + 1)))
            p = stattests.perm_significance(table(y, *x.T), s, refit, n_perm=n_perm, seed=d)
            if model_cls in _SPLINES:  # tied rows take the floor of r^2, the others skip it
                assert all(np.min(piece) < np.finfo(float).tiny for piece in refit.pieces) == tied
            sizes = [perms.shape[0] for _, perms, _ in refit.batches]
            assert sum(sizes) == 1 + d * n_perm and max(sizes) > 1
            assert n_perm % max(sizes) in sizes  # a short last batch
            if d == 1:  # the piece is transformed once, each batch only gathered
                assert refit.transformed == [refit.pieces.shape]
            else:
                assert [shape[0] for shape in refit.transformed] == sizes
            got = np.concatenate([losses for _, _, losses in refit.batches])
            want = [
                _one_at_a_time(refit.model, refit.pieces, refit.x, refit.y, pos, perm)
                for pos, perms, _ in refit.batches
                for perm in perms
            ]
            assert np.array_equal(got, want)
            counts = (np.reshape(want[1:], (d, n_perm)) <= want[0]).sum(axis=1)
            np.testing.assert_array_equal(p, (1 + counts) / (n_perm + 1))
