"""Noise recovery for each function class.

Every fit produces residual-style noise on the (0,1) scale plus one
significance p-value per covariate.  The additive and location-scale
classes estimate conditional means with penalized thin-plate-spline
smoothing (penalty chosen by two-fold cross-validation); those classes
restrict the noise to be additive, not the mean to be additive across
covariates, so the smoother must represent interactions, and it must track
the surface closely enough that the independence test sees only noise.
The parametric class uses kernel-local maximum likelihood or moment
matching with Silverman bandwidths.
"""

from __future__ import annotations

import numpy as np
from scipy.interpolate import RBFInterpolator
from scipy.special import gammaln, ndtr
from scipy.stats import gamma as gamma_dist
from scipy.stats import t as student_t

from . import stattests
from .errors import BadParam, DegenerateTheta, RankDeficient
from .model import CandidateSet, Dataset, FunctionClass, NoiseRecovery, pit_rescale

SMOOTHER_DIM_CAP = 6
PENALTY_GRID = (1e-2, 1e-1, 1e0, 1e1, 1e2)  # spline roughness penalties, chosen by two-fold CV
EPS_CLIP = 1e-12  # keeps parametric eps strictly inside (0,1)
_TINY = np.finfo(float).tiny


# --------------------------------------------------------------------- #
# penalized spline smoothing of a conditional mean
# --------------------------------------------------------------------- #


class _MeanSmoother:
    """Thin-plate-spline estimate of E[y|x] with CV-chosen penalty.

    Covariates are rescaled to unit variance and the response is
    standardized, so one penalty grid serves every dataset.  The two CV
    folds are the even and odd rows: deterministic, and fold membership
    is independent of the data values.  Collinear covariates make the
    spline's polynomial block singular; that surfaces as ``RankDeficient``.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        self._x_scale = np.std(x, axis=0)
        self._x_scale[self._x_scale == 0] = 1.0
        self._y_mean = float(np.mean(y))
        self._y_scale = max(float(np.std(y)), _TINY)
        xn = x / self._x_scale
        yn = (y - self._y_mean) / self._y_scale

        try:
            even = np.arange(y.size) % 2 == 0
            best, best_err = PENALTY_GRID[0], np.inf
            if y.size >= 8:
                for lam in PENALTY_GRID:
                    err = 0.0
                    for tr in (even, ~even):
                        f = RBFInterpolator(xn[tr], yn[tr], kernel="thin_plate_spline", smoothing=lam)
                        err += float(np.mean((yn[~tr] - f(xn[~tr])) ** 2))
                    if err < best_err:
                        best, best_err = lam, err
            self.penalty = float(best)
            self._spline = RBFInterpolator(xn, yn, kernel="thin_plate_spline", smoothing=self.penalty)
        except np.linalg.LinAlgError as exc:
            raise RankDeficient(f"spline system is singular (collinear covariates): {exc}") from exc
        self.fitted = self.predict(x)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self._spline(x / self._x_scale) * self._y_scale + self._y_mean

    def loss(self, x: np.ndarray, y: np.ndarray) -> float:
        """Mean squared prediction error."""
        return float(np.mean((y - self.predict(x)) ** 2))


# E[log eps^2] for standard normal eps: psi(1/2) + log 2.  The smoother of
# log squared residuals estimates log sigma^2 plus this constant; without
# the correction sigma_hat is biased low by the factor exp(-0.635).
_LOG_CHI2_MEAN = -1.2703628454614782


class _LocationScaleModel:
    """Two-stage heteroscedastic fit: mean, then log squared residuals."""

    def __init__(self, x: np.ndarray, y: np.ndarray):
        self.floor = 1e-6 * max(float(np.std(y)), _TINY)
        self.mu_model = _MeanSmoother(x, y)
        resid = y - self.mu_model.fitted
        z = np.log(resid * resid + self.floor**2)
        self.logvar_model = _MeanSmoother(x, z)

    def mu(self, x: np.ndarray) -> np.ndarray:
        return self.mu_model.predict(x)

    def sigma(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(np.exp(0.5 * (self.logvar_model.predict(x) - _LOG_CHI2_MEAN)), self.floor)

    def sigma_fitted(self) -> np.ndarray:
        return np.maximum(np.exp(0.5 * (self.logvar_model.fitted - _LOG_CHI2_MEAN)), self.floor)

    def loss(self, x: np.ndarray, y: np.ndarray) -> float:
        """Gaussian deviance; permuting a column moves the mean and the scale."""
        mu = self.mu(x)
        sigma = self.sigma(x)  # log-chi2 corrected
        z = (y - mu) / sigma
        return float(np.mean(np.log(sigma) + 0.5 * z * z))


# --------------------------------------------------------------------- #
# kernel-local parametric estimates (Pareto and Gamma families)
# --------------------------------------------------------------------- #


def _silverman(x: np.ndarray, dim: int) -> float:
    sd = float(np.std(x))
    if sd == 0.0:
        return 1.0
    return 1.06 * sd * x.size ** (-1.0 / (4.0 + dim))


def _log_kernel_factors(x_tr: np.ndarray, x_ev: np.ndarray, hs: np.ndarray) -> np.ndarray:
    """(d, m, n) array of per-column Gaussian log-kernels."""
    d = x_tr.shape[1]
    out = np.empty((d, x_ev.shape[0], x_tr.shape[0]))
    for j in range(d):
        stattests.gaussian_log_kernel(x_ev[:, j : j + 1], x_tr[:, j : j + 1], hs[j : j + 1], out=out[j])
    return out


class _CpcmLocalEvaluator:
    """Permutation losses from the per-column log-kernel factors: permuting
    one column swaps one factor, so no kernel is rebuilt."""

    def __init__(self, model: "_CpcmLocalModel", x: np.ndarray, y: np.ndarray):
        self._model = model
        self._y = y
        self._factors = model.log_factors(x)
        self._total = self._factors.sum(axis=0)
        self.baseline = model.nll(np.exp(self._total), y)

    def loss_with_permuted(self, pos: int, perm: np.ndarray) -> float:
        logw = self._total - self._factors[pos] + self._factors[pos][perm]
        return self._model.nll(np.exp(logw), self._y)


# Rescales the Silverman bandwidths of the kernel-local parametric fits.
# At n around 500 the plain rule leaves enough smoothing bias in theta for
# the independence and uniformity tests to flag true parent sets; slightly
# narrower windows balance that against estimation noise.
CPCM_BANDWIDTH_SCALE = 0.8


class _CpcmLocalModel:
    """Kernel-weighted local parameter estimates for Pareto and Gamma families."""

    def __init__(self, x: np.ndarray, y: np.ndarray, family: str):
        self.family = family
        self.x_train = x
        self.y_train = y
        d = x.shape[1]
        self.bandwidths = CPCM_BANDWIDTH_SCALE * np.array([_silverman(x[:, j], d) for j in range(d)])
        if family == "pareto":
            self._log_y = np.log(y)

    def log_factors(self, x_ev: np.ndarray) -> np.ndarray:
        return _log_kernel_factors(self.x_train, x_ev, self.bandwidths)

    def _local_params(self, w: np.ndarray):
        """Local parameters from the (m, n) kernel weights of m evaluation points.

        Pareto: tail index solving the weighted likelihood equation; with
        uniform weights it collapses to the global MLE 1/mean(ln y).
        Gamma: (shape, scale) by weighted moment matching.
        """
        sw = w.sum(axis=1)
        if np.any(sw <= _TINY):
            raise DegenerateTheta("kernel weights underflow away from the data")
        if self.family == "pareto":
            with np.errstate(divide="ignore"):
                theta = sw / (w @ self._log_y)
            if not np.all(np.isfinite(theta)) or np.any(theta <= 0):
                raise DegenerateTheta("non-positive or non-finite Pareto index")
            return theta
        mu = (w @ self.y_train) / sw
        second = (w @ (self.y_train * self.y_train)) / sw
        var = second - mu * mu
        if np.any(mu <= 0) or np.any(var <= 0) or not (np.all(np.isfinite(mu)) and np.all(np.isfinite(var))):
            raise DegenerateTheta("degenerate local Gamma moments")
        return mu * mu / var, var / mu

    def theta(self, x_ev: np.ndarray):
        """Local parameters at the evaluation points (see ``_local_params``).

        The per-column log-kernels are summed into one (m, n) array in
        column order, the order ``log_factors(x_ev).sum(axis=0)`` adds them,
        and exponentiated in place.  Each further column is added in row
        blocks, so that array is the only one of its size.
        """
        logw = stattests.gaussian_log_kernel(x_ev, self.x_train, self.bandwidths)
        return self._local_params(np.exp(logw, out=logw))

    def nll(self, w: np.ndarray, y: np.ndarray) -> float:
        """Mean negative log-likelihood of ``y`` under the parameters the weights give."""
        if self.family == "pareto":
            theta = self._local_params(w)
            return float(np.mean(-np.log(theta) + (theta + 1.0) * np.log(y)))
        shape, scale = self._local_params(w)
        nll = -(shape - 1.0) * np.log(y) + y / scale + shape * np.log(scale) + gammaln(shape)
        return float(np.mean(nll))

    def permutation_evaluator(self, x: np.ndarray, y: np.ndarray) -> _CpcmLocalEvaluator:
        return _CpcmLocalEvaluator(self, x, y)


# --------------------------------------------------------------------- #
# linear fit
# --------------------------------------------------------------------- #


class _LinearModel:
    """OLS fit on a design matrix [1, X]."""

    def __init__(self, design: np.ndarray, y: np.ndarray):
        coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
        if rank < design.shape[1]:
            raise RankDeficient(f"design matrix rank {rank} < {design.shape[1]} (collinear covariates)")
        self.intercept = float(coef[0])
        self.beta = coef[1:]

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.intercept + x @ self.beta


# --------------------------------------------------------------------- #
# public fits
# --------------------------------------------------------------------- #


def fit_linear(data: Dataset, s: CandidateSet) -> NoiseRecovery:
    """OLS on [1, X_s]; noise by rank PIT of the residuals; per-coefficient
    two-sided t-tests for significance."""
    x = data.covariates(s)
    y = data.y
    n, d = x.shape
    if d >= n - 1:
        raise BadParam(f"|s|={d} too large for n={n}")
    design = np.column_stack([np.ones(n), x])
    model = _LinearModel(design, y)
    resid = y - model.predict(x)

    dof = n - d - 1
    sigma2 = float(resid @ resid) / dof
    xtx_inv = np.linalg.inv(design.T @ design)
    se = np.sqrt(sigma2 * np.diag(xtx_inv)[1:])
    with np.errstate(divide="ignore", invalid="ignore"):
        t_stats = np.where(se > 0, model.beta / se, np.inf)
    p_values = 2.0 * student_t.sf(np.abs(t_stats), dof)

    return NoiseRecovery(
        eps=pit_rescale(resid),
        residuals=resid,
        significance_p=np.clip(p_values, 0.0, 1.0),
        fit_loss=float(np.mean(resid**2)),
        function_class=FunctionClass("linear"),
        candidate=s,
        model=model,
    )


def _check_dim(s: CandidateSet):
    if len(s) > SMOOTHER_DIM_CAP:
        raise BadParam(f"|s|={len(s)} exceeds the smoother dimension cap of {SMOOTHER_DIM_CAP}")


def fit_additive(data: Dataset, s: CandidateSet, *, seed: int = 0) -> NoiseRecovery:
    """Spline conditional-mean fit, residuals rank-PIT rescaled."""
    _check_dim(s)
    x = data.covariates(s)
    y = data.y
    model = _MeanSmoother(x, y)
    resid = y - model.fitted
    sig = stattests.perm_significance(data, s, _MeanSmoother, seed=seed)
    return NoiseRecovery(
        eps=pit_rescale(resid),
        residuals=resid,
        significance_p=sig,
        fit_loss=float(np.mean(resid**2)),
        function_class=FunctionClass("additive"),
        candidate=s,
        model=model,
    )


def _location_scale_fit(data: Dataset, s: CandidateSet, seed: int):
    """The location-scale fit behind both the location-scale class and the
    Gaussian cpcm family: (model, standardized residuals, mean-fit loss,
    significance p-values)."""
    x = data.covariates(s)
    y = data.y
    model = _LocationScaleModel(x, y)
    resid = y - model.mu_model.fitted
    sig = stattests.perm_significance(data, s, _LocationScaleModel, seed=seed)
    return model, resid / model.sigma_fitted(), float(np.mean(resid**2)), sig


def fit_location_scale(data: Dataset, s: CandidateSet, *, seed: int = 0) -> NoiseRecovery:
    """Spline mean plus spline log-variance; standardized residuals PIT rescaled."""
    _check_dim(s)
    model, std_resid, fit_loss, sig = _location_scale_fit(data, s, seed)
    return NoiseRecovery(
        eps=pit_rescale(std_resid),
        residuals=std_resid,
        significance_p=sig,
        fit_loss=fit_loss,
        function_class=FunctionClass("location-scale"),
        candidate=s,
        model=model,
    )


def fit_cpcm(data: Dataset, s: CandidateSet, family: str, *, seed: int = 0) -> NoiseRecovery:
    """Conditionally parametric fit; eps is the parametric transform F(y; theta(x)).

    The transform is NOT rank rescaled: only the parametric class carries
    distributional content, and the uniformity question has to see it.
    """
    _check_dim(s)
    f_class = FunctionClass("cpcm", family)
    y = data.y
    f_class.check_support(y)

    if family == "gaussian":
        model, z, fit_loss, sig = _location_scale_fit(data, s, seed)
        eps = np.clip(ndtr(z), EPS_CLIP, 1.0 - EPS_CLIP)
        residuals = z  # the independence question sees the standardized scale
    else:
        x = data.covariates(s)
        model = _CpcmLocalModel(x, y, family)
        if family == "pareto":
            theta = model.theta(x)
            eps = 1.0 - y ** (-theta)
            median = 2.0 ** (1.0 / theta)  # the conditional mean may not exist
            fit_loss = float(np.mean((y - median) ** 2))
        else:
            shape, scale = model.theta(x)
            eps = gamma_dist.cdf(y, a=shape, scale=scale)
            fit_loss = float(np.mean((y - shape * scale) ** 2))
        sig = stattests.perm_significance(data, s, lambda xt, yt: _CpcmLocalModel(xt, yt, family), seed=seed)
        eps = residuals = np.clip(eps, EPS_CLIP, 1.0 - EPS_CLIP)
    return NoiseRecovery(
        eps=eps,
        residuals=residuals,
        significance_p=sig,
        fit_loss=fit_loss,
        function_class=f_class,
        candidate=s,
        model=model,
    )


def recover_noise(data: Dataset, s: CandidateSet, f_class: FunctionClass, *, seed: int = 0) -> NoiseRecovery:
    """Dispatch to the class-appropriate fit."""
    if f_class.kind == "linear":
        return fit_linear(data, s)
    if f_class.kind == "additive":
        return fit_additive(data, s, seed=seed)
    if f_class.kind == "location-scale":
        return fit_location_scale(data, s, seed=seed)
    return fit_cpcm(data, s, f_class.family, seed=seed)
