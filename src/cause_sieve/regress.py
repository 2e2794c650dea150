"""Noise recovery for each function class.

:func:`recover_noise` is the one entry point.  ``MODELS`` maps each
``FunctionClass.key`` to one model class, the one home of that class's
facts.  Its constructor fits ``(x, y)``; ``noise(y)`` returns the noise on
the (0,1) scale with its residuals and fit loss; ``significance_p(data, s,
seed)`` gives one p-value per member of ``s``: held-out permutation
significance, or the linear slopes' t-tests.  ``stattests.perm_significance``
refits the class and reads its ``permutation_pieces(x, y)``: the per-column
pieces, an elementwise ``transform`` of their sums and the ``score`` of a
transformed stack, whose composition is the held-out loss; that function's
docstring states the protocol, and why a one-member candidate's pieces are
transformed once and then only gathered.  The scores take a batch: a
(B, m, P) stack and B permutations give B losses, each the float its slice
gives alone, since elementwise work and reductions over the last axis do
not mix slices and every matrix product is one ``np.dot`` per slice
(``_slice_dot``).  The scores use ``np.dot``, not ``@``, because the matrix-
vector ``@`` holds the interpreter lock; the fits keep ``@``.  ``smoother``
says whether ``SMOOTHER_DIM_CAP`` bounds ``|s|`` (all but linear);
``check_support(y)`` raises ``DomainViolation`` outside the family's
support (Pareto y >= 1, Gamma y > 0); ``parametric`` marks the cpcm
families, the only ones whose noise distribution is testable and so asked
the uniformity question, and each has ``marginal_noise(y)``: the transform
under constant parameters fitted to the marginal of y.

The additive and location-scale classes estimate conditional means with
penalized thin-plate-spline smoothing (penalty chosen by two-fold
cross-validation); those classes restrict the noise to be additive, not the
mean to be additive across covariates, so the smoother must represent
interactions, and it must track the surface closely enough that the
independence test sees only noise.  A model builds one (n, n) kernel,
``_thin_plate`` of ``stattests.squared_differences``, and fits each of its
splines on it (two for the location-scale class); the CV and the
permutation losses use that kernel's coefficient layout, and the
permutation pieces are the same squared differences, unsummed
(``stattests.column_pieces``).  Each spline solves the saddle system
[[K + lambda I, P], [P', 0]] (Wahba 1990).  The parametric class uses the
location-scale fit for the Gaussian family and kernel-local maximum
likelihood or moment matching with Silverman bandwidths for the Pareto and
Gamma families, whose kernel weights are ``stattests.gaussian_log_kernel``
exponentiated.

The Gamma CDF is ``scipy.special.gammainc(shape, y / scale)`` and the
linear slopes' t tail is ``scipy.special.stdtr(dof, -|t|)``: the functions
that ``scipy.stats.gamma.cdf`` and ``scipy.stats.t.sf`` evaluate, called
without importing ``scipy.stats``, which would double the package's
import time.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgesv
from scipy.special import gammainc, gammaln, ndtr, stdtr

from . import stattests
from .errors import BadParam, DegenerateTheta, DomainViolation, RankDeficient
from .model import CandidateSet, Dataset, FunctionClass, NoiseRecovery, pit_rescale

SMOOTHER_DIM_CAP = 6
PENALTY_GRID = (1e-2, 1e-1, 1e0, 1e1, 1e2)  # spline roughness penalties, chosen by two-fold CV
EPS_CLIP = 1e-12  # keeps parametric eps strictly inside (0,1)
_TINY = np.finfo(float).tiny


class _Model:
    """The defaults of the class facts (see the module docstring)."""

    smoother = True
    parametric = False

    @staticmethod
    def check_support(y: np.ndarray) -> None:
        """Every real target lies in the support."""

    def noise(self, y: np.ndarray):
        """Residuals from the fitted values, rank-PIT rescaled."""
        resid = y - self.fitted
        return pit_rescale(resid), resid, float(np.mean(resid**2))

    def significance_p(self, data: Dataset, s: CandidateSet, seed: int) -> np.ndarray:
        return stattests.perm_significance(data, s, type(self), seed=seed)


# --------------------------------------------------------------------- #
# penalized spline smoothing of a conditional mean
# --------------------------------------------------------------------- #


def _r2_log_r2(r2: np.ndarray, log: np.ndarray | None = None, floor: bool = True) -> np.ndarray:
    """r^2 log r^2 of the squared distances r2, written over r2, with the log
    in ``log`` when given; 0 at r = 0, since r2 is raised to the smallest
    normal float for the log.  ``floor=False`` skips that pass, which changes
    no value when r2 has none below it."""
    log = np.log(np.maximum(r2, _TINY, out=log) if floor else r2, out=log)
    r2 *= log
    return r2


def _thin_plate(r2: np.ndarray) -> np.ndarray:
    """The thin-plate kernel 1/2 r^2 log r^2 of the squared distances r2,
    written over r2 (see ``_r2_log_r2``)."""
    r2 = _r2_log_r2(r2)
    r2 *= 0.5
    return r2


def _slice_dot(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``a @ v`` for a 2-D ``a``; for a (B, m, n) stack, the B products of its
    slices by ``np.dot``, one BLAS call each, so a slice's values are the
    bits ``a[b] @ v`` gives (OpenBLAS rounds a row by its place in the
    block)."""
    if a.ndim == 2:
        return a @ v
    out = np.empty(a.shape[:-1] + v.shape[1:])
    for b in range(a.shape[0]):
        np.dot(a[b], v, out=out[b])
    return out


def _spline_values(kernel: np.ndarray, xn: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Spline values at rows ``xn`` with (m, P) ``kernel`` to the P centres,
    or at a (B, m, d) stack of rows with a (B, m, P) stack of kernels."""
    n_centres = kernel.shape[-1]
    return _slice_dot(kernel, coeffs[:n_centres]) + (coeffs[n_centres] + _slice_dot(xn, coeffs[n_centres + 1 :]))


def _solve_spline(kernel: np.ndarray, xn: np.ndarray, yn: np.ndarray, penalty: float) -> np.ndarray:
    """[a; b] solving [[K + penalty I, P], [P', 0]] [a; b] = [yn; 0], P = [1, xn], in place
    by LU; ``RankDeficient`` for fewer rows than columns of P or collinear covariates."""
    n, d = xn.shape
    if n < d + 1:
        raise RankDeficient(f"{n} rows cannot fit the spline's {d + 1} polynomial terms")
    lhs = np.zeros((n + d + 1, n + d + 1), order="F")
    lhs[:n, :n] = kernel
    lhs[np.diag_indices(n)] += penalty
    lhs[:n, n], lhs[:n, n + 1 :] = 1.0, xn
    lhs[n:, :n] = lhs[:n, n:].T
    coeffs, info = dgesv(lhs, np.concatenate([yn, np.zeros(d + 1)]), overwrite_a=True, overwrite_b=True)[2:]
    if info > 0:
        raise RankDeficient("spline system is singular (collinear covariates)")
    return coeffs


class _Spline:
    """Penalized thin-plate spline of y on the rescaled covariates ``xn``,
    given their (n, n) ``kernel``, with the CV-chosen penalty.

    The response is standardized, so one penalty grid serves every dataset.
    ``coeffs`` holds the weights a of the rows as centres, then those of
    [1, xn], on the scale of y.  The CV folds, the even and odd rows, take
    their kernels as blocks of the given one.  The fitted values are
    y - penalty * a, the first block row of the system.
    """

    def __init__(self, kernel: np.ndarray, xn: np.ndarray, y: np.ndarray):
        y_mean, y_scale = float(np.mean(y)), max(float(np.std(y)), _TINY)
        yn = (y - y_mean) / y_scale
        best, best_err = PENALTY_GRID[0], np.inf
        if y.size >= 8:
            for lam in PENALTY_GRID:
                err = 0.0
                for tr, te in ((0, 1), (1, 0)):  # even rows, then odd rows train
                    coeffs = _solve_spline(kernel[tr::2, tr::2], xn[tr::2], yn[tr::2], lam)
                    err += float(np.mean((yn[te::2] - _spline_values(kernel[te::2, tr::2], xn[te::2], coeffs)) ** 2))
                if err < best_err:
                    best, best_err = lam, err
        self.penalty = float(best)
        self.coeffs = _solve_spline(kernel, xn, yn, self.penalty) * y_scale
        self.coeffs[y.size] += y_mean
        self.fitted = y - self.penalty * self.coeffs[: y.size]


class _MeanSmoother(_Model):
    """Thin-plate-spline estimate of E[y|x].

    Covariates are rescaled to unit variance; the rescaled rows are the
    ``centres`` of the one kernel that ``_fit(kernel, y)`` fits ``splines``
    on, one spline per column of the values that ``prediction_loss(values,
    y)`` scores.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        self.x_scale = np.std(x, axis=0)
        self.x_scale[self.x_scale == 0] = 1.0
        self.centres = x / self.x_scale
        self._fit(_thin_plate(stattests.squared_differences(self.centres, self.centres)), y)

    def _fit(self, kernel: np.ndarray, y: np.ndarray) -> None:
        self.splines = (_Spline(kernel, self.centres, y),)
        self.fitted = self.splines[0].fitted

    @staticmethod
    def prediction_loss(values: np.ndarray, y: np.ndarray):
        """Mean squared error of the predictions ``values[..., 0]``, one per
        (m, k) slice of ``values``."""
        return np.mean((y - values[..., 0]) ** 2, axis=-1)

    def permutation_pieces(self, x: np.ndarray, y: np.ndarray):
        """The (d, m, P) per-column squared differences to the P centres,
        which sum to the squared distances r^2, their transform and the
        score of a transformed stack.

        The transform overwrites r^2 with ``_r2_log_r2``, the ``_thin_plate``
        kernel without its 1/2, which serves every spline; the 1/2 goes into
        the centres' coefficients instead, and halving is exact.  The log is
        written into a scratch stack of this model's own, allocated once.
        The floor of r^2 is taken only when every column's piece has a value
        below it: a sum of non-negative pieces falls there only where each of
        them does.  Leaving out the halving pass and, on untied rows, the
        floor pass makes ``analyze`` of an n = 500 additive table about 8%
        faster (2 vCPUs).  In the polynomial block [1, xn] of the score,
        slice b reorders column ``pos`` by ``perms[b]``."""
        xn = x / self.x_scale
        n_centres = self.centres.shape[0]
        coeffs = np.column_stack([s.coeffs for s in self.splines])
        coeffs[:n_centres] *= 0.5
        pieces = stattests.column_pieces(xn, self.centres)
        floor = all(np.min(piece) < _TINY for piece in pieces)
        scratch = np.empty((0,) + pieces.shape[1:])

        def transform(r2: np.ndarray) -> np.ndarray:
            nonlocal scratch
            if scratch.shape[0] < r2.shape[0]:
                scratch = np.empty_like(r2)
            return _r2_log_r2(r2, scratch[: r2.shape[0]], floor)

        def score(kernel: np.ndarray, pos: int, perms: np.ndarray) -> np.ndarray:
            xp = np.repeat(xn[None], len(perms), axis=0)
            xp[:, :, pos] = xn[perms, pos]
            return self.prediction_loss(_spline_values(kernel, xp, coeffs), y)

        return pieces, transform, score


# E[log eps^2] for standard normal eps: psi(1/2) + log 2.  The smoother of
# log squared residuals estimates log sigma^2 plus this constant; without
# the correction sigma_hat is biased low by the factor exp(-0.635).
_LOG_CHI2_MEAN = -1.2703628454614782


class _LocationScaleModel(_MeanSmoother):
    """Two-stage heteroscedastic fit: the mean spline, then the spline of
    the log squared residuals, both on the one kernel."""

    def _fit(self, kernel: np.ndarray, y: np.ndarray) -> None:
        self.floor = 1e-6 * max(float(np.std(y)), _TINY)
        mu = _Spline(kernel, self.centres, y)
        resid = y - mu.fitted
        # at tiny scales squares and floor underflow to 0 and give -inf;
        # squares past the float range warn of the overflow and give +inf
        with np.errstate(divide="ignore"):
            logvar = np.log(resid * resid + self.floor**2)
        if not np.all(np.isfinite(logvar)):
            raise DegenerateTheta("log squared residuals are not finite: the residual scale is outside the float range")
        self.splines = (mu, _Spline(kernel, self.centres, logvar))

    def _sigma_from_logvar(self, logvar: np.ndarray) -> np.ndarray:
        # a scale past the float range is infinite, and so is its loss
        with np.errstate(over="ignore"):
            return np.maximum(np.exp(0.5 * (logvar - _LOG_CHI2_MEAN)), self.floor)

    def sigma_fitted(self) -> np.ndarray:
        return self._sigma_from_logvar(self.splines[1].fitted)

    def _standardized(self, y: np.ndarray):
        """Residuals over the fitted scale, and the mean fit's squared error."""
        resid = y - self.splines[0].fitted
        return resid / self.sigma_fitted(), float(np.mean(resid**2))

    def noise(self, y: np.ndarray):
        """Standardized residuals, rank-PIT rescaled."""
        z, fit_loss = self._standardized(y)
        return pit_rescale(z), z, fit_loss

    def prediction_loss(self, values: np.ndarray, y: np.ndarray):
        """Gaussian deviance of the predicted mean ``values[..., 0]`` and log
        variance ``values[..., 1]``, one per (m, 2) slice; permuting a column
        moves both."""
        sigma = self._sigma_from_logvar(values[..., 1])  # log-chi2 corrected
        z = (y - values[..., 0]) / sigma
        return np.mean(np.log(sigma) + 0.5 * z * z, axis=-1)


class _GaussianCpcmModel(_LocationScaleModel):
    """The Gaussian family: the location-scale fit, with eps = Phi(z) of
    the standardized residuals z in place of their rank PIT."""

    parametric = True

    @classmethod
    def marginal_noise(cls, y: np.ndarray) -> np.ndarray:
        return ndtr((y - np.mean(y)) / np.std(y, ddof=1))

    def noise(self, y: np.ndarray):
        z, fit_loss = self._standardized(y)
        return np.clip(ndtr(z), EPS_CLIP, 1.0 - EPS_CLIP), z, fit_loss


# --------------------------------------------------------------------- #
# kernel-local parametric estimates (Pareto and Gamma families)
# --------------------------------------------------------------------- #


def _silverman(x: np.ndarray, dim: int) -> float:
    sd = float(np.std(x))
    if sd == 0.0:
        return 1.0
    return 1.06 * sd * x.size ** (-1.0 / (4.0 + dim))


# Rescales the Silverman bandwidths of the kernel-local parametric fits.
# At n around 500 the plain rule leaves enough smoothing bias in theta for
# the independence and uniformity tests to flag true parent sets; slightly
# narrower windows balance that against estimation noise.
CPCM_BANDWIDTH_SCALE = 0.8


class _KernelLocalModel(_Model):
    """Kernel-weighted local parameter estimates of a parametric family.

    A family subclass supplies ``_local_params(w)``, the parameters from the
    (m, n) kernel weights of m evaluation points, or from a (B, m, n) stack
    of them; ``nll(w, y)``, the mean negative log-likelihood under them, one
    per (m, n) slice; and ``_transform(y, params)``, the
    noise F(y; theta(x)) with the fit loss.  The transform is NOT rank
    rescaled: only the parametric class carries distributional content, and
    the uniformity question has to see it.
    """

    parametric = True

    def __init__(self, x: np.ndarray, y: np.ndarray):
        self.x_train = x
        self.y_train = y
        d = x.shape[1]
        self.bandwidths = CPCM_BANDWIDTH_SCALE * np.array([_silverman(x[:, j], d) for j in range(d)])

    @staticmethod
    def _weight_sums(w: np.ndarray) -> np.ndarray:
        """Row sums of the kernel weights; ``DegenerateTheta`` if one underflows."""
        sw = w.sum(axis=-1)
        if np.any(sw <= _TINY):
            raise DegenerateTheta("kernel weights underflow away from the data")
        return sw

    def theta(self, x_ev: np.ndarray):
        """Local parameters at the evaluation points (see ``_local_params``)
        from the Gaussian log-kernel to the training rows, one (m, n) array
        exponentiated in place."""
        logw = stattests.gaussian_log_kernel(x_ev, self.x_train, self.bandwidths)
        return self._local_params(np.exp(logw, out=logw))

    def noise(self, y: np.ndarray):
        """The parametric transform at the training rows, clipped strictly
        inside (0,1); it serves as both eps and residuals."""
        eps, fit_loss = self._transform(y, self.theta(self.x_train))
        eps = np.clip(eps, EPS_CLIP, 1.0 - EPS_CLIP)
        return eps, eps, fit_loss

    def permutation_pieces(self, x: np.ndarray, y: np.ndarray):
        """The per-column Gaussian log-kernels to the training rows, their
        transform, ``exp`` in place, and the score of the kernel weights."""

        def transform(logw: np.ndarray) -> np.ndarray:
            return np.exp(logw, out=logw)

        def score(w: np.ndarray, pos: int, perms: np.ndarray) -> np.ndarray:
            return self.nll(w, y)

        return stattests.column_pieces(x, self.x_train, stattests.gaussian_denoms(self.bandwidths)), transform, score


class _ParetoLocalModel(_KernelLocalModel):
    """Local Pareto tail index on the support y >= 1."""

    @staticmethod
    def check_support(y: np.ndarray) -> None:
        if np.min(y) < 1.0:
            raise DomainViolation(f"Pareto family requires Y >= 1, found min {np.min(y)}")

    @classmethod
    def marginal_noise(cls, y: np.ndarray) -> np.ndarray:
        """The transform at the global MLE 1/mean(ln y)."""
        return cls._transform(y, 1.0 / np.mean(np.log(y)))[0]

    def __init__(self, x: np.ndarray, y: np.ndarray):
        super().__init__(x, y)
        self._log_y = np.log(y)

    def _local_params(self, w: np.ndarray) -> np.ndarray:
        """Tail index solving the weighted likelihood equation; with uniform
        weights it collapses to the global MLE 1/mean(ln y)."""
        sw = self._weight_sums(w)
        with np.errstate(divide="ignore"):
            theta = sw / _slice_dot(w, self._log_y)
        if not np.all(np.isfinite(theta)) or np.any(theta <= 0):
            raise DegenerateTheta("non-positive or non-finite Pareto index")
        return theta

    def nll(self, w: np.ndarray, y: np.ndarray):
        theta = self._local_params(w)
        return np.mean(-np.log(theta) + (theta + 1.0) * np.log(y), axis=-1)

    @staticmethod
    def _transform(y: np.ndarray, theta: np.ndarray):
        median = 2.0 ** (1.0 / theta)  # the conditional mean may not exist
        return 1.0 - y ** (-theta), float(np.mean((y - median) ** 2))


class _GammaLocalModel(_KernelLocalModel):
    """Local Gamma (shape, scale) on the support y > 0."""

    @staticmethod
    def check_support(y: np.ndarray) -> None:
        if np.min(y) <= 0.0:
            raise DomainViolation(f"Gamma family requires Y > 0, found min {np.min(y)}")

    @classmethod
    def marginal_noise(cls, y: np.ndarray) -> np.ndarray:
        mu, var = np.mean(y), np.var(y, ddof=1)
        return cls._transform(y, (mu * mu / var, var / mu))[0]

    def _local_params(self, w: np.ndarray):
        """(shape, scale) by weighted moment matching."""
        sw = self._weight_sums(w)
        mu = _slice_dot(w, self.y_train) / sw
        second = _slice_dot(w, self.y_train * self.y_train) / sw
        var = second - mu * mu
        if np.any(mu <= 0) or np.any(var <= 0) or not (np.all(np.isfinite(mu)) and np.all(np.isfinite(var))):
            raise DegenerateTheta("degenerate local Gamma moments")
        return mu * mu / var, var / mu

    def nll(self, w: np.ndarray, y: np.ndarray):
        shape, scale = self._local_params(w)
        nll = -(shape - 1.0) * np.log(y) + y / scale + shape * np.log(scale) + gammaln(shape)
        return np.mean(nll, axis=-1)

    @staticmethod
    def _transform(y: np.ndarray, params):
        shape, scale = params
        return gammainc(shape, y / scale), float(np.mean((y - shape * scale) ** 2))


# --------------------------------------------------------------------- #
# linear fit
# --------------------------------------------------------------------- #


class _LinearModel(_Model):
    """OLS fit on the design [1, X] from its thin SVD; noise by rank PIT of
    the residuals, significance by per-slope two-sided t-tests.

    One SVD gives the coefficients, the rank and the standard errors; X'X,
    whose condition number is the design's squared, is never formed.
    Singular values at or below eps * max(n, d + 1) * s_max count as zero;
    ``xtx_inv_diag`` is diag((X'X)^-1) = sum_j (vt[j, i] / s[j])^2, which
    cannot go negative."""

    smoother = False

    def __init__(self, x: np.ndarray, y: np.ndarray):
        n, d = x.shape
        if d >= n - 1:
            raise BadParam(f"|s|={d} too large for n={n}")
        design = np.column_stack([np.ones(n), x])
        u, s, vt = np.linalg.svd(design, full_matrices=False)
        rank = int(np.sum(s > np.finfo(float).eps * max(design.shape) * s[0]))
        if rank < design.shape[1]:
            raise RankDeficient(f"design matrix rank {rank} < {design.shape[1]} (collinear covariates)")
        vs = vt.T / s
        coef = vs @ (u.T @ y)
        self.xtx_inv_diag = np.sum(vs * vs, axis=1)
        self.intercept = float(coef[0])
        self.beta = coef[1:]
        self.fitted = self.intercept + x @ self.beta

    def significance_p(self, data: Dataset, s: CandidateSet, seed: int) -> np.ndarray:
        """Two-sided t-test p-value of each slope."""
        resid = data.y - self.fitted
        dof = resid.size - self.beta.size - 1
        sigma2 = float(resid @ resid) / dof
        se = np.sqrt(sigma2 * self.xtx_inv_diag[1:])
        with np.errstate(divide="ignore", invalid="ignore"):
            t_stats = np.where(se > 0, self.beta / se, np.inf)
        return np.clip(2.0 * stdtr(dof, -np.abs(t_stats)), 0.0, 1.0)


# --------------------------------------------------------------------- #
# the entry point
# --------------------------------------------------------------------- #


# one model class per function class, keyed like model.CLASS_CODES
MODELS = {
    ("linear", None): _LinearModel,
    ("additive", None): _MeanSmoother,
    ("location-scale", None): _LocationScaleModel,
    ("cpcm", "gaussian"): _GaussianCpcmModel,
    ("cpcm", "gamma"): _GammaLocalModel,
    ("cpcm", "pareto"): _ParetoLocalModel,
}


def recover_noise(data: Dataset, s: CandidateSet, f_class: FunctionClass, *, seed: int = 0) -> NoiseRecovery:
    """Fit the class's model (``MODELS[f_class.key]``) to the target on the
    covariates in ``s`` and recover the noise, with the model's
    ``significance_p``, one p-value per member.  Raises ``BadParam`` past
    the smoother dimension cap and ``DomainViolation`` for a target outside
    the family's support, both before any fit."""
    model_cls = MODELS[f_class.key]
    if model_cls.smoother and len(s) > SMOOTHER_DIM_CAP:
        raise BadParam(f"|s|={len(s)} exceeds the smoother dimension cap of {SMOOTHER_DIM_CAP}")
    y = data.y
    model_cls.check_support(y)
    model = model_cls(data.covariates(s), y)
    eps, residuals, fit_loss = model.noise(y)
    return NoiseRecovery(eps, residuals, model.significance_p(data, s, seed), fit_loss, f_class, s, model)
