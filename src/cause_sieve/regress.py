"""Noise recovery for each function class.

:func:`recover_noise` is the one entry point.  ``MODELS`` maps each
``FunctionClass.key`` to one model class, the one home of that class's
facts.  Its constructor fits ``(x, y)``; ``noise(y)`` returns the noise on
the (0,1) scale with its residuals and fit loss; ``significance_p(data, s,
seed)`` gives one p-value per member of ``s``: held-out permutation
significance, or the linear slopes' t-tests.  ``stattests.perm_significance``
refits the class and reads one callable from it, ``permutation_losses(x,
y)``; that function's docstring states the protocol.  The splines build it
from their ``permutation_pieces(x, y)`` with ``stattests.piece_losses``: the
per-column pieces, an elementwise ``transform`` of their sums and the
``score`` of a transformed (B, m, P) stack, B losses, each the float its
slice gives alone, since elementwise work and reductions over the last axis
do not mix slices and every matrix product is one ``np.dot`` per slice
(``_slice_dot``).  The scores use ``np.dot``, not ``@``, because the matrix-
vector ``@`` holds the interpreter lock; the fits keep ``@``.  The
kernel-local families gather their weighted sums from Gram matrices
(``_KernelLocalModel.permutation_losses``).  ``smoother``
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
independence test sees only noise.  A model builds one (n, n) kernel with
``stattests.squared_differences``, which maps each row block by
``_thin_plate`` as it is built, and fits each of its splines on it (two
for the location-scale class); the CV and the permutation losses use
that kernel's coefficient layout, and the permutation pieces are the same
squared differences, unsummed (``stattests.column_pieces``).  Each spline
solves the saddle system [[K + lambda I, P], [P', 0]] (Wahba 1990) with
scipy's LAPACK ``dgesv``, whose C pointer ``scipy.linalg.cython_lapack``
publishes.  Called through ctypes, it is the routine and library that
scipy's f2py ``dgesv`` wraps and gives the same bits, but it releases the
interpreter lock, which the f2py wrapper holds, so the solves of
candidates on different threads overlap.
The pointer's C signature is checked at import.  The parametric class uses
the location-scale fit for the Gaussian family and kernel-local maximum
likelihood or moment matching with Silverman bandwidths for the Pareto and
Gamma families, whose kernel weights are ``stattests.gaussian_kernel``.
Both estimates read only sums of the weights times 1, ln y, y or y^2, which
are linear in the weights, so a permuted point's sums are entries of one
(m, m) Gram matrix per sum and no kernel is rebuilt per permutation.

One rank rule, ``_centred_svd``, decides whether [1, x] has full column
rank for the linear and spline fits, before any solve: d + 1 rows or more,
no covariate constant on them, and covariates, centred and each divided by
its largest |x - mean|, whose smallest singular value is above eps * max(n,
d) * s_max.  The linear fit solves that centred design; a spline checks each
design it solves, all rows and the two CV folds, once before its penalty
loop, and ``dgesv``'s report of a singular system is only a last guard.

The Gamma CDF is ``scipy.special.gammainc(shape, y / scale)`` and the
linear slopes' t tail is ``scipy.special.stdtr(dof, -|t|)``: the functions
that ``scipy.stats.gamma.cdf`` and ``scipy.stats.t.sf`` evaluate, called
without importing ``scipy.stats``, which would double the package's
import time.
"""

from __future__ import annotations

import ctypes
import re

import numpy as np
from scipy.linalg import cython_lapack
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
# the rank rule of the linear and spline designs
# --------------------------------------------------------------------- #


def _centred_svd(x: np.ndarray):
    """The means and scales of the (n, d) covariates ``x`` and the thin SVD
    (u, s, vt) of the covariates centred and each divided by its scale, the
    largest |x - mean|; ``RankDeficient`` unless [1, x] has full column rank.

    This is the one rank rule of the linear and spline fits.  [1, x] is
    taken to be rank deficient when it has fewer than d + 1 rows, when a
    covariate is constant on the rows, or when the smallest singular value of
    the centred, scaled covariates is at most eps * max(n, d) * s_max, the
    numerical rank of Golub & Van Loan and numpy's ``matrix_rank`` default.
    Centring takes the intercept's collinearity out of the design (Belsley,
    Kuh & Welsch 1980) and scaling takes out the units, so the verdict does
    not move with a column's offset or scale.  The scale is a maximum, not a
    norm built from squares, which underflow for a column at 1e-170."""
    n, d = x.shape
    if n < d + 1:
        raise RankDeficient(f"{n} rows cannot fit the {d + 1} terms of [1, x]")
    constant = np.flatnonzero(np.ptp(x, axis=0) == 0)
    if constant.size:
        raise RankDeficient(f"covariate {constant[0] + 1} of {d} is constant on its {n} rows")
    means = np.mean(x, axis=0)
    centred = x - means
    scales = np.max(np.abs(centred), axis=0)
    u, s, vt = np.linalg.svd(centred / scales, full_matrices=False)
    tol = np.finfo(float).eps * max(n, d) * s[0]
    if s[-1] <= tol:
        raise RankDeficient(f"centred covariates have numerical rank {np.sum(s > tol)} < {d} (collinear covariates)")
    return means, scales, (u, s, vt)


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


_DGESV_SIGNATURE = "void (int *, int *, double *, int *, int *, double *, int *, int *)"
_INT_P = ctypes.POINTER(ctypes.c_int)
# a CFUNCTYPE call releases the interpreter lock (a PYFUNCTYPE one would keep it)
_DGESV_PROTOTYPE = ctypes.CFUNCTYPE(
    None, _INT_P, _INT_P, ctypes.c_void_p, _INT_P, ctypes.c_void_p, ctypes.c_void_p, _INT_P, _INT_P
)


def _check_dgesv_signature(name: str) -> None:
    """``ImportError`` unless the capsule ``name`` (scipy's typedef ``d`` is
    double) is ``_DGESV_SIGNATURE`` and C ``int`` has 32 bits: a LAPACK with
    64-bit integers would read past each ``c_int`` passed to it."""
    if re.sub(r"\b__pyx_t_\w+_d\b", "double", name) != _DGESV_SIGNATURE or ctypes.sizeof(ctypes.c_int) != 4:
        raise ImportError(f"scipy's cython_lapack dgesv is {name!r}, not {_DGESV_SIGNATURE!r} with a 32-bit int")


def _capsule_dgesv():
    """scipy's LAPACK ``dgesv`` from its ``cython_lapack`` pointer table, as a
    ctypes function of ``_DGESV_PROTOTYPE``."""
    capsule = cython_lapack.__pyx_capi__["dgesv"]
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", ctypes.pythonapi))(capsule)
    _check_dgesv_signature(name.decode())
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi)
    )
    return _DGESV_PROTOTYPE(get_pointer(capsule, name))


_dgesv = _capsule_dgesv()


def _lu_solve(a: np.ndarray, b: np.ndarray) -> int:
    """LAPACK ``dgesv`` on the Fortran-ordered (n, n) ``a`` and the n-vector
    ``b``, both float64, in place: ``a`` ends as its LU factors and ``b`` as the
    solution.  Returns ``info``, > 0 when ``a`` is singular."""
    n = b.size
    if a.shape != (n, n) or b.shape != (n,) or a.dtype != np.float64 or b.dtype != np.float64:
        raise ValueError(f"dgesv needs (n, n) and (n,) float64 arrays, got {a.shape} {a.dtype}, {b.shape} {b.dtype}")
    if not (a.flags.f_contiguous and a.flags.writeable and b.flags.contiguous and b.flags.writeable):
        raise ValueError("dgesv needs a writeable Fortran-ordered matrix and a writeable contiguous vector")
    ipiv = np.empty(n, dtype=np.intc)
    order, nrhs, info = ctypes.c_int(n), ctypes.c_int(1), ctypes.c_int(0)
    _dgesv(order, nrhs, a.ctypes.data, order, ipiv.ctypes.data, b.ctypes.data, order, info)
    if info.value < 0:
        raise ValueError(f"dgesv: argument {-info.value} has an illegal value")
    return info.value


def _solve_spline(kernel: np.ndarray, xn: np.ndarray, yn: np.ndarray, penalty: float) -> np.ndarray:
    """[a; b] solving [[K + penalty I, P], [P', 0]] [a; b] = [yn; 0], P = [1, xn], in place
    by LU.  The rank of P is ``_centred_svd``'s to decide, before any solve;
    ``RankDeficient`` when ``dgesv`` still meets a singular system is only a
    last guard."""
    n, d = xn.shape
    lhs = np.zeros((n + d + 1, n + d + 1), order="F")
    lhs[:n, :n] = kernel
    lhs[np.diag_indices(n)] += penalty
    lhs[:n, n], lhs[:n, n + 1 :] = 1.0, xn
    lhs[n:, :n] = lhs[:n, n:].T
    coeffs = np.concatenate([yn, np.zeros(d + 1)])
    if _lu_solve(lhs, coeffs) > 0:
        raise RankDeficient("spline system is singular (collinear covariates)")
    return coeffs


class _Spline:
    """Penalized thin-plate spline of y on the rescaled covariates ``xn``,
    given their (n, n) ``kernel``, with the CV-chosen penalty.

    The response is standardized, so one penalty grid serves every dataset.
    ``coeffs`` holds the weights a of the rows as centres, then those of
    [1, xn], on the scale of y.  The CV folds, the even and odd rows, take
    their kernels as blocks of the given one.  Each design the spline solves,
    all rows and the two folds, passes ``_centred_svd`` once, before the
    penalty loop, so a collinear or constant fold fails before any solve.
    The fitted values are y - penalty * a, the first block row of the system.
    """

    def __init__(self, kernel: np.ndarray, xn: np.ndarray, y: np.ndarray):
        folds = ((0, 1), (1, 0)) if y.size >= 8 else ()  # even rows, then odd rows train
        for rows in [slice(None)] + [slice(tr, None, 2) for tr, _ in folds]:
            _centred_svd(xn[rows])
        y_mean, y_scale = float(np.mean(y)), max(float(np.std(y)), _TINY)
        yn = (y - y_mean) / y_scale
        best, best_err = PENALTY_GRID[0], np.inf
        if folds:
            for lam in PENALTY_GRID:
                err = 0.0
                for tr, te in folds:
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
        self._fit(stattests.squared_differences(self.centres, self.centres, finish=_thin_plate), y)

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

    def permutation_losses(self, x: np.ndarray, y: np.ndarray):
        """The ``losses(pos, perms)`` of ``stattests.perm_significance``:
        ``stattests.piece_losses`` of the permutation pieces."""
        return stattests.piece_losses(*self.permutation_pieces(x, y))


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


# A local Gamma variance second - mu^2 at or below this share of the second
# moment has lost all but about 4 of its 53 bits to cancellation, so its sign
# and size are rounding: the verdict would depend on how the sums were added.
_GAMMA_VAR_FLOOR = 16 * np.finfo(float).eps


class _KernelLocalModel(_Model):
    """Kernel-weighted local parameter estimates of a parametric family.

    Every local estimate reads only weighted sums over the training rows c,
    sum_c w_ic f(y_c), for the family's ``_moments`` f: the running products
    of 1 and its ``_factors(y)`` (ln y for the Pareto index; y and y again,
    so 1, y and y^2, for the Gamma moments).  A family subclass supplies
    ``_factors``; ``_params(sums)``, the parameters from the sums, which
    holds every degeneracy check of the family; ``nll(params, y)``, the mean
    negative log-likelihood of y under them along the last axis; and
    ``_transform(y, params)``, the noise F(y; theta(x)) with the fit loss.
    The transform is NOT rank rescaled: only the parametric class carries
    distributional content, and the uniformity question has to see it.
    """

    parametric = True

    def __init__(self, x: np.ndarray, y: np.ndarray):
        self.x_train = x
        self.y_train = y
        d = x.shape[1]
        self.bandwidths = CPCM_BANDWIDTH_SCALE * np.array([_silverman(x[:, j], d) for j in range(d)])
        self._moments = np.cumprod([np.ones_like(y), *self._factors(y)], axis=0)

    @staticmethod
    def _check_mass(sw: np.ndarray) -> None:
        """``DegenerateTheta`` if a point's kernel weights sum to the smallest
        normal float or less."""
        if np.any(sw <= _TINY):
            raise DegenerateTheta("kernel weights underflow away from the data")

    def _weighted_sums(self, w: np.ndarray) -> tuple:
        """The sums ``_params`` reads from the (m, n) kernel weights ``w``:
        the row sums of w, then w @ f for each further moment f."""
        return (w.sum(axis=-1), *(w @ f for f in self._moments[1:]))

    def theta(self, x_ev: np.ndarray):
        """Local parameters at the evaluation points (see ``_params``) from
        the Gaussian kernel weights to the training rows."""
        return self._params(self._weighted_sums(stattests.gaussian_kernel(x_ev, self.x_train, self.bandwidths)))

    def noise(self, y: np.ndarray):
        """The parametric transform at the training rows, clipped strictly
        inside (0,1); it serves as both eps and residuals."""
        eps, fit_loss = self._transform(y, self.theta(self.x_train))
        eps = np.clip(eps, EPS_CLIP, 1.0 - EPS_CLIP)
        return eps, eps, fit_loss

    def permutation_losses(self, x: np.ndarray, y: np.ndarray):
        """The ``losses(pos, perms)`` of ``stattests.perm_significance`` on
        the held-out rows (x, y), read from one (m, m) Gram matrix per sum.

        With column ``pos`` permuted by pi, the weight of held-out row i on
        training row c is E[pi(i), c] R[i, c], where E = exp(piece_pos) and R
        = exp(rest) is the product of the other columns' exponentiated
        Gaussian log-kernels.  So every sum a permutation of ``pos`` needs is
        an entry of H_f = (R f) @ E', one GEMM per moment f, built the first
        time ``pos`` is asked for: permutation pi's sums at row i are H_f[i,
        pi(i)].  With one member R is 1 and H_f is the one row E @ f.  The
        log-kernels are exponentiated in place, and R is formed one
        ``stattests._row_blocks`` block of rows at a time and multiplied in
        place by each factor in turn, so a position holds the d kernels, its
        Gram matrices and one block: no (B, m, P) stack.  exp(a) exp(b), and
        (R y) y, differ from exp(a + b) and R y^2 in the last bits, which
        reach a p-value only at a near-tie of a permuted and the baseline
        loss."""
        exps = stattests.exp_in_place(
            stattests.column_pieces(x, self.x_train, stattests.gaussian_denoms(self.bandwidths))
        )
        d, m, n_train = exps.shape
        factors = self._factors(self.y_train)
        gram = np.empty((len(self._moments), m if d > 1 else 1, m))
        sums_of = gram.reshape(len(gram), -1)
        starts = np.arange(m) * m if d > 1 else 0  # where row i's sums start
        block = stattests._scratch_block(m, n_train) if d > 1 else None
        built = None

        def build(pos: int) -> None:
            others = [j for j in range(d) if j != pos]
            if not others:
                for k, f in enumerate(self._moments):
                    np.dot(exps[pos], f, out=gram[k, 0])
                return
            for lo, hi in stattests._row_blocks(m, n_train):
                rest = block[: hi - lo]
                np.copyto(rest, exps[others[0], lo:hi])
                for j in others[1:]:
                    rest *= exps[j, lo:hi]
                for k in range(len(gram)):
                    if k:
                        rest *= factors[k - 1]
                    np.dot(rest, exps[pos].T, out=gram[k, lo:hi])

        def losses(pos: int, perms: np.ndarray) -> np.ndarray:
            nonlocal built
            if pos != built:
                build(pos)
                built = pos
            sums = np.take(sums_of, perms + starts, axis=1)
            return self.nll(self._params(sums), y)

        return losses


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

    @staticmethod
    def _factors(y: np.ndarray) -> tuple:
        return (np.log(y),)

    def _params(self, sums) -> np.ndarray:
        """Tail index solving the weighted likelihood equation, sum w / sum w
        ln y; with uniform weights it collapses to the global MLE 1/mean(ln
        y)."""
        sw, s_log = sums
        self._check_mass(sw)
        with np.errstate(divide="ignore"):
            theta = sw / s_log
        if not np.all(np.isfinite(theta)) or np.any(theta <= 0):
            raise DegenerateTheta("non-positive or non-finite Pareto index")
        return theta

    @staticmethod
    def nll(theta: np.ndarray, y: np.ndarray):
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

    @staticmethod
    def _factors(y: np.ndarray) -> tuple:
        return (y, y)

    def _params(self, sums):
        """(shape, scale) by weighted moment matching.  ``DegenerateTheta``
        when a local variance is at most ``_GAMMA_VAR_FLOOR`` of its second
        moment: then only rounding decides whether it is positive."""
        sw, s_y, s_yy = sums
        self._check_mass(sw)
        mu = s_y / sw
        second = s_yy / sw
        var = second - mu * mu
        if np.any(mu <= 0) or not (np.all(np.isfinite(mu)) and np.all(np.isfinite(var))):
            raise DegenerateTheta("degenerate local Gamma moments: a non-positive or non-finite mean or variance")
        if np.any(var <= _GAMMA_VAR_FLOOR * second):
            raise DegenerateTheta("degenerate local Gamma moments: a variance within rounding of zero")
        return mu * mu / var, var / mu

    @staticmethod
    def nll(params, y: np.ndarray):
        shape, scale = params
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
    """OLS fit of y on X with an intercept; noise by rank PIT of the
    residuals, significance by per-slope two-sided t-tests.

    ``_centred_svd`` decides the rank and gives the thin SVD of the centred
    covariates, each scaled by its largest |x - mean|.  The centred target
    is solved on that design, the slopes are mapped back by the scales, and
    the intercept is mean(y) - mean(x) . beta; the fitted values are
    mean(y) + (x - mean(x)) . beta, which avoids the cancellation of a large
    offset.  X'X, whose condition number is the design's squared, is never
    formed: ``xtx_inv_diag`` is the slopes' part of diag(([1, X]'[1, X])^-1),
    that is diag((Xc'Xc)^-1) of the centred Xc, sum_j (vt[j, i] / (s[j]
    scale_i))^2, which cannot go negative."""

    smoother = False

    def __init__(self, x: np.ndarray, y: np.ndarray):
        n, d = x.shape
        if d >= n - 1:
            raise BadParam(f"|s|={d} too large for n={n}")
        means, scales, (u, s, vt) = _centred_svd(x)
        y_mean = float(np.mean(y))
        vs = vt.T / s / scales[:, None]
        self.beta = vs @ (u.T @ (y - y_mean))
        self.xtx_inv_diag = np.sum(vs * vs, axis=1)
        self.intercept = y_mean - float(means @ self.beta)
        self.fitted = y_mean + (x - means) @ self.beta

    def significance_p(self, data: Dataset, s: CandidateSet, seed: int) -> np.ndarray:
        """Two-sided t-test p-value of each slope."""
        resid = data.y - self.fitted
        dof = resid.size - self.beta.size - 1
        sigma2 = float(resid @ resid) / dof
        se = np.sqrt(sigma2 * self.xtx_inv_diag)
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
