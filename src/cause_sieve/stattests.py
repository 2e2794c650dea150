"""Statistical tests: HSIC independence, uniformity, permutation significance.

The HSIC statistic is the biased V-statistic with Gaussian RBF kernels,
reported on the n*HSIC scale.  The kernel on a multi-column block is the
product of univariate RBF kernels, one bandwidth per column by the median
heuristic.  P-values come from the Gamma moment-matching approximation by
default, or from permutations of the noise vector when an exact-style
reference is wanted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import gammaincc

from . import seeding
from .errors import BadParam, ConstantInput, OutOfRange, TooFewRows
from .model import CandidateSet, Dataset

LOG_P_FLOOR = np.log(1e-12)
SIG_PERMUTATIONS = 99  # permutations per covariate in the significance test


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    method: str

    def __post_init__(self):
        if not np.isfinite(self.statistic):
            raise BadParam(f"non-finite test statistic {self.statistic}")
        if not (0.0 <= self.p_value <= 1.0):
            raise BadParam(f"p-value {self.p_value} outside [0, 1]")


def _median_bandwidth(col: np.ndarray) -> float:
    """Median heuristic: median of the non-zero pairwise absolute distances.

    The distances are taken lag by lag along the sorted column, so every
    pair appears once and no (n, n) matrix is built; ``s[i + k] - s[i]`` is
    the same float as ``|col[a] - col[b]|`` for that pair.
    """
    s = np.sort(col)
    n = s.size
    dist = np.empty(n * (n - 1) // 2)
    at = 0
    for k in range(1, n):
        np.subtract(s[k:], s[:-k], out=dist[at : at + n - k])
        at += n - k
    if np.any(s[1:] == s[:-1]):  # ties give zero distances
        dist = dist[dist > 0]
    if dist.size == 0:
        raise ConstantInput("all pairwise distances are zero")
    return float(np.median(dist, overwrite_input=True))


def _product_rbf_kernel(x: np.ndarray) -> np.ndarray:
    """Product of per-column Gaussian kernels exp(-d^2 / (2 h^2)).

    The exponent is built in place, one (n, n) array per column; dividing
    by the negated denominator gives the same floats as negating after.
    """
    expo = None
    for j in range(x.shape[1]):
        col = x[:, j]
        h = _median_bandwidth(col)
        d = col[:, None] - col[None, :]
        np.multiply(d, d, out=d)
        d /= -(2.0 * h * h)
        if expo is None:
            expo = d
        else:
            expo += d
    return np.exp(expo, out=expo)


def _centered(k: np.ndarray) -> np.ndarray:
    k = k - k.mean(axis=0, keepdims=True)
    k -= k.mean(axis=1, keepdims=True)
    return k


def hsic_test(
    x,
    e,
    method: str = "gamma",
    n_perm: int = 500,
    seed: int = 0,
) -> TestResult:
    """HSIC independence test between a covariate block and a noise vector.

    ``x`` is (n,) or (n, d) with non-constant columns; ``e`` is (n,).  The
    returned statistic is n*HSIC (biased estimator), which is what both the
    Gamma approximation and the permutation null are calibrated against.
    ``n_perm`` and ``seed`` apply to ``method="permutation"`` only.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    e = np.asarray(e, dtype=float).ravel()
    n = e.size
    if x.shape[0] != n:
        raise BadParam(f"x has {x.shape[0]} rows but e has {n}")
    if n < 20:
        raise TooFewRows(f"hsic_test needs n >= 20, got {n}")
    if np.ptp(e) <= 1e-12 * max(1.0, float(np.max(np.abs(e)))):
        raise ConstantInput("noise vector is constant up to machine precision")
    for j in range(x.shape[1]):
        if np.ptp(x[:, j]) == 0.0:
            raise ConstantInput(f"column {j} of x is constant")

    k = _product_rbf_kernel(x)
    bigl = _product_rbf_kernel(e[:, None])
    kc = _centered(k)
    kl = _centered(bigl)
    kl *= kc
    stat = float(np.sum(kl) / n)

    if method == "gamma":
        p = _gamma_p_value(k, bigl, kl, stat)
        return TestResult(statistic=stat, p_value=p, method="hsic-gamma")
    if method == "permutation":
        if n_perm < 1:
            raise BadParam("n_perm must be positive")
        rng = seeding.substream(seed, seeding.HSIC_PERM)
        count = 0
        for _ in range(n_perm):
            perm = rng.permutation(n)
            # tr(Kc Lc_perm) = sum(Kc * L_perm) because Kc is doubly centered
            stat_b = float(np.sum(kc * bigl[np.ix_(perm, perm)]) / n)
            if stat_b >= stat:
                count += 1
        p = (1 + count) / (n_perm + 1)
        return TestResult(statistic=stat, p_value=p, method="hsic-permutation")
    raise BadParam(f"unknown hsic method {method!r}")


def _gamma_p_value(k, bigl, kl, stat) -> float:
    """Moment-matched Gamma approximation to the null distribution of n*HSIC.

    ``kl``, the elementwise product of the two centered kernels, is
    overwritten, and the diagonals of ``k`` and ``bigl`` are zeroed in place.
    """
    n = k.shape[0]
    kl /= 6.0
    np.square(kl, out=kl)
    var = (kl.sum() - np.trace(kl)) / (n * (n - 1))
    var = var * 72.0 * (n - 4) * (n - 5) / (n * (n - 1) * (n - 2) * (n - 3))

    np.fill_diagonal(k, 0.0)
    np.fill_diagonal(bigl, 0.0)
    mu_x = k.sum() / (n * (n - 1))
    mu_y = bigl.sum() / (n * (n - 1))
    mean = (1.0 + mu_x * mu_y - mu_x - mu_y) / n
    if var <= 0 or mean <= 0:
        return 1.0
    shape = mean * mean / var
    scale = n * var / mean
    # survival function of Gamma(shape, scale) at the statistic
    return float(gammaincc(shape, max(stat, 0.0) / scale))


def _check_unit_interval(u) -> np.ndarray:
    u = np.asarray(u, dtype=float).ravel()
    if u.size == 0:
        raise BadParam("empty sample")
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        bad = u[(u <= 0.0) | (u >= 1.0)][0]
        raise OutOfRange(f"value {bad} outside (0, 1)")
    return u


def ad_uniform_test(u) -> TestResult:
    """Anderson-Darling test of U(0,1) for a fully specified null.

    A^2 = -n - (1/n) * sum_i (2i-1) [ln u_(i) + ln(1 - u_(n+1-i))], with the
    Marsaglia-style asymptotic series for the p-value (case 0: no fitted
    parameters).  The p-value is monotone decreasing in A^2.
    """
    u = _check_unit_interval(u)
    n = u.size
    s = np.sort(u)
    i = np.arange(1, n + 1)
    a2 = -n - np.mean((2 * i - 1) * (np.log(s) + np.log1p(-s[::-1])))
    return TestResult(statistic=float(a2), p_value=_ad_p_value(float(a2)), method="anderson-darling")


def _ad_p_value(a2: float) -> float:
    """1 - adinf(z): asymptotic upper-tail probability of the AD statistic."""
    z = a2
    if z <= 0.0:
        return 1.0
    if z < 2.0:
        cdf = (
            np.exp(-1.2337141 / z)
            / np.sqrt(z)
            * (2.00012 + (0.247105 - (0.0649821 - (0.0347962 - (0.011672 - 0.00168691 * z) * z) * z) * z) * z)
        )
    else:
        cdf = np.exp(-np.exp(1.0776 - (2.30695 - (0.43424 - (0.082433 - (0.008056 - 0.0003146 * z) * z) * z) * z) * z))
    return float(min(max(1.0 - cdf, 0.0), 1.0))


class _PermutedLoss:
    """Evaluator for a model with ``loss(x, y)``: each permuted loss
    re-evaluates the model on a copy of ``x`` with one column permuted."""

    def __init__(self, model, x: np.ndarray, y: np.ndarray):
        self._model = model
        self._x = x
        self._y = y
        self.baseline = model.loss(x, y)

    def loss_with_permuted(self, pos: int, perm: np.ndarray) -> float:
        x = self._x.copy()
        x[:, pos] = x[perm, pos]
        return self._model.loss(x, self._y)


def permutation_evaluator(model, x: np.ndarray, y: np.ndarray):
    """The model's own evaluator when it has one, else a :class:`_PermutedLoss`."""
    if hasattr(model, "permutation_evaluator"):
        return model.permutation_evaluator(x, y)
    return _PermutedLoss(model, x, y)


def perm_significance(
    data: Dataset,
    s: CandidateSet,
    refit: Callable[[np.ndarray, np.ndarray], object],
    n_perm: int = SIG_PERMUTATIONS,
    seed: int = 0,
) -> np.ndarray:
    """Permutation-importance p-values, one per member of ``s``.

    ``refit(x, y)`` fits the class-appropriate model.  An evaluator on the
    held-out rows supplies the losses: a ``baseline`` and
    ``loss_with_permuted(pos, perm)``, the loss with column ``pos``
    reordered by ``perm`` (the identity reproduces the baseline).  A model
    with ``loss(x, y)`` (the splines' squared error or Gaussian deviance)
    gets :class:`_PermutedLoss`, which re-evaluates it on a permuted copy;
    a model may instead supply its own ``permutation_evaluator(x, y)``, as
    the kernel-local parametric model does: its kernel factorises over
    columns, so a permutation swaps one factor instead of rebuilding it.

    The model is fitted on a held-out split: half the rows train the model,
    the other half supply the losses.  Comparing the held-out baseline with
    held-out permuted losses keeps the p-value exchangeable-valid; an
    in-sample baseline would be biased low by the smoother's optimism and
    reject irrelevant covariates far too often.

    p_i = (1 + #{b : L_b <= L_0}) / (n_perm + 1), so a covariate whose
    permutation always degrades the loss gets the minimum 1/(n_perm+1).
    """
    if n_perm < 50:
        raise BadParam(f"n_perm must be at least 50, got {n_perm}")
    x = data.covariates(s)
    y = data.y
    n = data.n

    rng = seeding.substream(seed, seeding.SIG_SPLIT, *s.members)
    order = rng.permutation(n)
    half = n // 2
    train, test = order[:half], order[half:]

    model = refit(x[train], y[train])
    evaluator = permutation_evaluator(model, x[test], y[test])
    base = evaluator.baseline

    p_values = np.empty(len(s))
    m = test.size
    for pos, member in enumerate(s.members):
        col_rng = seeding.substream(seed, seeding.SIG_PERM, member, *s.members)
        count = 0
        for _ in range(n_perm):
            perm = col_rng.permutation(m)
            if evaluator.loss_with_permuted(pos, perm) <= base:
                count += 1
        p_values[pos] = (1 + count) / (n_perm + 1)
    return p_values
