"""Statistical tests: HSIC independence, uniformity, permutation significance,
and the kernel layer under them and under the fits in ``regress``: one
builder of per-column pairwise squared differences, which with the
denominators -2 h^2 is the Gaussian log-kernel, and one builder of the
Gaussian kernel on top of it.

The HSIC statistic is the biased V-statistic with Gaussian RBF kernels,
reported on the n*HSIC scale.  The kernel on a multi-column block is the
product of univariate RBF kernels, one bandwidth per column by the median
heuristic.  P-values come from the Gamma moment-matching approximation.

One rule, :func:`_row_blocks`, cuts every (m, n) kernel into row blocks of
``_BLOCK_BYTES``, and every blocked loop keeps the floats of the
whole-array steps.  :func:`squared_differences` adds each further column
to a block in one scratch block, so it needs no second (m, n) array.
:func:`gaussian_kernel` builds each block, exponentiates it and, for HSIC,
adds it to the column sums while it is in cache; an HSIC kernel goes
through its blocks again while it is centered and multiplied, and the
product is divided and squared in a third pass.  Only the sums over a
whole kernel read it outside the blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import gammaincc

from . import seeding
from .errors import BadParam, ConstantInput, OutOfRange, TooFewRows
from .model import MIN_ROWS, CandidateSet, Dataset

SIG_PERMUTATIONS = 99  # permutations per covariate in the significance test
# Bytes of permuted pieces scored per batch in the significance test: three
# 250 x 250 slices at n = 500, one slice at n = 2000.  The thin-plate loss
# holds a scratch stack of the same size; nine slices were no faster and
# raised the peak memory of an n = 500 spline table by a fifth.
_BATCH_BYTES = 1_500_000


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float

    def __post_init__(self):
        if not np.isfinite(self.statistic):
            raise BadParam(f"non-finite test statistic {self.statistic}")
        if not (0.0 <= self.p_value <= 1.0):
            raise BadParam(f"p-value {self.p_value} outside [0, 1]")


def _median_bandwidth(col: np.ndarray) -> float:
    """Median heuristic: the median of the non-zero pairwise distances
    |col[a] - col[b]|, the same float ``np.median`` gives over all of them,
    selected without forming them; every temporary holds O(n) values.

    On the sorted finite column ``s`` the distance of the pair i < j is
    fl(s[j] - s[i]), which rounding keeps non-decreasing in j, so each row
    i of the distance triangle is sorted and :func:`_cut` counts the
    distances up to any t with one ``searchsorted`` (the row-wise selection
    of Johnson & Mizoguchi 1978, "Selecting the Kth element in X + Y", and
    of the Qn estimator in Croux & Rousseeuw 1992).  A distance is zero
    exactly for a tied pair, so row i's non-zero distances start at the
    end of s[i]'s tie group.

    Both middle ranks lie among the candidates, the distances in (t_lo,
    t_hi], at first all of them, and each row keeps the bracket [lo_i, hi_i)
    of its candidates.  A cut bisects the IEEE bit patterns of t_lo and
    t_hi, which sort like the non-negative floats they encode, so at most
    64 cuts leave one value.  At first, and after a cut that removed no
    candidate, t_lo and t_hi close in on the candidates, to the float just
    below the smallest and to the largest; the selection ends when those
    two are equal, since both middle ranks are then that value.  On a tied
    column, where more than 2n candidates equal the median, the clusters of
    distances that differ only by rounding go in a few cuts; elsewhere
    nearly every cut removes candidates and the check seldom runs.  A cut
    whose count falls between the two middle ranks gives the result at
    once.  Once at most 2n candidates remain they are formed and the middle
    ranks partitioned out.
    """
    s = np.sort(col)
    n = s.size
    start = np.searchsorted(s, s, side="right")  # row i's first non-zero distance
    total = n * n - int(start.sum())
    if total == 0:
        raise ConstantInput("all pairwise distances are zero")
    k1, k2 = (total - 1) // 2, total // 2  # the middle ranks np.median averages
    lo, hi = start, np.full(n, n)
    below, upto = 0, total  # distances before lo and before hi, summed over rows
    # before[j] = s[j - 1], so row i's largest candidate is before[hi_i] - s[i].
    # The bracket checks write into diff and live and allocate nothing per cut:
    # fresh temporaries between the (n, n) HSIC kernels have raised the peak
    # memory of threaded runs at n = 2000 by one kernel.
    before, diff, live = np.concatenate((s[:1], s)), np.empty(n), np.empty(n, dtype=bool)
    stalled = True
    while upto - below > 2 * n:
        if stalled:
            np.less(lo, hi, out=live)
            least = np.min(np.subtract(np.take(s, lo, out=diff, mode="clip"), s, out=diff), where=live, initial=np.inf)
            most = np.max(np.subtract(np.take(before, hi, out=diff, mode="clip"), s, out=diff), where=live, initial=0.0)
            if least == most:
                return float(least)
            bits_lo, bits_hi = int(least.view(np.int64)) - 1, int(most.view(np.int64))
        bits = (bits_lo + bits_hi) // 2
        b, count = _cut(s, start, np.int64(bits).view(np.float64))
        if count <= k1:
            stalled = count == below
            lo, below, bits_lo = b, count, bits
        elif count > k2:
            stalled = count == upto
            hi, upto, bits_hi = b, count, bits
        else:  # count == k2 == k1 + 1: t splits the two middle ranks
            has_below, has_above = b > start, b < n
            v1 = np.max(s[b[has_below] - 1] - s[has_below])
            v2 = np.min(s[b[has_above]] - s[has_above])
            return _median_of(v1, v2, False)
    width = hi - lo
    rows = np.repeat(np.arange(n), width)
    d = s[np.repeat(lo - (np.cumsum(width) - width), width) + np.arange(upto - below)]
    d -= s[rows]
    r1, r2 = k1 - below, k2 - below
    d.partition((r1, r2))
    return _median_of(d[r1], d[r2], k1 == k2)


def _median_of(v1, v2, odd: bool) -> float:
    """What ``np.median`` returns when v1 <= v2 are its middle values: v1
    for an odd count, their ``np.mean`` for an even one."""
    return float(v1 if odd else np.mean((v1, v2)))


def _cut(s: np.ndarray, start: np.ndarray, t) -> tuple[np.ndarray, int]:
    """For t >= 0: per row i of the sorted ``s``, the first j with
    fl(s[j] - s[i]) > t, and how many non-zero distances are <= t.

    ``searchsorted`` against fl(s[i] + t) finds the boundary up to
    rounding.  The rows where that guess is wrong (one row in about one
    call in fifteen, on normal data at n = 2000) are bisected, in at most
    log2(n) + 1 steps."""
    n = s.size
    b = np.searchsorted(s, s + t, side="right")
    miss = np.flatnonzero((s[b - 1] - s > t) | ((s[np.minimum(b, n - 1)] - s <= t) & (b < n)))
    if miss.size:
        a, z = miss + 1, np.full(miss.size, n)
        for _ in range(n.bit_length()):
            mid = (a + z) // 2
            over = (a == z) | (s[np.minimum(mid, n - 1)] - s[miss] > t)
            a, z = np.where(over, a, mid + 1), np.where(over, mid, z)
        b[miss] = a
    return b, int((b - start).sum())


# Bytes of one row block of an (m, n) kernel.  Every kernel is built, and
# an (n, n) HSIC kernel then centered, one block at a time, so a block stays
# in cache through every step of a pass: 32 rows at n = 2000, and an (n, n)
# kernel with n <= 256 is a single block.  At n = 2000, on a core with 2 MiB
# of L2, blocks of 8 or 128 rows made an HSIC test 5-10% slower.
_BLOCK_BYTES = 512 * 1024


def _row_blocks(m: int, n: int) -> list[tuple[int, int]]:
    """The [lo, hi) row ranges of the blocks of an (m, n) kernel, in order."""
    step = max(1, _BLOCK_BYTES // (8 * max(n, 1)))
    return [(lo, min(lo + step, m)) for lo in range(0, m, step)]


def squared_differences(a: np.ndarray, b: np.ndarray, denoms=None, out: np.ndarray | None = None) -> np.ndarray:
    """(m, n) sum over the columns j of (a_ij - b_kj)^2 between the rows of
    ``a`` (m, d) and ``b`` (n, d), each column's squares divided by
    ``denoms[j]`` when given.

    The columns are added in order, as scipy's ``cdist(a, b,
    "sqeuclidean")`` adds them.  Each row block of ``out`` (a new array
    when None) takes the first column and then each further one, built in
    one scratch block and added, so no second (m, n) array exists.  A block
    row i is a_ij copied across the row and b_kj subtracted in place: the
    same rounded a_ij - b_kj as ``np.subtract.outer``, in about two thirds
    of its time at n = 2000.  Each column of ``b`` is read contiguously,
    from a Fortran-ordered copy when ``b`` is C-ordered with several
    columns: at n = 2000 subtracting a strided column from a block in cache
    took 1.4 times as long, and a whole column's build a tenth longer.
    """
    m, n = a.shape[0], b.shape[0]
    if out is None:
        out = np.empty((m, n))
    cols = np.asfortranarray(b)
    blocks = _row_blocks(m, n)
    scratch = np.empty((blocks[0][1], n)) if a.shape[1] > 1 and blocks else None
    for lo, hi in blocks:
        for j in range(a.shape[1]):
            d = scratch[: hi - lo] if j else out[lo:hi]
            np.copyto(d, a[lo:hi, j, None])
            d -= cols[:, j]
            np.multiply(d, d, out=d)
            if denoms is not None:
                d /= denoms[j]
            if j:
                out[lo:hi] += d
    return out


def column_pieces(a: np.ndarray, b: np.ndarray, denoms=None) -> np.ndarray:
    """The (d, m, n) stack of the columns that :func:`squared_differences`
    sums, each built as that function builds it."""
    pieces = np.empty((a.shape[1], a.shape[0], b.shape[0]))
    for j in range(a.shape[1]):
        squared_differences(a[:, j : j + 1], b[:, j : j + 1], None if denoms is None else denoms[j : j + 1], pieces[j])
    return pieces


def gaussian_denoms(hs) -> list[float]:
    """-2 h^2 per bandwidth h: the denominators that make squared differences
    the Gaussian log-kernel (dividing by the negated denominator gives the
    same floats as negating first)."""
    return [-(2.0 * h * h) for h in hs]


def gaussian_kernel(a: np.ndarray, b: np.ndarray, hs, sums: np.ndarray | None = None) -> np.ndarray:
    """(m, n) product of per-column Gaussian kernels between the rows of
    ``a`` (m, d) and ``b`` (n, d): exp of the sum over columns j of
    -(a_ij - b_kj)^2 / (2 hs[j]^2).  When ``sums`` (n,) is given, the
    kernel's column sums are written there, with the bits of ``np.sum(k,
    axis=0)``.

    One (m, n) array is allocated and filled one row block at a time: the
    block's log-kernel is built in place by :func:`squared_differences`,
    exponentiated and added to the column sums while it is in cache.
    """
    m, n = a.shape[0], b.shape[0]
    k = np.empty((m, n))
    cols = np.asfortranarray(b)  # contiguous columns, so no block copies them
    denoms = gaussian_denoms(hs)
    held = np.empty(n)
    for lo, hi in _row_blocks(m, n):
        block = k[lo:hi]
        squared_differences(a[lo:hi], cols, denoms, block)
        np.exp(block, out=block)
        if sums is not None:
            _carry_column_sums(k, lo, hi, sums, held)
    return k


def column_bandwidths(x: np.ndarray) -> list[float]:
    """The median-heuristic bandwidth of each column of the (n, d) ``x``."""
    return [_median_bandwidth(x[:, j]) for j in range(x.shape[1])]


def _carry_column_sums(k: np.ndarray, lo: int, hi: int, sums: np.ndarray, held: np.ndarray) -> None:
    """Extend ``sums`` from ``np.sum(k[:lo], axis=0)`` to ``np.sum(k[:hi],
    axis=0)``, bit for bit, for a C-ordered ``k``; ``held`` is (n,) scratch.

    ``np.add.reduce`` over axis 0 of a C-ordered array adds the rows in
    order.  With the running sums put in row lo - 1, the reduction of
    ``k[lo - 1:hi]`` is the rest of the one over ``k[:hi]``; the row is kept
    in ``held`` and put back.  Adding a block's own sums to the running ones
    would group the additions differently, and adding row by row costs a
    call per row.
    """
    if lo == 0:
        np.add.reduce(k[:hi], axis=0, out=sums)
        return
    np.copyto(held, k[lo - 1])
    np.copyto(k[lo - 1], sums)
    np.add.reduce(k[lo - 1 : hi], axis=0, out=sums)
    np.copyto(k[lo - 1], held)


def _off_diagonal_mean(k: np.ndarray) -> float:
    """Mean of the off-diagonal entries, summed with the diagonal zeroed in
    place and then restored, so ``k`` is unchanged."""
    n = k.shape[0]
    diag = np.diag(k).copy()
    np.fill_diagonal(k, 0.0)
    mean = k.sum() / (n * (n - 1))
    np.fill_diagonal(k, diag)
    return mean


def _center(k: np.ndarray, sums: np.ndarray, other: np.ndarray | None = None) -> None:
    """Double centering in place, ``k -= k.mean(axis=0)`` and then ``k -=
    k.mean(axis=1)`` bit for bit, with ``sums`` the column sums of ``k``;
    each row block is then multiplied by ``other``'s when given.

    The column means are ``sums / n``, as ``np.mean`` divides.  A row's
    mean reads that row alone, so each block takes its own after the column
    means are out of it.
    """
    n = k.shape[0]
    means = sums / n
    for lo, hi in _row_blocks(n, n):
        block = k[lo:hi]
        block -= means
        block -= block.mean(axis=1, keepdims=True)
        if other is not None:
            block *= other[lo:hi]


def hsic_test(x, e) -> TestResult:
    """HSIC independence test between a covariate block and a noise vector:
    the one-vector case of :func:`hsic_tests`."""
    return hsic_tests(x, [e])[0]


def hsic_tests(x, es) -> list[TestResult]:
    """HSIC independence tests of one covariate block against each of
    several noise vectors, ``[hsic_test(x, e) for e in es]``, with the
    kernel of ``x`` built once.

    ``x`` is (n,) or (n, d), d >= 1, with finite non-constant columns;
    each ``e`` is a finite (n,) vector.  Every input is checked before a
    kernel is built.  Each statistic is n*HSIC (biased estimator); its
    p-value comes from the Gamma approximation to the null distribution
    (Gretton et al., "A Kernel Statistical Test of Independence", NeurIPS
    2007).

    The tests hold two (n, n) arrays and, besides them, one row block of
    scratch and O(n) vectors: each kernel's bandwidths are selected in O(n)
    memory before the kernel is allocated, the off-diagonal means are taken
    before centering, both kernels are centered in place, and the product of
    the centered kernels overwrites the noise kernel, which is released
    before the next noise vector's kernel is built.  Each kernel is written
    in one pass over its row blocks, its column sums carried along, and
    centered in one more, the noise kernel multiplied there as well; only
    the product's division and square take a third pass, and only the sums
    over a whole kernel read it outside the blocks.  Every float is the one
    the whole-array steps give.
    """
    x, es = _checked_hsic_inputs(x, es)
    return _hsic_kernel_tests(x, es, column_bandwidths(x))


def _hsic_test(x, e, bandwidths: list[float]) -> TestResult:
    """``hsic_test(x, e)`` with ``bandwidths = column_bandwidths(x)`` given:
    ``discover.analyze`` selects each covariate's once per table and tests
    many column subsets of it.  They are not checked against ``x``."""
    x, es = _checked_hsic_inputs(x, [e])
    return _hsic_kernel_tests(x, es, bandwidths)[0]


def _checked_hsic_inputs(x, es) -> tuple[np.ndarray, list[np.ndarray]]:
    """``x`` as an (n, d) float array and each ``e`` as an (n,) one, after
    the checks :func:`hsic_tests` states."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[1] == 0:
        raise BadParam(f"x must be (n,) or (n, d) with d >= 1, got shape {x.shape}")
    n = x.shape[0]
    es = [np.asarray(e, dtype=float) for e in es]
    for e in es:
        if e.shape != (n,):
            raise BadParam(f"e must be an (n,) vector with the {n} rows of x, got shape {e.shape}")
    if n < MIN_ROWS:
        raise TooFewRows(f"hsic_test needs n >= {MIN_ROWS}, got {n}")
    for e in es:
        if not np.all(np.isfinite(e)):
            raise BadParam("noise vector has a non-finite value")
        if np.ptp(e) <= 1e-12 * max(1.0, float(np.max(np.abs(e)))):
            raise ConstantInput("noise vector is constant up to machine precision")
    if not np.all(np.isfinite(x)):
        raise BadParam("x has a non-finite value")
    for j in range(x.shape[1]):
        if np.ptp(x[:, j]) == 0.0:
            raise ConstantInput(f"column {j} of x is constant")
    return x, es


def _hsic_kernel_tests(x: np.ndarray, es: list[np.ndarray], bandwidths) -> list[TestResult]:
    """The tests of checked inputs, with the kernel of ``x`` built from
    ``bandwidths``."""
    sums = np.empty(x.shape[0])
    kc = gaussian_kernel(x, x, bandwidths, sums)
    mu_x = _off_diagonal_mean(kc)
    _center(kc, sums)
    results = []
    for e in es:
        kl = gaussian_kernel(e[:, None], e[:, None], [_median_bandwidth(e)], sums)
        mu_y = _off_diagonal_mean(kl)
        _center(kl, sums, kc)
        stat = float(np.sum(kl) / e.size)
        results.append(TestResult(statistic=stat, p_value=_gamma_p_value(kl, mu_x, mu_y, stat)))
        del kl  # released before the next noise kernel is built
    return results


def _gamma_p_value(kl, mu_x, mu_y, stat) -> float:
    """Moment-matched Gamma approximation to the null distribution of n*HSIC.

    ``kl``, the elementwise product of the two centered kernels, is
    overwritten by (kl / 6)^2, one row block at a time; ``mu_x`` and
    ``mu_y`` are the off-diagonal means of the uncentered kernels.
    """
    n = kl.shape[0]
    for lo, hi in _row_blocks(n, n):
        block = kl[lo:hi]
        block /= 6.0
        np.square(block, out=block)
    var = (kl.sum() - np.trace(kl)) / (n * (n - 1))
    var = var * 72.0 * (n - 4) * (n - 5) / (n * (n - 1) * (n - 2) * (n - 3))

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
    outside = ~((u > 0.0) & (u < 1.0))  # NaN included
    if np.any(outside):
        raise OutOfRange(f"value {u[outside][0]} outside (0, 1)")
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
    return TestResult(statistic=float(a2), p_value=_ad_p_value(float(a2)))


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


def perm_significance(
    data: Dataset,
    s: CandidateSet,
    refit: Callable[[np.ndarray, np.ndarray], object],
    n_perm: int = SIG_PERMUTATIONS,
    seed: int = 0,
) -> np.ndarray:
    """Permutation-importance p-values, one per member of ``s``.

    ``refit(x, y)`` fits the class-appropriate model, and the model's
    ``permutation_pieces(x, y)`` on the held-out rows returns three things:
    a (d, m, P) array of per-column pieces that sum over the d columns to
    what the loss reads (thin-plate squared distances to the P centres,
    Gaussian log-kernels to the P training rows); ``transform(stack)``,
    which maps a stack of such sums elementwise, in place, and returns it
    (r^2 log r^2 for the thin-plate splines, ``exp`` for the kernel-local
    families); and ``score(stack, pos, perms)``, the held-out losses of a
    (B, m, P) transformed stack, slice b with column ``pos`` reordered by
    ``perms[b]``, as B floats.  The loss is ``score(transform(stack), pos,
    perms)``; ``score`` may overwrite ``stack``, and slice b's loss does not
    depend on the other slices.  Every model refitted here supplies all
    three, so permuting column ``pos`` replaces one piece and no model is
    re-evaluated from scratch: with rest = the sum of the other columns'
    pieces, formed once per position, slice b is ``pieces[pos][perms[b]] +
    rest``, transformed.  With one member rest is 0, and since the
    transform is elementwise, slice b is the transformed piece gathered by
    ``perms[b]``, bit for bit: that piece is transformed once per call and
    each batch only gathered and scored.  The baseline is the identity
    permutation of column 0.

    The permutations are drawn one at a time, in the same order for any B,
    and scored in batches of B, gathered by ``np.take`` into one stack
    allocated per call.  B is as many (m, P) slices as fit in
    ``_BATCH_BYTES``, at least one: a batch costs the few dozen numpy calls
    of one permutation, each of which releases the interpreter lock and
    takes it back.  ``mode="clip"`` lets ``take`` write into ``out=``
    directly; the default mode gathers into a buffer of its own and copies.

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
    x, y, half = data.covariates(s), data.y, data.n // 2
    order = seeding.substream(seed, seeding.SIG_SPLIT, *s.members).permutation(data.n)
    train, test = order[:half], order[half:]
    pieces, transform, score = refit(x[train], y[train]).permutation_pieces(x[test], y[test])
    m = test.size
    gather_only = len(s) == 1
    if gather_only:
        pieces = transform(pieces)
    batch = max(1, _BATCH_BYTES // pieces[0].nbytes)
    stack = np.empty((batch,) + pieces.shape[1:])
    perms = np.empty((batch, m), dtype=np.intp)

    def losses(pos: int, rest, k: int) -> np.ndarray:
        """The losses of column ``pos`` permuted by each of ``perms[:k]``."""
        np.take(pieces[pos], perms[:k], axis=0, out=stack[:k], mode="clip")
        if not gather_only:
            stack[:k] += rest
            transform(stack[:k])
        return score(stack[:k], pos, perms[:k])

    p_values = np.empty(len(s))
    for pos, member in enumerate(s.members):
        rest = sum(pieces[j] for j in range(len(s)) if j != pos)  # 0 for one column
        if pos == 0:
            perms[0] = np.arange(m)
            base = losses(0, rest, 1)[0]
        col_rng = seeding.substream(seed, seeding.SIG_PERM, member, *s.members)
        count = 0
        for done in range(0, n_perm, batch):
            k = min(batch, n_perm - done)
            for b in range(k):
                perms[b] = col_rng.permutation(m)
            count += int(np.count_nonzero(losses(pos, rest, k) <= base))
        p_values[pos] = (1 + count) / (n_perm + 1)
    return p_values
