"""Statistical tests: HSIC independence, uniformity, permutation significance,
and the kernel layer under them and under the fits in ``regress``: one
builder of per-column pairwise squared differences, which with the
denominators -2 h^2 is the Gaussian log-kernel, and which maps each row
block it builds in place.

The HSIC statistic is the biased V-statistic with Gaussian RBF kernels,
reported on the n*HSIC scale.  The kernel on a multi-column block is the
product of univariate RBF kernels, one bandwidth per column by the median
heuristic.  P-values come from the Gamma moment-matching approximation.

One rule, :func:`_row_blocks`, cuts every (m, n) kernel into row blocks of
``_BLOCK_BYTES``, and one loop, :func:`squared_differences`, builds every
kernel's row blocks.  It adds each further column to a block in one
scratch block, allocated once per kernel, so it needs no second (m, n)
array, and then applies the kernel's elementwise map to the block while it
is in cache: ``exp`` for :func:`gaussian_kernel`, the thin-plate map for
the splines in ``regress``.  An HSIC test holds one (n, n) array, the
centered covariate kernel, and two row blocks: each noise kernel streams
through one reused block twice, once for its row sums and once more to be
centered, multiplied by the covariate kernel's rows and summed.  Both
kernels are symmetric with a diagonal of ones, so their row sums give the
centering and the off-diagonal means.  The sums are added block by block,
so the floats are not those of the whole-array steps: statistics agree
with them to about 1e-15 relative, and p-values to about 1e-14 relative
in ln p.
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
# Permutations drawn and scored per call of a model's losses, so the memory
# of the drawn permutations and of what a call gathers from them does not
# grow with n_perm.  At n = 500 the kernel-local tests took the same time
# within 10% with 10, 25, 50 or 99 per call.
_PERMS_PER_CALL = 50
# Bytes of permuted pieces scored per batch by piece_losses: three 250 x 250
# slices at n = 500, one slice at n = 2000.  The thin-plate loss holds a
# scratch stack of the same size; nine slices were no faster and raised the
# peak memory of an n = 500 spline table by a fifth.
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
# HSIC's centered and multiplied, one block at a time, so a block stays in
# cache through every step of a pass: 32 rows at n = 2000, and an (n, n)
# kernel with n <= 256 is a single block.  At n = 2000, on a core with 2 MiB
# of L2, blocks of 8 or 128 rows made an HSIC test 5-10% slower.
_BLOCK_BYTES = 512 * 1024


def _row_blocks(m: int, n: int) -> list[tuple[int, int]]:
    """The [lo, hi) row ranges of the blocks of an (m, n) kernel, in order."""
    step = max(1, _BLOCK_BYTES // (8 * max(n, 1)))
    return [(lo, min(lo + step, m)) for lo in range(0, m, step)]


def squared_differences(
    a: np.ndarray, b: np.ndarray, denoms=None, out: np.ndarray | None = None, finish: Callable | None = None
) -> np.ndarray:
    """(m, n) sum over the columns j of (a_ij - b_kj)^2 between the rows of
    ``a`` (m, d) and ``b`` (n, d), each column's squares divided by
    ``denoms[j]`` when given, and mapped by ``finish`` when given.

    This is the one loop that builds the rows of a kernel.  The columns are
    added in order, as scipy's ``cdist(a, b, "sqeuclidean")`` adds them.
    Each row block of ``out`` (a new array when None) takes the first column
    and then each further one, built in one scratch block, allocated once
    per call, and added, so no second (m, n) array exists.  Once its columns
    are summed, the block is passed to ``finish``, an elementwise map that
    overwrites it (:func:`exp_in_place` for a Gaussian kernel, the thin-plate
    map for the spline), while it is still in cache; the map sees the same
    floats in the same order as on the whole array, so it gives the same
    bits.  A block row i is a_ij copied across the row and b_kj subtracted
    in place: the same rounded a_ij - b_kj as ``np.subtract.outer``, in
    about two thirds of its time at n = 2000.  Each column of ``b`` is read
    contiguously, from a Fortran-ordered copy when ``b`` is C-ordered with
    several columns: at n = 2000 subtracting a strided column from a block
    in cache took 1.4 times as long, and a whole column's build a tenth
    longer.
    """
    m, n = a.shape[0], b.shape[0]
    if out is None:
        out = np.empty((m, n))
    cols = np.asfortranarray(b)
    scratch = _scratch_block(m, n) if a.shape[1] > 1 else None
    for lo, hi in _row_blocks(m, n):
        block = out[lo:hi]
        for j in range(a.shape[1]):
            d = scratch[: hi - lo] if j else block
            np.copyto(d, a[lo:hi, j, None])
            d -= cols[:, j]
            np.multiply(d, d, out=d)
            if denoms is not None:
                d /= denoms[j]
            if j:
                block += d
        if finish is not None:
            finish(block)
    return out


def _scratch_block(m: int, n: int) -> np.ndarray:
    """Uninitialized room for any row block of an (m, n) kernel."""
    return np.empty((_row_blocks(m, n)[0][1] if m else 0, n))


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


def exp_in_place(logk: np.ndarray) -> np.ndarray:
    """``exp`` of a log-kernel, written over it: the map that makes the
    Gaussian log-kernel the kernel."""
    return np.exp(logk, out=logk)


def gaussian_kernel(a: np.ndarray, b: np.ndarray, hs, out: np.ndarray | None = None) -> np.ndarray:
    """(m, n) product of per-column Gaussian kernels between the rows of
    ``a`` (m, d) and ``b`` (n, d): exp of the sum over columns j of
    -(a_ij - b_kj)^2 / (2 hs[j]^2), written into ``out`` (a new array when
    None).  A row that equals a row of ``b`` gives exactly 1 there, since
    its log-kernel is a sum of -0.0.

    It is :func:`squared_differences` with the denominators
    :func:`gaussian_denoms` and the map :func:`exp_in_place`, so each row
    block is exponentiated while it is in cache.
    """
    return squared_differences(a, b, gaussian_denoms(hs), out, exp_in_place)


def column_bandwidths(x: np.ndarray) -> list[float]:
    """The median-heuristic bandwidth of each column of the (n, d) ``x``."""
    return [_median_bandwidth(x[:, j]) for j in range(x.shape[1])]


def hsic_test(x, e) -> TestResult:
    """HSIC independence test between a covariate block and a noise vector:
    the one-vector case of :func:`hsic_tests`."""
    return hsic_tests(x, [e])[0]


def hsic_tests(x, es) -> list[TestResult]:
    """HSIC independence tests of one covariate block against each of
    several noise vectors, ``[hsic_test(x, e) for e in es]``, with the
    kernel of ``x`` built once.

    ``x`` is (n,) or (n, d), d >= 1, with finite non-constant columns;
    each ``e`` is a finite (n,) vector.  Every input and every bandwidth is
    checked before a kernel is built.  Each statistic is n*HSIC (biased
    estimator); its p-value comes from the Gamma approximation to the null
    distribution (Gretton et al., "A Kernel Statistical Test of
    Independence", NeurIPS 2007).

    The tests hold one (n, n) array, two row blocks and O(n) vectors.  The
    kernel of ``x`` is built and centered in place from its row sums; each
    noise kernel is built twice in one reused row block, first for its row
    sums and then to be centered, multiplied by the centered covariate rows
    and summed, squared and summed again.  The sums run block by block, so
    the floats differ from those of the whole-array steps in the last bits.
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


def _check_denoms(named_bandwidths) -> None:
    """``OutOfRange`` naming the first (name, h) pair whose -2 h^2 is not a
    finite non-zero float: h^2 underflows or overflows at a column scale
    near 1e-162 or 1e154, and its kernel would divide 0 by -0.0 or inf by
    -inf."""
    for name, h in named_bandwidths:
        denom = gaussian_denoms([h])[0]
        if not (np.isfinite(denom) and denom != 0.0):
            raise OutOfRange(f"{name} has bandwidth {h:g}, whose kernel denominator -2h^2 = {denom} is unusable")


def _hsic_kernel_tests(x: np.ndarray, es: list[np.ndarray], bandwidths) -> list[TestResult]:
    """The tests of checked inputs, with the kernel of ``x`` built from
    ``bandwidths``."""
    n = x.shape[0]
    noise_bandwidths = [_median_bandwidth(e) for e in es]
    named = [(f"column {j} of x", h) for j, h in enumerate(bandwidths)]
    _check_denoms(named + [(f"noise vector {i}", h) for i, h in enumerate(noise_bandwidths)])
    blocks = _row_blocks(n, n)
    kc = gaussian_kernel(x, x, bandwidths)
    means, shifted, mu_x = _row_sum_means(np.sum(kc, axis=1))
    for lo, hi in blocks:
        _center(kc[lo:hi], means, shifted[lo:hi])
    block, rows = _scratch_block(n, n), np.empty(n)
    results = []
    for e, h in zip(es, noise_bandwidths):
        col = e[:, None]
        for lo, hi in blocks:
            np.sum(gaussian_kernel(col[lo:hi], col, [h], block[: hi - lo]), axis=1, out=rows[lo:hi])
        means, shifted, mu_y = _row_sum_means(rows)
        total = squares = diagonal = 0.0
        for lo, hi in blocks:
            p = gaussian_kernel(col[lo:hi], col, [h], block[: hi - lo])
            _center(p, means, shifted[lo:hi])
            p *= kc[lo:hi]
            total += np.sum(p)
            np.square(p, out=p)
            squares += np.sum(p)
            diagonal += np.sum(np.diagonal(p, lo))
        stat = float(total / n)
        results.append(TestResult(statistic=stat, p_value=_gamma_p_value(n, mu_x, mu_y, stat, squares - diagonal)))
    return results


def _row_sum_means(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """For a symmetric (n, n) kernel with row sums ``rows`` and a diagonal of
    ones: its column means, its row means less the grand mean, and the mean
    of its off-diagonal entries, (sum - n) / (n (n - 1)).  The median
    heuristic puts half of a column's pairs within one bandwidth, at a
    kernel value of at least e^-1/2, so the sum far exceeds n."""
    n = rows.size
    total = float(np.sum(rows))
    means = rows / n
    return means, means - total / (n * n), (total - n) / (n * (n - 1))


def _center(block: np.ndarray, means: np.ndarray, shifted: np.ndarray) -> None:
    """Double centering in place of a row block of a kernel, entry (i, j)
    less column mean j and less row i's ``shifted``, its row mean less the
    grand mean."""
    block -= means
    block -= shifted[:, None]


def _gamma_p_value(n: int, mu_x: float, mu_y: float, stat: float, off_squares: float) -> float:
    """Moment-matched Gamma approximation to the null distribution of n*HSIC.

    ``mu_x`` and ``mu_y`` are the off-diagonal means of the uncentered
    kernels and ``off_squares`` the sum of the squared off-diagonal entries
    of the elementwise product of the centered kernels.
    """
    var = off_squares / 36.0 / (n * (n - 1))
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


def piece_losses(pieces: np.ndarray, transform: Callable, score: Callable) -> Callable:
    """The ``losses(pos, perms)`` of :func:`perm_significance` for a model
    whose held-out loss is a ``score`` of ``transform``ed sums of per-column
    pieces: the thin-plate splines of ``regress``.

    ``pieces`` is the (d, m, P) array of per-column pieces that sum over the
    d columns to what the loss reads (thin-plate squared distances to the P
    centres); ``transform(stack)`` maps a stack of such sums elementwise, in
    place, and returns it (r^2 log r^2); and ``score(stack, pos, perms)``
    gives the held-out losses of a (B, m, P) transformed stack, slice b with
    column ``pos`` reordered by ``perms[b]``, as B floats, and may overwrite
    ``stack``.  Permuting column ``pos`` replaces one piece, so no model is
    re-evaluated from scratch: with rest = the sum of the other columns'
    pieces, formed once per position, slice b is ``pieces[pos][perms[b]] +
    rest``, transformed.  With one member rest is 0, and since the transform
    is elementwise, slice b is the transformed piece gathered by
    ``perms[b]``, bit for bit: that piece is transformed once and each batch
    only gathered and scored.

    The permutations are scored in batches of B, gathered by ``np.take``
    into one stack allocated here.  B is as many (m, P) slices as fit in
    ``_BATCH_BYTES``, at least one: a batch costs the few dozen numpy calls
    of one permutation, each of which releases the interpreter lock and
    takes it back.  ``mode="clip"`` lets ``take`` write into ``out=``
    directly; the default mode gathers into a buffer of its own and copies.
    Slice b's loss does not depend on the other slices, so the losses do not
    depend on how the permutations are batched.
    """
    gather_only = pieces.shape[0] == 1
    if gather_only:
        pieces = transform(pieces)
    batch = max(1, _BATCH_BYTES // pieces[0].nbytes)
    stack = np.empty((batch,) + pieces.shape[1:])
    rest, built = 0, None

    def losses(pos: int, perms: np.ndarray) -> np.ndarray:
        nonlocal rest, built
        if pos != built:
            rest, built = sum(pieces[j] for j in range(pieces.shape[0]) if j != pos), pos  # 0 for one column
        out = np.empty(len(perms))
        for lo in range(0, len(perms), batch):
            hi = min(lo + batch, len(perms))
            batch_stack = stack[: hi - lo]
            np.take(pieces[pos], perms[lo:hi], axis=0, out=batch_stack, mode="clip")
            if not gather_only:
                batch_stack += rest
                transform(batch_stack)
            out[lo:hi] = score(batch_stack, pos, perms[lo:hi])
        return out

    return losses


def perm_significance(
    data: Dataset,
    s: CandidateSet,
    refit: Callable[[np.ndarray, np.ndarray], object],
    n_perm: int = SIG_PERMUTATIONS,
    seed: int = 0,
) -> np.ndarray:
    """Permutation-importance p-values, one per member of ``s``.

    ``refit(x, y)`` fits the class-appropriate model on the training rows,
    and the model's ``permutation_losses(x, y)`` on the held-out rows returns
    one callable, ``losses(pos, perms)``: for a (B, m) array of permutations
    of the m held-out rows, the B held-out losses with column ``pos``
    reordered by ``perms[b]``, as floats.  Loss b depends on ``perms[b]``
    alone, not on the other rows of ``perms``, and a model may build what
    one position needs the first time it is asked for it: the positions are
    asked for in order, each once its permutations start.  The splines score
    stacks of summed column pieces (:func:`piece_losses`); the kernel-local
    families gather their weighted sums from one Gram matrix per sum
    (``regress._KernelLocalModel.permutation_losses``).  The baseline is the
    identity permutation of column 0.

    The permutations are drawn one at a time from each member's own
    substream, in the same order for any batching, and passed to ``losses``
    ``_PERMS_PER_CALL`` at a time, so no array here grows with ``n_perm``.

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
    losses = refit(x[train], y[train]).permutation_losses(x[test], y[test])
    m = test.size
    base = losses(0, np.arange(m)[None])[0]
    perms = np.empty((min(n_perm, _PERMS_PER_CALL), m), dtype=np.intp)
    p_values = np.empty(len(s))
    for pos, member in enumerate(s.members):
        col_rng = seeding.substream(seed, seeding.SIG_PERM, member, *s.members)
        count = 0
        for done in range(0, n_perm, len(perms)):
            k = min(len(perms), n_perm - done)
            for b in range(k):
                perms[b] = col_rng.permutation(m)
            count += int(np.count_nonzero(losses(pos, perms[:k]) <= base))
        p_values[pos] = (1 + count) / (n_perm + 1)
    return p_values
