import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaincc

from cause_sieve import seeding, stattests
from cause_sieve.errors import BadParam, ConstantInput, OutOfRange, TooFewRows
from cause_sieve.model import CandidateSet
from cause_sieve.regress import _MeanSmoother
from cause_sieve.stattests import (
    _hsic_test,
    _median_bandwidth,
    ad_uniform_test,
    column_bandwidths,
    gaussian_kernel,
    hsic_test,
    hsic_tests,
    perm_significance,
    squared_differences,
)

from conftest import table


# RNG purpose tag of the permutation reference; with it the reference
# draws the permutations the 0.1 and 0.01 bounds below were set against
HSIC_PERM = 103


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
        assert self._textbook_hsic(x[:, None], x, "permutation", 1000, 0)[1] < 0.01
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
        # the selected median and the in-place exponent give exactly the
        # floats of the textbook (n, n) construction, ties included
        x = np.round(np.random.default_rng(6).standard_normal((60, 2)), 1)
        expo = np.zeros((60, 60))
        for j in range(2):
            d = x[:, j][:, None] - x[:, j][None, :]
            tri = np.abs(d)[np.triu_indices(60, k=1)]
            h = np.median(tri[tri > 0])
            expo += (d * d) / (2.0 * h * h)
        np.testing.assert_array_equal(gaussian_kernel(x, x, column_bandwidths(x)), np.exp(-expo))

    @staticmethod
    def _textbook_hsic(x, e, method="gamma", n_perm=0, seed=0):
        """n*HSIC and its p-value from full (n, n) copies: pairwise kernels,
        centered copies, diagonals removed with np.diag(np.diag(k)).

        ``method="gamma"`` gives the Gamma approximation ``hsic_test``
        computes.  ``method="permutation"`` gives the permutation null,
        (1 + #{b : n*HSIC_b >= n*HSIC}) / (n_perm + 1) over ``n_perm``
        permutations of the noise kernel: the reference the Gamma
        approximation is held to."""
        n = e.size

        def kernel(cols):
            expo = np.zeros((n, n))
            for col in cols.T:
                d = col[:, None] - col[None, :]
                tri = np.abs(d)[np.triu_indices(n, k=1)]
                h = np.median(tri[tri > 0])
                expo += (d * d) / (2.0 * h * h)
            return np.exp(-expo)

        def centered(k):
            k = k - k.mean(axis=0, keepdims=True)
            return k - k.mean(axis=1, keepdims=True)

        k, bigl = kernel(x), kernel(e[:, None])
        kc, lc = centered(k), centered(bigl)
        stat = float(np.sum(kc * lc) / n)
        if method == "permutation":
            rng = seeding.substream(seed, HSIC_PERM)
            count = sum(
                float(np.sum(kc * bigl[np.ix_(perm, perm)]) / n) >= stat
                for perm in (rng.permutation(n) for _ in range(n_perm))
            )
            return stat, (1 + count) / (n_perm + 1)
        b = (kc * lc / 6.0) ** 2
        var = (b.sum() - np.trace(b)) / (n * (n - 1))
        var = var * 72.0 * (n - 4) * (n - 5) / (n * (n - 1) * (n - 2) * (n - 3))
        mu_x = (k - np.diag(np.diag(k))).sum() / (n * (n - 1))
        mu_y = (bigl - np.diag(np.diag(bigl))).sum() / (n * (n - 1))
        mean = (1.0 + mu_x * mu_y - mu_x - mu_y) / n
        if var <= 0 or mean <= 0:
            return stat, 1.0
        return stat, float(gammaincc(mean * mean / var, max(stat, 0.0) / (n * var / mean)))

    @pytest.mark.parametrize("n", [20, 200, 777, 2000])
    def test_matches_textbook_construction(self, n):
        # bit for bit, ties included, for blocks of one to four columns; the
        # kernels are one row block at n = 20 and 200, and several with a
        # shorter last one at n = 777 and 2000
        blocks = stattests._row_blocks(n, n)
        assert len({hi - lo for lo, hi in blocks}) == (1 if n <= 200 else 2), blocks
        rng = seeding.substream(n, 921)
        for d in (1, 3, 2, 4):
            x = np.round(rng.standard_normal((n, d)), 1)
            e = np.round(x[:, 0] ** 2 + rng.standard_normal(n), 1)
            res = hsic_test(x, e)
            assert (res.statistic, res.p_value) == self._textbook_hsic(x, e), d

    def test_gamma_matches_permutation_reference(self):
        # the permutation null is the reference the Gamma approximation is
        # held to, across independent and weakly dependent pairs
        for seed in range(20):
            rng = seeding.substream(seed, 920)
            x = rng.standard_normal((150, 2))
            e = rng.standard_normal(150) + 0.1 * (seed % 4) * x[:, 0] * x[:, 1]
            p_gamma = hsic_test(x, e).p_value
            p_perm = self._textbook_hsic(x, e, "permutation", 999, seed)[1]
            assert abs(p_gamma - p_perm) <= 0.1, (seed, p_gamma, p_perm)

    def test_needs_twenty_rows(self):
        with pytest.raises(TooFewRows):
            hsic_test(np.arange(10.0), np.arange(10.0))

    def test_several_noise_vectors_match_one_at_a_time(self):
        rng = seeding.substream(3, 923)
        x = rng.standard_normal((300, 2))
        es = [x[:, 0] ** 2 + rng.standard_normal(300), rng.standard_normal(300), np.round(x[:, 1], 1)]
        assert hsic_tests(x, es) == [hsic_test(x, e) for e in es]
        assert hsic_tests(x, []) == []

    def test_several_noise_vectors_match_one_at_a_time_in_blocks(self):
        # at n = 2000 the covariate kernel, centered once in row blocks, is
        # read by three products
        rng = seeding.substream(4, 923)
        x = np.round(rng.standard_normal((2000, 3)), 2)
        es = [x[:, 0] * x[:, 1] + rng.standard_normal(2000), rng.standard_normal(2000), np.round(x[:, 2], 1)]
        assert hsic_tests(x, es) == [hsic_test(x, e) for e in es]

    def test_every_noise_vector_checked_first(self):
        x = np.random.default_rng(9).standard_normal(50)
        with pytest.raises(ConstantInput):
            hsic_tests(x, [x, np.full(50, 0.3)])
        with pytest.raises(BadParam):
            hsic_tests(x, [x, x[:40]])

    @pytest.mark.parametrize("where", ["x", "e"])
    def test_non_finite_input_rejected(self, where):
        x, e = np.random.default_rng(10).standard_normal((2, 50))
        (x if where == "x" else e)[7] = np.nan
        with pytest.raises(BadParam):
            hsic_test(x, e)

    @pytest.mark.parametrize("shape", [(50, 0), (50, 2, 2)])
    def test_x_without_columns_or_too_deep_rejected(self, shape):
        # no kernel is built from an x of no columns or of three dimensions
        x = np.random.default_rng(11).standard_normal(shape)
        e = np.random.default_rng(12).standard_normal(50)
        with np.errstate(all="raise"):
            with pytest.raises(BadParam, match="shape"):
                hsic_test(x, e)
            with pytest.raises(BadParam, match="shape"):
                hsic_tests(x, [e, e])
            with pytest.raises(BadParam, match="shape"):
                _hsic_test(x, e, [])

    @pytest.mark.parametrize("shape", [(50, 2), (100, 1), (1, 100)])
    def test_noise_not_a_vector_rejected(self, shape):
        # e holds x's 100 values but not as an (n,) vector: it is not raveled
        x = np.random.default_rng(13).standard_normal(100)
        e = np.random.default_rng(14).standard_normal(shape)
        with pytest.raises(BadParam, match=rf"got shape \({shape[0]}, {shape[1]}\)"):
            hsic_test(x, e)
        with pytest.raises(BadParam, match="shape"):
            hsic_tests(x, [x, e])
        with pytest.raises(BadParam, match="shape"):
            _hsic_test(x, e, [1.0])

    def test_holds_two_kernel_arrays(self):
        # the two (n, n) kernels and O(n) besides: no distance list, and
        # further columns join the x kernel in row blocks
        n = 1000
        rng = seeding.substream(4, 924)
        x = rng.standard_normal((n, 2))
        e = x[:, 0] + rng.standard_normal(n)
        tracemalloc.start()
        try:
            hsic_test(x, e)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.1 * n * n * 8

    @pytest.mark.parametrize("d, count", [(4, 1), (2, 3)])
    def test_holds_two_kernel_arrays_with_more_columns_or_noise(self, d, count):
        # the row-block scratch of a four-column kernel, and three noise
        # kernels released in turn, fit in the same margin
        n = 1000
        rng = seeding.substream(d, 924)
        x = rng.standard_normal((n, d))
        es = [x[:, i % d] + rng.standard_normal(n) for i in range(count)]
        tracemalloc.start()
        try:
            hsic_tests(x, es)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.1 * n * n * 8


class TestCarriedColumnSums:
    @pytest.mark.parametrize("n", [37, 500])
    @pytest.mark.parametrize("rows", [7, 32])
    def test_bytes_of_column_sums(self, n, rows):
        # running sums carried block by block, ragged last block included,
        # are np.sum(k, axis=0) byte for byte, and k is left as it was
        rng = seeding.substream(n, 928)
        k = np.exp(-rng.exponential(3.0, (n, n)))
        before = k.copy()
        sums, held = np.empty(n), np.empty(n)
        for lo in range(0, n, rows):
            stattests._carry_column_sums(k, lo, min(lo + rows, n), sums, held)
            assert sums.tobytes() == np.sum(k[: lo + rows], axis=0).tobytes(), lo
        assert sums.tobytes() == np.sum(k, axis=0).tobytes()
        assert k.tobytes() == before.tobytes()


def _textbook_median(col):
    """np.median of the non-zero pairwise distances, from the (n, n) matrix."""
    d = col[:, None] - col[None, :]
    tri = np.abs(d)[np.triu_indices(col.size, k=1)]
    return float(np.median(tri[tri > 0]))


def _median_corpus(n, rng):
    """Columns of size n with and without ties, heavy tails and rounding
    trouble."""
    two_apart = np.zeros(n)
    two_apart[:2] = (1.0, 2.0)
    return {
        "normal": rng.standard_normal(n),
        "rounded": np.round(rng.standard_normal(n), 1),
        "two levels": rng.integers(0, 2, n).astype(float),
        "three levels": rng.integers(0, 3, n).astype(float),
        "all but two tied": two_apart,
        "pareto": (1.0 - rng.random(n)) ** -0.5,
        "lognormal": rng.lognormal(0.0, 5.0, n),
        "offset": 1e8 + 1e-8 * rng.integers(0, 50, n),
        "mixed scales": np.concatenate([1e-17 * rng.standard_normal(n // 2), -1.0 - rng.random(n - n // 2)]),
    }


class TestMedianBandwidth:
    @pytest.mark.parametrize("n", [20, 21, 57, 200, 501, 2000])
    def test_matches_textbook_median(self, n):
        # the same float as np.median over the non-zero distances, for odd
        # and even counts of them
        parities = set()
        for name, col in _median_corpus(n, seeding.substream(n, 925)).items():
            tri = np.abs(col[:, None] - col[None, :])[np.triu_indices(n, k=1)]
            parities.add(np.count_nonzero(tri) % 2)
            assert _median_bandwidth(col) == _textbook_median(col), name
        assert parities == {0, 1}

    @settings(max_examples=200)
    @given(st.lists(st.sampled_from([-2.0, -0.5, 0.0, 1e-17, 0.25, 1.0, 1.0 + 2**-52, 3.0]), min_size=20, max_size=80))
    def test_matches_textbook_median_with_ties(self, values):
        col = np.array(values)
        if np.ptp(col) == 0.0:
            with pytest.raises(ConstantInput):
                _median_bandwidth(col)
        else:
            assert _median_bandwidth(col) == _textbook_median(col)

    def test_constant_column_rejected(self):
        with pytest.raises(ConstantInput):
            _median_bandwidth(np.full(40, 2.5))

    def test_at_most_64_cuts(self, monkeypatch):
        # each cut halves the bit-pattern interval of t, so the selection
        # ends within 64 cuts, ties or not; the bracket closes in on the
        # candidates, so tied columns, whose middle distances differ only by
        # rounding, end within a few
        cut, calls = stattests._cut, []

        def counting(*args):
            calls.append(args)
            return cut(*args)

        monkeypatch.setattr(stattests, "_cut", counting)
        counts = {}
        for name, col in _median_corpus(2000, seeding.substream(2000, 925)).items():
            calls.clear()
            _median_bandwidth(col)
            counts[name] = len(calls)
        assert max(counts.values()) <= 64, counts
        assert max(counts[name] for name in ("rounded", "three levels", "offset")) <= 16, counts

    def test_memory_is_linear_in_n(self):
        # the n(n-1)/2 distances are never formed
        n = 2000
        col = seeding.substream(5, 926).standard_normal(n)
        tracemalloc.start()
        try:
            _median_bandwidth(col)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * n * 8


class TestBandwidths:
    def test_given_bandwidths_give_the_same_test(self):
        rng = seeding.substream(0, 924)
        x = rng.standard_normal((150, 3))
        e = x[:, 0] ** 2 + rng.standard_normal(150)
        assert _hsic_test(x, e, column_bandwidths(x)) == hsic_test(x, e)
        assert column_bandwidths(x) == [_median_bandwidth(x[:, j]) for j in range(3)]


class TestSquaredDifferences:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_bits_of_subtract_outer(self, d):
        # the reference: whole (m, n) columns from np.subtract.outer, squared,
        # divided and added in column order; m around the 32-row block
        rng = seeding.substream(d, 923)
        b = rng.standard_normal((2000, d)) * rng.uniform(0.1, 10.0, d)
        assert stattests._row_blocks(300, 2000)[0] == (0, 32)
        denoms = -2.0 * (0.3 + rng.random(d)) ** 2
        for m in (1, 31, 32, 33, 300):
            a = rng.standard_normal((m, d)) * rng.uniform(0.1, 10.0, d)
            for divide in (None, denoms):
                for j in range(d):
                    diff = np.subtract.outer(a[:, j], b[:, j])
                    diff *= diff
                    if divide is not None:
                        diff /= divide[j]
                    expected = diff if j == 0 else expected + diff
                got = squared_differences(a, b, divide)
                assert got.tobytes() == expected.tobytes(), (m, divide is None)
                out = np.full((m, 2000), np.nan)
                assert squared_differences(a, b, divide, out) is out
                assert out.tobytes() == expected.tobytes(), (m, divide is None)


class TestGaussianKernel:
    @pytest.mark.parametrize("d", [1, 3])
    def test_matches_per_column_loop(self, d):
        # bit for bit against np.exp of whole (m, n) columns summed in
        # order, with a != b and m = 300 in ten row blocks, the last short
        rng = seeding.substream(d, 922)
        a, b = rng.standard_normal((300, d)), rng.standard_normal((2000, d))
        hs = 0.3 + rng.random(d)
        blocks = stattests._row_blocks(300, 2000)
        assert len(blocks) == 10 and blocks[-1] == (288, 300), blocks
        expected = np.zeros((300, 2000))
        for j in range(d):
            diff = b[:, j][None, :] - a[:, j][:, None]
            expected += -(diff * diff) / (2.0 * hs[j] * hs[j])
        assert gaussian_kernel(a, b, hs).tobytes() == np.exp(expected).tobytes()


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
        with pytest.raises(OutOfRange, match=r"value nan outside \(0, 1\)"):
            ad_uniform_test([0.5, np.nan])

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

    def test_memory_is_pieces_rest_and_two_batches(self):
        # the (m, P) arrays alive at once: d pieces, rest, the batch stack
        # and the loss's scratch stack, plus the next position's rest while
        # it is summed; none of them grows with n_perm
        n, d = 500, 3
        rng = seeding.substream(d, 801)
        x = rng.standard_normal((n, d))
        y = np.sin(x[:, 0]) + 0.3 * rng.standard_normal(n)
        data = table(y, *x.T)
        slice_bytes = (n - n // 2) * (n // 2) * 8
        batch = max(1, stattests._BATCH_BYTES // slice_bytes)
        peaks = {}
        for n_perm in (50, 200):
            tracemalloc.start()
            try:
                perm_significance(data, CandidateSet((1, 2, 3)), _MeanSmoother, n_perm=n_perm, seed=0)
                peaks[n_perm] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[50] < (d + 1 + 2 * batch + 2) * slice_bytes, peaks
        assert peaks[200] <= peaks[50] + 64 * 1024, peaks

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
