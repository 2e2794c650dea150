import json

import numpy as np
import pytest

from cause_sieve import seeding
from cause_sieve.discover import bench_replicates
from cause_sieve.errors import BadParam
from cause_sieve.model import FunctionClass
from cause_sieve.synth import gen_benchmark1
from cause_sieve.verify import (
    _local_minima,
    affine_equality_distance,
    check_cool_lemma,
    check_gamma_support_exception,
    check_marginalizability,
    check_norm_exception,
)


@pytest.fixture(scope="module")
def exp_sample():
    rng = seeding.substream(3, seeding.REPLICATE, 1)
    return np.sort(rng.exponential(1.0, 20000))


class TestEqualityDistance:
    def test_identity_is_zero(self, exp_sample):
        assert affine_equality_distance(exp_sample, 0.0, 1.0) < 0.02

    def test_reflection_candidate_is_zero(self, exp_sample):
        med = float(np.median(exp_sample))
        assert affine_equality_distance(exp_sample, 2 * med, -1.0) < 1e-9

    def test_scale_mismatch_large(self, exp_sample):
        for a in (-2.0, 0.0, 2.0):
            assert affine_equality_distance(exp_sample, a, 0.5) > 0.1

    def test_shift_detected(self, exp_sample):
        assert affine_equality_distance(exp_sample, 0.5, 1.0) > 0.1

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (6, 1), (2, 2), (9, 13)])
    def test_local_minima_match_loop_reference(self, shape):
        # small integer levels force ties, where <= and < differ
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        for _ in range(20):
            surface = rng.integers(0, 3, shape).astype(float)
            expected = np.zeros(shape, dtype=bool)
            for i in range(shape[0]):
                for j in range(shape[1]):
                    nbs = [surface[i + di, j + dj] for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1))
                           if 0 <= i + di < shape[0] and 0 <= j + dj < shape[1]]
                    expected[i, j] = all(surface[i, j] <= v for v in nbs) and any(surface[i, j] < v for v in nbs)
            np.testing.assert_array_equal(_local_minima(surface), expected)


class TestCoolLemma:
    def test_part_two_small_run(self):
        r = check_cool_lemma(2, n=800, n_reps=10, seed=1)
        assert r.payload["rejection_rate"] >= 0.9
        assert r.payload["control_rejection_rate"] <= 0.2

    def test_part_bounds(self):
        with pytest.raises(BadParam):
            check_cool_lemma(5, n=500, n_reps=2, seed=0)


class TestGammaException:
    def test_small_run(self):
        r = check_gamma_support_exception(n=800, n_reps=10, seed=1)
        assert r.payload["rejection_rate"] <= 0.2
        assert r.payload["control_rejection_rate"] >= 0.8


class TestNormException:
    def test_low_power_flag(self):
        r = check_norm_exception(n=150, n_reps=2, seed=0)
        assert r.payload["low_power"] is True
        assert r.passed is False

    def test_full_gates(self):
        r = check_norm_exception(n=500, n_reps=20, seed=2)
        assert r.passed
        assert r.payload["exception_empty_rate"] >= 0.7
        assert r.payload["control_found_rate"] >= 0.7
        assert r.payload["exception_both_plausible_rate"] >= 0.7


class TestMarginalizability:
    def test_gaussian_small_run(self):
        r = check_marginalizability("gaussian", n=800, n_reps=10, seed=4)
        assert r.payload["empty_rate"] >= 0.8

    def test_report_replay_and_save(self, tmp_path):
        a = check_marginalizability("gaussian", n=500, n_reps=5, seed=9)
        b = check_marginalizability("gaussian", n=500, n_reps=5, seed=9)
        assert a == b
        path = tmp_path / "report.json"
        a.save(path)
        doc = json.loads(path.read_text())
        assert list(doc.keys()) == ["check_id", "seed", "n_reps", "n_samples", "pass", "payload"]
        assert doc["check_id"] == "marginalizability:gaussian"


@pytest.mark.parametrize(
    "run",
    [
        lambda: bench_replicates(gen_benchmark1, FunctionClass("additive"), 0, n=100, seed=0),
        lambda: check_cool_lemma(1, n=100, n_reps=0),
        lambda: check_gamma_support_exception(n=100, n_reps=0),
        lambda: check_norm_exception(n=100, n_reps=0),
        lambda: check_marginalizability("gaussian", n=100, n_reps=0),
    ],
    ids=["bench_replicates", "cool_lemma", "gamma_exception", "norm_exception", "marginalizability"],
)
def test_zero_replicates_rejected(run):
    with pytest.raises(BadParam, match="at least 1"):
        run()
