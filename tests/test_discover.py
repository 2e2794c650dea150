import hashlib
import json
import math
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cause_sieve import discover, seeding, stattests
from cause_sieve.discover import (
    DiscoveryResult,
    LOG_P_FLOOR,
    PlausibilityVerdict,
    analyze,
    check_plausibility,
    empty_parent_test,
    isd,
    metrics,
    result_to_json,
    score_search,
    select_score_estimate,
)
from cause_sieve.errors import BadParam, CauseSieveError, DomainViolation, TooManyCovariates, ValidationError
from cause_sieve.model import CLASS_CODES, CandidateSet, DiscoveryConfig, FunctionClass, enumerate_candidates
from cause_sieve.synth import gen_benchmark1, gen_benchmark2, gen_benchmark3, gen_linear_chain

from conftest import table, use_threads


def _chain_data(seed, n=500, noise="gaussian"):
    return gen_linear_chain(seed, n, noise).data


class TestCheckPlausibility:
    def test_verdict_is_conjunction(self):
        data = _chain_data(3)
        cfg = DiscoveryConfig(seed=1)
        for members in [(1,), (2,), (1, 2)]:
            v = check_plausibility(data, CandidateSet(members), FunctionClass("linear"), cfg)
            assert v.plausible == (v.independent and v.significant and v.uniform)
            assert v.uniform and v.p_dist == 1.0  # linear skips the distribution question

    def test_domain_violation_is_recorded_not_raised(self):
        rng = seeding.substream(0, 777)
        data = table(rng.standard_normal(200), rng.standard_normal(200))
        v = check_plausibility(data, CandidateSet((1,)), FunctionClass("cpcm", "pareto"), DiscoveryConfig(seed=0))
        assert not v.plausible
        assert v.reason == "DomainViolation"

    def test_true_parents_usually_plausible(self):
        hits = 0
        for seed in range(10):
            gd = gen_benchmark2(seeding.child_seed(7, seeding.REPLICATE, seed), 400)
            cfg = DiscoveryConfig(seed=seed)
            hits += check_plausibility(gd.data, CandidateSet(gd.true_pa), FunctionClass("additive"), cfg).plausible
        assert hits >= 8

    def test_failed_verdict_keeps_the_error_message(self):
        # both tables' failures are one error class each, with a message
        # that says which case fired: the rank rule's collinear case on the
        # copied-covariate table of test_regress.TestRankRule, and the Gamma
        # variance lost to rounding on gen_benchmark3(1016, 310)
        data = gen_benchmark1(903, 60).data
        cols = data.covariates(CandidateSet((1, 2, 3, 4))).T
        copied = analyze(table(data.y, *cols[:3], cols[0]), FunctionClass("additive"), DiscoveryConfig(seed=0))
        gamma = analyze(gen_benchmark3(1016, 310).data, FunctionClass("cpcm", "gamma"), DiscoveryConfig(seed=16))
        failed = {(v.candidate.members, v.reason, v.detail) for v in copied.verdicts + gamma.verdicts if v.reason}
        assert ((1, 4), "RankDeficient", "centred covariates have numerical rank 1 < 2 (collinear covariates)") in failed
        gamma_case = ((1, 2), "DegenerateTheta", "degenerate local Gamma moments: a variance within rounding of zero")
        assert gamma_case in failed
        assert all(v.detail is None for v in copied.verdicts + gamma.verdicts if v.reason is None)
        assert "within rounding" not in result_to_json(gamma)  # the result file carries no message

    @pytest.mark.parametrize("label", ["linear", "cpcm:gaussian"])
    def test_one_record_per_candidate(self, label):
        """``check_plausibility`` and ``analyze`` return the same record, and
        the score reads it: a class that skips the uniformity question
        scores exactly 0 on it."""
        data = gen_benchmark2(11, 150).data
        f_class = FunctionClass.parse(label)
        cfg = DiscoveryConfig(seed=11)
        res = analyze(data, f_class, cfg)
        candidates = enumerate_candidates(data.p)
        assert [v.candidate for v in res.verdicts] == candidates
        for s, v in zip(candidates, res.verdicts):
            single = check_plausibility(data, s, f_class, cfg)
            for name in PlausibilityVerdict.__dataclass_fields__:
                a, b = getattr(single, name), getattr(v, name)
                assert a == b or (isinstance(a, float) and math.isnan(a) and math.isnan(b)), (s, name)
            if label == "linear":
                assert v.distribution == 0.0


class TestIsd:
    def test_estimate_subset_of_every_plausible_set(self):
        res = isd(_chain_data(5), FunctionClass("linear"), DiscoveryConfig(seed=5))
        for s in res.plausible_sets:
            assert set(res.isd_estimate) <= set(s.members)

    def test_gaussian_chain_comes_up_empty(self):
        empties = 0
        for seed in range(10):
            res = isd(_chain_data(100 + seed, n=1000), FunctionClass("linear"), DiscoveryConfig(seed=seed))
            empties += res.isd_estimate == ()
        assert empties >= 8

    def test_too_many_covariates(self):
        rng = seeding.substream(1, 777)
        cols = [rng.standard_normal(60) for _ in range(13)]
        data = table(rng.standard_normal(60), *cols)
        with pytest.raises(TooManyCovariates):
            isd(data, FunctionClass("linear"), DiscoveryConfig(seed=0))

    def test_mode_validation(self):
        with pytest.raises(BadParam):
            analyze(_chain_data(6), FunctionClass("linear"), DiscoveryConfig(seed=0), mode="all")


class TestScore:
    def _row(self, p_indep, p_sig_max, p_dist=1.0):
        # the plausibility flags do not enter the score
        return PlausibilityVerdict(CandidateSet((1,)), True, p_indep, True, p_sig_max, True, p_dist, plausible=True)

    def test_perfect_scores_peak_at_zero(self):
        row = self._row(1.0, 0.0)
        assert row.total == pytest.approx(0.0, abs=1e-12)

    def test_formula_evaluation(self):
        row = self._row(np.exp(-2.0), 1e-15, np.exp(-1.0))
        assert row.independence == pytest.approx(-2.0)
        assert row.significance == pytest.approx(np.log(1 - 1e-15))
        assert row.distribution == pytest.approx(-1.0)
        assert row.total == pytest.approx(-3.0, abs=1e-6)

    def test_clamped_at_floor(self):
        row = self._row(0.0, 1.0, 0.0)
        assert row.independence == LOG_P_FLOOR
        assert row.significance == LOG_P_FLOOR
        assert row.distribution == LOG_P_FLOOR

    def test_error_scores_rank_last(self):
        nan = float("nan")
        bad = PlausibilityVerdict(CandidateSet((2,)), False, nan, False, nan, False, nan, plausible=False, reason="DomainViolation")
        good = self._row(0.5, 0.01)
        assert bad.total == float("-inf")
        assert select_score_estimate([bad, good]).members == (1,)

    def test_tie_break_prefers_small_then_lexicographic(self):
        p_indep = np.exp(-1.0)
        verdicts = [
            PlausibilityVerdict(CandidateSet(members), True, p_indep, True, 0.0, True, 1.0, plausible=True)
            for members in [(1, 2), (3,), (2,)]
        ]
        assert [v.total for v in verdicts] == [-1.0, -1.0, -1.0]
        assert select_score_estimate(verdicts).members == (2,)


class TestMetrics:
    def test_worked_example(self):
        # truth {1,2,3}; 80% of runs {1,2}, 20% {1,4,5}
        estimates = [(1, 2)] * 8 + [(1, 4, 5)] * 2
        correct, nfp = metrics((1, 2, 3), estimates)
        assert correct == pytest.approx(60.0)
        assert nfp == pytest.approx(80.0)

    def test_all_exact(self):
        correct, nfp = metrics((1, 2), [(1, 2)] * 5)
        assert (correct, nfp) == (100.0, 100.0)

    def test_empty_estimates_vacuous(self):
        correct, nfp = metrics((1, 2), [()] * 5)
        assert (correct, nfp) == (0.0, 100.0)

    def test_rejects_empty_list(self):
        with pytest.raises(BadParam):
            metrics((1,), [])


class TestEmptyParent:
    def test_gaussian_marginal_accepted(self):
        passes = 0
        for seed in range(10):
            rng = seeding.substream(seed, 778)
            data = table(rng.standard_normal(500), rng.standard_normal(500))
            passes += empty_parent_test(data, "gaussian").p_value > 0.05
        assert passes >= 9

    def test_pareto_marginal_rejected_by_gaussian_family(self):
        rejects = 0
        for seed in range(10):
            rng = seeding.substream(seed, 779)
            y = (1.0 - rng.random(500)) ** (-1.0 / 2.0)
            data = table(y, rng.standard_normal(500))
            rejects += empty_parent_test(data, "gaussian").p_value < 0.01
        assert rejects >= 9

    def test_support_violation(self):
        rng = seeding.substream(2, 779)
        data = table(rng.standard_normal(100), rng.standard_normal(100))
        with pytest.raises(DomainViolation):
            empty_parent_test(data, "pareto")

    def test_constant_target(self):
        # y = 1 and y = 5 are inside every support, but no family fits a constant
        rng = seeding.substream(3, 779)
        x = rng.standard_normal(100)
        for value in (1.0, 5.0):
            data = table(np.full(100, value), x)
            for family in ("gaussian", "pareto", "gamma"):
                with pytest.raises(DomainViolation, match="constant target"):
                    empty_parent_test(data, family)


class TestSerialization:
    def _result(self, seed=9):
        return analyze(_chain_data(seed, n=500), FunctionClass("linear"), DiscoveryConfig(seed=seed), mode="both")

    def test_schema_and_key_order(self):
        doc = json.loads(result_to_json(self._result()))
        keys = ["schema_version", "isd_estimate", "plausible_sets", "score_table", "score_estimate", "config", "seed"]
        assert list(doc.keys()) == keys
        assert doc["schema_version"] == 2
        assert all(list(r.keys()) == ["set", "independence", "significance", "distribution", "total"] for r in doc["score_table"])
        assert doc["config"]["function_class"] == "linear"

    def test_seventeen_significant_digits(self):
        text = result_to_json(self._result())
        value = 1.0 / 3.0
        assert format(value, ".17g") == "0.33333333333333331"  # format contract
        doc = json.loads(text)
        # round-trip equality at full precision
        again = analyze(_chain_data(9, n=500), FunctionClass("linear"), DiscoveryConfig(seed=9), mode="both")
        assert json.loads(result_to_json(again)) == doc

    def test_byte_identical_rerun(self):
        assert result_to_json(self._result()) == result_to_json(self._result())

    # sha256 of the result JSON for fixed tables and seeds; result JSON stays
    # byte-identical, so a digest may move only with a deliberate change to
    # the numbers or the schema
    PINNED = {
        ("linear", 1): "b0263649d5aa7888560e9652a993398fba9d54f2758556f3f6d8b11d630e71e1",
        ("additive", 1): "a7b66b10c440c85050c72bdb68a141146b7c37a49bff6c41f513b65ce7aa4265",
        ("location-scale", 1): "72d88328299800fbc1959c45b7fc8bb2ca98776dec45fd4bb1463e4d66fa99a4",
        ("cpcm:gaussian", 1): "237a5fc1333b5ccfc92d2426e27f5229ab87ed174d65f2e3dead8ab71750dfcc",
        ("cpcm:gamma", 3): "aa61f91aefb986d5a9585c5cdced1e426b5821b79def1669aea0bbe79e67eae0",
        ("cpcm:pareto", 3): "68323954d416b557b2bf615b57e44b50dde00817f880be3cba9c2f5cd3083393",
    }

    def test_result_bytes_pinned(self):
        tables = {1: gen_benchmark1(3, 120).data, 3: gen_benchmark3(3, 120).data}
        for (label, bench), digest in self.PINNED.items():
            res = analyze(tables[bench], FunctionClass.parse(label), DiscoveryConfig(seed=3))
            assert hashlib.sha256(result_to_json(res).encode()).hexdigest() == digest, label

    @pytest.mark.parametrize("label", ["linear", "cpcm:gaussian"])
    def test_mode_only_picks_the_fields(self, label):
        # every mode evaluates the same verdicts: an isd or score document is
        # the both document with the other estimate's two fields null
        data = gen_benchmark2(12, 150).data
        f_class, cfg = FunctionClass.parse(label), DiscoveryConfig(seed=12)
        both = json.loads(result_to_json(analyze(data, f_class, cfg, mode="both")))
        assert all(both[key] is not None for key in ("isd_estimate", "plausible_sets", "score_table", "score_estimate"))
        for mode, other in (("isd", ("score_table", "score_estimate")), ("score", ("isd_estimate", "plausible_sets"))):
            doc = json.loads(result_to_json(analyze(data, f_class, cfg, mode=mode)))
            assert list(doc) == list(both)
            assert doc == {**both, **dict.fromkeys(other)}, mode

    def test_score_only_leaves_isd_null(self):
        res = score_search(_chain_data(10), FunctionClass("linear"), DiscoveryConfig(seed=10))
        doc = json.loads(result_to_json(res))
        assert doc["isd_estimate"] is None
        assert doc["plausible_sets"] is None
        assert isinstance(doc["score_estimate"], list)


def _extreme_columns(label):
    """The target and two covariates of a 60-row table for ``label``, Y
    depending on X1, Pareto and Gamma targets inside their support."""
    rng = seeding.substream(8, 777)
    x = rng.standard_normal((60, 2))
    y = np.sin(x[:, 0]) + 0.5 * rng.standard_normal(60)
    family = FunctionClass.parse(label).family
    y = 1.0 + np.exp(y) if family == "pareto" else np.exp(y) if family == "gamma" else y
    return [y, x[:, 0], x[:, 1]]


class TestDegenerateInput:
    @pytest.mark.parametrize("column", ["Y", "X1"])
    @pytest.mark.parametrize("label", [FunctionClass(*key).label for key in CLASS_CODES])
    def test_value_past_the_float_bound_names_its_column(self, label, column):
        # squares of values near 1e154 overflow float64 inside the fits and
        # tests: the table is refused, naming the column, before any fit
        cols = _extreme_columns(label)
        cols[["Y", "X1"].index(column)] *= 1e154
        with pytest.raises(ValidationError, match=f"column '{column}' .* power of two"):
            analyze(table(*cols), FunctionClass.parse(label), DiscoveryConfig(seed=0))

    @pytest.mark.parametrize("label", [FunctionClass(*key).label for key in CLASS_CODES])
    def test_values_at_the_bound_run_without_warning(self, label):
        # each scaled column is brought into [-1, 1] by a power of two and
        # then scaled by 2^500, the largest magnitude a table may hold
        for scaled in ((0,), (1,), (0, 1, 2)):
            cols = _extreme_columns(label)
            for j in scaled:
                cols[j] *= 2.0 ** (500 - math.ceil(math.log2(np.max(np.abs(cols[j])))))
            assert max(np.max(np.abs(c)) for c in cols) <= 2.0**500
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                res = analyze(table(*cols), FunctionClass.parse(label), DiscoveryConfig(seed=0))
            assert len(res.verdicts) == 3

    @pytest.mark.parametrize("label", ["additive", "location-scale", "cpcm:gaussian"])
    def test_tiny_covariate_is_out_of_range(self, label):
        # at scale 1e-170 the HSIC bandwidth's h^2 underflows to 0: each set
        # that holds the column and gets past its fit is OutOfRange, and the
        # search goes on over the rest
        data = gen_benchmark2(3, 100).data
        raw = np.column_stack([data.y, data.covariates(CandidateSet((1, 2, 3)))])
        raw[:, 1] *= 1e-170
        res = analyze(table(*raw.T), FunctionClass.parse(label), DiscoveryConfig(seed=0))
        reasons = {v.candidate.members: v.reason for v in res.verdicts}
        assert reasons == {
            (1,): "RankDeficient", (2,): None, (3,): None,
            (1, 2): "OutOfRange", (1, 3): "OutOfRange", (2, 3): None, (1, 2, 3): "OutOfRange",
        }

    @pytest.mark.parametrize("label", ["additive", "location-scale", "cpcm:gaussian", "linear"])
    def test_duplicated_covariate_is_rank_deficient(self, label):
        rng = seeding.substream(3, 777)
        x1, x3 = rng.standard_normal(100), rng.standard_normal(100)
        data = table(np.sin(x1) + 0.5 * rng.standard_normal(100), x1, x1.copy(), x3)
        res = analyze(data, FunctionClass.parse(label), DiscoveryConfig(seed=0))
        with_both = [v for v in res.verdicts if {1, 2} <= set(v.candidate.members)]
        assert len(with_both) == 2
        assert all(v.reason == "RankDeficient" for v in with_both)

    @pytest.mark.parametrize("count", [1, 2])
    @pytest.mark.parametrize("label", ["additive", "location-scale", "cpcm:gaussian"])
    def test_too_few_rows_for_the_spline_is_rank_deficient(self, label, count, monkeypatch):
        # n = 20: the permutation refit trains on 10 rows, and its CV folds
        # have 5 rows, too few for the 1 + |s| polynomial terms when |s| >= 5
        rng = seeding.substream(0, 778)
        x = rng.standard_normal((20, 6))
        data = table(np.sin(x[:, 0]) + 0.5 * rng.standard_normal(20), *x.T)
        use_threads(monkeypatch, count)
        res = analyze(data, FunctionClass.parse(label), DiscoveryConfig(seed=0))
        reasons = {v.candidate.members: v.reason for v in res.verdicts}
        assert reasons == {s.members: "RankDeficient" if len(s) >= 5 else None for s in enumerate_candidates(6)}

    def test_smoother_cap_rejected_before_any_fit(self, monkeypatch):
        calls = []
        monkeypatch.setattr(discover, "recover_noise", lambda *args, **kwargs: calls.append(args))
        rng = seeding.substream(4, 777)
        data = table(rng.standard_normal(40), *(rng.standard_normal(40) for _ in range(7)))
        for label in ("additive", "location-scale", "cpcm:gaussian", "cpcm:gamma", "cpcm:pareto"):
            with pytest.raises(TooManyCovariates, match="smoother dimension cap of 6"):
                analyze(data, FunctionClass.parse(label), DiscoveryConfig(seed=0))
        assert calls == []

    def test_support_violation_rejected_before_any_fit(self, monkeypatch):
        calls = []
        monkeypatch.setattr(discover, "recover_noise", lambda *args, **kwargs: calls.append(args))
        rng = seeding.substream(6, 777)
        x = rng.standard_normal(40)
        for label, y in (("cpcm:pareto", 0.5 + rng.random(40)), ("cpcm:gamma", rng.standard_normal(40))):
            with pytest.raises(DomainViolation, match="family requires"):
                analyze(table(y, x), FunctionClass.parse(label), DiscoveryConfig(seed=0))
        assert calls == []

    @pytest.mark.parametrize("label", ["location-scale", "cpcm:gaussian"])
    def test_tiny_scale_fails_its_candidates(self, label):
        # at scale 1e-160 the squared residuals and the sd-relative floor
        # underflow to 0, so the log-variance target is -inf: each candidate
        # fails with a StatError instead of the search raising, and without
        # a RuntimeWarning (tier-1 turns those into errors)
        rng = seeding.substream(7, 777)
        x = rng.standard_normal((60, 2))
        y = np.sin(x[:, 0]) + 0.5 * rng.standard_normal(60)
        res = analyze(table(1e-160 * y, *(1e-160 * x).T), FunctionClass.parse(label), DiscoveryConfig(seed=0))
        assert {v.reason for v in res.verdicts} == {"DegenerateTheta"}
        assert res.isd_estimate == () and res.plausible_sets == []

    def test_linear_class_has_no_smoother_cap(self):
        rng = seeding.substream(5, 777)
        data = table(rng.standard_normal(40), *(rng.standard_normal(40) for _ in range(7)))
        res = analyze(data, FunctionClass("linear"), DiscoveryConfig(seed=0))
        assert len(res.verdicts) == 2**7 - 1


def _same_verdict(a: PlausibilityVerdict, b: PlausibilityVerdict) -> bool:
    """Field for field, NaN equal to NaN."""
    for name in PlausibilityVerdict.__dataclass_fields__:
        x, y = getattr(a, name), getattr(b, name)
        if not (x == y or (isinstance(x, float) and math.isnan(x) and math.isnan(y))):
            return False
    return True


def _one_and_two_threads(monkeypatch, *args):
    """``analyze(*args)`` on one thread, then on two, checking that each run
    evaluated its candidates on the threads it was given."""
    ran_on = []
    real = discover._check_plausibility

    def recorded(*a, **kw):
        ran_on.append(threading.get_ident())
        return real(*a, **kw)

    monkeypatch.setattr(discover, "_check_plausibility", recorded)
    use_threads(monkeypatch, 1)
    one = analyze(*args)
    assert set(ran_on) == {threading.get_ident()}
    ran_on.clear()
    use_threads(monkeypatch, 2)
    two = analyze(*args)
    assert len(set(ran_on)) == 2 and threading.get_ident() not in ran_on
    return one, two


class TestJobs:
    """Candidates evaluated on threads give the results of one thread."""

    CASES = [
        ("linear", 1), ("additive", 1), ("location-scale", 1), ("cpcm:gaussian", 1),
        ("cpcm:gamma", 3), ("cpcm:pareto", 3),
    ]

    @pytest.mark.parametrize("label,bench", CASES)
    def test_threads_match_one_thread(self, label, bench, monkeypatch):
        data = {1: gen_benchmark1, 3: gen_benchmark3}[bench](5, 120).data
        one, two = _one_and_two_threads(monkeypatch, data, FunctionClass.parse(label), DiscoveryConfig(seed=5))
        assert [v.candidate for v in two.verdicts] == enumerate_candidates(data.p)
        assert all(_same_verdict(a, b) for a, b in zip(one.verdicts, two.verdicts, strict=True))
        assert result_to_json(one) == result_to_json(two)

    def test_threads_match_one_thread_at_n500(self, monkeypatch):
        """At n = 500 OpenBLAS may thread the spline's LU, and two candidate
        threads can be inside it at once."""
        data = gen_benchmark1(5, 500).data
        one, two = _one_and_two_threads(monkeypatch, data, FunctionClass("additive"), DiscoveryConfig(seed=5))
        assert all(_same_verdict(a, b) for a, b in zip(one.verdicts, two.verdicts, strict=True))
        assert result_to_json(one) == result_to_json(two)

    def test_rank_deficient_candidates_match(self, monkeypatch):
        rng = seeding.substream(3, 778)
        x1, x3 = rng.standard_normal(100), rng.standard_normal(100)
        data = table(np.sin(x1) + 0.5 * rng.standard_normal(100), x1, x1.copy(), x3)
        one, two = _one_and_two_threads(monkeypatch, data, FunctionClass("additive"), DiscoveryConfig(seed=0))
        assert sum(v.reason == "RankDeficient" for v in two.verdicts) == 2
        assert all(_same_verdict(a, b) for a, b in zip(one.verdicts, two.verdicts, strict=True))
        assert result_to_json(one) == result_to_json(two)

    def test_error_in_one_candidate_escapes_and_joins_threads(self, monkeypatch):
        real = discover.recover_noise

        def failing(data, s, f_class, **kwargs):
            if s.members == (1, 2):
                raise RuntimeError("injected")
            return real(data, s, f_class, **kwargs)

        monkeypatch.setattr(discover, "recover_noise", failing)
        data = gen_benchmark1(6, 100).data
        use_threads(monkeypatch, 2)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="injected"):
            analyze(data, FunctionClass("linear"), DiscoveryConfig(seed=6))
        assert threading.active_count() == before


def _degenerate_table(seed, n, p, column, target):
    """A valid table whose last covariate is degenerate in the way ``column``
    names; a copy of a single covariate copies the target instead."""
    rng = seeding.substream(seed, 779)
    x = rng.standard_normal((n, p))
    signal = np.sin(x[:, 0]) + 0.5 * rng.standard_normal(n)
    if target == "smooth":
        y = signal
    elif target == "ties":
        y = np.round(signal)
    elif target == "pareto":
        y = rng.random(n) ** (-1.0 / (2.0 + np.abs(x[:, 0])))
        y[0] = 1.0  # on the support boundary
    else:
        y = rng.gamma(2.0, np.exp(0.5 * x[:, 0]))
    source = x[:, 0] if p > 1 else y
    if column == "duplicated":
        x[:, -1] = source
    elif column == "affine":
        x[:, -1] = 3.0 * source - 2.0
    elif column in ("levels2", "levels3"):
        x[:, -1] = rng.permutation(np.arange(n) % int(column[-1]))
    elif column in ("scale-8", "scale+8"):
        x[:, -1] *= 1e-8 if column == "scale-8" else 1e8
    else:
        x[0, -1] = 1e3  # one value far out
    return table(y, *x.T)


TARGET_KINDS = ["smooth", "ties", "pareto", "gamma"]
# targets inside each positive family's support, so its fits run instead of
# stopping at the support check
SUPPORTED_TARGETS = {"gamma": ["pareto", "gamma"], "pareto": ["pareto"]}


def test_one_bandwidth_selection_per_covariate(monkeypatch):
    # p = 4: each covariate's bandwidth once, then one per candidate's noise
    # vector, 4 + 15 selections, on one thread and on two
    calls = []
    median_bandwidth = stattests._median_bandwidth

    def counting(col):
        calls.append(col.size)
        return median_bandwidth(col)

    monkeypatch.setattr(stattests, "_median_bandwidth", counting)
    data = gen_benchmark1(5, 150).data
    assert data.p == 4
    for threads in (1, 2):
        use_threads(monkeypatch, threads)
        calls.clear()
        analyze(data, FunctionClass("linear"), DiscoveryConfig(seed=5))
        assert len(calls) == 4 + 15


class TestDegenerateTables:
    """``analyze`` on small degenerate tables: a ``CauseSieveError`` or a
    result whose failed candidates say why, the same on one thread and two."""

    @staticmethod
    def _outcome(data, f_class):
        try:
            res = analyze(data, f_class, DiscoveryConfig(seed=3))
        except CauseSieveError as err:
            return f"{type(err).__name__}: {err}"
        for v in res.verdicts:
            if any(math.isnan(q) for q in (v.p_indep, v.p_sig_max, v.p_dist)):
                assert v.reason is not None, v
        return result_to_json(res)

    @settings(max_examples=40)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(20, 60),
        p=st.integers(1, 3),
        column=st.sampled_from(["duplicated", "affine", "levels2", "levels3", "scale-8", "scale+8", "outlier"]),
        case=st.sampled_from([FunctionClass(*key) for key in CLASS_CODES]).flatmap(
            lambda f_class: st.tuples(st.just(f_class), st.sampled_from(SUPPORTED_TARGETS.get(f_class.family, TARGET_KINDS)))
        ),
    )
    # a held-out log-variance spline far out at the outlier overflowed exp
    @example(seed=1, n=20, p=1, column="outlier", case=(FunctionClass("location-scale"), "pareto"))
    def test_only_library_errors_and_thread_free_bytes(self, seed, n, p, column, case):
        f_class, target = case
        data = _degenerate_table(seed, n, p, column, target)
        with pytest.MonkeyPatch.context() as mp:
            use_threads(mp, 1)
            one = self._outcome(data, f_class)
            use_threads(mp, 2)
            two = self._outcome(data, f_class)
            again = self._outcome(data, f_class)
        assert one == two == again
