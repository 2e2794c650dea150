import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from cause_sieve.errors import (
    BadParam,
    ConstantColumn,
    MissingTarget,
    NonFiniteEntry,
    TooFewRows,
    TooManyCovariates,
    ValidationError,
)
from cause_sieve.model import (
    CandidateSet,
    DiscoveryConfig,
    FunctionClass,
    average_ranks,
    enumerate_candidates,
    load_csv,
    pit_rescale,
    validate_dataset,
    write_csv,
)
from cause_sieve.regress import MODELS

from conftest import table


class TestValidateDataset:
    def test_well_formed(self):
        rng = np.random.default_rng(0)
        raw = rng.standard_normal((500, 3))
        data = validate_dataset(raw, ["A", "Y", "B"], "Y")
        assert data.p == 2
        assert data.n == 500
        assert data.names == ("Y", "A", "B")
        np.testing.assert_array_equal(data.y, raw[:, 1])
        np.testing.assert_array_equal(data.covariates(CandidateSet((1,))), raw[:, [0]])

    def test_constant_column(self):
        rng = np.random.default_rng(1)
        raw = np.column_stack([rng.standard_normal(50), np.full(50, 3.0)])
        with pytest.raises(ConstantColumn) as err:
            validate_dataset(raw, ["Y", "C"], "Y")
        assert err.value.name == "C"

    def test_nan_coordinates(self):
        rng = np.random.default_rng(2)
        raw = rng.standard_normal((30, 2))
        raw[7, 1] = np.nan
        with pytest.raises(NonFiniteEntry) as err:
            validate_dataset(raw, ["Y", "X"], "Y")
        assert (err.value.row, err.value.col) == (7, 1)

    def test_missing_target(self):
        with pytest.raises(MissingTarget):
            validate_dataset(np.ones((30, 2)), ["A", "B"], "Y")

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            validate_dataset(np.random.default_rng(3).standard_normal((19, 2)), ["Y", "X"], "Y")

    def test_duplicate_names(self):
        with pytest.raises(ValidationError):
            validate_dataset(np.random.default_rng(4).standard_normal((30, 2)), ["Y", "Y"], "Y")

    def test_non_numeric_cell(self):
        with pytest.raises(ValidationError, match="numeric"):
            validate_dataset([[1.0, "x"]] * 25, ["Y", "X"], "Y")

    def test_ragged_rows(self):
        with pytest.raises(ValidationError, match="numeric"):
            validate_dataset([[1.0, 2.0]] * 24 + [[1.0]], ["Y", "X"], "Y")

    def test_values_read_only(self):
        data = table(np.arange(25.0), np.random.default_rng(5).standard_normal(25))
        with pytest.raises(ValueError):
            data.values[0, 0] = 1.0


class TestPitRescale:
    def test_rank_formula(self):
        np.testing.assert_allclose(pit_rescale([3.0, 1.0, 2.0]), [5 / 6, 1 / 6, 3 / 6])

    def test_single_element(self):
        np.testing.assert_allclose(pit_rescale([7.0]), [0.5])

    def test_tie_averaging(self):
        # average rank 1.5 each -> (1.5 - 0.5)/2
        np.testing.assert_allclose(pit_rescale([1.0, 1.0]), [0.5, 0.5])

    def test_rejects_non_finite(self):
        with pytest.raises(BadParam):
            pit_rescale([1.0, np.inf])

    @settings(max_examples=50)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60))
    def test_open_interval_and_monotone_invariance(self, values):
        r = np.asarray(values)
        out = pit_rescale(r)
        assert np.all(out > 0.0) and np.all(out < 1.0)
        # a strictly increasing transform leaves ranks, hence the output,
        # fixed; map through the unique-value index so float rounding cannot
        # merge distinct inputs
        uniq = np.unique(r)
        transformed = pit_rescale(np.searchsorted(uniq, r).astype(float) * 2.5 - 7.0)
        np.testing.assert_allclose(out, transformed)


class TestAverageRanks:
    # bit-for-bit scipy.stats.rankdata(method="average"): the ranks are exact
    # integers or halves, so pit_rescale's (rank - 0.5) / n cannot move

    @staticmethod
    def check(v):
        v = np.asarray(v, dtype=float)
        np.testing.assert_array_equal(average_ranks(v), rankdata(v, method="average"))

    @settings(max_examples=100)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=80, unique=True))
    def test_no_ties(self, values):
        self.check(values)

    @settings(max_examples=100)
    @given(st.integers(1, 300), st.integers(0, 2**32 - 1), st.integers(0, 2))
    def test_rounded_normals_heavy_ties(self, n, seed, decimals):
        self.check(np.round(np.random.default_rng(seed).standard_normal(n), decimals))

    @settings(max_examples=30)
    @given(st.integers(1, 200), st.floats(-1e6, 1e6))
    def test_all_equal(self, n, value):
        self.check(np.full(n, value))
        assert np.all(average_ranks(np.full(n, value)) == (n + 1) / 2)

    def test_single_value(self):
        self.check([3.5])
        assert average_ranks(np.array([3.5])).tolist() == [1.0]


class TestEnumerateCandidates:
    def test_p2(self):
        assert [s.members for s in enumerate_candidates(2)] == [(1,), (2,), (1, 2)]

    def test_p3_order(self):
        sets = enumerate_candidates(3)
        assert len(sets) == 7
        assert sets[0].members == (1,)
        assert sets[-1].members == (1, 2, 3)
        sizes = [len(s) for s in sets]
        assert sizes == sorted(sizes)

    def test_cap(self):
        with pytest.raises(TooManyCovariates):
            enumerate_candidates(13)

    def test_deterministic(self):
        assert enumerate_candidates(5) == enumerate_candidates(5)


class TestDomainTypes:
    def test_candidate_set_invariants(self):
        assert CandidateSet((3, 1)).members == (1, 3)
        with pytest.raises(BadParam):
            CandidateSet(())
        with pytest.raises(BadParam):
            CandidateSet((1, 1))
        with pytest.raises(BadParam):
            CandidateSet((0,))

    def test_function_class(self):
        assert FunctionClass.parse("cpcm:gamma") == FunctionClass("cpcm", "gamma")
        assert FunctionClass.parse(" CPCM:Pareto ") == FunctionClass("cpcm", "pareto")
        # the uniformity question is asked exactly for the parametric class,
        # and the smoother cap binds every class but the linear one
        assert {key for key, cls in MODELS.items() if cls.parametric} == {
            ("cpcm", "gaussian"),
            ("cpcm", "gamma"),
            ("cpcm", "pareto"),
        }
        assert {key for key, cls in MODELS.items() if not cls.smoother} == {("linear", None)}
        with pytest.raises(BadParam):
            FunctionClass("additive", family="gaussian")
        with pytest.raises(BadParam):
            FunctionClass("cpcm")
        for text in ("cpcm", "cpcm:", "linear:", "linear:gaussian", "cpcm:weibull", "quadratic"):
            with pytest.raises(BadParam):
                FunctionClass.parse(text)

    def test_discovery_config_invariants(self):
        with pytest.raises(BadParam):
            DiscoveryConfig(alpha=0.0)


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        data = table(rng.standard_normal(40), rng.standard_normal(40), rng.standard_normal(40))
        path = tmp_path / "t.csv"
        write_csv(data, path)
        back = load_csv(path, "Y")
        assert back.names == data.names
        np.testing.assert_array_equal(back.values, data.values)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("Y,X\n1.0,2.0\n1.0,oops\n")
        with pytest.raises(NonFiniteEntry):
            load_csv(path, "Y")

    @pytest.mark.parametrize("cell", ["oops", "nan"])
    def test_bad_cell_row_skips_blank_lines(self, tmp_path, cell):
        # a non-numeric cell and a nan at the same place report the same
        # table row, which does not count the blank line above it
        lines = ["Y,X"] + [f"{i}.0,{i % 7}.5" for i in range(25)]
        lines[4] = f"3.0,{cell}"
        lines.insert(2, "")
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(NonFiniteEntry) as err:
            load_csv(path, "Y")
        assert (err.value.row, err.value.col) == (3, 1)
