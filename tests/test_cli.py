import hashlib
import json
import os
import threading
import time
import warnings

import numpy as np
import pytest
from scipy.stats import spearmanr

from cause_sieve.cli import _run_replicates, main, spearman_rho
from cause_sieve.model import load_csv
from cause_sieve.parallel import DEFAULT_THREADS, available_cores, thread_map
from cause_sieve.synth import gen_benchmark2, write_generated


def _sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


@pytest.fixture()
def bench2_csv(tmp_path):
    gd = gen_benchmark2(7, 200)
    csv_path, _ = write_generated(gd, tmp_path / "b2")
    return csv_path


class TestDatagen:
    def test_writes_csv_and_sidecar(self, tmp_path):
        out = tmp_path / "chain"
        rc = main(["datagen", "--generator", "linear-chain", "--seed", "5", "--n", "250", "--noise", "uniform", "--out", str(out)])
        assert rc == 0
        data = load_csv(f"{out}.csv", "Y")
        assert data.n == 250
        sidecar = json.loads(open(f"{out}.json").read())
        assert sidecar["true_pa"] == [1, 2]
        assert sidecar["params"]["noise"] == "uniform"

    def test_byte_identical_rerun(self, tmp_path):
        args = ["datagen", "--generator", "benchmark3", "--seed", "9", "--n", "150", "--out"]
        assert main(args + [str(tmp_path / "a")]) == 0
        assert main(args + [str(tmp_path / "b")]) == 0
        assert _sha(tmp_path / "a.csv") == _sha(tmp_path / "b.csv")


class TestDiscover:
    def test_end_to_end_both_modes(self, bench2_csv, tmp_path, capsys):
        out = tmp_path / "res.json"
        rc = main(["discover", str(bench2_csv), "--target", "Y", "--class", "additive", "--mode", "both", "--seed", "3", "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "isd_estimate" in printed and "score_estimate" in printed
        doc = json.loads(open(out).read())
        assert doc["seed"] == 3
        assert isinstance(doc["score_estimate"], list)

    def test_one_estimate_modes(self, bench2_csv, tmp_path, capsys):
        # --mode isd and --mode score print and write their part of --mode both
        printed, docs = {}, {}
        for mode in ("both", "isd", "score"):
            out = tmp_path / f"{mode}.json"
            argv = ["discover", str(bench2_csv), "--target", "Y", "--class", "linear", "--mode", mode, "--seed", "3"]
            assert main(argv + ["--out", str(out)]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert lines[-1] == f"result written to {out}"
            printed[mode], docs[mode] = lines[:-1], json.loads(out.read_text())
        assert printed["both"][0].startswith("isd_estimate: ") and printed["both"][-1].startswith("score_estimate: ")
        assert printed["isd"] == printed["both"][:-1]
        assert printed["score"] == printed["both"][-1:]
        assert docs["isd"] == {**docs["both"], "score_table": None, "score_estimate": None}
        assert docs["score"] == {**docs["both"], "isd_estimate": None, "plausible_sets": None}

    def test_missing_target_exits_2(self, bench2_csv, tmp_path):
        rc = main(["discover", str(bench2_csv), "--target", "Z", "--out", str(tmp_path / "x.json")])
        assert rc == 2

    def test_pareto_domain_violation_exits_3(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = ["Y,X1"] + [f"{rng.normal()},{rng.normal()}" for _ in range(60)]
        csv_path = tmp_path / "neg.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        rc = main(["discover", str(csv_path), "--target", "Y", "--class", "cpcm:pareto", "--out", str(tmp_path / "y.json")])
        assert rc == 3

    def test_smoother_cap_exits_2(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        header = ",".join(["Y"] + [f"X{i}" for i in range(1, 8)])
        rows = [header] + [",".join(str(v) for v in rng.normal(size=8)) for _ in range(40)]
        csv_path = tmp_path / "wide.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        rc = main(["discover", str(csv_path), "--target", "Y", "--class", "additive", "--out", str(tmp_path / "w.json")])
        assert rc == 2
        assert "smoother dimension cap" in capsys.readouterr().err

    def test_value_past_the_float_bound_exits_2_naming_its_column(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        rows = ["Y,X1,X2"] + [f"{1e200 * rng.normal()!r},{rng.normal()!r},{rng.normal()!r}" for _ in range(60)]
        csv_path = tmp_path / "big.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        rc = main(["discover", str(csv_path), "--target", "Y", "--class", "additive", "--out", str(tmp_path / "b.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "column 'Y'" in err and "power of two" in err

    def test_byte_identical_result(self, bench2_csv, tmp_path):
        args = ["discover", str(bench2_csv), "--target", "Y", "--class", "linear", "--mode", "both", "--seed", "11", "--out"]
        assert main(args + [str(tmp_path / "r1.json")]) == 0
        assert main(args + [str(tmp_path / "r2.json")]) == 0
        assert _sha(tmp_path / "r1.json") == _sha(tmp_path / "r2.json")

    def test_byte_order_mark_before_the_header(self, bench2_csv, tmp_path):
        # spreadsheet exports often start with a UTF-8 BOM; the target is
        # still found and the result is the one without the mark
        bom_csv = tmp_path / "bom.csv"
        bom_csv.write_bytes(b"\xef\xbb\xbf" + open(bench2_csv, "rb").read())
        args = ["--target", "Y", "--class", "linear", "--mode", "both", "--seed", "11", "--out"]
        assert main(["discover", str(bom_csv)] + args + [str(tmp_path / "bom.json")]) == 0
        assert main(["discover", str(bench2_csv)] + args + [str(tmp_path / "plain.json")]) == 0
        assert _sha(tmp_path / "bom.json") == _sha(tmp_path / "plain.json")
        assert load_csv(bom_csv, "Y").names == load_csv(bench2_csv, "Y").names


class TestBench:
    def test_unknown_benchmark_exits_2(self, tmp_path):
        assert main(["bench", "--benchmark", "9", "--out", str(tmp_path / "b.csv")]) == 2

    def test_single_rep_smoke_under_a_minute(self, tmp_path):
        start = time.monotonic()
        rc = main(["bench", "--benchmark", "3", "--reps", "1", "--n", "300", "--seed", "2", "--jobs", "1", "--out", str(tmp_path / "b.csv")])
        assert rc == 0
        assert time.monotonic() - start < 60
        header = open(tmp_path / "b.csv").readline().strip().split(",")
        assert header == ["algorithm", "benchmark", "reps", "n", "class", "correct_causes_pct", "no_false_positives_pct"]


def _left_calling_thread(r):
    """Whether a default ``thread_map`` ran any item off the calling thread."""
    idents = thread_map(lambda i: (time.sleep(0.01), threading.get_ident())[1], range(4))
    return set(idents) != {threading.get_ident()}


class TestRunReplicates:
    def test_worker_processes_analyse_on_one_thread(self):
        assert _run_replicates(_left_calling_thread, 2, 2) == [False, False]

    def test_in_process_keeps_default_threads(self):
        threaded = min(DEFAULT_THREADS, available_cores()) > 1
        assert _run_replicates(_left_calling_thread, 2, 1) == [threaded, threaded]
        assert _run_replicates(_left_calling_thread, 1, 2) == [threaded]


class TestSimulate:
    def test_row_count_and_replay(self, tmp_path, capsys):
        args = [
            "simulate", "--grid", "c:0:0.5", "gamma:0:1", "--steps", "2", "2",
            "--reps", "2", "--n", "150", "--seed", "5", "--jobs", "1", "--out",
        ]
        assert main(args + [str(tmp_path / "s1.csv")]) == 0
        rows = np.loadtxt(tmp_path / "s1.csv", delimiter=",", skiprows=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # scipy warns on a constant count
            rho = spearmanr(rows[:, 1], rows[:, 3]).statistic
        assert f"spearman(gamma, discovered_count) = {rho:.3f}" in capsys.readouterr().out
        assert main(args + [str(tmp_path / "s2.csv")]) == 0
        lines = open(tmp_path / "s1.csv").read().splitlines()
        assert lines[0] == "c,gamma,rep,discovered_count"
        assert len(lines) == 1 + 2 * 2 * 2
        assert _sha(tmp_path / "s1.csv") == _sha(tmp_path / "s2.csv")


class TestReplicatePins:
    """Whole-command digests of the replicate layer: the bench and simulate
    process pools and the theory-check draws.  Each takes under a second."""

    BENCH = "2e5d26bf66674da1d86a1f9b53a09f576b18e7e8076e3bbb62fb8cc1166aa611"
    SIMULATE = "6634edec2bd5e3f084d4bbf3410f4178e6fdc53fe11b4dd95bd0db86d28c520b"
    VERIFY = {
        ("norm-exception", "200", "3"): {
            "norm-exception.json": "b25e8ae5f74f7f4c4c2f0ba82f9b5f190177467edb9e14a1787e19ab6c1920bf",
        },
        ("marginalizability", "300", "6"): {
            "marginalizability_gaussian.json": "140daf597ea2bd9a420c703aa1c88ecdd766a8fbd1c02a5230a2a1934ba10052",
            "marginalizability_uniform.json": "6f5462be93e5e5e6ac7e0e1aca4b7afbab8f1cb69853cb7bd8b40a89b4ecf3d1",
        },
        ("gamma-exception", "300", "6"): {
            "gamma-exception.json": "c353ee5e3a7026a802f3dc3b64309555676b7ddae4019ec554d7aaae843126b9",
        },
    }

    def test_bench_same_at_one_and_two_workers(self, tmp_path):
        digests = []
        for jobs in ("1", "2"):
            out = tmp_path / f"b{jobs}.csv"
            argv = ["bench", "--benchmark", "3", "--reps", "3", "--n", "200", "--seed", "3", "--jobs", jobs]
            assert main(argv + ["--out", str(out)]) == 0
            digests.append(_sha(out))
        assert digests == [self.BENCH, self.BENCH]

    def test_simulate_on_two_workers(self, tmp_path):
        out = tmp_path / "s.csv"
        argv = ["simulate", "--grid", "c:0:0.5", "gamma:0:1", "--steps", "2", "2", "--reps", "2", "--n", "150"]
        assert main(argv + ["--seed", "5", "--jobs", "2", "--out", str(out)]) == 0
        assert _sha(out) == self.SIMULATE

    @pytest.mark.parametrize("check, n, reps", list(VERIFY))
    def test_verify_reports(self, tmp_path, check, n, reps):
        out = tmp_path / "v"
        main(["verify", "--check", check, "--seed", "4", "--n", n, "--reps", reps, "--out", str(out)])
        assert {name: _sha(out / name) for name in os.listdir(out)} == self.VERIFY[(check, n, reps)]


class TestSpearmanRho:
    # a fixed grid of gamma values against tied counts, as simulate reports them
    GAMMAS = np.repeat(np.linspace(0.0, 1.0, 5), 6)
    COUNTS = np.array([0, 1, 0, 2, 1, 0, 1, 1, 2, 0, 1, 2, 2, 1, 3, 2, 2, 1, 2, 3, 3, 1, 2, 2, 3, 3, 2, 3, 3, 1])

    @pytest.mark.parametrize("flip", [False, True])
    def test_matches_scipy_with_ties(self, flip):
        counts = 3 - self.COUNTS if flip else self.COUNTS
        assert spearman_rho(self.GAMMAS, counts) == pytest.approx(spearmanr(self.GAMMAS, counts).statistic, abs=1e-12)

    def test_matches_scipy_without_ties(self):
        rng = np.random.default_rng(4)
        a, b = rng.standard_normal(50), rng.standard_normal(50)
        assert spearman_rho(a, b) == pytest.approx(spearmanr(a, b).statistic, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 12])
    def test_constant_vector_is_nan_without_warning(self, n):
        varying = np.arange(n, dtype=float)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a, b in ((np.full(n, 0.5), varying), (varying, np.full(n, 2.0)), (np.zeros(n), np.ones(n))):
                assert np.isnan(spearman_rho(a, b))


class TestVerifyCommand:
    def test_bad_check_name_exits_2(self, tmp_path):
        assert main(["verify", "--check", "nonsense", "--out", str(tmp_path / "v")]) == 2

    def test_single_check_writes_report(self, tmp_path):
        rc = main(["verify", "--check", "gamma-exception", "--seed", "1", "--n", "500", "--reps", "5", "--out", str(tmp_path / "v")])
        report = json.loads(open(tmp_path / "v" / "gamma-exception.json").read())
        assert report["check_id"] == "gamma-exception"
        assert rc == (0 if report["pass"] else 1)


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--grid", "c:a:b", "gamma:0:1"],
        ["simulate", "--steps", "-1", "2"],
        ["bench", "--benchmark", "1", "--reps", "0"],
        ["verify", "--check", "gamma-exception", "--n", "0", "--reps", "0"],
        ["verify", "--check", "cool-lemma:abc"],
        ["bench", "--benchmark", "1", "--jobs", "-1"],
        ["datagen", "--generator", "benchmark1", "--n", "-5"],
        ["bench", "--benchmark", "1", "--n", "-3"],
    ],
)
def test_malformed_numeric_flag_exits_2(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


class TestSeedEnvFallback:
    def test_env_seed_used(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CAUSE_SIEVE_SEED", "21")
        out_env = tmp_path / "env"
        assert main(["datagen", "--generator", "linear-chain", "--n", "200", "--out", str(out_env)]) == 0
        monkeypatch.delenv("CAUSE_SIEVE_SEED")
        out_flag = tmp_path / "flag"
        assert main(["datagen", "--generator", "linear-chain", "--seed", "21", "--n", "200", "--out", str(out_flag)]) == 0
        assert _sha(f"{out_env}.csv") == _sha(f"{out_flag}.csv")
