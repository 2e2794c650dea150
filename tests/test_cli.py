import hashlib
import json
import os
import time

import numpy as np
import pytest

from cause_sieve.cli import main
from cause_sieve.model import load_csv
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

    def test_byte_identical_result(self, bench2_csv, tmp_path):
        args = ["discover", str(bench2_csv), "--target", "Y", "--class", "linear", "--mode", "both", "--seed", "11", "--out"]
        assert main(args + [str(tmp_path / "r1.json")]) == 0
        assert main(args + [str(tmp_path / "r2.json")]) == 0
        assert _sha(tmp_path / "r1.json") == _sha(tmp_path / "r2.json")


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


class TestSimulate:
    def test_row_count_and_replay(self, tmp_path, capsys):
        args = [
            "simulate", "--grid", "c:0:0.5", "gamma:0:1", "--steps", "2", "2",
            "--reps", "2", "--n", "150", "--seed", "5", "--jobs", "1", "--out",
        ]
        assert main(args + [str(tmp_path / "s1.csv")]) == 0
        assert "spearman" in capsys.readouterr().out
        assert main(args + [str(tmp_path / "s2.csv")]) == 0
        lines = open(tmp_path / "s1.csv").read().splitlines()
        assert lines[0] == "c,gamma,rep,discovered_count"
        assert len(lines) == 1 + 2 * 2 * 2
        assert _sha(tmp_path / "s1.csv") == _sha(tmp_path / "s2.csv")


class TestVerifyCommand:
    def test_bad_check_name_exits_2(self, tmp_path):
        assert main(["verify", "--check", "nonsense", "--out", str(tmp_path / "v")]) == 2

    def test_single_check_writes_report(self, tmp_path):
        rc = main(["verify", "--check", "gamma-exception", "--seed", "1", "--n", "500", "--reps", "5", "--out", str(tmp_path / "v")])
        report = json.loads(open(tmp_path / "v" / "gamma-exception.json").read())
        assert report["check_id"] == "gamma-exception"
        assert rc == (0 if report["pass"] else 1)


class TestSeedEnvFallback:
    def test_env_seed_used(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CAUSE_SIEVE_SEED", "21")
        out_env = tmp_path / "env"
        assert main(["datagen", "--generator", "linear-chain", "--n", "200", "--out", str(out_env)]) == 0
        monkeypatch.delenv("CAUSE_SIEVE_SEED")
        out_flag = tmp_path / "flag"
        assert main(["datagen", "--generator", "linear-chain", "--seed", "21", "--n", "200", "--out", str(out_flag)]) == 0
        assert _sha(f"{out_env}.csv") == _sha(f"{out_flag}.csv")
