"""Acceptance gates.

Each test prints one PASS/FAIL line (run pytest with -s to stream them).
Monte-Carlo gates use frozen seeds; every expected rate was derived from
independent tuning runs before being pinned here.
"""

import hashlib
import time

import numpy as np
from scipy.stats import kstest, spearmanr

import cause_sieve as cs
from cause_sieve import seeding
from cause_sieve.cli import main

BENCH_SEED = 42
SOUND_SEED = 7
CHAIN_SEED = 11
CALIB_SEED = 123
POWER_SEED = 13


def _line(tag, ok, detail):
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} ({detail})")


def _sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def _bench_runs(generator, n_reps, n, f_class, mode):
    _, summary = cs.bench_replicates(generator, f_class, n_reps, n=n, seed=BENCH_SEED)
    return summary[mode]


def test_criterion_01_benchmark1_isd():
    start = time.monotonic()
    correct, nfp = _bench_runs(cs.gen_benchmark1, 20, 500, cs.FunctionClass("additive"), "isd")
    elapsed = time.monotonic() - start
    ok = nfp == 100.0 and correct >= 85.0 and elapsed <= 900.0
    _line("01 benchmark1-isd", ok, f"correct={correct:.0f}% nfp={nfp:.0f}% time={elapsed:.0f}s")
    assert nfp == 100.0
    assert correct >= 85.0
    assert elapsed <= 900.0


def test_criterion_02_benchmark2_score():
    correct, nfp = _bench_runs(cs.gen_benchmark2, 20, 500, cs.FunctionClass("additive"), "score")
    ok = correct >= 80.0 and nfp >= 90.0
    _line("02 benchmark2-score", ok, f"correct={correct:.0f}% nfp={nfp:.0f}%")
    assert correct >= 80.0
    assert nfp >= 90.0


def test_criterion_03_benchmark3_score():
    correct, nfp = _bench_runs(cs.gen_benchmark3, 20, 500, cs.FunctionClass("cpcm", "pareto"), "score")
    ok = correct >= 70.0 and nfp >= 70.0
    _line("03 benchmark3-score", ok, f"correct={correct:.0f}% nfp={nfp:.0f}%")
    assert correct >= 70.0
    assert nfp >= 70.0


def test_criterion_04_interaction_trend():
    """With independent parents (c = 0), the rate at which the ISD is the
    full set {1, 2} rises with the interaction weight gamma.

    At gamma = 0 the target is Y = g1(X1) + g2(X2) + eta, and
    Y - g1(X1) = g2(X2) + eta is independent of X1, so {1} and {2} stay
    plausible and the ISD cannot be {1, 2}; the interaction term removes
    that independence (Peters et al., JMLR 2014). Correlated parents are
    left out: for c > 0, g2(X2) - E[g2(X2) | X1] already depends on X1 at
    gamma = 0, so the full set is identified without any interaction and
    the theory predicts no trend in gamma there. A Spearman rho pooled over
    c cannot pass with enough power: in the large-sample limit the c = 0 row
    is (0, h, h, h, h) and every c > 0 cell is h, which gives rho = 0.378
    for any h > 0.

    The bounds rho >= 0.8, rate(0, 0) <= 0.20 and rate(0, 1) >= 0.60 are
    the original ones of the pooled gate, not re-tuned, and the c = 0 row
    keeps its seeds.
    """
    gamma_values = (0.0, 0.25, 0.5, 0.75, 1.0)
    reps = 10
    rates = []
    for gi, gamma in enumerate(gamma_values):
        full = 0
        for rep in range(reps):
            gd = cs.gen_additive_grid(seeding.child_seed(17, 0, gi, rep), 500, 0.0, gamma)
            cfg = cs.DiscoveryConfig(seed=seeding.child_seed(18, 0, gi, rep))
            res = cs.isd(gd.data, cs.FunctionClass("additive"), cfg)
            full += res.isd_estimate == (1, 2)
        rates.append(full / reps)
    rho = spearmanr(gamma_values, rates).statistic
    at_00, at_01 = rates[0], rates[-1]
    ok = at_00 <= 0.20 and at_01 >= 0.60 and rho >= 0.8
    shown = ", ".join(f"{rate:.1f}" for rate in rates)
    _line("04 interaction-trend", ok, f"c=0 rates over gamma=[{shown}] spearman={rho:.2f}")
    assert at_00 <= 0.20
    assert at_01 >= 0.60
    assert rho >= 0.8


def test_criterion_05_chain_marginalizability():
    gauss = cs.check_marginalizability("gaussian", n=2000, n_reps=50, seed=CHAIN_SEED)
    unif = cs.check_marginalizability("uniform", n=2000, n_reps=50, seed=CHAIN_SEED)
    ok = gauss.payload["empty_rate"] >= 0.9 and unif.payload["x1_rate"] >= 0.8
    _line(
        "05 chain-marginalizability", ok,
        f"gaussian-empty={gauss.payload['empty_rate']:.2f} uniform-x1={unif.payload['x1_rate']:.2f}",
    )
    assert gauss.payload["empty_rate"] >= 0.9
    assert unif.payload["x1_rate"] >= 0.8


def test_criterion_06_hsic_calibration():
    p_values = []
    for rep in range(500):
        rng = seeding.substream(CALIB_SEED, seeding.REPLICATE, rep)
        p_values.append(cs.hsic_test(rng.standard_normal(200), rng.standard_normal(200)).p_value)
    p_values = np.asarray(p_values)
    rejection = float(np.mean(p_values < 0.05))
    ks_p = kstest(p_values, "uniform").pvalue
    ok = 0.02 <= rejection <= 0.09 and ks_p > 0.01
    _line("06 hsic-calibration", ok, f"rejection={rejection:.3f} ks_p={ks_p:.3f}")
    assert 0.02 <= rejection <= 0.09
    assert ks_p > 0.01


def test_criterion_07_ad_analytic_point():
    stat = cs.ad_uniform_test([0.5]).statistic
    ok = abs(stat - (2 * np.log(2) - 1)) <= 1e-12
    _line("07 ad-analytic", ok, f"A2={stat!r}")
    assert abs(stat - (2 * np.log(2) - 1)) <= 1e-12


def test_criterion_08_affine_equality_grid():
    report = cs.check_dist_equality(n=20000, seed=3)
    minima = report.payload["minima"][:2]
    ok = report.passed
    _line("08 lemma-grid-search", ok, f"two smallest minima at {[(round(a,3), round(b,3)) for _, a, b in minima]}")
    assert report.passed


def test_criterion_09_inseparability_suite():
    details = []
    all_ok = True
    for part in (1, 2, 3, 4):
        r = cs.check_cool_lemma(part, n=2000, n_reps=100, seed=5)
        details.append(f"p{part}:{r.payload['rejection_rate']:.2f}/{r.payload['control_rejection_rate']:.2f}")
        all_ok = all_ok and r.payload["rejection_rate"] >= 0.95 and r.payload["control_rejection_rate"] <= 0.10
    _line("09 inseparability", all_ok, " ".join(details) + " (reject/control)")
    assert all_ok


def test_criterion_10_gamma_support_exception():
    r = cs.check_gamma_support_exception(n=2000, n_reps=100, seed=5)
    ok = r.payload["rejection_rate"] <= 0.12 and r.payload["control_rejection_rate"] >= 0.9
    _line(
        "10 gamma-exception", ok,
        f"equal-scale-rejection={r.payload['rejection_rate']:.2f} control={r.payload['control_rejection_rate']:.2f}",
    )
    assert r.payload["rejection_rate"] <= 0.12
    assert r.payload["control_rejection_rate"] >= 0.9


def test_criterion_11_byte_identical_outputs(tmp_path):
    gd = cs.gen_benchmark2(7, 200)
    csv_path, _ = cs.write_generated(gd, tmp_path / "data")

    hashes = {}
    for tag in ("a", "b"):
        datagen_out = tmp_path / f"gen_{tag}"
        assert main(["datagen", "--generator", "benchmark1", "--seed", "5", "--n", "200", "--out", str(datagen_out)]) == 0
        result_out = tmp_path / f"res_{tag}.json"
        assert main([
            "discover", str(csv_path), "--target", "Y", "--class", "additive",
            "--mode", "both", "--seed", "5", "--out", str(result_out),
        ]) == 0
        sim_out = tmp_path / f"sim_{tag}.csv"
        assert main([
            "simulate", "--grid", "c:0:0.5", "gamma:0:1", "--steps", "2", "2",
            "--reps", "2", "--n", "150", "--seed", "5", "--jobs", "1", "--out", str(sim_out),
        ]) == 0
        hashes[tag] = (
            _sha(f"{datagen_out}.csv"), _sha(f"{datagen_out}.json"), _sha(result_out), _sha(sim_out),
        )
    ok = hashes["a"] == hashes["b"]
    _line("11 determinism", ok, f"{len(hashes['a'])} artifacts hashed")
    assert hashes["a"] == hashes["b"]


def test_criterion_12_plausibility_soundness():
    generators = {
        "additive-grid": (lambda s, n: cs.gen_additive_grid(s, n, 0.5, 0.5), cs.FunctionClass("additive")),
        "benchmark1": (cs.gen_benchmark1, cs.FunctionClass("additive")),
        "benchmark2": (cs.gen_benchmark2, cs.FunctionClass("additive")),
        "benchmark3": (cs.gen_benchmark3, cs.FunctionClass("cpcm", "pareto")),
        "linear-chain-gaussian": (lambda s, n: cs.gen_linear_chain(s, n, "gaussian"), cs.FunctionClass("linear")),
        "linear-chain-uniform": (lambda s, n: cs.gen_linear_chain(s, n, "uniform"), cs.FunctionClass("linear")),
    }
    rates = {}
    for name, (generator, f_class) in generators.items():
        hits = total = 0
        for rep in range(50):
            gd = generator(seeding.child_seed(SOUND_SEED, seeding.REPLICATE, rep), 500)
            if not gd.true_pa:
                continue  # the third benchmark draws an empty parent set sometimes
            total += 1
            cfg = cs.DiscoveryConfig(seed=seeding.child_seed(SOUND_SEED, seeding.BOOT, rep))
            verdict = cs.check_plausibility(gd.data, cs.CandidateSet(gd.true_pa), f_class, cfg)
            hits += verdict.plausible
        rates[name] = hits / total
    ok = all(rate >= 0.85 for rate in rates.values())
    _line("12 soundness", ok, " ".join(f"{k}={v:.2f}" for k, v in rates.items()))
    for name, rate in rates.items():
        assert rate >= 0.85, f"{name} true-parent plausibility {rate:.2f} < 0.85"


def test_criterion_13_correlated_parents_power():
    """With correlated parents (c > 0) the ISD is the full set {1, 2} at
    every interaction weight gamma, and the sieve finds it often enough.

    For c > 0, g2(X2) - E[g2(X2) | X1] depends on X1 already at gamma = 0,
    so Y - E[Y | X1] is not independent of X1 and neither singleton is
    plausible (the identifiability argument of criterion 04; Peters et al.,
    JMLR 2014).  Finite-sample power is well below 1: near-collinear
    parents leave a small g2(X2) - E[g2(X2) | X1], and HSIC often keeps one
    singleton.  A sieve that never rejects gives ISD = () and fails here;
    one that rejects every singleton is caught by criterion 04's
    rate(0, 0) <= 0.20.

    50 tables: c in (0.6, 0.9), gamma in (0, 0.25, 0.5, 0.75, 1), 5 each,
    at n = 500.  The floor 0.50 was set from six tuning draws of the same
    50 tables, with base seeds 1001-1006 in place of POWER_SEED: their
    full-set rates were 0.66, 0.72, 0.74, 0.74, 0.72 and 0.62 (210 of 300),
    and the floor is their mean less three binomial standard deviations of
    a 50-table rate.
    """
    full = 0
    for ci, c in enumerate((0.6, 0.9)):
        for gi, gamma in enumerate((0.0, 0.25, 0.5, 0.75, 1.0)):
            for rep in range(5):
                gd = cs.gen_additive_grid(seeding.child_seed(POWER_SEED, seeding.GENERATOR, ci, gi, rep), 500, c, gamma)
                cfg = cs.DiscoveryConfig(seed=seeding.child_seed(POWER_SEED, seeding.BOOT, ci, gi, rep))
                full += cs.isd(gd.data, cs.FunctionClass("additive"), cfg).isd_estimate == (1, 2)
    rate = full / 50
    _line("13 correlated-parents-power", rate >= 0.50, f"full-set rate={rate:.2f} over c=0.6, 0.9")
    assert rate >= 0.50
