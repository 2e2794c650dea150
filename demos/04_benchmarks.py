"""A small benchmark replication.

Runs a handful of replicates of the first benchmark (one true cause among
four covariates, correlated noises) and reports the two accuracy metrics
for both algorithms.  The CLI equivalent with the full replicate count:

    cause-sieve bench --benchmark 1 --reps 20 --n 500 --seed 42 --out bench1.csv
"""

import cause_sieve as cs

rows, summary = cs.bench_replicates(cs.gen_benchmark1, cs.FunctionClass("additive"), 5, n=500, seed=42)
for rep, (truth, isd_est, score_est) in enumerate(rows):
    print(f"rep {rep}: truth={truth} isd={isd_est} score={score_est}")

for name, (correct, nfp) in summary.items():
    print(f"{name:<6} correct causes {correct:.0f}% / no false positives {nfp:.0f}%")
