"""Command-line surface.

Subcommands: ``discover`` (run the sieve on a CSV), ``bench`` (replicate a
benchmark and report the two accuracy metrics), ``simulate`` (the
interaction-strength grid), ``datagen`` (write a synthetic dataset plus its
sidecar), and ``verify`` (the Monte-Carlo theory checks).

Exit codes: 0 success, 2 validation / usage error, 3 statistical-procedure
error.  All output files are byte-identical under identical flags and seed.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from functools import partial

import numpy as np

from . import seeding, verify
from .discover import DiscoveryConfig, analyze, bench_replicates, save_result
from .errors import StatError, ValidationError
from .model import FunctionClass, average_ranks, load_csv
from .parallel import available_cores
from .synth import GENERATORS, gen_additive_grid, gen_linear_chain, write_generated

SEED_ENV_VAR = "CAUSE_SIEVE_SEED"

VERIFY_CHECKS = (
    "dist-equality",
    "cool-lemma:1",
    "cool-lemma:2",
    "cool-lemma:3",
    "cool-lemma:4",
    "gamma-exception",
    "norm-exception",
    "marginalizability",
)


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is not None:
        try:
            return int(raw)
        except ValueError:
            raise ValidationError(f"{SEED_ENV_VAR}={raw!r} is not an integer") from None
    return DiscoveryConfig.seed


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cause-sieve", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("discover", help="estimate the direct causes of a target column")
    p.add_argument("csv", help="input CSV with a header row")
    p.add_argument("--target", required=True, help="name of the target column")
    p.add_argument(
        "--class",
        dest="f_class",
        default="additive",
        help="linear | additive | location-scale | cpcm:gaussian | cpcm:gamma | cpcm:pareto",
    )
    p.add_argument("--mode", choices=("isd", "score", "both"), default="both")
    p.add_argument("--alpha", type=float, default=DiscoveryConfig.alpha)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="discovery_result.json", help="path for the result JSON")

    p = sub.add_parser("bench", help="replicate one benchmark and report accuracy metrics")
    p.add_argument("--benchmark", required=True, help="1, 2, or 3")
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--class", dest="f_class", default=None, help="override the benchmark's default class")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="bench_results.csv")
    p.add_argument("--jobs", type=int, default=0, help="worker processes for replicate evaluation (0 = all cores)")

    p = sub.add_parser("simulate", help="interaction-strength grid for the additive generator")
    p.add_argument("--grid", nargs=2, metavar=("C_RANGE", "GAMMA_RANGE"),
                   default=["c:0:0.9", "gamma:0:1"], help="e.g. c:0:0.9 gamma:0:1")
    p.add_argument("--steps", nargs=2, type=int, metavar=("C_STEPS", "GAMMA_STEPS"), default=[4, 5])
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="simulation_grid.csv")
    p.add_argument("--jobs", type=int, default=0)

    p = sub.add_parser("datagen", help="write a synthetic dataset (CSV + JSON sidecar)")
    p.add_argument("--generator", required=True, choices=sorted(GENERATORS))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--c", type=float, default=0.5, help="parent correlation (additive-grid)")
    p.add_argument("--gamma", type=float, default=0.5, help="interaction weight (additive-grid)")
    p.add_argument("--noise", choices=("gaussian", "uniform"), default="gaussian", help="noise family (linear-chain)")
    p.add_argument("--out", required=True, help="output prefix (writes <out>.csv and <out>.json)")

    p = sub.add_parser("verify", help="run the Monte-Carlo theory checks")
    p.add_argument("--check", default="all", help="one of %s, or all" % ", ".join(VERIFY_CHECKS))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--n", type=int, default=None, help="override the check's sample size")
    p.add_argument("--reps", type=int, default=None, help="override the check's replication count")
    p.add_argument("--out", default="verify", help="directory for the JSON reports")

    return parser


def _seed_of(args) -> int:
    return args.seed if args.seed is not None else _default_seed()


def _check_count(flag: str, value: int | None) -> None:
    if value is not None and value < 1:
        raise ValidationError(f"{flag} must be at least 1, got {value}")


def _jobs_of(args) -> int | None:
    """``--jobs``: a worker count, or 0 for every available core (None)."""
    if args.jobs < 0:
        raise ValidationError(f"--jobs must be 0 (all cores) or positive, got {args.jobs}")
    return args.jobs or None


def cmd_discover(args) -> int:
    seed = _seed_of(args)
    f_class = FunctionClass.parse(args.f_class)
    data = load_csv(args.csv, args.target)
    cfg = DiscoveryConfig(alpha=args.alpha, seed=seed)
    result = analyze(data, f_class, cfg, mode=args.mode)
    save_result(result, args.out)
    names = {i: data.names[i] for i in range(1, data.p + 1)}
    if args.mode != "score":
        labels = [names[i] for i in result.isd_estimate]
        print(f"isd_estimate: {list(result.isd_estimate)} {labels}")
        if not result.plausible_sets:
            print("note: no candidate set was plausible; the empty estimate is a diagnostic, not a claim")
    if args.mode != "isd":
        labels = [names[i] for i in result.score_estimate.members]
        print(f"score_estimate: {list(result.score_estimate.members)} {labels}")
    print(f"result written to {args.out}")
    return 0


# default class of each benchmark; its generator is GENERATORS["benchmark<k>"]
_BENCH = {"1": "additive", "2": "additive", "3": "cpcm:pareto"}


def _run_replicates(fn, reps: int, workers: int | None):
    """``[fn(r) for r in range(reps)]`` on a pool of at most ``workers``
    processes (None: every available core).  In a worker process
    :func:`parallel.thread_map` keeps to one thread, so parallelism stays
    one level deep."""
    if workers is None:
        workers = available_cores()
    if workers > 1 and reps > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, reps)) as pool:
            return list(pool.map(fn, range(reps)))
    return [fn(r) for r in range(reps)]


def cmd_bench(args) -> int:
    if args.benchmark not in _BENCH:
        raise ValidationError(f"unknown benchmark {args.benchmark!r}; expected 1, 2, or 3")
    _check_count("--reps", args.reps)
    jobs = _jobs_of(args)
    seed = _seed_of(args)
    f_class_label = args.f_class or _BENCH[args.benchmark]
    _, summary = bench_replicates(
        GENERATORS[f"benchmark{args.benchmark}"],
        FunctionClass.parse(f_class_label),
        args.reps,
        n=args.n,
        seed=seed,
        run=partial(_run_replicates, workers=jobs),
    )

    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["algorithm", "benchmark", "reps", "n", "class", "correct_causes_pct", "no_false_positives_pct"])
        for algorithm, (correct, nfp) in summary.items():
            writer.writerow([algorithm, args.benchmark, args.reps, args.n, f_class_label, repr(correct), repr(nfp)])

    print(f"benchmark {args.benchmark} ({args.reps} reps, n={args.n}, class={f_class_label})")
    print(f"{'algorithm':<10} correct% / no-false-positive%")
    for algorithm, (correct, nfp) in summary.items():
        print(f"{algorithm:<10} {correct:.0f}% / {nfp:.0f}%")
    print(f"table written to {args.out}")
    return 0


def _parse_range(token: str, name: str) -> tuple[float, float]:
    parts = token.split(":")
    if len(parts) != 3 or parts[0] != name:
        raise ValidationError(f"expected {name}:LO:HI, got {token!r}")
    try:
        lo, hi = float(parts[1]), float(parts[2])
    except ValueError:
        raise ValidationError(f"expected {name}:LO:HI with numeric bounds, got {token!r}") from None
    if lo > hi:
        raise ValidationError(f"empty range in {token!r}")
    return lo, hi


def _simulate_chunk(idx: int, *, cells, reps: int, n: int, seed: int):
    """Rows ``(c, gamma, rep, discovered_count)`` of grid cell ``idx``: the
    number of true parents in the ISD estimate of each replicate."""
    c, g = cells[idx]
    rows, _ = bench_replicates(
        partial(gen_additive_grid, c=c, gamma=g), FunctionClass("additive"), reps, n=n, seed=seeding.child_seed(seed, idx)
    )
    return [(c, g, rep, len(set(isd) & set(truth))) for rep, (truth, isd, _) in enumerate(rows)]


def spearman_rho(a, b) -> float:
    """Spearman's rank correlation: the Pearson correlation of the average
    ranks (scipy's ``spearmanr(a, b).statistic``); nan, without a warning,
    when either vector is constant."""
    ranks = [average_ranks(np.asarray(v, dtype=float)) for v in (a, b)]
    if any(r.min() == r.max() for r in ranks):
        return float("nan")
    return float(np.corrcoef(ranks)[0, 1])


def cmd_simulate(args) -> int:
    seed = _seed_of(args)
    c_lo, c_hi = _parse_range(args.grid[0], "c")
    g_lo, g_hi = _parse_range(args.grid[1], "gamma")
    _check_count("--steps", min(args.steps))
    _check_count("--reps", args.reps)
    jobs = _jobs_of(args)
    c_vals = np.linspace(c_lo, c_hi, args.steps[0])
    g_vals = np.linspace(g_lo, g_hi, args.steps[1])

    cells = [(float(c), float(g)) for c in c_vals for g in g_vals]
    runner = partial(_simulate_chunk, cells=cells, reps=args.reps, n=args.n, seed=seed)
    chunks = _run_replicates(runner, len(cells), jobs)
    rows = [row for chunk in chunks for row in chunk]

    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["c", "gamma", "rep", "discovered_count"])
        for c, g, rep, count in rows:
            writer.writerow([repr(float(c)), repr(float(g)), rep, count])

    gammas = [g for _, g, _, _ in rows]
    counts = [k for _, _, _, k in rows]
    rho = spearman_rho(gammas, counts)
    by_gamma = {}
    for _, g, _, k in rows:
        by_gamma.setdefault(g, []).append(k)
    print("mean discovered parents by gamma:")
    for g in sorted(by_gamma):
        print(f"  gamma={g:.3g}: {np.mean(by_gamma[g]):.2f}")
    print(f"spearman(gamma, discovered_count) = {rho:.3f}")
    print(f"grid written to {args.out} ({len(rows)} rows)")
    return 0


def cmd_datagen(args) -> int:
    seed = _seed_of(args)
    name = args.generator
    if name == "additive-grid":
        gd = gen_additive_grid(seed, args.n, args.c, args.gamma)
    elif name == "linear-chain":
        gd = gen_linear_chain(seed, args.n, args.noise)
    else:
        gd = GENERATORS[name](seed, args.n)
    csv_path, json_path = write_generated(gd, args.out)
    print(f"wrote {csv_path} ({gd.data.n} rows) and {json_path} (true_pa={list(gd.true_pa)})")
    return 0


def _run_verify_check(name: str, seed: int, n: int | None, reps: int | None):
    """Reports of one check; a flag not given leaves the check's own default."""
    kw = {"seed": seed} if n is None else {"seed": seed, "n": n}
    if name == "dist-equality":  # one draw, so --reps does not apply
        return [verify.check_dist_equality(**kw)]
    if reps is not None:
        kw["n_reps"] = reps
    if name.startswith("cool-lemma:"):
        return [verify.check_cool_lemma(int(name.split(":")[1]), **kw)]
    if name == "gamma-exception":
        return [verify.check_gamma_support_exception(**kw)]
    if name == "norm-exception":
        return [verify.check_norm_exception(**kw)]
    # marginalizability; cmd_verify admits no other name
    return [verify.check_marginalizability(noise, **kw) for noise in ("gaussian", "uniform")]


def cmd_verify(args) -> int:
    seed = _seed_of(args)
    names = list(VERIFY_CHECKS) if args.check == "all" else [args.check]
    if args.check != "all" and args.check not in VERIFY_CHECKS:
        raise ValidationError(f"unknown check {args.check!r}; expected one of {VERIFY_CHECKS} or all")
    _check_count("--n", args.n)
    _check_count("--reps", args.reps)
    os.makedirs(args.out, exist_ok=True)
    all_passed = True
    for name in names:
        for report in _run_verify_check(name, seed, args.n, args.reps):
            path = os.path.join(args.out, report.check_id.replace(":", "_") + ".json")
            report.save(path)
            status = "PASS" if report.passed else "FAIL"
            print(f"{report.check_id:<28} {status}  {report.payload}")
            all_passed = all_passed and report.passed
    return 0 if all_passed else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "discover": cmd_discover,
        "bench": cmd_bench,
        "simulate": cmd_simulate,
        "datagen": cmd_datagen,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StatError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
