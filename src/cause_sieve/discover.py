"""Plausibility verdicts, the ISD intersection estimate, and the score search.

A candidate set passes when three questions all come back positive: the
recovered noise is independent of the covariates (HSIC), every covariate is
significant, and -- for the parametric class only -- the noise is uniform
on (0,1).  Each candidate's answers are one :class:`PlausibilityVerdict`,
and both estimates read it: the ISD estimate intersects all passing sets;
the score search ranks every candidate by the verdict's log-p-value terms
and returns the argmax.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import seeding
from .errors import BadParam, DomainViolation, StatError, TooManyCovariates
from .jsonout import json_value
from .model import (
    MAX_P,
    CandidateSet,
    Dataset,
    DiscoveryConfig,
    FunctionClass,
    enumerate_candidates,
)
from .parallel import thread_map
from .regress import EPS_CLIP, MODELS, PENALTY_GRID, SMOOTHER_DIM_CAP, recover_noise
from .stattests import SIG_PERMUTATIONS, TestResult, ad_uniform_test, column_bandwidths

# analyze reaches HSIC through this name, so a profiler that wraps
# ``discover.hsic_test`` (perfbench/run.py) times every candidate's test
from .stattests import _hsic_test as hsic_test

NEG_INF = float("-inf")
LOG_P_FLOOR = np.log(1e-12)


def _log_p(p: float) -> float:
    """ln p, clamped at ``LOG_P_FLOOR`` so several hard-zero p-values still order."""
    return max(float(np.log(max(p, 1e-300))), LOG_P_FLOOR)


@dataclass(frozen=True)
class PlausibilityVerdict:
    """The one record of a candidate set: its answers to the three questions,
    read by both the ISD intersection and the score search.  A class that
    skips the uniformity question reports ``p_dist = 1.0``; a failed fit
    reports NaN p-values and the error class in ``reason``.

    The score terms are read off the p-values: ln p_indep, ln(1 - p_sig_max)
    and ln p_dist, each clamped at ``LOG_P_FLOOR``, and ``total``, their plain
    sum.  A candidate whose fit failed scores -inf on each and ranks last."""

    candidate: CandidateSet
    independent: bool
    p_indep: float
    significant: bool
    p_sig_max: float
    uniform: bool
    p_dist: float
    plausible: bool
    reason: str | None = None

    def _term(self, p: float) -> float:
        return NEG_INF if self.reason is not None else _log_p(p)

    @property
    def independence(self) -> float:
        return self._term(self.p_indep)

    @property
    def significance(self) -> float:
        return self._term(1.0 - self.p_sig_max)

    @property
    def distribution(self) -> float:
        return self._term(self.p_dist)

    @property
    def total(self) -> float:
        return self.independence + self.significance + self.distribution


@dataclass(frozen=True)
class DiscoveryResult:
    """Every candidate's verdict and the two estimates derived from them.
    ``mode`` only picks which estimate :func:`result_to_json` writes."""

    function_class: FunctionClass
    config: DiscoveryConfig
    mode: str
    verdicts: list[PlausibilityVerdict] = field(repr=False)
    plausible_sets: list[CandidateSet]
    isd_estimate: tuple[int, ...]
    score_estimate: CandidateSet

    @property
    def score_table(self) -> list[PlausibilityVerdict]:
        """The verdicts, which carry the score terms, under the result
        file's name for them; ``perfbench/run.py`` reads this name."""
        return self.verdicts


def check_plausibility(
    data: Dataset, s: CandidateSet, f_class: FunctionClass, cfg: DiscoveryConfig | None = None
) -> PlausibilityVerdict:
    """Run the class-appropriate noise recovery and answer the three questions."""
    return _check_plausibility(data, s, f_class, cfg or DiscoveryConfig(), column_bandwidths(data.covariates(s)))


def _check_plausibility(
    data: Dataset, s: CandidateSet, f_class: FunctionClass, cfg: DiscoveryConfig, bandwidths: list[float]
) -> PlausibilityVerdict:
    """:func:`check_plausibility` with the HSIC bandwidths of the members of
    ``s`` given, in member order, as ``column_bandwidths`` selects them."""
    try:
        recovery = recover_noise(data, s, f_class, seed=seeding.child_seed(cfg.seed, f_class.code))
        indep = hsic_test(data.covariates(s), recovery.residuals, bandwidths)
        # only the parametric class asks the uniformity question; the rest answer p = 1
        p_dist = ad_uniform_test(recovery.eps).p_value if MODELS[f_class.key].parametric else 1.0
    except StatError as exc:
        # one degenerate candidate (domain violation, rank deficiency, ...)
        # must not abort a full search: score it implausible and move on
        nan = float("nan")
        return PlausibilityVerdict(s, False, nan, False, nan, False, nan, plausible=False, reason=type(exc).__name__)
    p_indep, p_sig_max = float(indep.p_value), float(np.max(recovery.significance_p))
    independent, significant, uniform = p_indep > cfg.alpha, p_sig_max < cfg.alpha, p_dist > cfg.alpha
    return PlausibilityVerdict(
        s, independent, p_indep, significant, p_sig_max, uniform, float(p_dist),
        plausible=independent and significant and uniform,
    )


def select_score_estimate(verdicts: list[PlausibilityVerdict]) -> CandidateSet:
    """Argmax of the total; ties prefer smaller cardinality, then lexicographic."""
    if not verdicts:
        raise BadParam("empty score table")
    return min(verdicts, key=lambda v: (-v.total, len(v.candidate), v.candidate.members)).candidate


def analyze(
    data: Dataset,
    f_class: FunctionClass,
    cfg: DiscoveryConfig | None = None,
    mode: str = "both",
) -> DiscoveryResult:
    """Evaluate every candidate once and derive both estimates from the
    verdicts; ``mode`` (``"isd"``, ``"score"`` or ``"both"``) only picks
    which of them :func:`result_to_json` writes.

    The candidates are evaluated on :func:`parallel.thread_map`, the largest
    sets started first: on one thread inside a worker process or a
    ``thread_map`` worker, else on ``min(DEFAULT_THREADS, available_cores())``.
    The spline solves release the interpreter lock, so two threads can be in
    OpenBLAS at once, and each may start BLAS threads of its own unless
    ``OPENBLAS_NUM_THREADS=1`` is set.  Each candidate seeds its own
    substreams, so the verdicts and the result JSON do not depend on the
    thread count.  A ``StatError`` marks its candidate implausible; any other
    exception stops the search and is raised here after every worker thread
    has finished.  Two faults that would fail every candidate are raised
    before any fit: ``TooManyCovariates`` past the smoother dimension cap,
    and ``DomainViolation`` for a target outside the family's support.
    Each covariate's HSIC bandwidth is selected once, before the candidates,
    and every candidate that holds the covariate reads it.
    """
    cfg = cfg or DiscoveryConfig()
    if mode not in ("isd", "score", "both"):
        raise BadParam(f"unknown mode {mode!r}")
    model_cls = MODELS[f_class.key]
    if model_cls.smoother and data.p > SMOOTHER_DIM_CAP:
        # the full set could never be fitted; fail before any candidate is
        raise TooManyCovariates(
            f"p={data.p} exceeds the smoother dimension cap of {SMOOTHER_DIM_CAP} for the {f_class.label} class"
        )
    # a target outside the family's support makes every candidate
    # unfittable: fail instead of returning a vacuous search
    model_cls.check_support(data.y)

    bandwidths = column_bandwidths(data.values[:, 1:])

    def evaluate(s: CandidateSet) -> PlausibilityVerdict:
        return _check_plausibility(data, s, f_class, cfg, [bandwidths[m - 1] for m in s.members])

    # enumerate_candidates ascends in |S|, so the reversed list starts the
    # largest, slowest fits first and the threads finish close together
    verdicts = thread_map(evaluate, enumerate_candidates(data.p)[::-1])[::-1]

    plausible_sets = [v.candidate for v in verdicts if v.plausible]
    common = set.intersection(*(set(s.members) for s in plausible_sets)) if plausible_sets else set()
    return DiscoveryResult(
        function_class=f_class,
        config=cfg,
        mode=mode,
        verdicts=verdicts,
        plausible_sets=plausible_sets,
        isd_estimate=tuple(sorted(common)),
        score_estimate=select_score_estimate(verdicts),
    )


def isd(data: Dataset, f_class: FunctionClass, cfg: DiscoveryConfig | None = None) -> DiscoveryResult:
    """Intersection of all plausible candidate sets.

    Returns the empty estimate both when the plausible sets have empty
    intersection and when no set is plausible at all (the latter is visible
    as an empty ``plausible_sets`` list).
    """
    return analyze(data, f_class, cfg, mode="isd")


def score_search(data: Dataset, f_class: FunctionClass, cfg: DiscoveryConfig | None = None) -> DiscoveryResult:
    """Best-scoring candidate set over the full enumeration."""
    return analyze(data, f_class, cfg, mode="score")


def empty_parent_test(data: Dataset, family: str) -> TestResult:
    """Can the target's marginal be the family with constant parameters?

    Fits global parameters, transforms u = F(y; theta_hat) (``marginal_noise``),
    and tests uniformity.  Conservative, since the parameters are fitted from
    the same sample.  A constant target fits no family: ``DomainViolation``.
    """
    model_cls = MODELS[FunctionClass("cpcm", family).key]
    y = data.y
    model_cls.check_support(y)
    if np.ptp(y) == 0.0:
        raise DomainViolation("constant target")
    return ad_uniform_test(np.clip(model_cls.marginal_noise(y), EPS_CLIP, 1.0 - EPS_CLIP))


def metrics(true_pa, estimates) -> tuple[float, float]:
    """(percentage of discovered correct causes, percentage of no false positives).

    The first averages |estimate & truth| / |truth| over runs; the second is
    the fraction of runs whose estimate contains no non-parent (an empty
    estimate vacuously qualifies).  A run with an empty truth contributes
    1.0 to the first average: there is nothing left to discover.
    """
    estimates = list(estimates)
    if not estimates:
        raise BadParam("estimates must be a non-empty list")
    truth = frozenset(true_pa)
    correct = []
    no_false = []
    for est in estimates:
        est = frozenset(est)
        correct.append(len(est & truth) / len(truth) if truth else 1.0)
        no_false.append(1.0 if est <= truth else 0.0)
    return 100.0 * float(np.mean(correct)), 100.0 * float(np.mean(no_false))


def replicate(generator, f_class: FunctionClass, rep: int, *, n: int, seed: int):
    """One benchmark replicate: draw ``generator(child_seed(seed, REPLICATE, rep), n)``,
    analyse it with ``DiscoveryConfig(seed=child_seed(seed, BOOT, rep))``, and
    return ``(true_pa, isd_estimate, score_estimate)``."""
    gd = generator(seeding.child_seed(seed, seeding.REPLICATE, rep), n)
    cfg = DiscoveryConfig(seed=seeding.child_seed(seed, seeding.BOOT, rep))
    result = analyze(gd.data, f_class, cfg)
    return gd.true_pa, result.isd_estimate, tuple(result.score_estimate.members)


def bench_replicates(generator, f_class: FunctionClass, reps: int, *, n: int, seed: int, run=None):
    """Replicate a benchmark ``reps`` times and average the two metrics.

    ``run(fn, reps)`` maps the one-replicate function over ``range(reps)``
    (a process pool, say); by default the replicates run in order.  Returns
    the per-replicate rows of :func:`replicate` and ``{algorithm:
    (correct-causes %, no-false-positives %)}`` for ``"isd"`` and ``"score"``.
    """
    if reps < 1:
        raise BadParam(f"reps must be at least 1, got {reps}")
    fn = partial(replicate, generator, f_class, n=n, seed=seed)
    rows = run(fn, reps) if run else [fn(rep) for rep in range(reps)]
    summary = {}
    for algorithm, idx in (("isd", 1), ("score", 2)):
        per_rep = [metrics(row[0], [row[idx]]) for row in rows]
        summary[algorithm] = (float(np.mean([m[0] for m in per_rep])), float(np.mean([m[1] for m in per_rep])))
    return rows, summary


# --------------------------------------------------------------------- #
# serialization: fixed key order, 17 significant digits, null for -inf
# --------------------------------------------------------------------- #


def _config_dict(cfg: DiscoveryConfig, f_class: FunctionClass) -> dict:
    """``alpha``, then the fixed procedure under the keys every result file
    carries: equal score weights, the Gamma HSIC (``hsic_permutations`` is
    a fixed recorded 500 that no code reads, kept so result files keep
    their bytes), the spline penalties, the sd-relative sigma floor (null)
    and the enumeration cap."""
    return {
        "function_class": f_class.label,
        "alpha": cfg.alpha,
        "lambdas": [1.0, 1.0, 1.0],
        "hsic_method": "gamma",
        "hsic_permutations": 500,
        "significance_permutations": SIG_PERMUTATIONS,
        "smoother": {
            "penalty_grid": list(PENALTY_GRID),
            "bandwidth_rule": "silverman",
            "sigma_floor": None,
        },
        "max_p": MAX_P,
        "significance_score": "one_minus_p_log",
    }


def result_to_json(result: DiscoveryResult) -> str:
    """Serialize with a fixed schema: isd_estimate, plausible_sets,
    score_table, score_estimate, config, seed.  The two fields of the
    estimate that ``result.mode`` leaves out read null.  ``config`` also
    names the one procedure implemented: ``"bandwidth_rule": "silverman"``
    and the ln(1 - p) significance term, ``"significance_score":
    "one_minus_p_log"``."""
    writes_isd = result.mode in ("isd", "both")
    writes_score = result.mode in ("score", "both")
    doc = {
        "isd_estimate": list(result.isd_estimate) if writes_isd else None,
        "plausible_sets": [list(s.members) for s in result.plausible_sets] if writes_isd else None,
        "score_table": (
            [
                {
                    "set": list(v.candidate.members),
                    "independence": v.independence,
                    "significance": v.significance,
                    "distribution": v.distribution,
                    "total": v.total,
                }
                for v in result.verdicts
            ]
            if writes_score
            else None
        ),
        "score_estimate": list(result.score_estimate.members) if writes_score else None,
        "config": _config_dict(result.config, result.function_class),
        "seed": result.config.seed,
    }
    return json_value(doc) + "\n"


def save_result(result: DiscoveryResult, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(result_to_json(result))
