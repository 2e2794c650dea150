"""Monte-Carlo checks of the identifiability theory.

Each check turns a population-level claim into a finite-sample experiment
with an explicit control arm, so a miscalibrated independence test cannot
silently pass the suite.  Reports are pure functions of (check id, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import seeding
from .discover import DiscoveryConfig, analyze, check_plausibility
from .errors import BadParam
from .jsonout import write_json
from .model import CandidateSet, FunctionClass, validate_dataset
from .parallel import thread_map
from .stattests import hsic_test, hsic_tests
from .synth import gen_linear_chain

ALPHA = 0.05


@dataclass(frozen=True)
class TheoryCheckReport:
    check_id: str
    seed: int
    n_reps: int
    n_samples: int
    passed: bool
    payload: dict = field(default_factory=dict)

    def to_doc(self) -> dict:
        return {
            "check_id": self.check_id,
            "seed": self.seed,
            "n_reps": self.n_reps,
            "n_samples": self.n_samples,
            "pass": self.passed,
            "payload": self.payload,
        }

    def save(self, path) -> None:
        write_json(path, self.to_doc())


def _rejects(x, e) -> bool:
    return hsic_test(x, e).p_value < ALPHA


# --------------------------------------------------------------------- #
# affine distributional equality: a + bX = X in distribution only at
# (a, b) = (0, 1) and (2 med(X), -1)
# --------------------------------------------------------------------- #
#
# Equality of distributions under an affine map is fingerprinted by two
# matching conditions: the symmetric quantile spreads Q(q) - Q(1-q) must
# agree (which forces b = +/-1), and the medians must agree (which then
# pins a).  The fingerprint distance below is exactly zero at (0, 1) and
# at (2 med(X), -1) for any continuous X, and bounded away from zero
# elsewhere, so the grid search recovers precisely the two admissible
# points.  A raw KS distance between the transformed and original samples
# would not do: for an asymmetric X the reflected distribution never
# matches, and the KS-optimal shift drifts away from 2 med(X).

_SPREAD_QS = np.arange(0.55, 0.9951, 0.005)
_SPREAD_PAIRS = np.concatenate([_SPREAD_QS, 1.0 - _SPREAD_QS])  # Q(q), then Q(1-q), from one np.quantile call


def _fingerprint_distance(x_sorted: np.ndarray):
    """``affine_equality_distance(x_sorted, a, b)`` as a function of (a, b),
    with X's own quantile spreads and median computed once."""
    spread_x = np.quantile(x_sorted, _SPREAD_QS) - np.quantile(x_sorted, 1.0 - _SPREAD_QS)
    median_x = float(np.median(x_sorted))
    k = _SPREAD_QS.size

    def distance(a: float, b: float) -> float:
        transformed = a + b * x_sorted
        if b < 0:
            transformed = transformed[::-1]
        elif b == 0:
            transformed = np.full_like(x_sorted, a)
        q_t = np.quantile(transformed, _SPREAD_PAIRS)
        return max(float(np.max(np.abs(q_t[:k] - q_t[k:] - spread_x))), abs(float(np.median(transformed)) - median_x))

    return distance


def affine_equality_distance(x_sorted: np.ndarray, a: float, b: float) -> float:
    """Distributional-equality fingerprint distance between a + bX and X."""
    return _fingerprint_distance(x_sorted)(a, b)


def _local_minima(surface: np.ndarray) -> np.ndarray:
    """Mask of the 4-neighbourhood local minima: no neighbour below, one above.
    A missing neighbour is +inf for the first test, -inf for the second."""
    above, below = np.pad(surface, 1, constant_values=np.inf), np.pad(surface, 1, constant_values=-np.inf)
    inner, before, after = slice(1, -1), slice(0, -2), slice(2, None)
    shifts = [(before, inner), (after, inner), (inner, before), (inner, after)]
    is_min = np.logical_and.reduce([surface <= above[sh] for sh in shifts])
    return is_min & np.logical_or.reduce([surface < below[sh] for sh in shifts])


def check_dist_equality(
    dist: str = "exponential",
    n: int = 20000,
    grid_a: tuple[float, float, float] = (-4.0, 4.0, 0.05),
    grid_b: tuple[float, float, float] = (-2.0, 2.0, 0.05),
    seed: int = 0,
) -> TheoryCheckReport:
    """Grid-search the affine map for distributional fixed points.

    Passes when the two smallest local minima of the fingerprint surface
    sit within 0.1 of (0, 1) and (2 med(X), -1), and every grid point
    within 1.5x of the minimum level lies in those two neighbourhoods.
    """
    if dist not in ("exponential", "lognormal"):
        raise BadParam(f"dist must be exponential or lognormal, got {dist!r}")
    for lo, hi, step in (grid_a, grid_b):
        if step > 0.05 + 1e-12 or lo >= hi:
            raise BadParam("grids must cover their range at step <= 0.05")

    rng = seeding.substream(seed, seeding.REPLICATE, 1)
    x = rng.exponential(1.0, n) if dist == "exponential" else rng.lognormal(0.0, 1.0, n)
    xs = np.sort(x)
    med = float(np.median(x))

    a_vals = np.arange(grid_a[0], grid_a[1] + grid_a[2] / 2, grid_a[2])
    b_vals = np.arange(grid_b[0], grid_b[1] + grid_b[2] / 2, grid_b[2])
    distance = _fingerprint_distance(xs)
    surface = np.array([[distance(a, b) for b in b_vals] for a in a_vals])

    minima = sorted((float(surface[i, j]), float(a_vals[i]), float(b_vals[j])) for i, j in np.argwhere(_local_minima(surface)))

    targets = [(0.0, 1.0), (2.0 * med, -1.0)]

    def hits(a, b):
        return {t for t, (ta, tb) in enumerate(targets) if np.hypot(a - ta, b - tb) <= 0.1}

    # the targets are at least 2 apart, so each minimum hits at most one and
    # hitting both means each of the two smallest minima is near a target
    two_ok = set().union(*(hits(a, b) for _, a, b in minima[:2])) == {0, 1}

    # the fingerprint is exactly zero at the admissible points, so the
    # basin level is floored at the quantile-estimation noise scale
    global_min = float(surface.min())
    level = 1.5 * max(global_min, 1.36 * np.sqrt(2.0 / n))
    close = np.argwhere(surface <= level)
    basin_ok = all(hits(float(a_vals[i]), float(b_vals[j])) for i, j in close)

    return TheoryCheckReport(
        check_id=f"dist-equality:{dist}",
        seed=seed,
        n_reps=1,
        n_samples=n,
        passed=bool(two_ok and basin_ok),
        payload={
            "median": med,
            "targets": [list(t) for t in targets],
            "minima": [list(m) for m in minima[:6]],
            "global_min": global_min,
            "two_smallest_near_targets": bool(two_ok),
            "near_min_basin_confined": bool(basin_ok),
        },
    )


# --------------------------------------------------------------------- #
# the inseparability lemma: mismatched parameter forms force dependence
# --------------------------------------------------------------------- #


def _cool_lemma_draw(part: int, rng: np.random.Generator, n: int):
    """(combination, conditioning block) for the main arm and the control arm.

    The main arm instantiates the lemma's hypotheses with smooth
    polynomials; the control arm realises an achievable independence so a
    broken test cannot pass by rejecting everything.
    """
    if part in (1, 2, 3):
        x1 = rng.standard_normal(n)
        x2 = rng.standard_normal(n)
        if part == 1:
            main = (1.0 + x1**2) * (x1**3 + x2**3)
            control = x2**3
        elif part == 2:
            h1, h2 = 1.0 + x1**2, 1.0 + x2**2
            main = x1 + h1 * h2
            control = -h1 + (h1 + h2)  # f = -h1 with the additive form
        else:
            main = x1 + np.exp(x1) * x2
            control = x2
        return x1, main, control
    if part == 4:
        cov = np.full((3, 3), 0.5)
        np.fill_diagonal(cov, 1.0)
        x = rng.standard_normal((n, 3)) @ np.linalg.cholesky(cov).T
        combo = x[:, 1] + x[:, 2]
        main = x[:, 0] + (1.0 + x[:, 0] ** 2) * combo
        control = combo - x[:, 0]  # uncorrelated, hence independent, of X1
        return x[:, 0], main, control
    raise BadParam(f"part must be 1..4, got {part}")


def _rejection_rates(draw, n_reps: int) -> tuple[float, float]:
    """Rejection rates of both arms over ``n_reps`` draws, run on the
    default threads of :func:`parallel.thread_map`; each draw seeds its own
    substream, so the rates do not depend on the thread count."""
    outcomes = thread_map(draw, range(n_reps))
    return sum(a for a, _ in outcomes) / n_reps, sum(b for _, b in outcomes) / n_reps


def check_cool_lemma(part: int, n: int = 2000, n_reps: int = 100, seed: int = 0) -> TheoryCheckReport:
    """Rejection rates for one part of the inseparability lemma."""

    def draw(r):
        rng = seeding.substream(seed, seeding.REPLICATE, part, r)
        x1, main, control = _cool_lemma_draw(part, rng, n)
        main_res, control_res = hsic_tests(x1, [main, control])
        return main_res.p_value < ALPHA, control_res.p_value < ALPHA

    main_rate, control_rate = _rejection_rates(draw, n_reps)
    return TheoryCheckReport(
        check_id=f"cool-lemma:{part}",
        seed=seed,
        n_reps=n_reps,
        n_samples=n,
        passed=bool(main_rate >= 0.95 and control_rate <= 0.10),
        payload={"rejection_rate": main_rate, "control_rejection_rate": control_rate},
    )


# --------------------------------------------------------------------- #
# the Gamma equal-scale exception: Y/(Y+eta) independent of Y+eta
# --------------------------------------------------------------------- #


def check_gamma_support_exception(
    k1: float = 2.0,
    k2: float = 3.0,
    scale: float = 1.0,
    n: int = 2000,
    n_reps: int = 100,
    seed: int = 0,
) -> TheoryCheckReport:
    """Equal Gamma scales make the support ratio independent of the sum;
    unequal scales (the control, scale doubled) must be detected."""
    if k1 <= 0 or k2 <= 0 or scale <= 0:
        raise BadParam("shapes and scale must be positive")

    def draw(r):
        rng = seeding.substream(seed, seeding.REPLICATE, 31, r)
        y = rng.gamma(k1, scale, n)
        eta_eq = rng.gamma(k2, scale, n)
        x_eq = y + eta_eq
        exception = _rejects(x_eq, y / x_eq)
        eta_ne = rng.gamma(k2, 2.0 * scale, n)
        x_ne = y + eta_ne
        return exception, _rejects(x_ne, y / x_ne)

    exception_rate, control_rate = _rejection_rates(draw, n_reps)
    return TheoryCheckReport(
        check_id="gamma-exception",
        seed=seed,
        n_reps=n_reps,
        n_samples=n,
        passed=bool(exception_rate <= 0.12 and control_rate >= 0.9),
        payload={"rejection_rate": exception_rate, "control_rejection_rate": control_rate},
    )


# --------------------------------------------------------------------- #
# the Gaussian mean/variance exception: both directions fit, so no
# orientation is identifiable
# --------------------------------------------------------------------- #


def _norm_exception_pair(rng: np.random.Generator, n: int, exception: bool):
    x = rng.standard_normal(n)
    noise = rng.standard_normal(n)
    if exception:
        # 1/sigma^2 = 1 + x^2 and mu/sigma^2 = x: the unidentifiable form
        sigma2 = 1.0 / (1.0 + x * x)
        y = sigma2 * x + np.sqrt(sigma2) * noise
    else:
        y = np.sin(2.0 * x) + (1.0 + x * x / 2.0) * noise
    return x, y


def _direction_verdicts(x, y, cfg: DiscoveryConfig) -> tuple[bool, bool]:
    """Plausibility of {1} with the roles as given, then swapped."""
    f_class, s = FunctionClass("cpcm", "gaussian"), CandidateSet((1,))
    fwd = check_plausibility(validate_dataset(np.column_stack([y, x]), ["Y", "X1"], "Y"), s, f_class, cfg)
    rev = check_plausibility(validate_dataset(np.column_stack([x, y]), ["Y", "X1"], "Y"), s, f_class, cfg)
    return fwd.plausible, rev.plausible


def check_norm_exception(n: int = 500, n_reps: int = 20, seed: int = 0) -> TheoryCheckReport:
    """Exception model should stay unoriented; the control should orient.

    A pair orients to {1} only when the forward role fits and the swapped
    role does not.  In the exception model both roles admit the Gaussian
    fit, so the oriented estimate stays empty.
    """
    empty_in_exception = 0
    both_plausible = 0
    found_in_control = 0
    for r in range(n_reps):
        rng = seeding.substream(seed, seeding.REPLICATE, 41, r)
        cfg = DiscoveryConfig(seed=seeding.child_seed(seed, 41, r))
        x, y = _norm_exception_pair(rng, n, exception=True)
        fwd, rev = _direction_verdicts(x, y, cfg)
        empty_in_exception += not (fwd and not rev)
        both_plausible += fwd and rev
        x, y = _norm_exception_pair(rng, n, exception=False)
        fwd, rev = _direction_verdicts(x, y, cfg)
        found_in_control += fwd and not rev
    empty_rate = empty_in_exception / n_reps
    found_rate = found_in_control / n_reps
    low_power = n < 200
    return TheoryCheckReport(
        check_id="norm-exception",
        seed=seed,
        n_reps=n_reps,
        n_samples=n,
        passed=bool(not low_power and empty_rate >= 0.7 and found_rate >= 0.7),
        payload={
            "exception_empty_rate": empty_rate,
            "exception_both_plausible_rate": both_plausible / n_reps,
            "control_found_rate": found_rate,
            "low_power": bool(low_power),
        },
    )


# --------------------------------------------------------------------- #
# marginalizability of the linear chain
# --------------------------------------------------------------------- #


def check_marginalizability(noise: str = "gaussian", n: int = 2000, n_reps: int = 50, seed: int = 0) -> TheoryCheckReport:
    """Gaussian chain: the linear sieve must come up empty.  Non-Gaussian
    chain: only the source X1 survives."""
    outcomes = {"empty": 0, "x1": 0, "other": 0}
    f_class = FunctionClass("linear")
    for r in range(n_reps):
        gd = gen_linear_chain(seeding.child_seed(seed, seeding.REPLICATE, 51, r), n, noise)
        cfg = DiscoveryConfig(seed=seeding.child_seed(seed, 51, r))
        est = analyze(gd.data, f_class, cfg, mode="isd").isd_estimate
        if est == ():
            outcomes["empty"] += 1
        elif est == (1,):
            outcomes["x1"] += 1
        else:
            outcomes["other"] += 1
    empty_rate = outcomes["empty"] / n_reps
    x1_rate = outcomes["x1"] / n_reps
    passed = empty_rate >= 0.9 if noise == "gaussian" else x1_rate >= 0.8
    return TheoryCheckReport(
        check_id=f"marginalizability:{noise}",
        seed=seed,
        n_reps=n_reps,
        n_samples=n,
        passed=bool(passed),
        payload={"empty_rate": empty_rate, "x1_rate": x1_rate, "other_rate": outcomes["other"] / n_reps},
    )
