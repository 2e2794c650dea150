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


# the (lo, hi, step) grids of the shift a and the scale b
_GRID_A = (-4.0, 4.0, 0.05)
_GRID_B = (-2.0, 2.0, 0.05)


def check_dist_equality(n: int = 20000, seed: int = 0) -> TheoryCheckReport:
    """Grid-search the affine map for distributional fixed points of a
    standard exponential X.

    Passes when the two smallest local minima of the fingerprint surface
    sit within 0.1 of (0, 1) and (2 med(X), -1), and every grid point
    within 1.5x of the minimum level lies in those two neighbourhoods.
    """
    rng = seeding.substream(seed, seeding.REPLICATE, 1)
    x = rng.exponential(1.0, n)
    xs = np.sort(x)
    med = float(np.median(x))

    a_vals, b_vals = (np.arange(lo, hi + step / 2, step) for lo, hi, step in (_GRID_A, _GRID_B))
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
        check_id="dist-equality:exponential",
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


def _rates(draw, n_reps: int) -> list[float]:
    """The rate of each outcome of ``draw(r)``, a tuple of bools, over
    ``n_reps`` draws run on :func:`parallel.thread_map`; each draw seeds its
    own substreams, so the rates do not depend on the thread count."""
    if n_reps < 1:
        raise BadParam(f"n_reps must be at least 1, got {n_reps}")
    return [sum(col) / n_reps for col in zip(*thread_map(draw, range(n_reps)))]


def check_cool_lemma(part: int, n: int = 2000, n_reps: int = 100, seed: int = 0) -> TheoryCheckReport:
    """Rejection rates for one part of the inseparability lemma."""

    def draw(r):
        rng = seeding.substream(seed, seeding.REPLICATE, part, r)
        x1, main, control = _cool_lemma_draw(part, rng, n)
        main_res, control_res = hsic_tests(x1, [main, control])
        return main_res.p_value < ALPHA, control_res.p_value < ALPHA

    main_rate, control_rate = _rates(draw, n_reps)
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


def check_gamma_support_exception(n: int = 2000, n_reps: int = 100, seed: int = 0) -> TheoryCheckReport:
    """Y ~ Gamma(2, 1) and eta ~ Gamma(3, 1): equal scales make the support
    ratio Y/(Y+eta) independent of the sum; unequal scales (the control,
    eta ~ Gamma(3, 2)) must be detected."""

    def draw(r):
        rng = seeding.substream(seed, seeding.REPLICATE, 31, r)
        y = rng.gamma(2.0, 1.0, n)
        eta_eq = rng.gamma(3.0, 1.0, n)
        x_eq = y + eta_eq
        exception = _rejects(x_eq, y / x_eq)
        eta_ne = rng.gamma(3.0, 2.0, n)
        x_ne = y + eta_ne
        return exception, _rejects(x_ne, y / x_ne)

    exception_rate, control_rate = _rates(draw, n_reps)
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

    def draw(r):
        rng = seeding.substream(seed, seeding.REPLICATE, 41, r)
        cfg = DiscoveryConfig(seed=seeding.child_seed(seed, 41, r))
        fwd, rev = _direction_verdicts(*_norm_exception_pair(rng, n, exception=True), cfg)
        control_fwd, control_rev = _direction_verdicts(*_norm_exception_pair(rng, n, exception=False), cfg)
        return not (fwd and not rev), fwd and rev, control_fwd and not control_rev

    empty_rate, both_rate, found_rate = _rates(draw, n_reps)
    low_power = n < 200
    return TheoryCheckReport(
        check_id="norm-exception",
        seed=seed,
        n_reps=n_reps,
        n_samples=n,
        passed=bool(not low_power and empty_rate >= 0.7 and found_rate >= 0.7),
        payload={
            "exception_empty_rate": empty_rate,
            "exception_both_plausible_rate": both_rate,
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

    def draw(r):
        gd = gen_linear_chain(seeding.child_seed(seed, seeding.REPLICATE, 51, r), n, noise)
        cfg = DiscoveryConfig(seed=seeding.child_seed(seed, 51, r))
        est = analyze(gd.data, FunctionClass("linear"), cfg).isd_estimate
        return est == (), est == (1,), est not in ((), (1,))

    empty_rate, x1_rate, other_rate = _rates(draw, n_reps)
    passed = empty_rate >= 0.9 if noise == "gaussian" else x1_rate >= 0.8
    return TheoryCheckReport(
        check_id=f"marginalizability:{noise}",
        seed=seed,
        n_reps=n_reps,
        n_samples=n,
        passed=bool(passed),
        payload={"empty_rate": empty_rate, "x1_rate": x1_rate, "other_rate": other_rate},
    )
