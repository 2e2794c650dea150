"""Domain types shared by every estimator.

A :class:`Dataset` holds an n x (p+1) numeric table with the target in
column 0 and covariates in columns 1..p, so covariate index ``i`` is also
its column index.  Candidate parent sets are non-empty subsets of
``{1, .., p}``; the empty-parent hypothesis is assessed by a dedicated
operation in :mod:`cause_sieve.discover`, never by an empty candidate.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadParam,
    ConstantColumn,
    MissingTarget,
    NonFiniteEntry,
    TooFewRows,
    TooManyCovariates,
    ValidationError,
)

MIN_ROWS = 20
MAX_P = 12  # enumeration cap: 2^12 - 1 candidate sets

# stable integer codes for PRNG key derivation (never hash() strings)
CLASS_CODES = {
    ("linear", None): 1,
    ("additive", None): 2,
    ("location-scale", None): 3,
    ("cpcm", "gaussian"): 4,
    ("cpcm", "gamma"): 5,
    ("cpcm", "pareto"): 6,
}


@dataclass(frozen=True)
class FunctionClass:
    """Structural restriction on the target's assignment function.

    ``kind`` is linear, additive, location-scale or cpcm (conditionally
    parametric), which alone takes a ``family``.  The pair is validated
    against ``CLASS_CODES``; as ``key`` it indexes ``regress.MODELS``, whose
    model class holds every other fact of the class.
    """

    kind: str
    family: str | None = None

    def __post_init__(self):
        if self.key not in CLASS_CODES:
            labels = ", ".join(f"{k}:{f}" if f else k for k, f in CLASS_CODES)
            raise BadParam(f"unknown function class {self.key}; expected one of {labels}")

    @classmethod
    def parse(cls, text: str) -> "FunctionClass":
        """Parse CLI-style labels: ``linear``, ``additive``, ``location-scale``,
        ``cpcm:gaussian``, ``cpcm:gamma``, ``cpcm:pareto``."""
        kind, sep, family = text.strip().lower().partition(":")
        return cls(kind, family if sep else None)

    @property
    def key(self) -> tuple[str, str | None]:
        return (self.kind, self.family)

    @property
    def label(self) -> str:
        return f"{self.kind}:{self.family}" if self.family else self.kind

    @property
    def code(self) -> int:
        return CLASS_CODES[self.key]


@dataclass(frozen=True)
class CandidateSet:
    """A non-empty ordered set of covariate indices (1-based)."""

    members: tuple[int, ...]

    def __post_init__(self):
        members = tuple(int(m) for m in self.members)
        if len(members) == 0:
            raise BadParam("candidate set must be non-empty")
        if len(set(members)) != len(members):
            raise BadParam(f"duplicate members in candidate set {members}")
        if any(m < 1 for m in members):
            raise BadParam(f"covariate indices are 1-based, got {members}")
        object.__setattr__(self, "members", tuple(sorted(members)))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


@dataclass(frozen=True)
class Dataset:
    """Validated numeric table.  Column 0 is the target."""

    values: np.ndarray
    names: tuple[str, ...]

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1] - 1

    @property
    def y(self) -> np.ndarray:
        return self.values[:, 0]

    def covariates(self, s: CandidateSet) -> np.ndarray:
        """n x |s| matrix of the covariates in ``s`` (column order = sorted members)."""
        bad = [m for m in s.members if m > self.p]
        if bad:
            raise BadParam(f"covariate indices {bad} exceed p={self.p}")
        return self.values[:, list(s.members)]


def validate_dataset(values, names, target_name: str) -> Dataset:
    """Check the table invariants and reorder columns so the target is column 0.

    Raises ``MissingTarget``, ``NonFiniteEntry`` (with original row/column
    coordinates), ``ConstantColumn``, ``TooFewRows``, or ``ValidationError``
    for structural problems (duplicate names, no covariates, ragged rows,
    non-numeric cells).
    """
    names = tuple(str(c) for c in names)
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as err:
        raise ValidationError(f"not a numeric table: {err}") from None
    if arr.ndim != 2:
        raise ValidationError(f"expected a 2-D table, got ndim={arr.ndim}")
    if arr.shape[1] != len(names):
        raise ValidationError(f"{len(names)} column names for {arr.shape[1]} columns")
    if len(set(names)) != len(names):
        raise ValidationError("column names are not unique")
    if target_name not in names:
        raise MissingTarget(f"target column {target_name!r} not found in {list(names)}")
    if arr.shape[1] < 2:
        raise ValidationError("need at least one covariate besides the target")
    if arr.shape[0] < MIN_ROWS:
        raise TooFewRows(f"need at least {MIN_ROWS} rows, got {arr.shape[0]}")

    bad = ~np.isfinite(arr)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise NonFiniteEntry(int(row), int(col))

    t = names.index(target_name)
    order = [t] + [j for j in range(arr.shape[1]) if j != t]
    arr = np.ascontiguousarray(arr[:, order])
    names = tuple(names[j] for j in order)

    for j in range(1, arr.shape[1]):
        if np.ptp(arr[:, j]) == 0.0:
            raise ConstantColumn(names[j])

    arr.setflags(write=False)
    return Dataset(values=arr, names=names)


def load_csv(path, target_name: str) -> Dataset:
    """Read an RFC-4180 CSV with a mandatory header row and validate it.
    A UTF-8 byte order mark before the header is dropped."""
    with open(path, "r", newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file") from None
        rows = []
        for record in reader:
            if not record:
                continue
            r = len(rows)  # the table row, as validate_dataset counts it: blank lines skipped
            if len(record) != len(header):
                raise ValidationError(f"{path}: row {r} has {len(record)} fields, expected {len(header)}")
            parsed = []
            for c, cell in enumerate(record):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise NonFiniteEntry(r, c, f"{path}: non-numeric cell {cell!r} at row {r}, column {c}") from None
            rows.append(parsed)
    if not rows:
        raise TooFewRows(f"{path}: no data rows")
    return validate_dataset(np.asarray(rows, dtype=float), header, target_name)


def write_csv(dataset: Dataset, path) -> None:
    """Write the table back out in the same dialect ``load_csv`` reads."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(dataset.names)
        for row in dataset.values:
            writer.writerow([repr(float(v)) for v in row])


def average_ranks(v: np.ndarray) -> np.ndarray:
    """Ranks 1..n of the 1-D vector ``v``, each tie group given the mean of
    the ranks it spans (scipy's ``rankdata(v, "average")``).

    A stable argsort sorts ``v``; a group spanning sorted positions
    [lo, hi) gets rank (lo + 1 + hi) / 2, an exact integer or half."""
    order = np.argsort(v, kind="stable")
    sorted_v = v[order]
    lo = np.flatnonzero(np.concatenate(([True], sorted_v[1:] != sorted_v[:-1])))
    hi = np.append(lo[1:], v.size)
    ranks = np.empty(v.size)
    ranks[order] = np.repeat((lo + 1 + hi) / 2, hi - lo)
    return ranks


def pit_rescale(residuals) -> np.ndarray:
    """Probability integral transform by mid-ranks: (rank - 0.5) / n.

    Tied residuals share the mean of the ranks they span
    (:func:`average_ranks`), so a tie group of size k starting at rank r
    maps to (r + (k - 1) / 2 - 0.5) / n.  The output is strictly inside
    (0, 1), which the uniformity tests require, and depends on the input
    only through its ranks (invariant under strictly increasing
    transforms).
    """
    r = np.asarray(residuals, dtype=float)
    if r.ndim != 1 or r.size == 0:
        raise BadParam("residuals must be a non-empty 1-D vector")
    if not np.all(np.isfinite(r)):
        raise BadParam("residuals must be finite")
    return (average_ranks(r) - 0.5) / r.size


def enumerate_candidates(p: int) -> list[CandidateSet]:
    """All 2^p - 1 non-empty candidate sets, ascending cardinality then
    lexicographic.  The order is total and reproducible."""
    if p < 1:
        raise BadParam(f"need at least one covariate, got p={p}")
    if p > MAX_P:
        raise TooManyCovariates(f"p={p} exceeds the enumeration cap max_p={MAX_P}")
    out = []
    for size in range(1, p + 1):
        for combo in itertools.combinations(range(1, p + 1), size):
            out.append(CandidateSet(combo))
    return out


@dataclass(frozen=True)
class DiscoveryConfig:
    """The two settings of a run: the level ``alpha`` of every test and the
    ``seed`` all random draws derive from.

    The rest of the procedure is fixed, each constant in one place:

    - independence: HSIC with the Gamma approximation (``stattests.hsic_test``);
    - significance: held-out permutation importance with
      ``stattests.SIG_PERMUTATIONS`` permutations (``stattests.perm_significance``);
    - uniformity: Anderson-Darling, for the parametric class only
      (``stattests.ad_uniform_test``);
    - the score: the plain sum of the three clamped log-p terms
      (``discover.PlausibilityVerdict.total``);
    - the spline penalties ``regress.PENALTY_GRID`` and the location-scale
      sigma floor 1e-6 * sd(y) (``regress._LocationScaleModel``);
    - at most ``MAX_P`` covariates (``enumerate_candidates``).
    """

    alpha: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise BadParam(f"alpha must be in (0,1), got {self.alpha}")


@dataclass(frozen=True)
class NoiseRecovery:
    """Recovered noise for one candidate set, with fit diagnostics.

    ``eps`` lies strictly in (0,1) and feeds the uniformity question;
    ``residuals`` is the same noise before rank rescaling (for the
    parametric class the two coincide) and feeds the independence test,
    where the monotone rescale would cost tail-localized power.
    ``significance_p`` holds one p-value per member of the candidate set,
    in member order.  ``fit_loss`` is the mean squared prediction error of
    the fitted centre of the conditional distribution (diagnostics only).
    """

    eps: np.ndarray
    residuals: np.ndarray
    significance_p: np.ndarray
    fit_loss: float
    function_class: FunctionClass
    candidate: CandidateSet
    model: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        eps = np.asarray(self.eps, dtype=float)
        if eps.ndim != 1:
            raise BadParam("eps must be a vector")
        if not (np.all(eps > 0.0) and np.all(eps < 1.0)):
            raise BadParam("eps entries must lie strictly inside (0, 1)")
        resid = np.asarray(self.residuals, dtype=float)
        if resid.shape != eps.shape:
            raise BadParam("residuals must match eps in length")
        sig = np.asarray(self.significance_p, dtype=float)
        if sig.shape != (len(self.candidate),):
            raise BadParam("one significance p-value per candidate member required")
        if not (np.all(sig >= 0.0) and np.all(sig <= 1.0)):
            raise BadParam("significance p-values must lie in [0, 1]")
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "residuals", resid)
        object.__setattr__(self, "significance_p", sig)
