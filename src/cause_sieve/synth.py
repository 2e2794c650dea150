"""Synthetic data: gradient-noise random functions and benchmark generators.

Random smooth functions come from a classic Perlin construction: seeded
pseudo-random unit gradients on the integer lattice, quintic fade
interpolation, and an octave sum.  Each generator below is a pure function
of (seed, parameters); rerunning with the same seed reproduces the dataset
bit for bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from . import seeding
from .errors import BadDim, BadParam
from .jsonout import write_json
from .model import MIN_ROWS, Dataset, validate_dataset, write_csv

_GRID_POINTS = 41
_GRID_HALF_WIDTH = 3.0


@dataclass(frozen=True)
class PerlinFunction:
    """Specification of one random smooth function R^dim -> R."""

    seed: int
    dim: int
    octaves: int = 3
    base_frequency: float = 1.0
    amplitude: float = 1.0
    persistence: float = 0.5

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise BadDim(f"dim must be 1, 2, or 3, got {self.dim}")
        if self.octaves < 1 or self.base_frequency <= 0 or self.amplitude <= 0:
            raise BadParam("octaves, base_frequency, and amplitude must be positive")


class _PerlinNoise:
    """Evaluable handle; output is rescaled so the sampled standard deviation
    over a 41^dim grid on [-3, 3]^dim equals the requested amplitude."""

    def __init__(self, spec: PerlinFunction):
        self.spec = spec
        rng = seeding.substream(spec.seed, seeding.PERLIN)
        self._perm = rng.permutation(256)
        if spec.dim == 1:
            grads = rng.choice([-1.0, 1.0], size=256)[:, None]
        elif spec.dim == 2:
            angles = rng.uniform(0.0, 2.0 * np.pi, size=256)
            grads = np.column_stack([np.cos(angles), np.sin(angles)])
        else:
            raw = rng.standard_normal((256, 3))
            norms = np.linalg.norm(raw, axis=1)
            norms[norms == 0] = 1.0
            grads = raw / norms[:, None]
        self._grads = grads
        self._scale = 1.0
        axis = np.linspace(-_GRID_HALF_WIDTH, _GRID_HALF_WIDTH, _GRID_POINTS)
        mesh = np.stack(np.meshgrid(*([axis] * spec.dim), indexing="ij"), axis=-1)
        sampled = self._octave_sum(mesh.reshape(-1, spec.dim))
        sd = float(np.std(sampled))
        if sd == 0.0:
            raise BadParam(f"degenerate gradient noise for seed {spec.seed}")
        self._scale = spec.amplitude / sd

    def _hash(self, cells: np.ndarray) -> np.ndarray:
        idx = self._perm[np.mod(cells[:, 0], 256)]
        for d in range(1, cells.shape[1]):
            idx = self._perm[np.mod(idx + cells[:, d], 256)]
        return idx

    def _single(self, pts: np.ndarray) -> np.ndarray:
        cell = np.floor(pts).astype(np.int64)
        frac = pts - cell
        u = frac**3 * (frac * (frac * 6.0 - 15.0) + 10.0)
        value = np.zeros(pts.shape[0])
        for corner in itertools.product((0, 1), repeat=pts.shape[1]):
            corner = np.asarray(corner)
            grad = self._grads[self._hash(cell + corner)]
            dot = np.sum(grad * (frac - corner), axis=1)
            weight = np.prod(np.where(corner == 1, u, 1.0 - u), axis=1)
            value += weight * dot
        return value

    def _octave_sum(self, pts: np.ndarray) -> np.ndarray:
        total = np.zeros(pts.shape[0])
        for k in range(self.spec.octaves):
            freq = self.spec.base_frequency * (2.0**k)
            total += self.spec.persistence**k * self._single(pts * freq)
        return total

    def __call__(self, x) -> np.ndarray:
        pts = np.asarray(x, dtype=float)
        scalar = pts.ndim == 0 or (pts.ndim == 1 and self.spec.dim > 1 and pts.shape[0] == self.spec.dim)
        if pts.ndim == 0:
            pts = pts.reshape(1, 1)
        elif pts.ndim == 1:
            pts = pts.reshape(1, -1) if scalar else pts.reshape(-1, 1)
        if pts.shape[1] != self.spec.dim:
            raise BadDim(f"expected points of dimension {self.spec.dim}, got {pts.shape[1]}")
        out = self._octave_sum(pts) * self._scale
        return float(out[0]) if scalar else out


def perlin_fn(spec: PerlinFunction) -> _PerlinNoise:
    """Build the evaluable function for a specification."""
    return _PerlinNoise(spec)


@dataclass(frozen=True)
class GeneratedDataset:
    data: Dataset
    true_pa: tuple[int, ...]
    generator_id: str
    seed: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if any(i < 1 or i > self.data.p for i in self.true_pa):
            raise BadParam(f"true_pa {self.true_pa} outside 1..{self.data.p}")


def _dataset(y: np.ndarray, x: np.ndarray, cov_names=None) -> Dataset:
    names = ["Y"] + (list(cov_names) if cov_names else [f"X{i}" for i in range(1, x.shape[1] + 1)])
    return validate_dataset(np.column_stack([y, x]), names, "Y")


def _corr_normal(rng: np.random.Generator, n: int, dim: int, rho: float) -> np.ndarray:
    cov = np.full((dim, dim), rho)
    np.fill_diagonal(cov, 1.0)
    return rng.standard_normal((n, dim)) @ np.linalg.cholesky(cov).T


def _perlin(seed: int, *keys: int, **spec) -> _PerlinNoise:
    """The function of ``PerlinFunction(**spec)`` under the generator's child
    seed for ``keys``."""
    return perlin_fn(PerlinFunction(seed=seeding.child_seed(seed, seeding.GENERATOR, *keys), **spec))


def _child(seed: int, i: int, y: np.ndarray, noise: np.ndarray, base_frequency: float) -> np.ndarray:
    """Child covariate i of y, P1(y) + P2(y) * noise, with P2 exp-clamped
    positive."""
    p1 = _perlin(seed, 10 + i, dim=1, base_frequency=base_frequency, amplitude=1.5)
    p2 = _perlin(seed, 20 + i, dim=1, base_frequency=base_frequency)
    return p1(y) + np.exp(np.clip(p2(y), -1.5, 1.5)) * noise


def _generator_rng(seed: int, n: int) -> np.random.Generator:
    if n < MIN_ROWS:  # every generator's one check of n, before it draws
        raise BadParam(f"n must be at least {MIN_ROWS}, got {n}")
    return seeding.substream(seed, seeding.GENERATOR, 0)


def gen_additive_grid(seed: int, n: int, c: float, gamma: float) -> GeneratedDataset:
    """Two correlated normal parents, additive signal plus a gamma-weighted
    interaction term, standard normal noise."""
    if not (0.0 <= c <= 0.95):
        raise BadParam(f"c must lie in [0, 0.95], got {c}")
    if not (0.0 <= gamma <= 1.0):
        raise BadParam(f"gamma must lie in [0, 1], got {gamma}")
    if n < 100:
        raise BadParam(f"n must be at least 100, got {n}")
    g1 = _perlin(seed, 1, dim=1, octaves=2, base_frequency=0.5, amplitude=2.0)
    g2 = _perlin(seed, 2, dim=1, octaves=2, base_frequency=0.5, amplitude=2.0)
    g12 = _perlin(seed, 3, dim=2, octaves=2, base_frequency=0.5, amplitude=3.0)
    rng = _generator_rng(seed, n)
    x = _corr_normal(rng, n, 2, c)
    eta = rng.standard_normal(n)
    y = g1(x[:, 0]) + g2(x[:, 1]) + gamma * g12(x) + eta
    return GeneratedDataset(
        data=_dataset(y, x),
        true_pa=(1, 2),
        generator_id="additive-grid",
        seed=seed,
        params={"n": n, "c": c, "gamma": gamma},
    )


def gen_benchmark1(seed: int, n: int) -> GeneratedDataset:
    """One cause, three effects, correlated uniform noises.

    X1 is a uniform noise variable; Y = g(X1) + standard normal noise; the
    remaining covariates are children built as P1(Y) + P2(Y) * eta_i with
    independent gradient-noise components and P2 exp-clamped positive.  The
    four uniform noises share pairwise correlation 0.5 through a Gaussian
    copula.
    """
    rng = _generator_rng(seed, n)
    etas = ndtr(_corr_normal(rng, n, 4, 0.5))
    x1 = etas[:, 0]
    y = _perlin(seed, 1, dim=1, base_frequency=3.0, amplitude=2.0)(x1) + rng.standard_normal(n)
    cols = [x1] + [_child(seed, i, y, etas[:, i - 1], 0.8) for i in (2, 3, 4)]
    return GeneratedDataset(
        data=_dataset(y, np.column_stack(cols)),
        true_pa=(1,),
        generator_id="benchmark1",
        seed=seed,
        params={"n": n},
    )


def gen_benchmark2(seed: int, n: int) -> GeneratedDataset:
    """Three jointly normal causes (pairwise correlation 0.5), one random
    3-D surface, standard normal noise."""
    rng = _generator_rng(seed, n)
    x = _corr_normal(rng, n, 3, 0.5)
    y = _perlin(seed, 1, dim=3, octaves=2, base_frequency=0.3, amplitude=2.5)(x) + rng.standard_normal(n)
    return GeneratedDataset(
        data=_dataset(y, x),
        true_pa=(1, 2, 3),
        generator_id="benchmark2",
        seed=seed,
        params={"n": n},
    )


def gen_benchmark3(seed: int, n: int) -> GeneratedDataset:
    """Pareto target with randomly oriented edges.

    Each of the three edges points toward Y with probability 1/2.  Parents
    are standard normal; Y is Pareto with tail index theta(X_pa) built from
    exp-transformed gradient noise clamped to [0.5, 5]; children are
    P1(Y) + P2(Y) * eta_i with uniform noises.  With no parents the tail
    index is a seed-drawn constant in [0.5, 5].
    """
    rng = _generator_rng(seed, n)
    parents = tuple(i for i in (1, 2, 3) if rng.random() < 0.5)
    x = np.zeros((n, 3))
    for i in parents:
        x[:, i - 1] = rng.standard_normal(n)
    if parents:
        # additive index: the inseparable form for a multiplicatively acting
        # parameter, and every parent keeps per-axis influence
        raw = np.zeros(n)
        for idx, i in enumerate(parents):
            raw += _perlin(seed, 1, idx, dim=1, octaves=1, base_frequency=0.3)(x[:, i - 1])
        raw /= np.sqrt(len(parents))
        # smooth squash keeps theta inside [0.5, 5] without flat saturation
        half_span = 0.5 * np.log(5.0 / 0.5)
        theta = np.exp(0.5 * np.log(5.0 * 0.5) + half_span * np.tanh(raw))
    else:
        theta = np.full(n, rng.uniform(0.5, 5.0))
    y = (1.0 - rng.random(n)) ** (-1.0 / theta)
    for i in (1, 2, 3):
        if i not in parents:
            x[:, i - 1] = _child(seed, i, y, rng.random(n), 0.5)
    return GeneratedDataset(
        data=_dataset(y, x),
        true_pa=parents,
        generator_id="benchmark3",
        seed=seed,
        params={"n": n},
    )


def gen_linear_chain(seed: int, n: int, noise: str = "gaussian") -> GeneratedDataset:
    """The three-node chain X1 -> X2, both feeding the target.

    X1 = eta1, X2 = X1 + eta2, target = X1 + X2 + eta0, with iid noise of
    unit variance: standard normal, or uniform centered and matched.
    """
    if noise not in ("gaussian", "uniform"):
        raise BadParam(f"noise must be gaussian or uniform, got {noise!r}")
    rng = _generator_rng(seed, n)
    if noise == "gaussian":
        etas = rng.standard_normal((n, 3))
    else:
        etas = rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=(n, 3))
    x1 = etas[:, 0]
    x2 = x1 + etas[:, 1]
    y = x1 + x2 + etas[:, 2]
    return GeneratedDataset(
        data=_dataset(y, np.column_stack([x1, x2])),
        true_pa=(1, 2),
        generator_id="linear-chain",
        seed=seed,
        params={"n": n, "noise": noise},
    )


GENERATORS = {
    "additive-grid": gen_additive_grid,
    "benchmark1": gen_benchmark1,
    "benchmark2": gen_benchmark2,
    "benchmark3": gen_benchmark3,
    "linear-chain": gen_linear_chain,
}


def write_generated(gd: GeneratedDataset, prefix) -> tuple[str, str]:
    """Write <prefix>.csv plus a <prefix>.json sidecar describing the draw."""
    csv_path = f"{prefix}.csv"
    json_path = f"{prefix}.json"
    write_csv(gd.data, csv_path)
    write_json(
        json_path,
        {
            "generator_id": gd.generator_id,
            "seed": gd.seed,
            "true_pa": list(gd.true_pa),
            "params": gd.params,
        },
    )
    return csv_path, json_path
