"""Deterministic PRNG substreams.

Every source of randomness in the package draws from a stream derived from
a user seed plus a tuple of integer keys (purpose tag, candidate-set
members, replicate index, ...).  Results are therefore independent of
evaluation order and thread count: the stream for one unit of work never
depends on how much randomness other units consumed.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 63) - 1

# Purpose tags keep unrelated streams apart even for equal (seed, keys).
PERLIN = 101
GENERATOR = 102
SIG_SPLIT = 104
SIG_PERM = 105
REPLICATE = 106
BOOT = 107


def substream(seed: int, *keys: int) -> np.random.Generator:
    """Generator seeded by ``seed`` and a tuple of non-negative integer keys."""
    entropy = [int(seed) & _MASK] + [int(k) & _MASK for k in keys]
    return np.random.default_rng(entropy)


def child_seed(seed: int, *keys: int) -> int:
    """A derived 63-bit seed, for handing to components that take one seed."""
    return int(substream(seed, *keys).integers(0, _MASK))
