"""Deterministic 64-bit seed derivation.

Every randomized routine in this package draws its entropy from a single
master seed plus an integer index path (trial number, repeat, part, width,
...).  The derivation below is a SplitMix64-style chain: before each path
element, the state is advanced by the golden-ratio increment and mixed
through the SplitMix64 finalizer; the element is then XORed in, and a last
finalizer step gives the seed.  Mixing before the fold matters: XORing an
index into ``master + golden`` unmixed makes ``(m, t)`` and ``(m + 1, t ^ 1)``
the same seed for every odd m, so adjacent master seeds would share their
trial streams.  Identical (master_seed, path) always yields the identical
64-bit seed, nearby paths and nearby master seeds land on unrelated streams,
and an empty path gives ``finalize(master_seed)``.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _finalize(z: int) -> int:
    # SplitMix64 output mixing (Steele, Lea & Flood's variant constants).
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(master_seed: int, *path: int) -> int:
    """Mix a master seed with an index path into a fresh 64-bit seed.

    Args:
        master_seed: any integer; reduced modulo 2**64.
        *path: integer indices identifying the consumer (trial, repeat, ...).

    Returns:
        A 64-bit unsigned integer, bit-reproducible across platforms.
    """
    state = master_seed & _MASK64
    for index in path:
        state = _finalize(state + _GOLDEN) ^ (index & _MASK64)
    return _finalize(state)


def spawn_rng(master_seed: int, *path: int) -> np.random.Generator:
    """A NumPy generator seeded from ``derive_seed(master_seed, *path)``."""
    return np.random.default_rng(derive_seed(master_seed, *path))
