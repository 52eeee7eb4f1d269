"""Shared numeric kernels: rounding, stable logistic functions, a tiny PRNG.

Everything here is deterministic and vectorized over numpy arrays.
"""

from __future__ import annotations

import numpy as np

LN2 = float(np.log(2.0))
# The largest double below one half. floor(|x| + 0.5) rounds the sum first,
# so it misses for 0.49999999999999994 and every odd integer in [2**52, 2**53);
# floor(|x| + _HALF_DOWN) is exact round-half-away for every finite double.
_HALF_DOWN = float(np.nextafter(0.5, 0.0))


def round_half_away(x: np.ndarray | float) -> np.ndarray | float:
    """Round to nearest integer with ties away from zero.

    One fixed rounding mode is used everywhere (quantizers and coupling
    rounding) so that encode and decode always agree. numpy's ``round`` is
    half-to-even and must not be used on any value that reaches a bitstream.
    """
    x = np.asarray(x)
    if x.ndim == 0:
        # numpy turns 0-d results into scalars, which have no out= buffer
        return np.copysign(np.floor(np.abs(x) + _HALF_DOWN), x)
    out = np.abs(x) + _HALF_DOWN  # floor and copysign then work in place
    np.floor(out, out=out)
    return np.copysign(out, x, out=out)


def round_half_away_nonneg(x: np.ndarray) -> np.ndarray:
    """round_half_away of a float64 array with no negative values, in place:
    there floor(x + _HALF_DOWN) alone is exact, with no abs or copysign."""
    x += _HALF_DOWN
    return np.floor(x, out=x)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid."""
    x = np.asarray(x, dtype=np.float64)
    # exp(-|x|) never overflows; the two branches share it.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def log_sigmoid(x: np.ndarray) -> np.ndarray:
    """log(sigmoid(x)) without overflow for large |x|."""
    x = np.asarray(x, dtype=np.float64)
    # -softplus(-x) = min(x, 0) - log1p(exp(-|x|))
    return np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x)))


def log1mexp(t: np.ndarray) -> np.ndarray:
    """log(1 - exp(-t)) for t > 0, stable near both ends.

    Each branch runs only where it applies (``where=``), not on every
    element, and in place on one buffer.
    """
    t = np.asarray(t, dtype=np.float64)
    small = t < LN2
    large = ~small
    out = np.negative(t, out=np.empty_like(t))
    with np.errstate(divide="ignore", invalid="ignore"):
        np.expm1(out, out=out, where=small)
        np.exp(out, out=out, where=large)
        np.negative(out, out=out)
        np.log(out, out=out, where=small)
        np.log1p(out, out=out, where=large)
    return out


def require_finite(x: np.ndarray, what: str) -> np.ndarray:
    """Raise ValueError if x contains NaN/Inf."""
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{what} contains non-finite values")
    return x


class SplitMix64:
    """Tiny deterministic PRNG (SplitMix64) used for synthetic data.

    The stream depends only on the seed and the fixed constants below, so
    generated datasets are byte-identical across platforms and library
    versions.
    """

    GAMMA = 0x9E3779B97F4A7C15
    M1 = 0xBF58476D1CE4E5B9
    M2 = 0x94D049BB133111EB
    MASK = 0xFFFFFFFFFFFFFFFF

    def __init__(self, seed: int):
        self.state = int(seed) & self.MASK

    def next_u64(self, n: int) -> np.ndarray:
        """Return the next n raw 64-bit outputs as uint64."""
        s = (self.state + self.GAMMA * np.arange(1, n + 1, dtype=np.uint64)) & np.uint64(
            self.MASK
        )
        self.state = (self.state + self.GAMMA * n) & self.MASK
        with np.errstate(over="ignore"):
            z = s
            z = (z ^ (z >> np.uint64(30))) * np.uint64(self.M1)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(self.M2)
            z = z ^ (z >> np.uint64(31))
        return z

    def uniform(self, n: int) -> np.ndarray:
        """n float64 samples in [0, 1) with 53-bit resolution."""
        return (self.next_u64(n) >> np.uint64(11)).astype(np.float64) * (2.0**-53)
