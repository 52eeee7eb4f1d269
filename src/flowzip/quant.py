"""The learned-step-size quantizer and its integer grid.

A quantized tensor is an 8-bit integer grid: an ndarray of integral float64
values, which float64 holds exactly, as it does every integer sum the int
path forms from them. The grid carries no scale. The scale lives in the
``QuantizerParams`` (or the model's scale Node) that owns it, and the grid
times ``p.scale_view(ndim)`` is the real tensor it stands for. The quantizer
clips, divides by the scale, and rounds half-away-from-zero. Its backward
pass uses the straight through estimator for the input and the three-branch
closed form for the scale, rescaled by 1/sqrt(C * Q_P).

The backward runs on every LSQ quantizer of every training step, so it
follows autodiff's rule for hot elementwise kernels: unmasked ufunc passes
and boolean-mask writes, no np.where or ``where=``, which are 5-8x slower on
these shapes. It gives the same bits as the three-branch select for every
double, NaN and signed zeros included: NaN counts as clipped in grad_r and
keeps round(u) - u in the branch term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import require_finite, round_half_away, round_half_away_nonneg

SIGNED_LO, SIGNED_HI = -128, 127
UNSIGNED_LO, UNSIGNED_HI = 0, 255
MIN_SCALE = 1e-6


@dataclass
class QuantizerParams:
    """Learnable scale plus the integer clip range.

    scale is a positive scalar for per-tensor quantization or a positive
    1-D array (one entry per output channel) for weight tensors.
    """

    scale: np.ndarray
    signed: bool = True

    def __post_init__(self):
        self.scale = np.atleast_1d(np.asarray(self.scale, dtype=np.float64))
        if np.any(self.scale <= 0):
            raise ValueError("quantizer scale must be positive")

    @property
    def lo(self) -> int:
        return SIGNED_LO if self.signed else UNSIGNED_LO

    @property
    def hi(self) -> int:
        return SIGNED_HI if self.signed else UNSIGNED_HI

    @property
    def per_channel(self) -> bool:
        return self.scale.size > 1

    def scale_view(self, ndim: int) -> np.ndarray:
        """Reshape the scale to broadcast along axis 0 of an ndim tensor."""
        if not self.per_channel:
            return self.scale.reshape(()) if ndim == 0 else self.scale
        return self.scale.reshape((-1,) + (1,) * (ndim - 1))


def quantize(r: np.ndarray, p: QuantizerParams) -> np.ndarray:
    """Clip r/scale to the integer range and round half-away-from-zero.

    Returns the integer grid as integral float64 values in [p.lo, p.hi].
    The unsigned clip leaves no negatives, so it rounds in place (-0.0 becomes 0.0).
    """
    r = require_finite(np.asarray(r, dtype=np.float64), "quantizer input")
    q = np.asarray(r / p.scale_view(r.ndim))  # a 0-d quotient is a scalar
    np.clip(q, p.lo, p.hi, out=q)
    return round_half_away(q) if p.signed else round_half_away_nonneg(q)


def init_scale(rows: np.ndarray) -> np.ndarray:
    """Data-dependent scale init, one per row of ``rows`` (N, ...):
    2 * mean|row| / sqrt(255), floored at MIN_SCALE. A whole tensor r is the
    one row of ``r[np.newaxis]``."""
    a = np.abs(np.asarray(rows, dtype=np.float64))
    if 0 in a.shape[1:]:
        raise ValueError("cannot initialize a scale from an empty row")
    s = 2.0 * a.mean(axis=tuple(range(1, a.ndim))) / np.sqrt(UNSIGNED_HI)
    return np.maximum(s, MIN_SCALE)


def _channel_count(r: np.ndarray, p: QuantizerParams) -> int:
    # Per-channel scales quantize weight tensors laid out (C_out, ...);
    # per-tensor scales quantize activations laid out (B, C, H, W).
    if p.per_channel:
        return int(p.scale.size)
    if r.ndim >= 3:
        return int(r.shape[-3])
    return int(r.shape[0]) if r.ndim >= 1 else 1


def grad_rescale(r: np.ndarray, p: QuantizerParams) -> float:
    """LSQ gradient re-scaling factor g = 1/sqrt(C * Q_P)."""
    return 1.0 / float(np.sqrt(_channel_count(r, p) * p.hi))


def scale_grad_branches(u: np.ndarray, p: QuantizerParams) -> np.ndarray:
    """Elementwise d(fake-quantized output)/d(scale) at ``u = r / s``, the
    three-branch form: in range, round(u) - u; clipped low, lo; clipped
    high, hi. NaN compares false both ways and keeps round(u) - u.
    """
    mid = np.asarray(round_half_away(u))  # a fresh array, 0-d for a 0-d u
    mid -= u
    mid[u < p.lo] = p.lo
    mid[u > p.hi] = p.hi
    return mid


def quantizer_backward(
    r: np.ndarray, p: QuantizerParams, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """STE gradients through the fake-quantize op.

    grad_r passes upstream through on in-range elements and is zero on
    clipped ones (NaN counts as clipped); it keeps upstream's memory order.
    grad_scale sums upstream * branch terms and multiplies by
    g = 1/sqrt(C * Q_P); per-channel scales reduce over all but axis 0.
    """
    r = np.asarray(r, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != r.shape:
        raise ValueError("upstream shape must match input shape")
    u = r / p.scale_view(r.ndim)
    grad_r = upstream.copy(order="K")
    grad_r[~((u >= p.lo) & (u <= p.hi))] = 0.0

    g = grad_rescale(r, p)
    weighted = upstream * scale_grad_branches(u, p)
    if p.per_channel:
        grad_scale = g * weighted.reshape(r.shape[0], -1).sum(axis=1)
    else:
        grad_scale = np.atleast_1d(g * float(weighted.sum()))
    return grad_r, grad_scale
