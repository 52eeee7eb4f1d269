"""Network building blocks: convolutions, binary gates, residual blocks.

Each block runs in one of two engines:

* simulation -- float arithmetic on tape Nodes, with optional fake
  quantization of activations and weights (training and the float/fake
  inference paths);
* integer -- the deployment path. Activations and weights are 8-bit
  integer grids (``quant.quantize``), held as integral float64 arrays; each
  grid's real scale stays with the quantizer that owns it (``q_in``,
  ``q_mid``, ``wscale``) and is folded into the bias and the double-precision
  requantization. Its 32-bit accumulator (``int_conv_acc``) is the one
  float GEMM per conv over the whole batch that every float conv runs too,
  ``autodiff.conv_gemm``. Every partial sum of that GEMM is an integer of
  magnitude at most 255 * 128 * 9 * C_in (``_check_acc_bound``): up to
  2**24 the GEMM runs in float32, above it in float64 (exact below 2**53),
  and the folded bias and the shortcut join in float64 afterwards.
  Any summation order, and so any BLAS thread count or batch split, gives
  the same accumulator by construction, which the float convs cannot
  promise. The accumulators, and the u8 grids ``block_int`` makes from them,
  are logical (B,C,H,W) views of batch-last (C,H,W,B) arrays.
  ``block_int`` works on the same memory as the channel-major (C, H*W*B)
  rows that ``autodiff.channel_rows`` gives: each accumulator's epilogue is
  a chain of in-place float64 passes over its rows (``requantize``:
  multiply, clip, round), and kept and gated-off channels are gathered and
  scattered as whole rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import quant
from .errors import DataFormatError
from .numerics import round_half_away, round_half_away_nonneg
from .quant import MIN_SCALE, QuantizerParams, init_scale

KERNEL = 3
# Input values are bytes plus bounded coupling updates; nets see u/128 - 1.
NET_INPUT_SCALE = 1.0 / 128.0

# True int32 accumulators must not overflow: |acc| <= 255 * 128 * 9 * C_in + |bias|.
MAX_ACC = 2**31 - 1
MAX_BIAS_INT = 2**30
# float32 holds every integer up to 2**24, so below it any GEMM summation
# order gives the exact accumulator.
F32_EXACT = 2**24


class GateVector:
    """Learnable per-filter gates in [0,1]; the binarized view is I(g > 0.5)."""

    def __init__(self, count: int, alpha: float):
        self.node = ad.Node(np.full(count, float(alpha)), requires_grad=True)

    @property
    def g(self) -> np.ndarray:
        return self.node.value

    def binarized(self) -> np.ndarray:
        return (self.node.value > ad.GATE_THRESHOLD).astype(np.int64)

    def clamp(self):
        np.clip(self.node.value, 0.0, 1.0, out=self.node.value)


class ConvLayer:
    """3x3 stride-1 same-padding convolution with float bias.

    Weight layout is (C_out, C_in, k, k); without ``rng`` the weights start at
    zero. ``wscale`` is the per-output-channel learned quantizer step; ``gate``
    is optional filter gating.
    """

    def __init__(self, c_in: int, c_out: int, rng: np.random.Generator | None = None):
        shape = (c_out, c_in, KERNEL, KERNEL)
        if rng is None:
            w = np.zeros(shape)
        else:
            w = rng.normal(0.0, np.sqrt(2.0 / (c_in * KERNEL * KERNEL)), shape)
        self.w = ad.Node(w, requires_grad=True)
        self.b = ad.Node(np.zeros(c_out), requires_grad=True)
        self.wscale = ad.Node(np.ones(c_out), requires_grad=True)
        self.gate: GateVector | None = None

    @property
    def c_out(self) -> int:
        return self.w.value.shape[0]

    @property
    def c_in(self) -> int:
        return self.w.value.shape[1]

    def calibrate_weight_scale(self):
        w = self.w.value
        flat = np.abs(w.reshape(w.shape[0], -1))
        s = 2.0 * flat.mean(axis=1) / np.sqrt(255.0)
        self.wscale.value[...] = np.maximum(s, MIN_SCALE)

    def forward_sim(self, x, weight_quant: bool):
        """The conv on the tape: fake-quantized weights when asked, and the
        binarized gate mask on the output channels of a gated conv."""
        w = ad.fake_quantize(self.w, self.wscale, signed=True) if weight_quant else self.w
        y = ad.conv2d(x, w, self.b)
        if self.gate is not None:
            y = ad.mul(y, ad.reshape(ad.binarize_ste(self.gate.node), (1, -1, 1, 1)))
        return y

    def quantized_weight(self) -> np.ndarray:
        """The int8 weight grid; its per-output-channel scale is ``wscale``."""
        return _weight_grid(self.w.value, self.wscale.value)


def _weight_grid(w: np.ndarray, wscale: np.ndarray) -> np.ndarray:
    """The int8 grid of the (C_out, ...) weights ``w`` at the per-row scales
    ``wscale``. Quantization works element by element, so rows and columns
    taken from a conv's weight quantize as they do in the whole tensor."""
    # the explicit shape keeps a single row, or none, on axis 0
    return quant.quantize(w, QuantizerParams(scale=wscale.reshape(-1, 1, 1, 1)))


def _check_acc_bound(c_in: int, bhat: np.ndarray) -> int:
    """Raise unless |acc| fits int32; return the GEMM's share of the bound."""
    gemm = 255 * 128 * KERNEL * KERNEL * c_in
    bound = gemm + int(np.abs(bhat).max(initial=0))
    if bound > MAX_ACC:
        raise DataFormatError(f"int32 accumulator could overflow (bound {bound})")
    return gemm


def int_conv_acc(
    values: np.ndarray, w_int: np.ndarray, bhat: np.ndarray
) -> np.ndarray:
    """Integer convolution accumulator over integral float64 grids (exact):
    the float64 ``grid_view`` of ``autodiff.conv_gemm``'s rows plus the bias,
    which the next call reads back without a strided copy."""
    gemm_bound = _check_acc_bound(w_int.shape[1], bhat)
    dtype = np.float32 if gemm_bound <= F32_EXACT else np.float64
    y, _ = ad.conv_gemm(values, w_int, dtype)
    # the bias can exceed F32_EXACT, so it joins in float64, in the buffer
    # the GEMM result is cast to
    acc = y.astype(np.float64, copy=False)
    acc += bhat[:, None]
    return ad.grid_view(acc, values.shape)


def fold_bias(b: np.ndarray, w_scale: np.ndarray, x_scale: float) -> np.ndarray:
    """Bias folded into the accumulator: round(b / (s_W * s_x))."""
    bhat = round_half_away(b / (w_scale * x_scale))
    if np.abs(bhat).max(initial=0) > MAX_BIAS_INT:
        raise DataFormatError("folded bias exceeds the 32-bit accumulator budget")
    return bhat


def requantize(acc: np.ndarray, m) -> np.ndarray:
    """Rescale a float64 accumulator by m (double precision) onto the u8
    grid, in place: the result overwrites ``acc`` and is returned.

    Multiply, clip to [0, 255], then round: the clip leaves no negative
    values, so ``round_half_away_nonneg`` applies, and this equals
    round-half-away-then-clip up to the sign of zeros.
    """
    np.multiply(acc, m, out=acc)
    np.clip(acc, 0, 255, out=acc)
    return round_half_away_nonneg(acc)


@dataclass
class ResidualBlock:
    """One pre-quantized residual unit: relu(SAdd(Q(x), B(relu(A(Q(x)))))).

    Both convs keep the full block width. With gates attached, a gated-off
    filter of conv A zeroes its channel of the inner activation and a
    gated-off filter of conv B leaves its output channel to the shortcut
    alone; ``kept_sets`` lists the filters that remain. A pruned model is
    this same block with every gate frozen at 0 or 1.
    """

    conv_a: ConvLayer
    conv_b: ConvLayer
    q_in: ad.Node
    q_mid: ad.Node

    @classmethod
    def build(cls, width: int, rng: np.random.Generator) -> "ResidualBlock":
        return cls(
            conv_a=ConvLayer(width, width, rng),
            conv_b=ConvLayer(width, width, rng),
            q_in=ad.Node(np.ones(1), requires_grad=True),
            q_mid=ad.Node(np.ones(1), requires_grad=True),
        )

    @property
    def width(self) -> int:
        return self.conv_b.c_out

    def attach_gates(self, alpha: float):
        self.conv_a.gate = GateVector(self.conv_a.c_out, alpha)
        self.conv_b.gate = GateVector(self.conv_b.c_out, alpha)

    def gates(self) -> list[GateVector]:
        return [g for g in (self.conv_a.gate, self.conv_b.gate) if g is not None]

    def kept_sets(self) -> tuple[np.ndarray, np.ndarray]:
        """Kept output-channel indices for conv A and conv B (all when ungated)."""
        if self.conv_a.gate is not None:
            return (
                np.flatnonzero(self.conv_a.gate.binarized()),
                np.flatnonzero(self.conv_b.gate.binarized()),
            )
        full_a = np.arange(self.conv_a.c_out)
        full_b = np.arange(self.conv_b.c_out)
        return full_a, full_b


def block_sim(
    x,
    blk: ResidualBlock,
    act_quant: bool,
    weight_quant: bool,
    calibrate: bool = False,
):
    """Simulation-path residual block on tape Nodes (or arrays)."""
    a = x
    if act_quant:
        if calibrate:
            calibrate_activation(blk.q_in, ad.value_of(x))
        a = ad.fake_quantize(x, blk.q_in, signed=False)
    h = ad.relu(blk.conv_a.forward_sim(a, weight_quant))
    if act_quant:
        if calibrate:
            calibrate_activation(blk.q_mid, ad.value_of(h))
        h = ad.fake_quantize(h, blk.q_mid, signed=False)
    return ad.relu(ad.add(a, blk.conv_b.forward_sim(h, weight_quant)))


def block_int(values: np.ndarray, blk: ResidualBlock, next_scale: float) -> np.ndarray:
    """Integer-path residual block: the u8 grid at ``blk.q_in`` in, the u8
    grid at ``next_scale`` out.

    The producer requantized directly onto this block's input grid.
    Gated-off channels bypass the accumulator and requantize the shortcut
    directly; only the kept filters (``kept_sets``) enter the GEMMs, so the
    work follows the gates. Both kinds of channel are gathered and scattered
    as whole rows of the channel-major array.
    """
    sa = float(blk.q_in.value[0])
    kept_a, kept_b = blk.kept_sets()
    # only what the GEMMs read is quantized: conv A's kept rows, and conv B's
    # kept rows at conv A's kept columns
    swa = blk.conv_a.wscale.value[kept_a]
    wa = _weight_grid(blk.conv_a.w.value[kept_a], swa)
    ba = blk.conv_a.b.value[kept_a]
    swb = blk.conv_b.wscale.value[kept_b]
    wb = _weight_grid(blk.conv_b.w.value[kept_b][:, kept_a], swb)
    bb = blk.conv_b.b.value[kept_b]

    s_mid = float(blk.q_mid.value[0])
    s_next = float(next_scale)

    rows = ad.channel_rows(values)
    out = np.empty_like(rows)
    if len(kept_b):
        acc1 = ad.channel_rows(int_conv_acc(values, wa, fold_bias(ba, swa, sa)))
        h = ad.grid_view(requantize(acc1, (swa * sa / s_mid)[:, None]), values.shape)
        acc2 = ad.channel_rows(int_conv_acc(h, wb, fold_bias(bb, swb, s_mid)))
        # shortcut joins the 32-bit accumulator in conv B's unit system
        acc2 += round_half_away_nonneg(rows[kept_b] * (sa / (swb * s_mid))[:, None])
        out[kept_b] = requantize(acc2, (swb * s_mid / s_next)[:, None])
    off = np.ones(len(rows), dtype=bool)
    off[kept_b] = False
    if off.any():
        out[off] = requantize(rows[off], sa / s_next)
    return ad.grid_view(out, values.shape)


def calibrate_activation(node: ad.Node, tensor: np.ndarray):
    """Set an activation quantizer scale from calibration data."""
    node.value[...] = init_scale(tensor)
