"""Network building blocks: convolutions, binary gates, residual blocks.

Each block runs in one of two engines:

* simulation -- float arithmetic on tape Nodes, with optional fake
  quantization of activations and weights (training and the float/fake
  inference paths);
* integer -- the deployment path. Activations and weights are 8-bit
  integer grids (``quant.quantize``), held as integral float arrays; each
  grid's real scale stays with the quantizer that owns it (``q_in``,
  ``q_mid``, ``wscale``) and is folded into the bias and the double-precision
  requantization multipliers. None of that depends on the activations, so
  it is built once per model into frozen plan entries: an ``IntConv`` per
  conv (the int8 grid of its kept rows and columns and its folded bias,
  both in the GEMM dtype, and its exact accumulator bound) and an
  ``IntBlock`` per residual block (its convs, kept and gated-off rows, and
  the multipliers as (C, 1) columns). ``model.IntPlan`` collects them per
  model, and ``block_int`` is a pure function of an entry and a grid.
  ``FlowModel.int_plan`` keeps one plan per model across calls and rebuilds
  it whenever an exact comparison finds any array it was built from
  changed, since training, loading and rounding edit arrays in place.

  The 32-bit accumulator (``int_conv_acc``) is the one GEMM per conv over the
  whole batch that every float conv runs too, ``autodiff.conv_gemm``. Its
  inputs are u8 grids, so every partial sum of an output row, in any order,
  is an integer of magnitude at most 255 times the row's sum of |w_int|;
  with the folded bias, ``IntConv.bound`` = 255 * max over rows of
  sum |w_int| + max |bhat|, computed at build. Above 2**31 - 1 the plan
  refuses the conv (``DataFormatError``). Up to 2**24 the GEMM and the bias
  run in float32, which holds every such integer, and ``requantize``
  multiplies the float32 accumulator into float64 in one pass; otherwise
  they run in float64 (exact below 2**53). The shortcut joins in float64.
  Any summation order, and so any BLAS thread count or batch split, gives
  the same accumulator by construction, which the float convs cannot
  promise. The accumulators, and the u8 grids ``block_int`` makes from them,
  are logical (B,C,H,W) views of batch-last (C,H,W,B) arrays.
  ``block_int`` works on the same memory as the channel-major (C, H*W*B)
  rows that ``autodiff.channel_rows`` gives: each accumulator's epilogue is
  a short chain of float64 passes over its rows (``requantize``: multiply,
  clip, round), and kept and gated-off channels are gathered and scattered
  as whole rows.
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

# True int32 accumulators must not overflow: |acc| <= IntConv.bound.
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


@dataclass(frozen=True)
class IntConv:
    """One int-path conv, frozen: the int8 weight grid ``w`` (C_out, C_in, k, k)
    and the folded bias ``bhat``, both in the conv's GEMM dtype, and the exact
    bound on |acc| over u8 inputs that chose that dtype."""

    w: np.ndarray
    bhat: np.ndarray
    bound: int

    @classmethod
    def build(cls, w_int: np.ndarray, bhat: np.ndarray) -> "IntConv":
        """Bound the accumulator by 255 * max over rows of sum |w_int| plus
        max |bhat|, refuse it above MAX_ACC, and pick float32 up to F32_EXACT."""
        row_sum = np.abs(w_int).sum(axis=(1, 2, 3))
        bound = 255 * int(row_sum.max(initial=0)) + int(np.abs(bhat).max(initial=0))
        if bound > MAX_ACC:
            raise DataFormatError(f"int32 accumulator could overflow (bound {bound})")
        dtype = np.float32 if bound <= F32_EXACT else np.float64
        return cls(w_int.astype(dtype), bhat.astype(dtype), bound)


def int_conv_acc(values: np.ndarray, conv: IntConv) -> np.ndarray:
    """Integer convolution accumulator over an integral u8 grid (exact):
    ``autodiff.conv_gemm`` in the conv's GEMM dtype, plus the folded bias in
    the GEMM's own buffer, as the ``grid_view`` that the next call reads back
    without a strided copy. ``conv.bound`` keeps every sum exact in that dtype."""
    y, _ = ad.conv_gemm(values, conv.w, conv.w.dtype)
    y += conv.bhat[:, None]
    return ad.grid_view(y, values.shape)


def fold_bias(b: np.ndarray, w_scale: np.ndarray, x_scale: float) -> np.ndarray:
    """Bias folded into the accumulator: round(b / (s_W * s_x))."""
    bhat = round_half_away(b / (w_scale * x_scale))
    if np.abs(bhat).max(initial=0) > MAX_BIAS_INT:
        raise DataFormatError("folded bias exceeds the 32-bit accumulator budget")
    return bhat


def rescale(acc: np.ndarray, m) -> np.ndarray:
    """acc * m in float64: in place for a float64 ``acc``; a float32 one (whose
    integers float64 holds exactly) multiplies into a new float64 array."""
    out = acc if acc.dtype == np.float64 else None
    return np.multiply(acc, m, out=out, dtype=np.float64)


def requantize(acc: np.ndarray, m) -> np.ndarray:
    """Rescale an accumulator by m (double precision, ``rescale``) onto the
    u8 grid: a float64 ``acc`` is overwritten with the result.

    Multiply, clip to [0, 255], then round: the clip leaves no negative
    values, so ``round_half_away_nonneg`` applies, and this equals
    round-half-away-then-clip up to the sign of zeros.
    """
    acc = rescale(acc, m)
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


@dataclass(frozen=True)
class IntBlock:
    """A residual block's int-path constants, frozen at plan build.

    ``conv_a`` holds conv A's kept rows and ``conv_b`` conv B's kept rows at
    conv A's kept columns; both are None when conv B keeps no filter. The
    (C, 1) multiplier columns take conv A's accumulator onto ``q_mid``
    (``m_mid``), the shortcut into conv B's unit system (``m_short``) and
    conv B's accumulator onto the next grid (``m_out``); ``m_off`` takes the
    gated-off rows ``off`` of the shortcut onto the next grid.
    """

    conv_a: IntConv | None
    conv_b: IntConv | None
    kept_b: np.ndarray
    off: np.ndarray
    m_mid: np.ndarray
    m_short: np.ndarray
    m_out: np.ndarray
    m_off: float

    @classmethod
    def build(cls, blk: ResidualBlock, next_scale: float) -> "IntBlock":
        """The entry of ``blk`` whose output grid has step ``next_scale``; only
        what the GEMMs read is quantized."""
        sa = float(blk.q_in.value[0])
        s_mid = float(blk.q_mid.value[0])
        s_next = float(next_scale)
        kept_a, kept_b = blk.kept_sets()
        swa = blk.conv_a.wscale.value[kept_a]
        swb = blk.conv_b.wscale.value[kept_b]
        conv_a = conv_b = None
        if len(kept_b):
            conv_a = IntConv.build(
                _weight_grid(blk.conv_a.w.value[kept_a], swa),
                fold_bias(blk.conv_a.b.value[kept_a], swa, sa),
            )
            conv_b = IntConv.build(
                _weight_grid(blk.conv_b.w.value[kept_b][:, kept_a], swb),
                fold_bias(blk.conv_b.b.value[kept_b], swb, s_mid),
            )
        off = np.ones(blk.width, dtype=bool)
        off[kept_b] = False
        return cls(
            conv_a, conv_b, kept_b, off,
            m_mid=(swa * sa / s_mid)[:, None],
            m_short=(sa / (swb * s_mid))[:, None],
            m_out=(swb * s_mid / s_next)[:, None],
            m_off=sa / s_next,
        )


def block_int(values: np.ndarray, blk: IntBlock) -> np.ndarray:
    """Integer-path residual block: the u8 grid at the block's ``q_in`` in,
    the u8 grid at the next step out, from the plan entry ``blk`` alone.

    The producer requantized directly onto this block's input grid.
    Gated-off channels bypass the accumulator and requantize the shortcut
    directly; only the kept filters enter the GEMMs, so the work follows the
    gates. Both kinds of channel are gathered and scattered as whole rows of
    the channel-major array.
    """
    rows = ad.channel_rows(values)
    out = np.empty_like(rows)
    if blk.conv_b is not None:
        acc1 = ad.channel_rows(int_conv_acc(values, blk.conv_a))
        h = ad.grid_view(requantize(acc1, blk.m_mid), values.shape)
        acc2 = ad.channel_rows(int_conv_acc(h, blk.conv_b))
        # the shortcut joins the 32-bit accumulator in conv B's unit system,
        # in float64: it may pass F32_EXACT
        acc = round_half_away_nonneg(rows[blk.kept_b] * blk.m_short)
        acc += acc2
        out[blk.kept_b] = requantize(acc, blk.m_out)
    if blk.off.any():
        out[blk.off] = requantize(rows[blk.off], blk.m_off)
    return ad.grid_view(out, values.shape)


def calibrate_activation(node: ad.Node, tensor: np.ndarray):
    """Set an activation quantizer scale from calibration data."""
    node.value[...] = init_scale(tensor)
