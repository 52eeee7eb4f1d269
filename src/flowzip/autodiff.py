"""Minimal reverse-mode automatic differentiation over numpy arrays.

The op set is exactly what the flow and its objectives need: add, mul,
scale, add_const, relu, clip and the sum reduction nsum; reshape, channel
slice/concat, scatter_add and the 2x2 squeeze; convolution; rounding and
gate binarization with straight-through gradients; the LSQ fake-quantizer;
and the discretized-logistic log-mass. Every op registers an exact adjoint;
gradient tests check each against central finite differences.

The plain-array kernels behind some ops (space_to_depth/depth_to_space,
im2col, conv2d_raw, logistic_logpmf_raw) are also what the inference paths
run, so the tape and the codec share one implementation of each. Every
convolution runs one kernel, conv_gemm: im2col copies the padded input's
sliding windows once, batch innermost, and one GEMM over the whole batch
makes (C_out, H*W*B) rows. conv2d_raw, the tape conv2d and the integer
accumulator layers.int_conv_acc are epilogues on it. The tape conv keeps its
input, not its patches: its weight gradient rebuilds the forward patches from
that input with im2col, the same matrix bit for bit, and runs one GEMM against
them. conv_gemm runs in the weights' dtype: float64 for the float convs, and
for the integer accumulator the dtype of its plan entry's int8 grid
(layers.IntConv): float32 when the conv's weight bound, 255 * max over rows
of sum |w_int| + max |bhat|, is at most 2**24, else float64; its folded bias
joins in the same buffer. grid_view shows such rows as a (B,C,H,W) view of
(C,H,W,B) memory, which the next patch copy reads in memory order;
channel_rows turns that view back into rows.

Each output element of these GEMMs sums its C*k*k products along one axis.
The integer accumulator's sums are exact in either dtype (that bound holds
for every partial sum), so any order gives the same
result. The float sums round, so a float conv of a batch equals the
per-image convs bit for bit only while BLAS sums each output's K axis in the
same order whatever the batch. An AVX-512 build of OpenBLAS 0.3.31 did so
for every map with H*W a multiple of 8 that was tried, the desk model's
among them, and differed in the last bit for some others (3x3 maps, say).

The hot elementwise kernels (relu, the LSQ backward in quant, the
log-mass reflection sign) are unmasked ufunc passes or boolean-mask writes,
never np.where or a ufunc's ``where=``, which run 5-8x slower on these
shapes (numpy 2.4). Each replacement returns the same bits as the select
it replaced for every double, NaN, +-0, +-inf and subnormals included, and
keeps its input's memory order; relu, for one, is fmax(x, 0) + 0.0, the sum
turning the -0.0 fmax may keep into +0.0.

Usage: wrap parameters in ``Node(arr, requires_grad=True)``, build the loss
with the functions below, call ``backward(loss)``, read ``node.grad``.
An op's output requires grad, and records its inputs, only when one of its
inputs requires grad; inputs that do not (images, constants) get no edge and
no gradient. ``backward`` consumes the graph: as its reverse sweep leaves a
node it drops that node's gradient, its adjoints and its inputs, so only
leaves keep ``.grad`` and the tape shrinks while the sweep runs. A second
``backward`` through a consumed node raises ValueError; every step builds a
fresh graph. Inside ``no_grad()`` the same functions run without recording.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable

import numpy as np

from . import quant
from .errors import DataFormatError
from .numerics import LN2, log1mexp, log_sigmoid, round_half_away

_state = threading.local()
GATE_THRESHOLD = 0.5  # a live gate (stage 2 only) is on above this, here and in GateVector


def _grad_on() -> bool:
    return getattr(_state, "grad_enabled", True)


@contextlib.contextmanager
def no_grad():
    prev = _grad_on()
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = prev


class Node:
    """A value in the computation graph.

    A leaf has no parents: a parameter (``requires_grad=True``) or a
    constant. An op output has ``requires_grad`` set when one of its inputs
    requires grad; its ``parents`` are those inputs, each with its adjoint in
    ``vjps``. ``backward`` consumes op outputs: afterwards their ``parents``
    are empty and their ``vjps`` None.
    """

    __slots__ = ("value", "grad", "parents", "vjps", "requires_grad")

    def __init__(self, value, requires_grad: bool = False):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.parents: tuple[Node, ...] = ()
        self.vjps: tuple[Callable, ...] | None = ()
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        state = "consumed" if self.vjps is None else f"leaf={not self.parents}"
        return f"Node(shape={self.value.shape}, {state})"


def _lift(x) -> Node:
    return x if isinstance(x, Node) else Node(x)


def value_of(x) -> np.ndarray:
    return x.value if isinstance(x, Node) else np.asarray(x, dtype=np.float64)


def _make(value, parents, vjps) -> Node:
    out = Node(value)
    if _grad_on():
        edges = [(p, vjp) for p, vjp in zip(parents, vjps) if p.requires_grad]
        if edges:
            out.requires_grad = True
            out.parents, out.vjps = zip(*edges)
    return out


def _accum(node: Node, g: np.ndarray, upstream: np.ndarray):
    """Add the adjoint ``g``, computed from the child's gradient ``upstream``,
    into ``node.grad``."""
    # Reduce broadcasted gradient back to the parent's shape.
    while g.ndim > node.value.ndim:
        g = g.sum(axis=0)
    for ax, n in enumerate(node.value.shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    if node.grad is None:
        # A fresh adjoint becomes the gradient. Identity and view adjoints
        # hand over upstream's memory (add gives it to both parents) and
        # nsum's broadcast is read-only: those are copied in g's memory order
        # (a conv's input gradient is batch-last, as the relu mask and the
        # next weight-gradient GEMM that read it are).
        fresh = g.flags.writeable and not np.may_share_memory(g, upstream)
        node.grad = g if fresh else g.copy(order="K")
    else:
        node.grad += g  # the node's own copy: the same sum, no new array


def backward(loss: Node):
    """Seed loss with 1 and sweep the graph in reverse, consuming it.

    Leaves that require grad end with their gradient in ``.grad``, summed
    over every path from loss. Each op output is consumed as the sweep
    leaves it: its ``.grad`` goes back to None, its ``parents`` to () and its
    ``vjps`` to None, which frees the closures and the arrays they hold.
    ``value`` stays. Raises ValueError, before any adjoint runs, if the walk
    reaches a node that an earlier backward consumed.
    """
    order: list[Node] = []  # post-order: each node after all its parents
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        if node.vjps is None:
            raise ValueError("backward reached a node that an earlier backward consumed")
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            stack.append((p, False))
    loss.grad = np.ones_like(loss.value)
    while order:
        node = order.pop()
        if not node.parents:
            continue  # a leaf keeps its gradient
        # every child has run, so node.grad is complete
        g, parents, vjps = node.grad, node.parents, node.vjps
        node.grad, node.parents, node.vjps = None, (), None
        for parent, vjp in zip(parents, vjps):
            _accum(parent, vjp(g), g)


# ---------------------------------------------------------------------------
# arithmetic


def add(a, b):
    a, b = _lift(a), _lift(b)
    return _make(a.value + b.value, (a, b), (lambda g: g, lambda g: g))


def mul(a, b):
    a, b = _lift(a), _lift(b)
    av, bv = a.value, b.value
    return _make(av * bv, (a, b), (lambda g: g * bv, lambda g: g * av))


def scale(a, c: float):
    a = _lift(a)
    return _make(a.value * c, (a,), (lambda g: g * c,))


def add_const(a, c: float):
    a = _lift(a)
    return _make(a.value + c, (a,), (lambda g: g,))


def relu(a):
    """max(x, 0) with +0.0 for NaN and both zeros, as np.where(x > 0, x, 0.0)."""
    a = _lift(a)
    out = np.fmax(a.value, 0.0)  # the non-NaN operand: 0.0 for NaN
    out += 0.0  # -0.0 + 0.0 is +0.0, every other value stays
    if not _grad_on():
        return Node(out)
    mask = a.value > 0
    return _make(out, (a,), (lambda g: g * mask,))


def clip(a, lo: float, hi: float):
    """np.clip(x, lo, hi); the gradient passes where lo <= x <= hi."""
    a = _lift(a)
    mask = (a.value >= lo) & (a.value <= hi)
    return _make(np.clip(a.value, lo, hi), (a,), (lambda g: g * mask,))


def nsum(a):
    a = _lift(a)
    shp = a.value.shape
    return _make(np.asarray(a.value.sum()), (a,), (lambda g: np.broadcast_to(g, shp),))


# ---------------------------------------------------------------------------
# shape ops


def reshape(a, shp):
    a = _lift(a)
    old = a.value.shape
    return _make(a.value.reshape(shp), (a,), (lambda g: g.reshape(old),))


def channel_slice(a, start: int, stop: int):
    """Slice channels (axis 1) of a NCHW tensor."""
    a = _lift(a)
    width = a.value.shape[1]

    def vjp(g):
        out = np.zeros(a.value.shape[:1] + (width,) + a.value.shape[2:])
        out[:, start:stop] = g
        return out

    return _make(np.ascontiguousarray(a.value[:, start:stop]), (a,), (vjp,))


def channel_concat(a, b):
    a, b = _lift(a), _lift(b)
    na = a.value.shape[1]
    return _make(
        np.concatenate([a.value, b.value], axis=1),
        (a, b),
        (lambda g: g[:, :na], lambda g: g[:, na:]),
    )


def scatter_add(base, src, idx: np.ndarray):
    """base + (src scattered into channels idx); idx indexes axis 1 of base."""
    base, src = _lift(base), _lift(src)
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= base.value.shape[1]):
        raise IndexError("scatter-add channel index out of range")
    out = base.value.copy()
    out[:, idx] += src.value
    return _make(out, (base, src), (lambda g: g, lambda g: g[:, idx]))


def space_to_depth(x: np.ndarray) -> np.ndarray:
    """(B,C,H,W) -> (B,4C,H/2,W/2); channel-major, 2x2 offsets row-major."""
    B, C, H, W = x.shape
    if H % 2 or W % 2:
        raise DataFormatError("spatial dims must be even to squeeze")
    return (
        x.reshape(B, C, H // 2, 2, W // 2, 2)
        .transpose(0, 1, 3, 5, 2, 4)
        .reshape(B, 4 * C, H // 2, W // 2)
    )


def depth_to_space(x: np.ndarray) -> np.ndarray:
    """Inverse of space_to_depth."""
    B, C4, h, w = x.shape
    if C4 % 4:
        raise DataFormatError("channel count must be divisible by 4 to unsqueeze")
    C = C4 // 4
    return (
        x.reshape(B, C, 2, 2, h, w).transpose(0, 1, 4, 2, 5, 3).reshape(B, C, 2 * h, 2 * w)
    )


def squeeze2x2(a):
    """space_to_depth on the tape; its adjoint is depth_to_space."""
    a = _lift(a)
    return _make(space_to_depth(a.value), (a,), (depth_to_space,))


# ---------------------------------------------------------------------------
# convolution


def im2col(x: np.ndarray, k: int, dtype) -> np.ndarray:
    """(B,C,H,W) -> (C*k*k, H*W*B) patch matrix with same-padding, odd k.

    The batch is the fastest axis, so one GEMM y = W_mat @ cols covers every
    image and the window copy moves runs of W*B elements. It is cheapest when
    x is a transposed view of a (C,H,W,B) array, as every conv's output is.
    An even k raises ValueError before any element is read.
    """
    xt = x.transpose(1, 2, 3, 0)
    C, H, W, B = xt.shape
    pad = (k - 1) // 2
    xp = np.zeros((C, H + 2 * pad, W + 2 * pad, B), dtype=dtype)
    xp[:, pad : pad + H, pad : pad + W] = xt
    # sliding_window_view(xp, (H, W), axis=(1, 2)) without its per-call
    # checks, which cost more than the copy at batch 1. The ndarray
    # constructor still checks that the k x k windows fit in xp: an even k
    # pads one row and column too few, and it raises ValueError. reshape
    # makes the one copy.
    sc, sh, sw, sb = xp.strides
    windows = np.ndarray((C, k, k, H, W, B), xp.dtype, xp, 0, (sc, sh, sw, sh, sw, sb))
    windows.flags.writeable = False
    return windows.reshape(C * k * k, H * W * B)


def channel_rows(grid: np.ndarray) -> np.ndarray:
    """(B,C,H,W) -> (C, H*W*B) rows: a view of a grid_view, a copy otherwise."""
    B, C, H, W = grid.shape
    return grid.transpose(1, 2, 3, 0).reshape(C, H * W * B)


def grid_view(rows: np.ndarray, shape: tuple) -> np.ndarray:
    """(C, H*W*B) rows -> their (B,C,H,W) view, with B, H, W from ``shape``."""
    B, _, H, W = shape
    return rows.reshape(rows.shape[0], H, W, B).transpose(3, 0, 1, 2)


def conv_gemm(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Every conv's forward GEMM, in ``w``'s dtype: its (C_out, H*W*B) rows."""
    C = x.shape[1]
    Cout, Cin, k, _ = w.shape
    if C != Cin:
        raise ValueError(f"channel mismatch: input has {C}, kernel expects {Cin}")
    cols = im2col(x, k, w.dtype)
    # C_in*k*k, not -1, sizes the zero-input kernel of conv B after an all-off conv A
    return np.matmul(w.reshape(Cout, Cin * k * k), cols)


def conv2d_raw(x: np.ndarray, w: np.ndarray, b: np.ndarray | None) -> np.ndarray:
    """Float conv, stride 1, same padding, odd kernel: conv_gemm + bias."""
    y = conv_gemm(x, w)
    if b is not None:
        y += b[:, None]
    return grid_view(y, x.shape)


def conv2d(x, w, b):
    """Tape-aware convolution with conv2d_raw's forward and output layout.

    The node keeps the input, not the forward patches: the weight gradient
    rebuilds them from it with im2col, the same matrix bit for bit, and runs
    one GEMM against them. The input gradient reuses the forward kernel via
    the flipped-transposed-weights identity (exact for stride 1)."""
    xn, wn, bn = _lift(x), _lift(w), _lift(b)
    xv, wv = xn.value, wn.value
    y = conv_gemm(xv, wv)
    y += bn.value[:, None]

    def vjp_x(g):
        w_flip = np.ascontiguousarray(wv.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])
        return conv2d_raw(g, w_flip, None)

    def vjp_w(g):
        cols = im2col(xv, wv.shape[2], wv.dtype)
        return np.matmul(channel_rows(g), cols.T).reshape(wv.shape)

    def vjp_b(g):
        return g.sum(axis=(0, 2, 3))

    return _make(grid_view(y, xv.shape), (xn, wn, bn), (vjp_x, vjp_w, vjp_b))


# ---------------------------------------------------------------------------
# straight-through ops


def round_ste(a):
    """Round half-away-from-zero; gradient is the identity everywhere."""
    a = _lift(a)
    return _make(round_half_away(a.value), (a,), (lambda g: g,))


def binarize_ste(a):
    """Gate binarization I(g > GATE_THRESHOLD) with identity gradient."""
    a = _lift(a)
    return _make((a.value > GATE_THRESHOLD).astype(np.float64), (a,), (lambda g: g,))


def fake_quantize(r, s, signed: bool):
    """LSQ fake quantization: the grid quantize(r) times the learned scale s.

    Backward delegates to quant.quantizer_backward so the tape and the
    standalone quantizer share one definition of the gradients.
    """
    rn, sn = _lift(r), _lift(s)
    p = quant.QuantizerParams(scale=sn.value, signed=signed)
    out = quant.quantize(rn.value, p)  # a fresh grid, scaled in place
    out *= p.scale_view(rn.value.ndim)

    cache: dict = {}

    def both(g):
        key = id(g)
        if cache.get("key") != key:
            cache["key"] = key
            cache["grads"] = quant.quantizer_backward(rn.value, p, g)
        return cache["grads"]

    return _make(out, (rn, sn), (lambda g: both(g)[0], lambda g: both(g)[1]))


# ---------------------------------------------------------------------------
# discretized logistic log-mass


def _logpmf_values(z: np.ndarray, mu: np.ndarray, log_s: np.ndarray):
    """Stable natural-log pmf of the integer logistic and its intermediates.

    pmf(z) = sigmoid((z + 1/2 - mu)/s) - sigmoid((z - 1/2 - mu)/s).
    Reflecting z - mu into the left tail keeps the CDF difference away from
    cancellation, so the log never underflows to -inf for any finite input.
    Returns (ln pmf, s, sign, a, b, la, lb): the gradient of the tape op
    reuses the reflection sign, the two boundary arguments and their logs.
    """
    s = np.exp(log_s)
    d = z - mu
    sign = 1.0 - 2.0 * (d > 0)  # -1 where d > 0, else +1 (NaN included)
    dr = d * sign  # reflected distance, always <= 0
    a = (dr + 0.5) / s
    b = (dr - 0.5) / s
    la = log_sigmoid(a)
    lb = log_sigmoid(b)
    return la + log1mexp(la - lb), s, sign, a, b, la, lb


def logistic_logpmf_raw(z, mu, log_s) -> np.ndarray:
    """log2 pmf of the discretized logistic, stable in both tails."""
    z = np.asarray(z, dtype=np.float64)
    ln_pmf = _logpmf_values(z, np.asarray(mu, float), np.asarray(log_s, float))[0]
    return ln_pmf / LN2


def logistic_logpmf(z, mu, log_s):
    """Tape op returning per-dimension log2 probabilities.

    z may be a Node (gradients flow into the flow via the STE rounding) or a
    plain integer array.
    """
    zn, mn, ln = _lift(z), _lift(mu), _lift(log_s)
    ln_pmf, s, sign, a, b, la, lb = _logpmf_values(zn.value, mn.value, ln.value)
    # d(ln pmf)/d(a or b) expressed via exp of bounded log differences
    term_a = np.exp(la + log_sigmoid(-a) - ln_pmf)
    term_b = np.exp(lb + log_sigmoid(-b) - ln_pmf)
    # gradient wrt (z - mu), undoing the reflection
    dz = sign * (term_a - term_b) / s / LN2
    dls = -(a * term_a - b * term_b) / LN2
    return _make(
        ln_pmf / LN2,
        (zn, mn, ln),
        (lambda g: g * dz, lambda g: g * (-dz), lambda g: g * dls),
    )
