"""Shared test utilities: finite differences, gradient projections, checkpoint
bytes, the benchmark's modules, np.where references for the select-free
kernels, and the keep-everything reference tape."""

import importlib.util
import math
import struct
from fractions import Fraction
from pathlib import Path

import numpy as np

from flowzip import autodiff as ad
from flowzip import checkpoint, quant
from flowzip.data import gen_synth
from flowzip.model import FlowConfig, FlowModel
from flowzip.numerics import log1mexp, log_sigmoid, round_half_away
from flowzip.train import calibrate_activations, calibrate_weights

ROOT = Path(__file__).resolve().parents[1]


# A tiny run whose first Adamax step throws the weights out of range, so a
# later step of stage 1's first epoch has a non-finite loss.
DIVERGING_CONFIG = dict(
    levels=2, couplings=1, hidden=4, blocks=1, train_count=16, val_count=4,
    batch_size=8, epochs_stage1=2, epochs_stage3=1, epochs_stage4=1,
    epochs_stage5=1, r_target=1.0, calib_count=8, lr=1e30,
)


# A tiny run with at least one epoch in every stage, stage 2 included, and
# four batches per epoch, so every stage's shuffles decide what it writes.
RESUME_CONFIG = dict(
    hidden=8, couplings=1, blocks=1, train_count=16, val_count=4, batch_size=4,
    epochs_stage1=2, epochs_stage3=2, epochs_stage4=2, epochs_stage5=2,
    gate_lr=0.05, lambda_levels=(40.0, 10.0), r_target=0.9,
)


def load_perfbench(name: str):
    """Import perfbench/<name>.py, which is not a package."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def round_half_away_ref(x):
    # independent reference for the tie rule (ties away from zero), in exact
    # rational arithmetic: nothing rounds before the floor
    x = np.asarray(x, dtype=np.float64)
    out = [
        math.copysign(math.floor(abs(Fraction(v)) + Fraction(1, 2)), v)
        for v in x.ravel().tolist()
    ]
    return np.array(out, dtype=np.float64).reshape(x.shape)


def u8_rounding_cases() -> np.ndarray:
    """Values that probe rounding onto the u8 grid: every tie k + 0.5 around
    [0, 255] with both float neighbours, large values of either sign, and
    the edges 0 and 255 (both zeros) with their neighbours."""
    ties = np.arange(-3, 260) + 0.5
    return np.concatenate([
        ties,
        np.nextafter(ties, -np.inf),
        np.nextafter(ties, np.inf),
        -np.logspace(0, 300, 40), np.logspace(np.log10(255.0), 300, 40),
        [-0.0, 0.0, 255.0],
        np.nextafter([0.0, 255.0], -np.inf), np.nextafter([0.0, 255.0], np.inf),
    ])


# The np.where forms that relu, the LSQ backward and the log-mass reflection
# sign had before they became unmasked ufunc passes and mask writes; the
# shipped kernels must give the same bits.


def relu_ref(a):
    a = ad._lift(a)
    mask = a.value > 0
    return ad._make(np.where(mask, a.value, 0.0), (a,), (lambda g: g * mask,))


def scale_grad_branches_ref(r, p):
    s = p.scale_view(r.ndim)
    u = np.asarray(r, dtype=np.float64) / s
    mid = round_half_away(u) - u
    return np.where(u < p.lo, float(p.lo), np.where(u > p.hi, float(p.hi), mid))


def quantizer_backward_ref(r, p, upstream):
    r = np.asarray(r, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    u = r / p.scale_view(r.ndim)
    in_range = (u >= p.lo) & (u <= p.hi)
    grad_r = np.where(in_range, upstream, 0.0)
    g = quant.grad_rescale(r, p)
    weighted = upstream * scale_grad_branches_ref(r, p)
    if p.per_channel:
        grad_scale = g * weighted.reshape(r.shape[0], -1).sum(axis=1)
    else:
        grad_scale = np.atleast_1d(g * float(weighted.sum()))
    return grad_r, grad_scale


def logpmf_values_ref(z, mu, log_s):
    s = np.exp(log_s)
    d = z - mu
    sign = np.where(d > 0, -1.0, 1.0)
    dr = d * sign
    a = (dr + 0.5) / s
    b = (dr - 0.5) / s
    la = log_sigmoid(a)
    lb = log_sigmoid(b)
    return la + log1mexp(la - lb), s, sign, a, b, la, lb


def use_reference_kernels(monkeypatch):
    """Route the tape and the quantizer through the np.where references."""
    monkeypatch.setattr(ad, "relu", relu_ref)
    monkeypatch.setattr(ad, "_logpmf_values", logpmf_values_ref)
    monkeypatch.setattr(quant, "quantizer_backward", quantizer_backward_ref)


# The tape as it was before backward consumed it: every op records all of
# its inputs, whether or not they require grad, and the sweep keeps every
# node's gradient and adjoints until the caller drops the loss.


def make_ref(value, parents, vjps):
    out = ad.Node(value)
    if ad._grad_on():
        out.parents = tuple(parents)
        out.vjps = tuple(vjps)
    return out


def _accum_ref(node, g):
    while g.ndim > node.value.ndim:
        g = g.sum(axis=0)
    for ax, n in enumerate(node.value.shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    if node.grad is None:
        node.grad = g.copy(order="K")
    else:
        node.grad = node.grad + g


def backward_ref(loss):
    """Keep-everything backward over a graph built with make_ref."""
    order, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            stack.append((p, False))
    loss.grad = np.ones_like(loss.value)
    for node in reversed(order):
        if node.grad is None:
            continue
        for parent, vjp in zip(node.parents, node.vjps):
            _accum_ref(parent, vjp(node.grad))


def special_doubles() -> np.ndarray:
    """NaN, zero, infinity, the smallest subnormal and a value near the
    largest double, each with both signs, and two ordinary values."""
    return np.array([
        np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
        1e308, -1e308, 1.5, -2.5,
    ])


def randomize_convs(model: FlowModel, rng) -> FlowModel:
    """Random weights in every block and output conv, so no coupling net
    starts as the zero map its output conv's init makes it."""
    for net in model.coupling_nets():
        for blk in net.blocks:
            blk.conv_a.w.value[...] = rng.normal(0, 0.2, blk.conv_a.w.value.shape)
            blk.conv_b.w.value[...] = rng.normal(0, 0.2, blk.conv_b.w.value.shape)
        net.out.w.value[...] = rng.normal(0, 0.1, net.out.w.value.shape)
    return model


def proj_loss(out: ad.Node, proj: np.ndarray) -> ad.Node:
    return ad.nsum(ad.mul(out, proj))


def check_gradient(build, params: dict, wrt: str, h: float = 1e-6, rtol: float = 1e-3,
                   atol: float = 1e-8):
    """Compare the tape gradient of a scalar loss against central differences.

    build(nodes) must return a scalar Node; params maps names to arrays.
    """
    nodes = {k: ad.Node(v, requires_grad=True) for k, v in params.items()}
    loss = build(nodes)
    ad.backward(loss)
    grad = nodes[wrt].grad
    assert grad is not None, f"no gradient reached {wrt}"

    base = params[wrt].astype(np.float64)
    num = np.zeros_like(base)
    it = np.nditer(base, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        for sign in (+1, -1):
            shifted = dict(params)
            pert = base.copy()
            pert[idx] += sign * h
            shifted[wrt] = pert
            snodes = {k: ad.Node(v) for k, v in shifted.items()}
            num[idx] += sign * float(build(snodes).value)
        num[idx] /= 2 * h
        it.iternext()
    err = np.abs(grad - num)
    scale = np.maximum(np.abs(num), atol / rtol)
    assert np.all(err <= rtol * scale + atol), (
        f"gradient mismatch for {wrt}: max rel err "
        f"{np.max(err / scale):.2e}"
    )
    return grad, num


def stored_arrays(blob: bytes, model) -> dict:
    """name -> (payload offset, array) of each array in a checkpoint's bytes.

    Walks the documented layout on its own; ``model`` only supplies the names.
    """
    pos = len(checkpoint.MAGIC) + struct.calcsize("<HHBBBBHB") + 4 * len(model.levels)
    pos += 4  # array count
    out = {}
    for _, name, _, _ in checkpoint._named_entries(model):
        kind, ndim = blob[pos], blob[pos + 1]
        shape = struct.unpack_from(f"<{ndim}I", blob, pos + 2)
        pos += 2 + 4 * ndim
        dtype = "<u4" if kind == checkpoint.KIND_INDEX else "<f4"
        n = math.prod(shape)
        out[name] = (pos, np.frombuffer(blob, dtype, n, pos).reshape(shape))
        pos += 4 * n
    assert pos == len(blob) - 8
    return out


def rechecksummed(body: bytes) -> bytes:
    """Checkpoint bytes with the trailing checksum recomputed over ``body``."""
    return body + struct.pack("<Q", checkpoint.checksum64(body))


def gated_int_model() -> FlowModel:
    """A small stage-5 model: random convs, random gates, calibrated quantizers."""
    rng = np.random.default_rng(0)
    model = FlowModel(FlowConfig(hidden=8, couplings=2, blocks=1), seed=0)
    model.attach_gates(0.8)
    randomize_convs(model, rng)
    for gate in model.gates():
        gate.node.value[...] = rng.uniform(0, 1, gate.g.shape)
    x = gen_synth(2, 16)
    model.act_quant = True
    calibrate_activations(model, x)
    model.weight_quant = True
    calibrate_weights(model)
    return model


HOSTILE_CHECKPOINTS = (
    "kept_index_at_width", "kept_index_repeated", "stem_transposed",
    "pruned_conv_transposed", "wscale_negative", "q_in_zero", "ndim_above_numpy_max",
    "shape_beyond_address_space", "bias_unfoldable", "stage_above_last", "flag_undefined",
    "float_gate_flag", "float_gate_kind",
)


def hostile_checkpoint(fault: str) -> bytes:
    """A checksum-valid gated checkpoint with one array that does not fit the
    model or holds a value it refuses, or a header field or array kind the
    format does not define: bit 0 and kind 1 once marked a gated checkpoint
    that stored float gates at full width."""
    model = gated_int_model()
    blk = model.levels[0].couplings[0].net.blocks[0]
    blk.conv_a.gate.node.value[:] = [0.9, 0.9, 0.9, 0.1, 0.1, 0.1, 0.1, 0.1]
    blk.conv_b.gate.node.value[:] = 0.9
    blob = checkpoint.serialize(model)
    arrays = stored_arrays(blob, model)
    body = bytearray(blob[:-8])
    # the header's flags (u16) and stage (u8) follow the magic and the version
    flags_at = len(checkpoint.MAGIC) + 2
    if fault == "stage_above_last":
        body[flags_at + 2] = 6  # one past the last stage, 5
    elif fault in ("flag_undefined", "float_gate_flag"):
        bit = 0x10 if fault == "flag_undefined" else 0x1
        struct.pack_into("<H", body, flags_at, struct.unpack_from("<H", body, flags_at)[0] | bit)
    elif fault == "float_gate_kind":
        # a kept-index list stored as the float-gate kind
        off, idx = arrays["level0.coup0.block0.idx_a"]
        body[off - 4 * idx.ndim - 2] = 1
    elif fault == "bias_unfoldable":
        # a kept conv-A filter whose bias folds far beyond the 2**30 budget
        off, _ = arrays["level0.coup0.block0.conv_a.b"]
        struct.pack_into("<f", body, off, 1e30)
    elif fault in ("wscale_negative", "q_in_zero"):
        name = "conv_a.wscale" if fault == "wscale_negative" else "q_in"
        off, _ = arrays[f"level0.coup0.block0.{name}"]
        struct.pack_into("<f", body, off, -1.0 if fault == "wscale_negative" else 0.0)
    elif fault == "ndim_above_numpy_max":
        # 65 dims, the first zero, so the payload is empty; numpy allows 64
        off, w = arrays["level0.coup0.stem.w"]
        body[off - 4 * w.ndim - 1] = 65
        struct.pack_into("<I", body, off - 4 * w.ndim, 0)
    elif fault == "shape_beyond_address_space":
        # zero elements, so the payload is empty, but no such array exists
        off, _ = arrays["level0.coup0.stem.w"]
        struct.pack_into("<4I", body, off - 16, 0, 2**32 - 1, 2**32 - 1, 2**32 - 1)
    elif fault in ("stem_transposed", "pruned_conv_transposed"):
        name = "stem.w" if fault == "stem_transposed" else "block0.conv_b.w"
        off, w = arrays[f"level0.coup0.{name}"]
        assert w.shape[0] != w.shape[1]
        struct.pack_into("<4I", body, off - 16, w.shape[1], w.shape[0], *w.shape[2:])
    else:
        off, idx = arrays["level0.coup0.block0.idx_b"]
        assert list(idx) == list(range(blk.width))
        if fault == "kept_index_at_width":
            struct.pack_into("<I", body, off + 4 * (blk.width - 1), blk.width)
        else:
            struct.pack_into("<I", body, off + 4, 0)
    return rechecksummed(bytes(body))
