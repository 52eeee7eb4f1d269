"""Conv layers, gates, integer kernels, and residual blocks."""

import numpy as np
import pytest

from flowzip import autodiff as ad
from flowzip import codec, layers, quant
from flowzip import model as model_module
from flowzip.checkpoint import deserialize, serialize
from flowzip.data import gen_synth
from flowzip.errors import DataFormatError
from flowzip.layers import (
    F32_EXACT,
    MAX_ACC,
    MAX_BIAS_INT,
    ConvLayer,
    GateVector,
    IntBlock,
    IntConv,
    ResidualBlock,
    block_int,
    block_sim,
    fold_bias,
    int_conv_acc,
    requantize,
    weight_grid,
)
from flowzip.model import FlowConfig, FlowModel
from flowzip.numerics import round_half_away

from helpers import gated_int_model, u8_rounding_cases

RNG = np.random.default_rng(7)


def _int_conv(values, sx, layer, s_y):
    """One int-path conv as block_int composes it: int8 GEMM, folded bias,
    double-precision rescale onto the u8 output grid of step s_y."""
    sw = layer.wscale.value
    conv = IntConv.build(weight_grid(layer.w.value, sw), fold_bias(layer.b.value, sw, sx))
    acc = int_conv_acc(values, conv)
    return requantize(acc, (sw * sx / s_y)[None, :, None, None])


def test_conv_zero_kernel():
    y = ad.conv2d_raw(RNG.normal(0, 1, (1, 2, 4, 4)), np.zeros((3, 2, 3, 3)), np.zeros(3))
    assert np.all(y == 0.0)


def test_conv_dirac_kernel_is_identity():
    w = np.zeros((1, 1, 3, 3))
    w[0, 0, 1, 1] = 1.0
    x = RNG.normal(0, 1, (2, 1, 5, 5))
    assert np.array_equal(ad.conv2d_raw(x, w, np.zeros(1)), x)


def test_conv_channel_mismatch():
    for conv in (ad.conv2d_raw, ad.conv2d, lambda x, w, b: int_conv_acc(x, IntConv.build(w, b))):
        with pytest.raises(ValueError):
            conv(np.zeros((1, 3, 4, 4)), np.zeros((2, 4, 3, 3)), np.zeros(2))


def _int64_conv(values, w_int, bhat):
    """The integer accumulator in int64 arithmetic, tap by tap: no float, no BLAS."""
    B, _, H, W = values.shape
    v = np.pad(values.astype(np.int64), ((0, 0), (0, 0), (1, 1), (1, 1)))
    w = w_int.astype(np.int64)
    acc = np.zeros((B, w.shape[0], H, W), dtype=np.int64)
    acc += bhat.astype(np.int64)[:, None, None]
    for i in range(3):
        for j in range(3):
            acc += np.einsum("oc,bchw->bohw", w[:, :, i, j], v[:, :, i : i + H, j : j + W])
    return acc


@pytest.mark.parametrize("B, C, H, W", [(1, 3, 4, 6), (5, 4, 3, 5), (4, 0, 4, 4)])
def test_int_conv_acc_folds_the_batch_exactly(B, C, H, W):
    # one GEMM over the batch equals per-image calls and the int64 reference,
    # for a batch-last view (as block_int hands on), a contiguous input and
    # C = 0 (every filter of conv A gated off)
    rng = np.random.default_rng(10 * B + C)
    w = rng.integers(-128, 128, (3, C, 3, 3)).astype(np.float64)
    bhat = rng.integers(-1000, 1000, 3).astype(np.float64)
    values = rng.integers(0, 256, (C, H, W, B)).astype(np.float64).transpose(3, 0, 1, 2)
    ref = _int64_conv(values, w, bhat)
    conv = IntConv.build(w, bhat)
    got = int_conv_acc(values, conv)
    # the weights bound these sums far below F32_EXACT
    assert got.shape == (B, 3, H, W) and got.dtype == np.float32
    assert np.array_equal(got, ref)
    assert np.array_equal(int_conv_acc(np.ascontiguousarray(values), conv), ref)
    per_image = [int_conv_acc(values[i : i + 1], conv) for i in range(B)]
    assert np.array_equal(np.concatenate(per_image), ref)


@pytest.mark.parametrize("c_in, b, bound, dtype", [
    (57, 33_151, F32_EXACT, np.float32),  # 255 * 65,663 + 33,151
    (57, 33_152, F32_EXACT + 1, np.float64),
    (58, 0, 255 * 66_815, np.float64),  # full-window sums pass 2**24
    (1, MAX_BIAS_INT - 1, 255 * 1_151 + MAX_BIAS_INT - 1, np.float64),
], ids=["f32_at_bound", "f64_above_bound", "f64_sums_past_f32", "f64_large_bias"])
def test_int_conv_acc_exact_across_the_float32_bound(c_in, b, bound, dtype):
    # The weight-dependent bound 255 * max row sum |w| + max |bhat| picks the
    # GEMM dtype. Worst case: all-255 inputs against extreme weights, one
    # +127 among -128s so that every full-window sum is odd (float32 holds no
    # odd integer above 2**24), and odd biases, up to near MAX_BIAS_INT,
    # which join the GEMM in its own dtype.
    values = np.full((2, c_in, 3, 4), 255.0)
    w = np.full((2, c_in, 3, 3), -128.0)
    w[:, 0, 0, 0] = 127.0
    bhat = np.array([b, -b], dtype=np.float64)
    conv = IntConv.build(w, bhat)
    assert conv.bound == bound and conv.w.dtype == conv.bhat.dtype == dtype
    ref = _int64_conv(values, w, bhat)
    assert np.abs(ref).max() <= bound
    assert np.array_equal(int_conv_acc(values, conv), ref)


def test_int_conv_hand_example():
    # 1x1 conv, W_hat=[2] at s_W=1, x_hat=[3] at s_x=0.5, b=0.25, s_y=0.25:
    # folded bias round(0.25/0.5)=1, accumulator 7, rescale 2 -> 14 -> 3.5.
    # The float reference is 3.25; the 0.25 discrepancy is exactly one bias
    # quantization step, within 0.5 * s_W * s_x.
    bhat = fold_bias(np.array([0.25]), np.array([1.0]), 0.5)
    assert bhat[0] == 1
    acc = int_conv_acc(np.full((1, 1, 1, 1), 3), IntConv.build(np.full((1, 1, 1, 1), 2.0), bhat))
    assert acc[0, 0, 0, 0] == 7
    y = requantize(acc, np.array([1.0 * 0.5 / 0.25])[None, :, None, None])
    assert y[0, 0, 0, 0] == 14
    assert y[0, 0, 0, 0] * 0.25 == 3.5
    float_ref = 2.0 * 1.5 + 0.25
    assert abs(y[0, 0, 0, 0] * 0.25 - float_ref) <= 0.5 * 0.25 + 0.5 * 1.0 * 0.5


def test_int_conv_zero_input():
    layer = ConvLayer(2, 2)
    y = _int_conv(np.zeros((1, 2, 4, 4)), 1.0, layer, 1.0)
    assert np.all(y == 0)


def test_int_conv_error_bound_vs_float():
    # dequant(int path) vs float conv on the dequantized input:
    # |err| <= 0.5*s_y + 0.5*s_W*s_x per element
    for trial in range(5):
        rng = np.random.default_rng(100 + trial)
        layer = ConvLayer(3, 4, rng)
        layer.w.value[...] = rng.normal(0, 0.2, layer.w.value.shape)
        layer.b.value[...] = rng.normal(0, 0.3, 4)
        layer.calibrate_weight_scale()
        values = rng.integers(0, 256, (2, 3, 4, 4))
        s_x, s_y = 0.1, 0.05
        got = _int_conv(values, s_x, layer, s_y) * s_y
        sw = layer.wscale.value
        w_deq = weight_grid(layer.w.value, sw) * sw[:, None, None, None]
        ref = ad.conv2d_raw(values * s_x, w_deq, layer.b.value)
        bound = 0.5 * s_y + 0.5 * float(sw.max()) * s_x + 1e-12
        # reference uses the quantized weights; clipped outputs are excluded
        inside = (got > 0) & (got < 255 * s_y)
        assert np.max(np.abs(got - ref)[inside]) <= bound


def test_relu_int():
    # the int path's ReLU is requantize's unsigned [0, 255] clip
    acc = np.array([-5.0, 3.0, -0.4, 300.0])
    assert list(requantize(acc, np.float64(1.0))) == [0, 3, 0, 255]
    assert np.all(requantize(np.array([-1.0, -2.0]), np.float64(0.5)) == 0)
    assert list(requantize(np.array([4.0, 7.0]), np.float64(1.0))) == [4, 7]


@pytest.mark.parametrize("m", [1.0, 0.5, 2.0])
def test_requantize_is_round_half_away_then_clip(m):
    # clip-then-floor(y + _HALF_DOWN) in place equals the specification,
    # round half away from zero, then clip, on every tie and its neighbours;
    # m is a power of two, so acc * m gives the cases back exactly
    acc = u8_rounding_cases() / m
    want = np.clip(round_half_away(acc * m), 0, 255)
    got = requantize(acc.copy(), np.float64(m))
    assert np.array_equal(got, want)
    buf = acc.copy()
    assert requantize(buf, np.float64(m)) is buf  # in place


def _random_block(width):
    blk = ResidualBlock.build(width, RNG)
    for conv in (blk.conv_a, blk.conv_b):
        conv.w.value[...] = RNG.normal(0, 0.5, conv.w.value.shape)
        conv.b.value[...] = RNG.normal(0, 0.5, width)
    return blk


def test_gconv_all_on_equals_conv():
    # block_sim's gated convs with every gate on match the ungated block bitwise
    blk = _random_block(3)
    x = ad.Node(np.abs(RNG.normal(0, 1, (1, 3, 4, 4))))
    ungated = block_sim(x, blk, False, False).value
    blk.attach_gates(0.9)
    assert np.array_equal(block_sim(x, blk, False, False).value, ungated)


def test_gconv_zeroes_disabled_channels():
    # with a Dirac conv B and x >= 0 the block returns x + relu(gated conv A(x)),
    # so y - x exposes conv A's gated output channel by channel
    blk = _random_block(3)
    blk.conv_a.b.value[...] = 1.0
    blk.conv_b.w.value[...] = 0.0
    blk.conv_b.b.value[...] = 0.0
    for c in range(3):
        blk.conv_b.w.value[c, c, 1, 1] = 1.0
    blk.conv_a.gate = GateVector(3, 0.8)
    blk.conv_a.gate.node.value[:] = [0.3, 0.9, 0.5]  # 0.5 binarizes to 0 (strict >)
    x = np.abs(RNG.normal(0, 1, (1, 3, 4, 4)))
    h = block_sim(ad.Node(x), blk, False, False).value - x
    assert np.all(h[:, 0] == 0.0) and np.all(h[:, 2] == 0.0)
    assert np.any(h[:, 1] != 0.0)


def test_gconv_length_mismatch():
    # a gate sized for another width cannot broadcast onto the conv output
    blk = _random_block(3)
    blk.conv_a.gate = GateVector(5, 0.8)
    with pytest.raises(ValueError):
        block_sim(ad.Node(np.zeros((1, 3, 4, 4))), blk, False, False)


def test_block_zero_init_passes_relu_of_input():
    blk = ResidualBlock.build(4, RNG)
    blk.conv_a.w.value[...] = 0.0
    blk.conv_b.w.value[...] = 0.0
    x = RNG.normal(0, 1, (2, 4, 4, 4))
    y = block_sim(ad.Node(x), blk, act_quant=False, weight_quant=False)
    assert np.array_equal(y.value, np.maximum(x, 0.0))


def test_block_scatter_add_two_channel_toy():
    # gates prune channel 1 of 2: the inner result lands on channel 0 only,
    # channel 1 passes straight through the shortcut
    blk = ResidualBlock.build(2, RNG)
    blk.conv_a.w.value[...] = RNG.normal(0, 0.4, blk.conv_a.w.value.shape)
    blk.conv_b.w.value[...] = RNG.normal(0, 0.4, blk.conv_b.w.value.shape)
    blk.attach_gates(0.8)
    blk.conv_b.gate.node.value[:] = [0.9, 0.1]
    x = np.abs(RNG.normal(0, 1, (1, 2, 4, 4)))
    y = block_sim(ad.Node(x), blk, False, False).value
    assert np.array_equal(y[:, 1], np.maximum(x[:, 1], 0.0))
    assert not np.array_equal(y[:, 0], np.maximum(x[:, 0], 0.0))


def _calibrated_block(width=8, seed=0):
    rng = np.random.default_rng(seed)
    blk = ResidualBlock.build(width, rng)
    blk.conv_a.w.value[...] = rng.normal(0, 0.15, blk.conv_a.w.value.shape)
    blk.conv_b.w.value[...] = rng.normal(0, 0.15, blk.conv_b.w.value.shape)
    blk.conv_a.b.value[...] = rng.normal(0, 0.1, width)
    blk.conv_b.b.value[...] = rng.normal(0, 0.1, width)
    blk.conv_a.calibrate_weight_scale()
    blk.conv_b.calibrate_weight_scale()
    x = np.abs(rng.normal(0, 1.5, (2, width, 6, 6)))
    from flowzip.layers import calibrate_activation

    calibrate_activation(blk.q_in, x)
    h = np.maximum(ad.conv2d_raw(x, blk.conv_a.w.value, blk.conv_a.b.value), 0)
    calibrate_activation(blk.q_mid, h)
    return blk, x


def test_int_block_close_to_float_block():
    blk, x = _calibrated_block()
    y_float = block_sim(ad.Node(x), blk, False, False).value
    s_in = float(blk.q_in.value[0])
    q = np.clip(np.round(x / s_in), 0, 255)
    s_next = s_in  # requantize the output on the same grid for comparison
    y_int = block_int(q, IntBlock.build(blk, s_next)) * s_next
    err = np.abs(y_int - y_float)
    clipped = y_int >= 255 * s_next
    assert np.max(err[~clipped]) <= 4 * s_next


def _block_int_reference(values, blk, s_next):
    """block_int's specification, unfused: int64 convs over the kept filters,
    round half away then clip, and channels scattered by index."""
    sa, s_mid = float(blk.q_in.value[0]), float(blk.q_mid.value[0])
    ka, kb = blk.kept_sets()
    swa, swb = blk.conv_a.wscale.value[ka], blk.conv_b.wscale.value[kb]
    wa = weight_grid(blk.conv_a.w.value, blk.conv_a.wscale.value)[ka]
    wb = weight_grid(blk.conv_b.w.value, blk.conv_b.wscale.value)[kb][:, ka]

    def rq(acc, m):
        return np.clip(round_half_away(acc * m), 0, 255)

    def per_channel(v):
        return v[None, :, None, None]

    out = rq(values, sa / s_next)
    if len(kb):
        acc1 = _int64_conv(values, wa, fold_bias(blk.conv_a.b.value[ka], swa, sa))
        h = rq(acc1, per_channel(swa * sa / s_mid))
        acc2 = _int64_conv(h, wb, fold_bias(blk.conv_b.b.value[kb], swb, s_mid))
        acc2 = acc2 + round_half_away(values[:, kb] * per_channel(sa / (swb * s_mid)))
        out[:, kb] = rq(acc2, per_channel(swb * s_mid / s_next))
    return out


@pytest.mark.parametrize("gates", ["random", "all_on", "all_off"])
@pytest.mark.parametrize("batch", [2, 64])
def test_int_block_gated_matches_pruned_exactly(gates, batch):
    # the block with live gates, and the same block after a checkpoint save
    # and load (kept filters only on disk, zero-padded back at load), which
    # holds its kept sets, both equal to the unfused reference, on contiguous
    # and batch-last grids
    blk, x = _calibrated_block(seed=5)
    if batch != len(x):
        x = np.abs(np.random.default_rng(batch).normal(0, 1.5, (batch,) + x.shape[1:]))
    model = FlowModel(FlowConfig(hidden=8, couplings=1, blocks=1), seed=0)
    model.act_quant = model.weight_quant = True
    model.levels[0].couplings[0].net.blocks[0] = blk
    gated = deserialize(serialize(model))  # the same float32 parameters
    gated.attach_gates(0.8)
    gated_blk = gated.levels[0].couplings[0].net.blocks[0]
    rng = np.random.default_rng(1)
    for gate in (gated_blk.conv_a.gate, gated_blk.conv_b.gate):
        gate.node.value[:] = {"random": rng.uniform(0, 1, 8), "all_on": 0.9, "all_off": 0.1}[gates]
    pruned = deserialize(serialize(gated))
    pruned_blk = pruned.levels[0].couplings[0].net.blocks[0]
    assert pruned_blk.gates() == [] and pruned_blk.kept is not None
    kept_b = len(pruned_blk.kept_sets()[1])
    assert {"random": 0 < kept_b < 8, "all_on": kept_b == 8, "all_off": kept_b == 0}[gates]

    s_in = float(gated_blk.q_in.value[0])
    assert float(pruned_blk.q_in.value[0]) == s_in
    q = np.clip(np.round(x / s_in), 0, 255)
    want = _block_int_reference(q, gated_blk, 0.9 * s_in)
    batch_last = np.ascontiguousarray(q.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
    for grid in (q, batch_last):
        assert np.array_equal(block_int(grid, IntBlock.build(gated_blk, 0.9 * s_in)), want)
        assert np.array_equal(block_int(grid, IntBlock.build(pruned_blk, 0.9 * s_in)), want)


def test_int_round_trip_keeps_every_block_on_the_u8_grid(monkeypatch):
    # block_int takes and returns plain arrays; nothing checks their range
    # at runtime, so check it here on every block of a gated int model
    seen = []

    def recording(values, blk):
        out = block_int(values, blk)
        seen.extend((values, out))
        return out

    monkeypatch.setattr(model_module, "block_int", recording)
    model = gated_int_model()
    x = gen_synth(3, 4)
    container, _ = codec.compress(x, model, "int")
    assert np.array_equal(codec.decompress(container, model, "int"), x)
    blocks = sum(len(net.blocks) for net in model.coupling_nets())
    assert len(seen) >= 4 * blocks  # compress and decompress, input and output
    for grid in seen:
        assert grid.dtype == np.float64
        assert np.array_equal(grid, np.round(grid))
        assert grid.min() >= 0 and grid.max() <= 255


def test_a_built_plan_quantizes_no_weight(monkeypatch):
    # after one warm round trip on an unchanged model, an int round trip
    # quantizes each coupling-net evaluation's stem output once, unsigned
    # per-tensor, and no weight: the int8 grids and folded biases come from
    # the model's plan
    model = gated_int_model()
    x = gen_synth(3, 2)
    warm, _ = codec.compress(x, model, "int")
    codec.decompress(warm, model, "int")
    quantized, evaluated, rebuilt = [], [], []
    quantize, forward_int = quant.quantize, model_module.CouplingNet.forward_int

    def counting_quantize(r, p):
        quantized.append(p)
        return quantize(r, p)

    def counting_forward_int(net, u, plan):
        evaluated.append(net)
        return forward_int(net, u, plan)

    monkeypatch.setattr(quant, "quantize", counting_quantize)
    monkeypatch.setattr(model_module.CouplingNet, "forward_int", counting_forward_int)
    for owner, name in ((layers, "weight_grid"), (model_module, "weight_grid"),
                        (layers, "fold_bias"), (model_module, "fold_bias")):
        monkeypatch.setattr(owner, name, lambda *args, name=name: rebuilt.append(name))
    container, _ = codec.compress(x, model, "int")
    assert np.array_equal(codec.decompress(container, model, "int"), x)
    assert container == warm
    assert evaluated and len(quantized) == len(evaluated)
    assert not any(p.signed or p.per_channel for p in quantized)
    assert rebuilt == []


def test_accumulator_bound_asserted():
    with pytest.raises(DataFormatError):
        fold_bias(np.array([1e12]), np.array([1e-3]), 1e-3)
    # the bound counts the weights and the bias: 255 * 9 + bias up to MAX_ACC
    ones = np.ones((1, 1, 3, 3))
    assert IntConv.build(ones, np.array([MAX_ACC - 255 * 9.0])).bound == MAX_ACC
    with pytest.raises(DataFormatError):
        IntConv.build(ones, np.array([MAX_ACC - 255 * 9.0 + 1]))
    # 7,311 channels of -128 weights could overflow int32 with no bias at all
    with pytest.raises(DataFormatError):
        IntConv.build(np.full((1, 7_311, 3, 3), -128.0), np.zeros(1))
