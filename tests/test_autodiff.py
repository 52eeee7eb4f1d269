"""Every registered adjoint against central finite differences."""

import gc
import sys
import tracemalloc

import numpy as np
import pytest

from flowzip import autodiff as ad
from flowzip import codec
from flowzip.checkpoint import named_parameters
from flowzip.data import gen_synth
from flowzip.layers import IntConv, int_conv_acc
from flowzip.train import TrainConfig, gate_lambdas, gated_objective, loss_bpd

from helpers import (
    backward_ref,
    check_gradient,
    gated_int_model,
    make_ref,
    proj_loss,
    special_doubles,
)

RNG = np.random.default_rng(42)


def test_conv2d_gradients():
    params = {
        "x": RNG.normal(0, 1, (2, 2, 4, 4)),
        "w": RNG.normal(0, 0.5, (3, 2, 3, 3)),
        "b": RNG.normal(0, 0.5, 3),
    }
    proj = RNG.normal(0, 1, (2, 3, 4, 4))

    def build(n):
        return proj_loss(ad.conv2d(n["x"], n["w"], n["b"]), proj)

    for wrt in ("x", "w", "b"):
        check_gradient(build, params, wrt)


def _im2col_loop(x, k):
    # reference: fill the batch-last patch matrix one image and one kernel
    # offset at a time
    B, C, H, W = x.shape
    pad = (k - 1) // 2
    xp = np.zeros((B, C, H + 2 * pad, W + 2 * pad))
    xp[:, :, pad : pad + H, pad : pad + W] = x
    cols = np.empty((C, k * k, H, W, B))
    for b in range(B):
        for i in range(k):
            for j in range(k):
                cols[:, i * k + j, :, :, b] = xp[b, :, i : i + H, j : j + W]
    return cols.reshape(C * k * k, H * W * B)


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize(
    "shape", [(0, 2, 4, 4), (1, 0, 4, 4), (1, 3, 4, 6), (2, 2, 1, 1), (2, 4, 8, 8)]
)
def test_im2col_matches_loop_reference(shape, k):
    # the int path hands im2col integer arrays
    for x in (RNG.normal(0, 1, shape), RNG.integers(-128, 128, shape)):
        got, ref = ad.im2col(x, k, np.float64), _im2col_loop(x, k)
        assert got.shape == (shape[1] * k * k, shape[2] * shape[3] * shape[0])
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


# H * W stays a multiple of 8, as at every level of the desk model. On an
# AVX-512 OpenBLAS, with 3x3 or 5x6 maps, the last few columns of the batched
# GEMM differed from the per-image ones in the last bit.
@pytest.mark.parametrize("c_in", [6, 24, 32])
@pytest.mark.parametrize("batch", [1, 7, 64])
def test_batched_convs_equal_per_image_calls(batch, c_in):
    x = RNG.normal(0, 1, (c_in, batch, 4, 6)).transpose(1, 0, 2, 3)  # a transposed view
    w = RNG.normal(0, 0.5, (5, c_in, 3, 3))
    b = RNG.normal(0, 0.5, 5)
    for conv in (ad.conv2d_raw, lambda x, w, b: ad.conv2d(x, w, b).value):
        got = conv(x, w, b)
        ref = np.concatenate([conv(x[i : i + 1], w, b) for i in range(batch)])
        assert got.shape == (batch, 5, 4, 6)
        assert got.tobytes() == ref.tobytes()


def test_each_conv_builds_one_patch_matrix_per_batch(monkeypatch):
    # every conv is an epilogue on the one kernel: one conv_gemm call, and
    # through it one im2col call, per conv per batch
    calls = {"im2col": [], "conv_gemm": []}
    for name in calls:
        kernel = getattr(ad, name)

        def counting(*args, name=name, kernel=kernel):
            calls[name].append(args[0].shape)
            return kernel(*args)

        monkeypatch.setattr(ad, name, counting)
    x = RNG.normal(0, 1, (7, 2, 4, 4))
    w = RNG.normal(0, 0.5, (3, 2, 3, 3))
    b = np.zeros(3)
    grid = RNG.integers(0, 256, (7, 2, 4, 4)).astype(float)
    for conv in (
        lambda: ad.conv2d_raw(x, w, b),
        lambda: ad.conv2d(x, w, b),
        lambda: int_conv_acc(grid, IntConv.build(np.ones((3, 2, 3, 3)), b)),
    ):
        for seen in calls.values():
            seen.clear()
        conv()
        assert calls == {"im2col": [(7, 2, 4, 4)], "conv_gemm": [(7, 2, 4, 4)]}


def test_tape_conv_holds_no_patch_matrix():
    # the node keeps its input and its (4, H*W*B) output, not the
    # (9*C, H*W*B) patches of the forward GEMM
    B, C, H, W = 16, 8, 8, 8
    x = RNG.normal(0, 1, (B, C, H, W))
    w = ad.Node(RNG.normal(0, 0.5, (4, C, 3, 3)), requires_grad=True)
    b = np.zeros(4)
    gc.collect()
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = ad.conv2d(x, w, b)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert out.parents == (w,)
    assert grown < 9 * C * H * W * B * 8


@pytest.mark.parametrize("x_grad", [False, True])
@pytest.mark.parametrize("w_grad", [False, True])
def test_conv_backward_rebuilds_the_patches_only_for_the_weight(monkeypatch, x_grad, w_grad):
    calls = []
    kernel = ad.im2col

    def counting(*args):
        calls.append(args[0].shape)
        return kernel(*args)

    monkeypatch.setattr(ad, "im2col", counting)
    x = ad.Node(RNG.normal(0, 1, (2, 3, 4, 4)), requires_grad=x_grad)
    w = ad.Node(RNG.normal(0, 0.5, (5, 3, 3, 3)), requires_grad=w_grad)
    b = ad.Node(np.zeros(5), requires_grad=True)
    out = ad.conv2d(x, w, b)
    assert calls == [(2, 3, 4, 4)]
    calls.clear()
    ad.backward(ad.nsum(out))
    # vjp_w rebuilds the input's patches once; vjp_x patches the gradient
    assert sorted(calls) == sorted([(2, 3, 4, 4)] * w_grad + [(2, 5, 4, 4)] * x_grad)


def test_conv_kernel_calls_no_as_strided(monkeypatch):
    # im2col builds its window view with the ndarray constructor, which
    # checks the view's extent against the padded buffer
    def refuse(*args, **kwargs):
        raise AssertionError("as_strided called")

    impl = sys.modules[np.lib.stride_tricks.sliding_window_view.__module__]
    for module in {np.lib.stride_tricks, impl}:
        monkeypatch.setattr(module, "as_strided", refuse)
    model = gated_int_model()
    x = RNG.normal(0, 1, (3, 2, 4, 4))
    w = RNG.normal(0, 0.5, (3, 2, 3, 3))
    xn, wn = ad.Node(x, requires_grad=True), ad.Node(w, requires_grad=True)
    ad.backward(ad.nsum(ad.relu(ad.conv2d(xn, wn, np.zeros(3)))))
    assert xn.grad.shape == x.shape and wn.grad.shape == w.shape
    images = gen_synth(5, 2)
    container, _ = codec.compress(images, model, "int")
    assert np.array_equal(codec.decompress(container, model, "int"), images)
    # an even kernel's k x k windows reach one row and column past the
    # buffer: the constructor refuses them before the copy reads anything
    for k in (2, 4):
        with pytest.raises(ValueError):
            ad.im2col(x, k, np.float64)
        with pytest.raises(ValueError):
            ad.conv2d_raw(x, RNG.normal(0, 1, (3, 2, k, k)), None)


def test_conv2d_1x1_kernel():
    x = np.full((1, 1, 1, 1), 1.5)
    w = np.full((1, 1, 1, 1), 2.0)
    b = np.array([0.25])
    assert ad.conv2d(x, w, b).value[0, 0, 0, 0] == 3.25


def test_conv2d_channel_mismatch():
    with pytest.raises(ValueError):
        ad.conv2d(np.zeros((1, 2, 4, 4)), np.zeros((3, 5, 3, 3)), np.zeros(3))


def test_relu_gradient_away_from_kink():
    x = RNG.normal(0, 1, (3, 5))
    x[np.abs(x) < 0.1] += 0.2
    proj = RNG.normal(0, 1, x.shape)
    check_gradient(lambda n: proj_loss(ad.relu(n["x"]), proj), {"x": x}, "x")


def test_clip_gradient_away_from_bounds():
    # values below, inside and above [-1, 1.5], none within 0.05 of a bound:
    # the gradient passes inside and is zero outside
    x = RNG.uniform(-3.0, 3.0, (4, 6))
    for bound in (-1.0, 1.5):
        x[np.abs(x - bound) < 0.05] += 0.1
    assert (x < -1).any() and ((x > -1) & (x < 1.5)).any() and (x > 1.5).any()
    proj = RNG.normal(0, 1, x.shape)
    grad, _ = check_gradient(
        lambda n: proj_loss(ad.clip(n["x"], -1.0, 1.5), proj), {"x": x}, "x"
    )
    assert np.array_equal(grad == 0, (x < -1) | (x > 1.5))


@pytest.mark.parametrize("batch_last", [False, True])
def test_relu_equals_the_select_bit_for_bit(batch_last):
    # fmax(x, 0) + 0.0 against np.where(x > 0, x, 0.0): NaN and -0.0 give
    # +0.0, subnormals and infinities keep their sign rules
    vals = np.resize(np.concatenate([special_doubles(), RNG.normal(0, 1, 20)]), 3 * 4 * 2 * 5)
    x = vals.reshape(4, 2, 5, 3).transpose(3, 0, 1, 2) if batch_last else vals.reshape(3, 4, 2, 5)
    for grad in (True, False):
        node = ad.Node(x, requires_grad=True)
        if grad:
            out = ad.relu(node)
            assert out.parents == (node,)
        else:
            with ad.no_grad():
                out = ad.relu(node)
            assert out.parents == () and out.vjps == ()
        want = np.where(x > 0, x, 0.0)
        assert np.array_equal(out.value.view(np.int64), want.view(np.int64))
        assert out.value.strides == x.strides


def test_add_scatter_and_slices():
    params = {
        "a": RNG.normal(0, 1, (2, 4, 2, 2)),
        "s": RNG.normal(0, 1, (2, 2, 2, 2)),
    }
    idx = np.array([1, 3])
    proj = RNG.normal(0, 1, (2, 4, 2, 2))

    def build(n):
        return proj_loss(ad.scatter_add(n["a"], n["s"], idx), proj)

    for wrt in ("a", "s"):
        check_gradient(build, params, wrt)


def test_scatter_add_index_bounds():
    with pytest.raises(IndexError):
        ad.scatter_add(np.zeros((1, 2, 1, 1)), np.zeros((1, 1, 1, 1)), np.array([5]))


def test_squeeze_gradients_and_roundtrip():
    x = RNG.normal(0, 1, (2, 3, 4, 4))
    proj = RNG.normal(0, 1, (2, 12, 2, 2))
    check_gradient(lambda n: proj_loss(ad.squeeze2x2(n["x"]), proj), {"x": x}, "x")
    back = ad.depth_to_space(ad.squeeze2x2(ad.Node(x)).value)
    assert np.array_equal(back, x)


def test_elementwise_op_gradients():
    x = RNG.uniform(0.5, 2.0, (4,))
    proj = RNG.normal(0, 1, 4)
    for op in (lambda a: ad.scale(a, -1.5), lambda a: ad.add_const(a, 0.75)):
        check_gradient(lambda n, op=op: proj_loss(op(n["x"]), proj), {"x": x}, "x")
    check_gradient(
        lambda n: proj_loss(ad.mul(n["x"], n["y"]), proj),
        {"x": x, "y": RNG.normal(0, 1, 4)},
        "y",
    )


def test_mean_and_concat_gradients():
    params = {"a": RNG.normal(0, 1, (1, 2, 2, 2)), "b": RNG.normal(0, 1, (1, 3, 2, 2))}
    proj = RNG.normal(0, 1, (1, 5, 2, 2))

    def build(n):
        return proj_loss(ad.channel_concat(n["a"], n["b"]), proj)

    check_gradient(build, params, "a")
    check_gradient(build, params, "b")
    check_gradient(lambda n: ad.nsum(n["a"]), params, "a")


def test_round_ste_gradient_is_identity():
    x = ad.Node(np.array([0.2, 1.7, -3.5]), requires_grad=True)
    out = ad.round_ste(x)
    assert np.array_equal(out.value, [0.0, 2.0, -4.0])
    ad.backward(ad.nsum(out))
    assert np.array_equal(x.grad, np.ones(3))


def test_binarize_ste_gradient_is_identity():
    g = ad.Node(np.array([0.3, 0.5, 0.7]), requires_grad=True)
    out = ad.binarize_ste(g)
    assert np.array_equal(out.value, [0.0, 0.0, 1.0])  # strict inequality at 0.5
    ad.backward(ad.nsum(out))
    assert np.array_equal(g.grad, np.ones(3))


def test_fake_quantize_input_gradient_matches_ste():
    r = np.array([0.3, 2.6, 400.0, -0.9])
    rn = ad.Node(r, requires_grad=True)
    sn = ad.Node(np.array([1.0]), requires_grad=True)
    out = ad.fake_quantize(rn, sn, signed=True)
    up = np.array([1.0, 2.0, 3.0, 4.0])
    ad.backward(proj_loss(out, up))
    assert np.array_equal(rn.grad, [1.0, 2.0, 0.0, 4.0])
    assert sn.grad is not None and sn.grad.shape == (1,)


def test_gradient_accumulates_over_reuse():
    x = ad.Node(np.array([2.0]), requires_grad=True)
    y = ad.add(ad.mul(x, x), x)  # d/dx (x^2 + x) = 2x + 1 = 5
    ad.backward(ad.nsum(y))
    assert x.grad[0] == pytest.approx(5.0)


def test_no_grad_builds_no_graph():
    x = ad.Node(np.ones(3), requires_grad=True)
    with ad.no_grad():
        out = ad.relu(ad.mul(x, 2.0))
    assert out.parents == ()


# -- the consuming backward --------------------------------------------------

OBJECTIVES = ("float", "gated", "fake")
# Backward's peak traced memory above the live tape right after the forward
# pass, as a share of the keep-everything reference's on the same objective.
# The consuming sweep measured 0.145-0.178 on these objectives; keeping the
# interior gradients as well measured 0.79-0.95.
BACKWARD_EXTRA_SHARE = 0.2


def _objective(name: str):
    """A tiny gated, calibrated model and one training objective on it."""
    model = gated_int_model()
    model.act_quant = model.weight_quant = name == "fake"
    x = gen_synth(3, 4)
    if name == "gated":
        lambdas = gate_lambdas(model, TrainConfig())
        return model, lambda: gated_objective(x, model, lambdas)[0]
    return model, lambda: loss_bpd(x, model)


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_backward_equals_the_keep_everything_reference(monkeypatch, objective):
    model, build = _objective(objective)
    params = [node for _, _, node in named_parameters(model)]
    grads = []
    for make, sweep in ((ad._make, ad.backward), (make_ref, backward_ref)):
        monkeypatch.setattr(ad, "_make", make)
        for p in params:
            p.grad = None
        sweep(build())
        grads.append([p.grad for p in params])
    got, ref = grads
    assert all(g is not None for g in got)
    for g, r in zip(got, ref):
        assert g.shape == r.shape and g.tobytes() == r.tobytes()


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_backward_peak_stays_near_the_forward_tape(monkeypatch, objective):
    # the sweep consumes the graph: it holds few gradients at once, where
    # the reference keeps every interior one until the sweep ends
    model, build = _objective(objective)
    shipped = ad._make

    def extra_over_live(make, sweep):
        monkeypatch.setattr(ad, "_make", make)
        gc.collect()
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            loss = build()
            live = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            sweep(loss)
            return tracemalloc.get_traced_memory()[1] - live
        finally:
            if not tracing:
                tracemalloc.stop()

    ref = extra_over_live(make_ref, backward_ref)
    assert 0 < extra_over_live(shipped, ad.backward) <= BACKWARD_EXTRA_SHARE * ref


def test_first_gradient_is_adopted_unless_it_is_upstream_memory():
    upstream = RNG.normal(0, 1, (2, 3))
    cases = {
        "fresh": (upstream * 2.0, True),
        "identity": (upstream, False),
        "view": (upstream[:, :2], False),
        "read-only": (np.broadcast_to(upstream[0], (2, 3)), False),
    }
    for name, (g, adopted) in cases.items():
        node = ad.Node(np.zeros(g.shape))
        ad._accum(node, g, upstream)
        assert (node.grad is g) == adopted, name
        assert np.array_equal(node.grad, g) and node.grad.flags.writeable
        assert not np.may_share_memory(node.grad, upstream)


def test_backward_consumes_the_graph_and_leaves_keep_their_grads():
    x = ad.Node(RNG.normal(0, 1, (2, 2, 4, 4)))
    w = ad.Node(RNG.normal(0, 0.5, (3, 2, 3, 3)), requires_grad=True)
    b = ad.Node(np.zeros(3), requires_grad=True)
    h = ad.conv2d(x, w, b)
    r = ad.relu(h)
    loss = ad.nsum(ad.mul(r, r))
    value = loss.value.copy()
    ad.backward(loss)
    for node in (h, r, loss):
        assert node.grad is None and node.parents == () and node.vjps is None
    assert w.grad.shape == w.shape and b.grad.shape == b.shape
    assert x.grad is None
    assert loss.value == value


def test_input_without_grad_runs_no_input_adjoint(monkeypatch):
    calls = []
    raw = ad.conv2d_raw

    def counting(*args):
        calls.append(args[0].shape)
        return raw(*args)

    monkeypatch.setattr(ad, "conv2d_raw", counting)
    for x_grad in (False, True):
        calls.clear()
        x = ad.Node(RNG.normal(0, 1, (2, 2, 4, 4)), requires_grad=x_grad)
        w = ad.Node(RNG.normal(0, 0.5, (3, 2, 3, 3)), requires_grad=True)
        b = ad.Node(np.zeros(3), requires_grad=True)
        out = ad.conv2d(x, w, b)
        assert out.parents == ((x, w, b) if x_grad else (w, b))
        ad.backward(ad.nsum(out))
        assert (x.grad is not None) == x_grad
        assert len(calls) == x_grad  # vjp_x is the only conv2d_raw call


def test_requires_grad_propagates_to_op_outputs():
    p = ad.Node(np.ones(3), requires_grad=True)
    c = ad.Node(np.ones(3))
    out = ad.add(p, c)
    assert out.requires_grad and out.parents == (p,)
    const = ad.mul(c, c)
    assert not const.requires_grad and const.parents == () and const.vjps == ()
    with ad.no_grad():
        assert not ad.add(p, c).requires_grad
    assert repr(p) == "Node(shape=(3,), leaf=True)"
    assert repr(out) == "Node(shape=(3,), leaf=False)"
    ad.backward(ad.nsum(out))
    assert repr(out) == "Node(shape=(3,), consumed)"


def test_second_backward_through_a_consumed_graph_raises():
    x = ad.Node(np.array([2.0, -1.0]), requires_grad=True)
    h = ad.mul(x, x)
    loss = ad.nsum(h)
    ad.backward(loss)
    first = x.grad.copy()
    with pytest.raises(ValueError, match="consumed"):
        ad.backward(loss)
    with pytest.raises(ValueError, match="consumed"):
        ad.backward(ad.nsum(ad.add(h, x)))
    assert np.array_equal(x.grad, first)  # the refused sweeps ran no adjoint
    ad.backward(ad.nsum(ad.mul(x, x)))  # a fresh graph over the same leaf
    assert np.array_equal(x.grad, 2 * first)
