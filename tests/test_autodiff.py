"""Every registered adjoint against central finite differences."""

import numpy as np
import pytest

from flowzip import autodiff as ad
from flowzip.layers import IntConv, int_conv_acc

from helpers import check_gradient, proj_loss

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

        def counting(x, arg, dtype, name=name, kernel=kernel):
            calls[name].append(x.shape)
            return kernel(x, arg, dtype)

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
