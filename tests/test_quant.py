"""Quantizer semantics: rounding, ranges, scale init, and LSQ gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowzip import autodiff as ad
from flowzip.numerics import round_half_away, round_half_away_nonneg
from flowzip.quant import (
    MIN_SCALE,
    QuantizerParams,
    grad_rescale,
    init_scale,
    quantize,
    quantizer_backward,
    scale_grad_branches,
)

from helpers import (
    logpmf_values_ref,
    quantizer_backward_ref,
    round_half_away_ref,
    scale_grad_branches_ref,
    special_doubles,
    u8_rounding_cases,
)


def test_round_ties_away_from_zero():
    xs = np.array([0.5, 1.5, 2.5, -0.5, -1.5, 0.49, -0.49, 3.2])
    assert np.array_equal(round_half_away(xs), [1, 2, 3, -1, -2, 0, 0, 3])


def test_round_half_away_scalar_0d_and_array_match_reference():
    xs = np.array([
        0.5, -0.5, 2.5, -2.5, 0.49999999999999994, -0.49999999999999994,
        2.0**52 + 1, -(2.0**52) - 1, 0.0, -0.0, 3.2, -3.7, 1e300, -1e-300, 254.5,
    ])
    want = round_half_away_ref(xs)
    for v, w in zip(xs, want):
        for x in (float(v), np.float64(v), np.asarray(v)):
            got = round_half_away(x)
            assert np.ndim(got) == 0 and got == w
    x = xs.reshape(3, 5).T  # a non-contiguous view
    before = x.copy()
    assert np.array_equal(round_half_away(x), want.reshape(3, 5).T)
    assert np.array_equal(x, before)  # the input is not written


def test_round_half_away_is_exact_for_every_double():
    # |x| + 0.5 rounds before the floor: it took 0.49999999999999994 to 1 and
    # every odd integer in [2**52, 2**53) to the next even one
    rng = np.random.default_rng(7)
    ties = rng.integers(-(2**20), 2**20, 500) + 0.5
    big = rng.integers(2**51, 2**54, 2000).astype(np.float64)
    xs = np.concatenate([
        ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf), big, -big,
        [0.49999999999999994, -0.49999999999999994, 2.0**52 + 1, 2.0**53 - 1,
         -(2.0**52) - 3, 5e-324, -5e-324, 1e308, -1e308, 0.0, -0.0],
    ])
    got = round_half_away(xs)
    want = round_half_away_ref(xs)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    # the in-place form for non-negative arrays agrees wherever it applies
    nonneg = xs[xs >= 0]
    buf = nonneg.copy()
    assert round_half_away_nonneg(buf) is buf
    assert np.array_equal(buf, round_half_away_ref(nonneg))


def test_quantize_zero_is_fixed_point():
    p = QuantizerParams(scale=0.37)
    q = quantize(np.zeros((3, 3)), p)
    assert q.dtype == np.float64 and np.all(q == 0)


def test_quantize_hand_example():
    p = QuantizerParams(scale=0.5)
    q = quantize(np.array([3.2]), p)
    assert q[0] == 6
    assert (q * p.scale_view(q.ndim))[0] == 3.0


def test_quantize_clips_to_range():
    q = quantize(np.array([1000.0]), QuantizerParams(scale=1.0))
    assert q[0] == 127
    u = quantize(np.array([-5.0, 900.0]), QuantizerParams(scale=1.0, signed=False))
    assert list(u) == [0, 255]


def test_quantize_rejects_bad_inputs():
    with pytest.raises(ValueError):
        quantize(np.array([np.nan]), QuantizerParams(scale=1.0))
    with pytest.raises(ValueError):
        QuantizerParams(scale=0.0)
    with pytest.raises(ValueError):
        QuantizerParams(scale=-1.0)


@pytest.mark.parametrize("s", [1.0, 0.5, 2.0])
def test_unsigned_quantize_is_round_half_away_of_the_clip(s):
    # the unsigned grid rounds its clipped quotient in place with
    # round_half_away_nonneg; s is a power of two, so r / s gives the cases
    # back exactly
    r = u8_rounding_cases() * s
    want = round_half_away(np.clip(r / s, 0, 255))
    got = quantize(r, QuantizerParams(scale=s, signed=False))
    assert np.array_equal(got, want)
    grid = quantize(r.reshape(1, -1, 1, 1), QuantizerParams(scale=s, signed=False))
    assert np.array_equal(grid.ravel(), want)
    assert quantize(np.asarray(r[0]), QuantizerParams(scale=s, signed=False)) == want[0]


def test_per_channel_scale_broadcasts():
    w = np.ones((2, 1, 1, 1)) * np.array([1.0, 10.0]).reshape(2, 1, 1, 1)
    p = QuantizerParams(scale=np.array([0.5, 5.0]))
    q = quantize(w, p)
    assert q[0, 0, 0, 0] == 2 and q[1, 0, 0, 0] == 2
    d = q * p.scale_view(q.ndim)
    assert d[0, 0, 0, 0] == 1.0 and d[1, 0, 0, 0] == 10.0


def test_init_scale_formula():
    assert init_scale(np.array([[1.0, -1.0]]))[0] == pytest.approx(0.125245, abs=1e-6)
    assert init_scale(np.full((1, 10), 7.984))[0] == pytest.approx(1.0, rel=1e-3)
    assert init_scale(np.zeros((1, 5)))[0] == MIN_SCALE
    for empty in (np.zeros((2, 0)), np.zeros((1, 3, 0, 3))):
        with pytest.raises(ValueError):
            init_scale(empty)


def _init_scale_one(r):
    # the formula on one tensor, reduced as a whole
    return max(2.0 * float(np.mean(np.abs(r))) / float(np.sqrt(255)), MIN_SCALE)


def test_init_scale_rows_equal_per_row_calls_bit_for_bit():
    rng = np.random.default_rng(23)
    w = rng.normal(0, 0.3, (6, 5, 3, 3))
    w[[1, 4]] = 0.0  # all-zero rows floor at MIN_SCALE
    got = init_scale(w)
    ref = np.array([_init_scale_one(row) for row in w])
    assert got.shape == (6,) and got.tobytes() == ref.tobytes()
    assert got[1] == got[4] == MIN_SCALE
    # an activation: a batch-last grid view, as a whole tensor in one row
    x = rng.normal(0, 2.0, (5, 8, 8, 7)).transpose(3, 0, 1, 2)
    assert init_scale(x[np.newaxis]).tobytes() == np.array([_init_scale_one(x)]).tobytes()


@given(
    st.lists(st.floats(-200, 200), min_size=1, max_size=40),
    st.floats(0.01, 4.0),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_quantize_idempotent_and_in_range(vals, scale, signed):
    r = np.array(vals)
    p = QuantizerParams(scale=scale, signed=signed)
    q = quantize(r, p)
    lo, hi = (-128, 127) if signed else (0, 255)
    assert q.min() >= lo and q.max() <= hi
    assert np.array_equal(q, np.round(q))
    again = quantize(q * p.scale_view(q.ndim), p)
    assert np.array_equal(again, q)


@given(st.integers(-128, 127), st.floats(0.01, 3.0))
@settings(max_examples=40, deadline=None)
def test_roundtrip_exact_on_grid(v, scale):
    r = np.array([v * scale])
    p = QuantizerParams(scale=scale)
    q = quantize(r, p)
    assert q[0] == v
    assert np.allclose(q * p.scale_view(q.ndim), r, rtol=0, atol=1e-12 * max(1.0, abs(v * scale)))


def test_ste_passes_upstream_only_in_range():
    r = np.array([0.4, 300.0, -600.0])
    up = np.array([1.5, 2.5, 3.5])
    grad_r, _ = quantizer_backward(r, QuantizerParams(scale=1.0), up)
    assert np.array_equal(grad_r, [1.5, 0.0, 0.0])


def test_scale_grad_branches_closed_form():
    p = QuantizerParams(scale=1.0)
    # one input per branch: in-range integral, in-range fractional, below, above
    r = np.array([3.0, 3.2, -500.0, 500.0])
    br = scale_grad_branches(r / p.scale, p)
    assert br[0] == 0.0
    assert br[1] == pytest.approx(round(3.2) - 3.2)
    assert br[2] == -128.0
    assert br[3] == 127.0
    un = QuantizerParams(scale=1.0, signed=False)
    bru = scale_grad_branches(np.array([-4.0, 500.0]) / un.scale, un)
    assert bru[0] == 0.0 and bru[1] == 255.0


def test_grad_rescale_value():
    r = np.zeros((2, 128, 4, 4))
    g = grad_rescale(r, QuantizerParams(scale=1.0))
    assert g == pytest.approx(0.0078431, abs=1e-6)


def test_scale_gradient_matches_surrogate_finite_differences():
    """The closed-form scale gradient equals the derivative of the clip
    surrogate plus the frozen rounding offset; the surrogate part is checked
    by central differences, the offset analytically."""
    rng = np.random.default_rng(11)
    r = rng.normal(0, 60, (5, 7))
    s = 0.7
    # keep every point away from rounding ties and clip corners
    u = r / s
    r[np.abs(u - round_half_away_ref(u)) < 1e-2] += 0.02 * s
    up = rng.normal(0, 1, r.shape)
    p = QuantizerParams(scale=s)
    _, grad_s = quantizer_backward(r, p, up)

    def surrogate(scale):
        return float(np.sum(up * scale * np.clip(r / scale, -128, 127)))

    h = 1e-6
    fd = (surrogate(s + h) - surrogate(s - h)) / (2 * h)
    u = r / s
    inr = (u >= -128) & (u <= 127)
    offset = float(np.sum(up * (round_half_away_ref(u) - u) * inr))
    expected = grad_rescale(r, p) * (fd + offset)
    assert grad_s[0] == pytest.approx(expected, rel=1e-3)


def test_per_channel_scale_gradient_shape():
    rng = np.random.default_rng(3)
    w = rng.normal(0, 1, (4, 3, 3, 3))
    up = rng.normal(0, 1, w.shape)
    p = QuantizerParams(scale=np.full(4, 0.1))
    grad_r, grad_s = quantizer_backward(w, p, up)
    assert grad_r.shape == w.shape
    assert grad_s.shape == (4,)


def _batch_last(a):
    # the same values in memory with axis 0 innermost, as a conv's output is
    # laid out
    order = tuple(range(1, a.ndim)) + (0,)
    out = np.empty([a.shape[i] for i in order]).transpose(np.argsort(order))
    out[...] = a
    return out


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("signed", [True, False])
@pytest.mark.parametrize("per_channel", [False, True])
@pytest.mark.parametrize("layouts", [(False, False), (True, True), (False, True), (True, False)])
def test_lsq_backward_equals_the_select_bit_for_bit(signed, per_channel, layouts):
    rng = np.random.default_rng(17)
    shape = (4, 3, 5, 6)  # per-channel scales run along axis 0
    scale = np.array([0.37, 1.0, 2.5, 1e-6]) if per_channel else np.array([0.37])
    p = QuantizerParams(scale=scale, signed=signed)
    # quotients on and around both clip edges and the rounding ties, plus
    # the special doubles themselves as inputs
    edges = np.array([p.lo, p.hi], dtype=float)
    near = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                           edges - 0.5, edges + 0.5, np.arange(-3, 4) + 0.5])
    u = np.resize(np.concatenate([near, rng.uniform(-300, 300, 40)]), 4 * 90)
    r = (rng.permutation(u).reshape(4, -1) * scale.reshape(-1, 1)).ravel()
    r[rng.choice(r.size, 60, replace=False)] = np.resize(special_doubles(), 60)
    up = rng.normal(0, 1, r.size)
    up[rng.choice(up.size, 40, replace=False)] = np.resize(special_doubles(), 40)
    r, up = r.reshape(shape), up.reshape(shape)
    r, up = (_batch_last(a) if last else a for a, last in zip((r, up), layouts))
    with np.errstate(all="ignore"):
        grad_r, grad_s = quantizer_backward(r, p, up)
        want_r, want_s = quantizer_backward_ref(r, p, up)
        branches = scale_grad_branches(r / p.scale_view(r.ndim), p)
        want_branches = scale_grad_branches_ref(r, p)
    assert _same_bits(grad_r, want_r) and _same_bits(grad_s, want_s)
    assert _same_bits(branches, want_branches)
    assert grad_r.strides == up.strides


def test_logpmf_reflection_sign_equals_the_select():
    rng = np.random.default_rng(19)
    d = np.resize(np.concatenate([special_doubles(), rng.normal(0, 3, 30)]), 2 * 3 * 4 * 4)
    z = _batch_last(d.reshape(2, 3, 4, 4))
    mu, log_s = np.zeros_like(z), rng.normal(0, 1, z.shape)
    with np.errstate(all="ignore"):
        got, want = ad._logpmf_values(z, mu, log_s), logpmf_values_ref(z, mu, log_s)
        assert _same_bits(got[2], np.where(z - mu > 0, -1.0, 1.0))
    assert all(_same_bits(g, w) for g, w in zip(got, want))
