"""Discretized logistic log-mass: values, stability, symmetry, gradients."""

import numpy as np
import pytest

from flowzip.autodiff import logistic_logpmf_raw

from helpers import check_gradient
from flowzip import autodiff as ad


def test_center_value():
    # sigmoid(0.5) - sigmoid(-0.5) = 0.2449186624...; verified to 40 digits
    # with mpmath: log2 of it is -2.029625385781438
    got = logistic_logpmf_raw(np.array([0.0]), 0.0, 0.0)
    assert got[0] == pytest.approx(-2.029625385781438, abs=1e-12)


def test_mass_sums_to_one():
    for mu, s in [(0.0, 1.0), (3.7, 0.4), (-12.0, 9.0)]:
        z_max = int(64 * s + abs(mu)) + 1
        z = np.arange(-z_max, z_max + 1, dtype=np.float64)
        total = np.exp2(logistic_logpmf_raw(z, mu, np.log(s))).sum()
        assert total >= 1 - 1e-6


def test_symmetry_about_mu():
    for k in range(1, 20):
        a = logistic_logpmf_raw(np.array([5.0 + k]), 5.0, 0.3)
        b = logistic_logpmf_raw(np.array([5.0 - k]), 5.0, 0.3)
        assert a[0] == b[0]  # reflection makes the two computations identical


def test_far_tails_stay_finite():
    z = np.array([-1e4, 1e4, -300.0, 300.0])
    out = logistic_logpmf_raw(z, 0.0, np.log(0.1))
    assert np.all(np.isfinite(out))
    # left and right tails decay linearly in |z|/s
    assert out[0] == pytest.approx(out[1])
    assert out[0] < out[2] < -10


def test_tiny_and_huge_s_finite():
    z = np.arange(-3, 4, dtype=np.float64)
    for log_s in (-12.0, 12.0):
        out = logistic_logpmf_raw(z, 0.1, log_s)
        assert np.all(np.isfinite(out))


def test_gradient_zero_at_center():
    mu = np.array([4.0])
    node = ad.Node(mu, requires_grad=True)
    out = ad.logistic_logpmf(np.array([4.0]), node, np.array([0.2]))
    ad.backward(ad.nsum(out))
    assert node.grad[0] == pytest.approx(0.0, abs=1e-14)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    z = rng.integers(-6, 7, size=(8,)).astype(np.float64)
    params = {
        "mu": rng.normal(0, 3, 8),
        "log_s": rng.uniform(-1.0, 2.0, 8),
        "z": z,
    }

    def build(n):
        proj = np.linspace(0.5, 1.5, 8)
        return ad.nsum(ad.mul(ad.logistic_logpmf(n["z"], n["mu"], n["log_s"]), proj))

    for wrt in ("mu", "log_s", "z"):
        check_gradient(build, params, wrt)


def test_tail_gradient_matches_finite_differences():
    params = {"mu": np.array([200.0]), "log_s": np.array([0.5])}

    def build(n):
        return ad.nsum(ad.logistic_logpmf(np.array([0.0]), n["mu"], n["log_s"]))

    check_gradient(build, params, "mu", h=1e-5)
    check_gradient(build, params, "log_s", h=1e-5)


def test_raw_value_is_the_tape_value_bitwise():
    # the value-only kernel and the tape op share one computation of ln pmf:
    # centre, near it, both tails, far tails, tiny and huge scales
    z = np.array([0.0, 1.0, -1.0, 7.0, -7.0, 40.0, -40.0, 1e4, -1e4, 3.0, -3.0])
    mu = np.array([0.0, 0.3, -0.3, 0.0, 0.0, 1.5, -1.5, 0.0, 0.0, 2.6, -2.6])
    log_s = np.array([0.0, -1.0, 2.0, -3.0, -3.0, 0.5, 0.5, np.log(0.1), np.log(0.1), -12.0, 12.0])
    raw = logistic_logpmf_raw(z, mu, log_s)
    tape = ad.logistic_logpmf(z, ad.Node(mu, requires_grad=True), log_s).value
    assert raw.tobytes() == tape.tobytes()
    with ad.no_grad():
        assert ad.logistic_logpmf(z, mu, log_s).value.tobytes() == raw.tobytes()
