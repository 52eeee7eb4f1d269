"""Entropy coder: mass tables, single steps, streams, optimality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowzip import codec
from flowzip.errors import CorruptStreamError, DataFormatError
from flowzip.numerics import round_half_away
from flowzip.rans import (
    RANS_L,
    MassTable,
    _raw_probabilities,
    decode_stream,
    encode_stream,
    mass_table,
    rans_decode_step,
    rans_encode_step,
)


def _table(freqs):
    F = np.asarray(freqs, dtype=np.int64)
    C = np.concatenate([[0], np.cumsum(F)])
    return MassTable(lo=0, hi=len(F) - 1, F=F, C=C, M=int(F.sum()))


def test_mass_table_hand_example():
    t = mass_table(0.0, 1.0, -1, 1, 8)
    assert list(t.F) == [3, 2, 3]
    assert list(t.C) == [0, 3, 5, 8]


def _reference_frequencies(mu, s, lo, hi, M):
    """The largest-remainder rule as a plain loop over tie groups: the
    specification that mass_table's vectorized form must match bit for bit."""
    K = hi - lo + 1
    target = _raw_probabilities(mu, s, lo, hi) * M
    base = np.floor(target)
    rem = target - base
    F = base.astype(np.int64)
    leftover = int(M - F.sum())
    if leftover > 0:
        order = np.argsort(-rem, kind="stable")
        i = 0
        while leftover > 0 and i < K:
            j = i
            while j < K and rem[order[j]] == rem[order[i]]:
                j += 1
            group = order[i:j]
            if len(group) <= leftover:
                F[group] += 1
                leftover -= len(group)
            i = j
        if leftover > 0:
            F[np.argmax(F)] += leftover
    F[F == 0] = 1
    deficit = int(F.sum() - M)
    while deficit > 0:
        j = int(np.argmax(F))
        take = min(deficit, int(F[j]) - 1)
        F[j] -= take
        deficit -= take
    return F


def _assert_matches_reference(mu, s, lo, hi, M):
    got = mass_table(mu, s, lo, hi, M).F
    want = _reference_frequencies(mu, s, lo, hi, M)
    assert got.tobytes() == want.astype(got.dtype).tobytes(), (mu, s, lo, hi, M)


def test_mass_table_matches_reference_at_codec_keys():
    # every fractional-mu key the codec snaps to, over a stride of its log-s keys
    ls_lo, ls_hi = (
        int(round_half_away(np.log(v) * codec.LOG_S_GRID)) for v in (codec.S_MIN, codec.S_MAX)
    )
    half = codec.MU_GRID // 2
    for frac in range(-half, half + 1):
        for ls in range(ls_lo + frac % 9, ls_hi + 1, 9):
            _assert_matches_reference(
                frac / codec.MU_GRID,
                float(np.exp(ls / codec.LOG_S_GRID)),
                -codec.ALPHABET_HALF,
                codec.ALPHABET_HALF - 1,
                codec.CODING_M,
            )


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_mass_table_matches_reference_small_alphabets(data):
    K = data.draw(st.integers(2, 80))
    lo = data.draw(st.integers(-60, 20))
    hi = lo + K - 1
    M = data.draw(st.integers(K, 4 * K + 64) | st.sampled_from([1 << 8, 1 << 12, 1 << 16]))
    M = max(M, K)
    # integer and half-integer centres make remainders tie in mirrored pairs
    centre = data.draw(st.integers(lo, hi))
    offset = data.draw(st.sampled_from([0.0, 0.5, -0.5]) | st.floats(-1.0, 1.0))
    s = data.draw(st.floats(0.05, 60.0))
    _assert_matches_reference(centre + offset, s, lo, hi, M)


def test_mass_table_skipped_tie_pair_leaves_unit_to_later_symbol():
    # targets 3.339, 1.321, 3.339: the floors leave one unit, the tied outer
    # pair (remainder .339) cannot both take it, so the centre (.321) does
    _assert_matches_reference(0.0, 1.5, -1, 1, 8)
    assert list(mass_table(0.0, 1.5, -1, 1, 8).F) == [3, 2, 3]


def test_mass_table_requires_room():
    with pytest.raises(DataFormatError):
        mass_table(0.0, 1.0, -4, 4, 5)
    with pytest.raises(DataFormatError):
        mass_table(0.0, 1.0, 3, 3, 16)


@given(
    st.floats(-30.0, 30.0),
    st.floats(0.05, 40.0),
    st.integers(6, 12),
)
@settings(max_examples=60, deadline=None)
def test_mass_table_invariants(mu, s, logm):
    M = 1 << logm
    t = mass_table(mu, s, -32, 31, M)
    assert int(t.F.sum()) == M
    assert t.F.min() >= 1
    assert t.C[0] == 0 and t.C[-1] == M
    assert np.all(np.diff(t.C) >= 1)


@pytest.mark.parametrize("s", [1e-300, 1e-308, 1e-310, 1e-320, 5e-324])
@pytest.mark.parametrize("mu", [0.3, -1.7, 2.0])
@pytest.mark.parametrize("lo, hi, M", [(-3, 3, 64), (-2048, 2047, 1 << 20)])
def test_mass_table_valid_down_to_the_smallest_subnormal_scale(s, mu, lo, hi, M):
    # all the mass sits on the symbol nearest mu; every other symbol keeps
    # the floor of one
    t = mass_table(mu, s, lo, hi, M)
    assert t.F.min() >= 1 and int(t.F.sum()) == M
    assert t.F.max() == M - (hi - lo)
    assert lo + int(np.argmax(t.F)) == round_half_away(mu)
    _assert_matches_reference(mu, s, lo, hi, M)


def test_mass_table_palindromic_for_centered_mu():
    for s in (0.7, 1.0, 3.3, 11.0):
        t = mass_table(0.0, s, -32, 32, 1 << 16)
        assert np.array_equal(t.F, t.F[::-1])


def test_encode_step_hand_examples():
    t = _table([3, 1])
    assert rans_encode_step(7, 1, t) == 31  # floor(7/1)*4 + 3 + 0
    assert rans_encode_step(5, 0, t) == 6  # floor(5/3)*4 + 0 + 2


def test_single_symbol_alphabet_is_identity():
    t = _table([16])
    for x in (16, 100, 12345):
        assert rans_encode_step(x, 0, t) == x
        assert rans_decode_step(x, t) == (0, x)


def test_decode_step_hand_examples():
    t = _table([3, 1])
    assert rans_decode_step(31, t) == (1, 7)
    assert rans_decode_step(6, t) == (0, 5)


def test_single_step_inversion_exhaustive_small():
    t = _table([5, 9, 1, 1])
    for x in range(1 << 16):
        for sym in range(4):
            assert rans_decode_step(rans_encode_step(x, sym, t), t) == (sym, x)


def test_empty_stream_is_eight_bytes():
    payload = encode_stream([], [])
    assert len(payload) == 8
    assert decode_stream(payload, []) == []


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_stream_roundtrip(data):
    n_sym = data.draw(st.integers(2, 6))
    freqs = data.draw(
        st.lists(st.integers(1, 200), min_size=n_sym, max_size=n_sym)
    )
    t = _table(freqs)
    length = data.draw(st.integers(0, 200))
    symbols = data.draw(
        st.lists(st.integers(0, n_sym - 1), min_size=length, max_size=length)
    )
    payload = encode_stream(symbols, [t] * length)
    assert decode_stream(payload, [t] * length) == symbols


def test_mixed_tables_roundtrip():
    rng = np.random.default_rng(1)
    tables = [
        mass_table(float(rng.normal(0, 4)), float(rng.uniform(0.3, 8)), -64, 63, 1 << 16)
        for _ in range(50)
    ]
    symbols = [int(rng.integers(0, 128)) for _ in range(50)]
    payload = encode_stream(symbols, tables)
    assert decode_stream(payload, tables) == symbols


def test_near_optimality_100k_symbols():
    # Shannon cost oracle: sum of -log2(F/M) over drawn symbols, plus the
    # 64-bit state flush.
    rng = np.random.default_rng(123)
    t = mass_table(0.0, 2.5, -16, 15, 1 << 16)
    probs = t.F / t.M
    symbols = rng.choice(len(t.F), size=100_000, p=probs)
    payload = encode_stream(symbols.tolist(), [t] * len(symbols))
    cost_bits = len(payload) * 8
    entropy_bits = t.cross_entropy_bits(np.bincount(symbols, minlength=len(t.F)))
    assert cost_bits <= 1.005 * entropy_bits + 64
    assert cost_bits >= entropy_bits  # cannot beat the table's own entropy


def test_decode_errors_do_not_crash():
    t = _table([3, 5])
    symbols = [0, 1, 1, 0] * 10
    payload = encode_stream(symbols, [t] * len(symbols))
    with pytest.raises(CorruptStreamError):
        decode_stream(payload[:-3], [t] * len(symbols))
    with pytest.raises(CorruptStreamError):
        decode_stream(b"", [t])
    corrupt = bytearray(payload)
    corrupt[-1] ^= 0x80
    try:
        got = decode_stream(bytes(corrupt), [t] * len(symbols))
        assert got != symbols
    except CorruptStreamError:
        pass


def test_determinism_byte_identical():
    t = mass_table(1.0, 3.0, -8, 7, 1 << 16)
    symbols = list(range(16)) * 8
    a = encode_stream(symbols, [t] * len(symbols))
    b = encode_stream(symbols, [t] * len(symbols))
    assert a == b
