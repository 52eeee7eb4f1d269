"""Entropy coder: mass tables, single steps, streams, optimality."""

import hashlib
import struct
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowzip import codec, rans
from flowzip.errors import CorruptStreamError, DataFormatError
from flowzip.numerics import round_half_away
from flowzip.rans import (
    RANS_L,
    MassTable,
    RansDecoder,
    RansEncoder,
    _raw_probabilities,
    mass_table,
    rans_decode_step,
    rans_encode_step,
)


def _table(freqs):
    F = np.asarray(freqs, dtype=np.int64)
    C = np.concatenate([[0], np.cumsum(F)])
    return MassTable(lo=0, hi=len(F) - 1, F=F, C=C, M=int(F.sum()))


def _coding_table(freqs):
    """A table over freqs plus one symbol that pads the total to a power of
    two, as the coder needs (the total must divide RANS_L)."""
    pad = (1 << (sum(freqs) - 1).bit_length()) - sum(freqs)
    return _table(freqs + [pad] if pad else freqs)


def test_mass_table_hand_example():
    t = mass_table(0.0, 1.0, -1, 1, 8)
    assert list(t.F) == [3, 2, 3]
    assert list(t.C) == [0, 3, 5, 8]


def _reference_frequencies(mu, s, lo, hi, M):
    """The largest-remainder rule as a plain loop over tie groups, over the
    whole alphabet: the specification that mass_table's windowed, vectorized
    form must match bit for bit."""
    target = _raw_probabilities(mu, s, lo, hi, lo, hi) * M
    base = np.floor(target)
    rem = target - base
    F = base.astype(np.int64)
    leftover = int(M - F.sum())
    if leftover > 0:
        order = np.argsort(-rem, kind="stable")
        ranked = rem[order].tolist()
        served = []  # ranks of the symbols that take a unit
        i = 0
        for _, tie_group in groupby(ranked):
            if leftover == 0:
                break
            n = len(list(tie_group))
            if n <= leftover:
                served.extend(range(i, i + n))
                leftover -= n
            i += n
        F[order[served]] += 1
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
    t = mass_table(mu, s, lo, hi, M)
    F = _reference_frequencies(mu, s, lo, hi, M).astype(t.F.dtype)
    C = np.concatenate([[0], np.cumsum(F)]).astype(t.C.dtype)
    assert t.F.tobytes() == F.tobytes(), (mu, s, lo, hi, M)
    assert t.C.tobytes() == C.tobytes(), (mu, s, lo, hi, M)


def _codec_keys():
    """Every (mu, s) that the codec snaps its priors to."""
    ls_lo, ls_hi = (
        int(round_half_away(np.log(v) * codec.LOG_S_GRID)) for v in (codec.S_MIN, codec.S_MAX)
    )
    half = codec.MU_GRID // 2
    for frac in range(-half, half + 1):
        for ls in range(ls_lo, ls_hi + 1):
            yield frac / codec.MU_GRID, float(np.exp(ls / codec.LOG_S_GRID))


# lo, hi and M of every codec table
CODEC_TABLE_ARGS = (-codec.ALPHABET_HALF, codec.ALPHABET_HALF - 1, codec.CODING_M)


def _evaluated_symbols(monkeypatch):
    """Record the size of every window of symbols that mass_table evaluates."""
    windows = []
    raw = rans._raw_probabilities

    def counted(*args):
        p = raw(*args)
        windows.append(len(p))
        return p

    monkeypatch.setattr(rans, "_raw_probabilities", counted)
    return windows


def _table_bytes(t):
    return t.F.tobytes() + t.C.tobytes()


def _digest(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=16).digest()


@pytest.fixture(scope="module")
def codec_references():
    """Every codec key, and the digest of its reference F and C as a codec
    table holds them (int32)."""
    keys = list(_codec_keys())
    digests = []
    for mu, s in keys:
        F = _reference_frequencies(mu, s, *CODEC_TABLE_ARGS).astype(np.int32)
        C = np.concatenate([[0], np.cumsum(F)]).astype(np.int32)
        digests.append(_digest(F.tobytes() + C.tobytes()))
    return keys, digests


def test_mass_table_matches_reference_at_codec_keys(codec_references):
    keys, digests = codec_references
    assert len(keys) == 65 * 164
    for (mu, s), want in zip(keys, digests):
        assert _digest(_table_bytes(mass_table(mu, s, *CODEC_TABLE_ARGS))) == want, (mu, s)


def test_mass_table_one_call_builds_every_codec_key(codec_references, monkeypatch):
    # the largest call the codec can make: the whole snapping grid, about
    # 12 M window symbols, which no pass may evaluate at once
    windows = _evaluated_symbols(monkeypatch)
    keys, digests = codec_references
    mu, s = np.array(keys).T
    tables = mass_table(mu, s, *CODEC_TABLE_ARGS)
    assert len(windows) > 1 and max(windows) <= rans.TABLE_PASS <= 1 << 16
    assert [_digest(_table_bytes(t)) for t in tables] == digests


@pytest.mark.parametrize("seed", range(5))
def test_mass_table_batches_match_reference_at_codec_keys(codec_references, seed):
    # the codec keys in a seeded order, built in batches of seeded sizes
    keys, digests = codec_references
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(keys))
    cuts = np.sort(rng.choice(np.arange(1, len(keys)), rng.integers(1, 400), replace=False))
    for part in np.split(order, cuts):
        mu, s = np.array([keys[i] for i in part]).T
        tables = mass_table(mu, s, *CODEC_TABLE_ARGS)
        assert [_digest(_table_bytes(t)) for t in tables] == [digests[i] for i in part]


def test_mass_table_fallback_matches_reference(monkeypatch):
    # cases where the window's eligible remainders may not take the whole
    # leftover, or where the window is the whole alphabet: integer and
    # half-integer centres (mirrored tie pairs leave an odd leftover), mu
    # outside [lo, hi], scales whose window covers the alphabet, and
    # subnormal scales
    windows = _evaluated_symbols(monkeypatch)
    lo, hi, M = CODEC_TABLE_ARGS
    cases = [(c, s, -32, 31, 256) for c in (0.0, 3.0, 0.5, -2.5) for s in (0.3, 0.7, 1.0, 3.0)]
    cases += [(c, s, -64, 63, 4096) for c in (0.0, 3.0, 0.5) for s in (0.3, 3.0, 5.0)]
    cases += [(0.0, float(np.exp(ls / codec.LOG_S_GRID)), lo, hi, M) for ls in (-54, 19, 48, 69)]
    cases += [(0.5, float(np.exp(87 / codec.LOG_S_GRID)), lo, hi, M)]
    cases += [(40.0, 3.0, -32, 31, 256), (-33.5, 0.8, -32, 31, 256), (-2100.25, 20.0, lo, hi, M)]
    cases += [(0.3, s, -32, 31, 256) for s in (60.0, 1e6, 1e300, 1.7e308)]
    cases += [(mu, s, -3, 3, 64) for mu in (0.3, 2.0) for s in (1e-310, 5e-324)]
    cases += [(0.3, 1e-310, lo, hi, M)]
    fallbacks = 0
    evaluated = {}  # the symbols each case evaluates alone
    for case in cases:
        windows.clear()
        _assert_matches_reference(*case)
        assert len(windows) in (1, 2)
        fallbacks += len(windows) == 2
        evaluated[case] = sum(windows)
    assert fallbacks >= 5

    # the same cases as mixed batches, one per alphabet, in a seeded order:
    # every row is its one-key build, and the batch evaluates the symbols
    # its rows do alone, fallbacks included
    rng = np.random.default_rng(0)
    for (lo, hi, M), rows in groupby(sorted(cases, key=lambda c: c[2:]), key=lambda c: c[2:]):
        rows = list(rows)
        rows = [rows[i] for i in rng.permutation(len(rows))]
        mu, s = np.array([row[:2] for row in rows]).T
        windows.clear()
        tables = mass_table(mu, s, lo, hi, M)
        assert sum(windows) == sum(evaluated[row] for row in rows)
        for row, t in zip(rows, tables):
            assert _table_bytes(t) == _table_bytes(mass_table(*row)), row


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_mass_table_batch_matches_one_key_builds(data):
    # batches of small-alphabet keys, with tied centres and scales from
    # subnormal to whole-alphabet, equal their one-key builds
    K = data.draw(st.integers(2, 60))
    lo = data.draw(st.integers(-40, 10))
    hi = lo + K - 1
    M = max(K, data.draw(st.integers(K, 4 * K + 64) | st.sampled_from([1 << 8, 1 << 12])))
    centre = st.integers(lo - 2, hi + 2).map(float)
    offset = st.sampled_from([0.0, 0.5, -0.5]) | st.floats(-1.0, 1.0)
    mu = st.tuples(centre, offset).map(sum)
    s = st.floats(0.05, 60.0) | st.sampled_from([5e-324, 1e-310, 1e6])
    keys = data.draw(st.lists(st.tuples(mu, s), min_size=1, max_size=40))
    tables = mass_table(np.array([k[0] for k in keys]), np.array([k[1] for k in keys]), lo, hi, M)
    assert len(tables) == len(keys)
    for (m, sk), t in zip(keys, tables):
        assert _table_bytes(t) == _table_bytes(mass_table(m, sk, lo, hi, M)), (m, sk)


@pytest.mark.parametrize("bad", [(float("nan"), 1.0), (0.0, 0.0), (0.0, -1.0), (0.0, float("inf"))])
def test_mass_table_batch_refuses_a_bad_key_before_building(monkeypatch, bad):
    windows = _evaluated_symbols(monkeypatch)
    mu, s = np.array([(0.0, 1.0), (1.5, 2.0), bad, (-3.0, 0.5)]).T
    with pytest.raises(DataFormatError):
        mass_table(mu, s, -32, 31, 1 << 12)
    assert windows == []


def test_mass_table_empty_batch():
    assert mass_table(np.array([]), np.array([]), -32, 31, 1 << 12) == []


def test_mass_table_evaluates_only_a_window(monkeypatch):
    # a desk-range key (s about 12) needs a few hundred symbols of the codec's
    # 4,096; evaluating the whole alphabet again fails here
    windows = _evaluated_symbols(monkeypatch)
    mass_table(5 / codec.MU_GRID, float(np.exp(40 / codec.LOG_S_GRID)), *CODEC_TABLE_ARGS)
    assert sum(windows) <= 1024


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


def _encode(symbols, tables, index):
    enc = RansEncoder()
    enc.push(symbols, tables, index)
    return enc.payload()


def _decode(payload, tables, index):
    dec = RansDecoder(payload)
    out = dec.pull(tables, index)
    dec.finish()
    return out


def test_empty_stream_is_eight_bytes():
    payload = _encode([], [], [])
    assert len(payload) == 8
    assert _decode(payload, [], []) == []


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_stream_roundtrip(data):
    n_sym = data.draw(st.integers(2, 6))
    freqs = data.draw(
        st.lists(st.integers(1, 200), min_size=n_sym, max_size=n_sym)
    )
    t = _coding_table(freqs)
    length = data.draw(st.integers(0, 200))
    symbols = data.draw(
        st.lists(st.integers(0, n_sym - 1), min_size=length, max_size=length)
    )
    index = np.zeros(length, dtype=np.intp)
    payload = _encode(symbols, [t], index)
    assert _decode(payload, [t], index) == symbols


def _reference_encode(symbols, tables, index):
    """RansEncoder.push's specification, then payload's: rans_encode_step
    once per symbol under ``tables[index[i]]``, back to front, each step
    after emitting low words while x >= (L // M << 32) * F."""
    x, words = RANS_L, []
    for sym, i in zip(reversed(symbols), reversed(index)):
        t = tables[i]
        while x >= ((RANS_L // t.M) << 32) * int(t.F[sym]):
            words.append(x & 0xFFFFFFFF)
            x >>= 32
        x = rans_encode_step(x, sym, t)
    return np.asarray(words, dtype="<u4").tobytes() + struct.pack("<Q", x)


def _reference_decode(payload, tables, index):
    """RansDecoder.pull's specification, then finish's: rans_decode_step
    once per symbol under ``tables[index[i]]``, each step followed by
    reading words back to front while x < L."""
    words = np.frombuffer(payload[:-8], dtype="<u4").tolist()
    (x,) = struct.unpack("<Q", payload[-8:])
    out = []
    for i in index:
        sym, x = rans_decode_step(x, tables[i])
        while x < RANS_L:
            x = (x << 32) | words.pop()
        out.append(sym)
    assert not words and x == RANS_L
    return out


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_stream_matches_per_symbol_reference(data):
    # blocks that mix up to four tables; every symbol's mass is at most M/2,
    # so each step at least doubles the state and any 64 symbols emit a
    # renormalization word
    tables = []
    for _ in range(data.draw(st.integers(1, 4))):
        freqs = data.draw(st.lists(st.integers(1, 3000), min_size=1, max_size=12))
        tables.append(_coding_table(freqs + [max(freqs)]))
    length = data.draw(st.integers(0, 300))
    which = data.draw(st.lists(st.integers(0, len(tables) - 1), min_size=length, max_size=length))
    symbols = [data.draw(st.integers(0, len(tables[i].F) - 1)) for i in which]

    payload = _encode(symbols, tables, which)
    assert payload == _reference_encode(symbols, tables, which)
    assert _decode(payload, tables, which) == _reference_decode(payload, tables, which) == symbols
    if length >= 64:
        assert len(payload) > 8
    if len(payload) > 8:
        # without its first-emitted word the decoder runs out of words
        with pytest.raises(CorruptStreamError):
            _decode(payload[4:], tables, which)


def test_stream_decodes_core_and_tail_symbols():
    # pull bisects only a table's core, from its first to its last symbol of
    # frequency above one, and decodes the frequency-one tails directly:
    # codec-sized tables with long tails, a table that is all tail, and
    # tables whose core reaches one end or both
    rng = np.random.default_rng(2)
    distinct = [
        mass_table(float(rng.normal(0, 3)), float(rng.uniform(0.5, 9)), -2048, 2047, 1 << 20)
        for _ in range(3)
    ] + [_table([1] * 8), _table([1, 1, 5, 9]), _table([7, 1, 1, 7]), _table([2, 1, 1, 4])]
    which = rng.integers(0, len(distinct), 600)
    # each table's end symbols, its middle (in the codec tables' core) and any
    symbols = [
        int(rng.choice([0, len(t.F) - 1, len(t.F) // 2, rng.integers(len(t.F))]))
        for t in (distinct[i] for i in which)
    ]
    payload = _encode(symbols, distinct, which)
    assert payload == _reference_encode(symbols, distinct, which)
    decoded = _decode(payload, distinct, which)
    assert decoded == _reference_decode(payload, distinct, which) == symbols


def test_push_refuses_totals_that_do_not_divide_rans_l():
    # with M = 6 the step can leave the state below RANS_L, and the decoder
    # then reads a word that was never written: 32 zeros under F = [3, 3]
    # once made a payload whose final state was out of range
    index = np.zeros(32, dtype=np.intp)
    with pytest.raises(DataFormatError):
        _encode([0] * 32, [_table([3, 3])], index)
    padded = [_coding_table([3, 3])]  # total 8
    assert _decode(_encode([0] * 32, padded, index), padded, index) == [0] * 32


def test_push_refuses_an_index_of_another_length():
    with pytest.raises(DataFormatError):
        _encode([0, 1], [_coding_table([3, 5])], [0])


def test_mixed_tables_roundtrip():
    rng = np.random.default_rng(1)
    tables = [
        mass_table(float(rng.normal(0, 4)), float(rng.uniform(0.3, 8)), -64, 63, 1 << 16)
        for _ in range(50)
    ]
    symbols = [int(rng.integers(0, 128)) for _ in range(50)]
    index = np.arange(50)
    payload = _encode(symbols, tables, index)
    assert _decode(payload, tables, index) == symbols


def test_near_optimality_100k_symbols():
    # Shannon cost oracle: sum of -log2(F/M) over drawn symbols, plus the
    # 64-bit state flush.
    rng = np.random.default_rng(123)
    t = mass_table(0.0, 2.5, -16, 15, 1 << 16)
    probs = t.F / t.M
    symbols = rng.choice(len(t.F), size=100_000, p=probs)
    payload = _encode(symbols, [t], np.zeros(len(symbols), dtype=np.intp))
    cost_bits = len(payload) * 8
    entropy_bits = float(np.sum(-np.log2(t.F / t.M)[symbols]))
    assert cost_bits <= 1.005 * entropy_bits + 64
    assert cost_bits >= entropy_bits  # cannot beat the table's own entropy


def test_decode_errors_do_not_crash():
    t = _table([3, 5])
    symbols = [0, 1, 1, 0] * 10
    index = np.zeros(len(symbols), dtype=np.intp)
    payload = _encode(symbols, [t], index)
    with pytest.raises(CorruptStreamError):
        _decode(payload[:-3], [t], index)
    with pytest.raises(CorruptStreamError):
        _decode(b"", [t], [0])
    corrupt = bytearray(payload)
    corrupt[-1] ^= 0x80
    try:
        got = _decode(bytes(corrupt), [t], index)
        assert got != symbols
    except CorruptStreamError:
        pass


def test_determinism_byte_identical():
    t = mass_table(1.0, 3.0, -8, 7, 1 << 16)
    symbols = list(range(16)) * 8
    index = np.zeros(len(symbols), dtype=np.intp)
    assert _encode(symbols, [t], index) == _encode(symbols, [t], index)
