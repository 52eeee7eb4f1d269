"""Range asymmetric numeral systems coder with logistic-derived mass tables.

The coder keeps a single integer state in [2**31, 2**63), emitting 32-bit
words on renormalization. Encoding is stack-like (last pushed, first
decoded), so streams are encoded in reverse of the decoder's symbol order.
The state stays in that interval only if each table's total M divides 2**31,
so the encoder refuses other tables.

A block is coded as its distinct tables plus a per-symbol index into them,
and that is the coder's only entry: ``RansEncoder.push(syms, tables,
index)`` then ``payload()`` to encode, ``RansDecoder(payload).pull(tables,
index)`` then ``finish()`` to decode. The codec builds each block's tables
and index in ``codec._block_tables``. ``push`` gathers every symbol's
frequency, cumulative sum and renormalization threshold with one numpy
index over the tables laid end to end; ``pull`` bisects a list of the
cumulative sums of each table's core, the symbols of frequency above one,
and decodes the frequency-one tails without a search. Both loops run inline
over Python ints. ``rans_encode_step`` and ``rans_decode_step`` are the
reference for one step of each loop.

Mass tables hold integer frequencies F over a contiguous symbol alphabet
[lo, hi] with sum(F) == M exactly and F >= 1 everywhere, so any in-alphabet
symbol is encodable no matter how badly the model mispredicts it. They are
built by a largest-remainder rule over tie groups (see mass_table). A
codec call builds every table it needs afresh, each block's distinct tables
in one mass_table call, so a build is vectorized across its keys: their
windows lie end to end in flat arrays, and each step runs once for all of
them. A build evaluates only the window of symbols near mu whose frequency
can leave the floor of one, a few hundred of the codec's 4,096 at its usual
scales; beyond it every target mass is below TAU/2 and every frequency is
one. When the units that flooring leaves over cannot all go to the window's
remainders of at least TAU, the key reruns over the whole alphabet, so every
table equals the full-alphabet build of its key alone bit for bit.
"""

from __future__ import annotations

import math
import struct
from array import array
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .autodiff import logistic_logpmf_raw
from .errors import CorruptStreamError, DataFormatError
from .numerics import sigmoid

RANS_L = 1 << 31  # lower bound of the normalization interval
WORD_MASK = 0xFFFFFFFF
# RansEncoder.push holds a block's per-symbol entries as Python ints this
# many symbols at a time, which bounds their memory
PUSH_CHUNK = 4096
# mass_table's remainder floor: outside its window every symbol's target mass
# is below TAU/2, and only remainders of at least TAU are ranked there
TAU = 1 / 16
# mass_table evaluates at most this many window symbols in one pass (a
# window longer than that takes a pass alone), which bounds its memory; the
# codec's whole alphabet fits one pass
TABLE_PASS = 4096


@dataclass
class MassTable:
    """Integer frequencies and cumulative sums over [lo, hi], total M."""

    lo: int
    hi: int
    F: np.ndarray
    C: np.ndarray  # length K+1, C[0] = 0, C[K] = M
    M: int

    def __post_init__(self):
        # int32 suffices whenever M fits (cumulative sums are bounded by M)
        dtype = np.int32 if self.M <= 2**31 - 1 else np.int64
        self.F = np.ascontiguousarray(self.F, dtype=dtype)
        self.C = np.ascontiguousarray(self.C, dtype=dtype)
        # precomputed renormalization base: state must stay below base * F
        self.renorm_base = (RANS_L // self.M) << 32


def _raw_probabilities(mu, s, lo: int, hi: int, a, b) -> np.ndarray:
    """Tail-collapsed discretized logistic over [lo, hi], at the symbols
    a..b of each row (mu, s, a, b), the rows' windows laid end to end;
    scalars are one row.

    Interior masses come from the stable log-pmf; the boundary symbols absorb
    their whole tails. The two edge expressions mirror each other exactly so
    integer-centered tables come out palindromic. Each symbol's mass is
    computed on its own, so a window gives the same values as the whole
    alphabet does at those symbols, whatever rows share its pass.
    """
    mu, s, a, b = (np.atleast_1d(v) for v in (mu, s, a, b))
    n = b - a + 1
    starts = np.cumsum(n) - n
    z = (np.arange(n.sum()) + np.repeat(a - starts, n)).astype(np.float64)
    # At a subnormal s, 1/s overflows: a symbol away from mu then has both
    # boundary arguments at -inf and a NaN log-mass. Its mass is zero.
    with np.errstate(over="ignore", invalid="ignore"):
        p = np.exp2(logistic_logpmf_raw(z, np.repeat(mu, n), np.repeat(np.log(s), n)))
        first, last = a == lo, b == hi
        p[starts[first]] = sigmoid((lo + 0.5 - mu[first]) / s[first])
        p[(starts + n - 1)[last]] = sigmoid(-(hi - 0.5 - mu[last]) / s[last])
    p[np.isnan(p)] = 0.0
    return p


def _window(mu: np.ndarray, s: np.ndarray, lo: int, hi: int, M: int) -> tuple[np.ndarray, ...]:
    """Each row's symbols a..b within s*ln(2M/TAU) + 1 of mu, clipped to
    [lo, hi]; the whole alphabet when mu lies outside it (see mass_table)."""
    with np.errstate(over="ignore"):
        r = s * math.log(2 * M / TAU) + 1
    whole = (mu < lo) | (mu > hi) | (r >= hi - lo)
    a = np.where(whole, lo, np.maximum(lo, np.ceil(mu - r)))
    b = np.where(whole, hi, np.minimum(hi, np.floor(mu + r)))
    return a.astype(np.int64), b.astype(np.int64)


def _passes(n: np.ndarray, rows: int):
    """Slices of at most ``rows`` consecutive rows whose n sum to at most
    TABLE_PASS; a row longer than that is a slice alone."""
    ends = np.cumsum(n)
    i = 0
    while i < len(n):
        fit = int(np.searchsorted(ends, ends[i] - n[i] + TABLE_PASS, side="right"))
        j = min(max(fit, i + 1), i + rows)
        yield slice(i, j)
        i = j


def _bits(x: float) -> int:
    """The bits of a float64 as an int64, which order non-negative floats."""
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _rank_bits(min_rem: float) -> int:
    """The low bits of _spread_leftover's sort key, which rank a remainder in
    [min_rem, 1) by its float bits; the bits above them hold its row, so a
    pass holds 2**(63 - bits) rows at most and every key is a non-negative
    int64."""
    return (_bits(1.0) - _bits(min_rem) - 1).bit_length()


def _spread_leftover(F, rem, n, leftover, min_rem: float) -> np.ndarray:
    """Add the units that flooring left over to F, in place, and return each
    row's units that could not be placed. F and rem hold rows of n symbols
    end to end, and ``leftover`` has one entry per row.

    Within a row, the symbols whose remainder is at least ``min_rem`` are
    ranked by remainder, largest first, and cut into tie groups of equal
    remainder. A group takes one unit per symbol only if the whole group
    fits in what is left over (all-or-none, which keeps tables of integer-
    and half-integer-centred priors symmetric, and makes the order within a
    group immaterial); a group that does not fit is skipped and the next
    ones are tried. One sort ranks every row, the leading run of groups
    whose cumulative size fits is served for all rows in one step, and only
    the few groups after a row's first misfit are stepped through.
    """
    T = len(n)
    at = np.flatnonzero((rem >= min_rem) & np.repeat(leftover > 0, n))
    if not len(at):
        return leftover
    # one key per eligible symbol: its row, then its remainder, largest
    # first; the symbols of a tie group share their key
    row = np.repeat(np.arange(T), n)[at]
    shift = _rank_bits(min_rem)
    key = row << shift | (_bits(1.0) - 1 - rem[at].view(np.int64))
    ranked = np.sort(key)
    # row t's keys are ranked[first[t]:first[t + 1]], and tie group g is
    # ranked[bounds[g]:bounds[g + 1]]
    first = np.concatenate((np.searchsorted(ranked, np.arange(T) << shift), [len(ranked)]))
    count = first[1:] - first[:-1]
    bounds = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1], [True])))
    # each row serves its groups before its first misfit, those whose
    # cumulative size fits: ranked[first:stop], its keys up to last
    fill = first[:-1] + np.minimum(np.maximum(leftover, 0), count)
    stop = bounds[np.searchsorted(bounds, fill, side="right") - 1]
    last = np.where(stop > first[:-1], ranked[stop - 1], (np.arange(T) << shift) - 1)
    F[at] += key <= np.repeat(last, count)
    leftover = leftover - (stop - first[:-1])
    # and steps on through the groups after the misfit while units are left
    for t in np.flatnonzero((leftover > 0) & (stop < first[1:])).tolist():
        g, e = np.searchsorted(bounds, (stop[t], first[t + 1]))
        sizes = np.diff(bounds[g : e + 1])  # of groups g, g+1, ...
        left, k, picked = int(leftover[t]), 0, []
        while left > 0:
            fit = np.flatnonzero(sizes[k + 1 :] <= left)
            if not len(fit):
                break
            k += int(fit[0]) + 1
            picked.append(ranked[bounds[g + k]])
            left -= int(sizes[k])
        # row t's eligible symbols are at[first[t]:first[t + 1]], unsorted
        mine = slice(first[t], first[t + 1])
        F[at[mine]] += np.isin(key[mine], picked)
        leftover[t] = left
    return leftover


def _first_max(F: np.ndarray, starts: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The index in F of each row's first largest entry (rows of n end to end)."""
    at = np.flatnonzero(F == np.repeat(np.maximum.reduceat(F, starts), n))
    return at[np.searchsorted(at, starts)]


def _fill(F, C, rows, mu, s, lo: int, hi: int, M: int, a, b, min_rem: float) -> np.ndarray:
    """Build ``rows`` of the frequency and cumulative blocks F and C in one
    pass over their windows a..b, ranking the remainders of at least
    ``min_rem``; return the rows whose leftover those remainders could not
    all take."""
    a, b = a[rows], b[rows]
    n = b - a + 1
    starts = np.cumsum(n) - n
    target = _raw_probabilities(mu[rows], s[rows], lo, hi, a, b) * M
    base = np.floor(target)
    Fw = base.astype(np.int64)
    leftover = _spread_leftover(Fw, target - base, n, M - np.add.reduceat(Fw, starts), min_rem)
    short = leftover > 0
    if not min_rem:
        # the full rule ranked every symbol: the residue goes to the largest
        Fw[_first_max(Fw, starts, n)[short]] += leftover[short]

    # the floor of one: every symbol outside the window floored to zero, so
    # its frequency is one, and the first largest frequency, which pays the
    # deficit, lies inside the window. A deficit means the window sums to
    # above M - K + n >= n, so that frequency is above one and pays a unit.
    np.maximum(Fw, 1, out=Fw)
    deficit = np.add.reduceat(Fw, starts) + F.shape[1] - n - M
    need = np.flatnonzero(deficit > 0)
    while len(need):  # again only where the largest could not pay it all
        j = _first_max(Fw, starts, n)[need]
        take = np.minimum(deficit[need], Fw[j] - 1)
        Fw[j] -= take
        deficit[need] -= take
        need = need[deficit[need] > 0]

    # each window into its rows of F and C; C[:, 0] stays 0
    at = np.arange(len(Fw)) + np.repeat(rows * F.shape[1] + a - lo - starts, n)
    F.reshape(-1)[at] = Fw
    # C just after window symbol z: the a - lo ones below the window plus
    # the window's running sum through z (cs less the earlier windows' sums)
    cs = np.cumsum(Fw)
    offset = a - lo - (cs[starts] - Fw[starts])
    C.reshape(-1)[at + np.repeat(rows + 1, n)] = cs + np.repeat(offset, n)
    return rows[short]


def mass_table(mu, s, lo: int, hi: int, M: int) -> MassTable | list[MassTable]:
    """Quantize clipped logistics to integer frequencies summing to M: one
    MassTable per key of the 1-D ``mu`` and ``s``, as a list (empty for no
    keys), or a single table when both are scalars. A batch builds each
    table bit for bit as that key alone does, in a few passes for all keys.

    Floor-then-largest-remainder, with a floor of one per symbol: the units
    that flooring leaves over go one per symbol to whole tie groups of
    remainder, largest first (see _spread_leftover), and any residue, and
    the deficit that the floor of one creates, go to the largest-frequency
    symbol.

    Only a window of symbols is evaluated: those within r = s*ln(2M/TAU) + 1
    of mu (see _window). Every symbol z outside it, the two tail-absorbing
    edge symbols included, has mass at most sigmoid((1/2 - |z - mu|)/s),
    which is below exp((1/2 - r)/s) < TAU/(2M). So its target p*M floors to
    zero with a remainder below TAU/2, and the floor of one makes its
    frequency one. Within the window the targets floor as over the whole
    alphabet, and only the tie groups of remainder at least TAU are ranked:
    they all lie inside the window, and the full rule ranks them first, in
    the same order. When they take the whole leftover, the table equals the
    full build bit for bit. When they do not, the same steps rerun over the
    whole alphabet with every remainder eligible, which is the full rule
    itself. The bound needs mu in [lo, hi]: otherwise the nearer edge symbol
    holds at least half the mass, and the window is the whole alphabet.

    The keys' windows are laid end to end and evaluated together, at most
    TABLE_PASS symbols to a pass; the keys left short rerun together too.
    Every key is checked before any is built.
    """
    mu, s = np.broadcast_arrays(np.asarray(mu, dtype=np.float64), np.asarray(s, dtype=np.float64))
    one = mu.ndim == 0
    mu, s = mu.reshape(-1), s.reshape(-1)
    if not (lo < hi):
        raise DataFormatError("mass table needs lo < hi")
    K = hi - lo + 1
    if M < K:
        raise DataFormatError(f"total mass {M} cannot cover {K} symbols")
    if not np.all((s > 0) & np.isfinite(s) & np.isfinite(mu)):
        raise DataFormatError("mass table needs finite mu and positive s")

    dtype = np.int32 if M <= 2**31 - 1 else np.int64
    a, b = _window(mu, s, lo, hi, M)
    # outside its window a row's frequencies are one, so C steps by one
    # there: C[k] = k below the window, and k + M - K above it
    F = np.ones((len(mu), K), dtype=dtype)
    k = np.arange(K + 1, dtype=dtype)
    C = np.empty((len(mu), K + 1), dtype=dtype)
    C[:] = k + (M - K)
    for c, w in zip(C, (a - lo + 1).tolist()):
        c[:w] = k[:w]
    todo = np.arange(len(mu))
    for min_rem in (TAU, 0.0):
        passes = _passes((b - a + 1)[todo], 1 << 63 - _rank_bits(min_rem))
        todo = np.concatenate(
            [_fill(F, C, todo[p], mu, s, lo, hi, M, a, b, min_rem) for p in passes] + [todo[:0]]
        )
        a[todo], b[todo] = lo, hi  # the rows left short rerun over the whole alphabet
    tables = [MassTable(lo=lo, hi=hi, F=f, C=c, M=M) for f, c in zip(F, C)]
    return tables[0] if one else tables


def rans_encode_step(x: int, sym: int, table: MassTable) -> int:
    """Pure encode update: floor(x/F)*M + C + x mod F (no renormalization)."""
    f = int(table.F[sym])
    return (x // f) * table.M + int(table.C[sym]) + x % f


def rans_decode_step(x: int, table: MassTable) -> tuple[int, int]:
    """Recover (symbol index, previous state) from one encode step."""
    C = table.C
    cf = x % table.M
    sym = bisect_right(C, cf) - 1
    return sym, (x // table.M) * int(table.F[sym]) + cf - int(C[sym])


class RansEncoder:
    """Streaming encoder; the last block pushed is the first one pulled."""

    def __init__(self):
        self.state = RANS_L
        self.words = array("I")  # emitted 32-bit words, in emission order

    def push(self, syms, tables, index):
        """Push a block of symbols so that a decoder pulls them back in the
        given order; symbol i is coded under ``tables[index[i]]``."""
        syms = np.asarray(syms, dtype=np.int64)
        index = np.asarray(index, dtype=np.intp)
        sizes = np.array([len(t.F) for t in tables], dtype=np.int64)
        if len(syms) != len(index):
            raise DataFormatError("need exactly one table index per symbol")
        if any(RANS_L % t.M for t in tables):
            raise DataFormatError("a coding table's total mass must divide 2**31")
        if not len(syms):
            return
        if syms.min() < 0 or np.any(syms >= sizes[index]):
            raise DataFormatError("symbol outside its table's alphabet")
        # the tables' rows laid end to end, so one index gathers every
        # symbol's entries; reversed, since the stack pushes back to front
        rev = index[::-1]
        at = (np.cumsum(sizes) - sizes)[rev] + syms[::-1]
        F = np.concatenate([t.F for t in tables])[at].astype(np.uint64)
        C = np.concatenate([t.C[:-1] for t in tables])[at]
        M = np.array([t.M for t in tables], dtype=np.int64)[rev]
        # the state must be below base * F before a step; that is below 2**63
        thresholds = np.array([t.renorm_base for t in tables], dtype=np.uint64)[rev] * F
        x, words = self.state, self.words
        for i in range(0, len(at), PUSH_CHUNK):
            part = slice(i, i + PUSH_CHUNK)
            for f, c, threshold, m in zip(
                F[part].tolist(), C[part].tolist(), thresholds[part].tolist(), M[part].tolist()
            ):
                while x >= threshold:
                    words.append(x & WORD_MASK)
                    x >>= 32
                x = (x // f) * m + c + x % f  # rans_encode_step
        self.state = x

    def payload(self) -> bytes:
        """The emitted words followed by the final 64-bit state."""
        return np.asarray(self.words, dtype="<u4").tobytes() + struct.pack("<Q", self.state)


def _core(t: MassTable) -> tuple:
    """What RansDecoder.pull bisects in ``t``: the cumulative sums, as a
    list, of its core [a, b), the symbols from the first to the last of
    frequency above one; with a, C[a], C[b], b and M. Every symbol outside
    the core has frequency one, so C[s] = s below it and C[s] = C[b] + s - b
    above it, and a tail symbol decodes without a search."""
    above = np.flatnonzero(t.F > 1)
    a, b = (int(above[0]), int(above[-1]) + 1) if len(above) else (0, 0)
    return t.C[a : b + 1].tolist(), a, int(t.C[a]), int(t.C[b]), b, t.M


class RansDecoder:
    """Streaming decoder over one payload, consuming words back to front."""

    def __init__(self, payload: bytes):
        if len(payload) < 8 or (len(payload) - 8) % 4:
            raise CorruptStreamError("malformed payload")
        (state,) = struct.unpack("<Q", payload[-8:])
        if not (RANS_L <= state < 1 << 63):
            raise CorruptStreamError("initial coder state out of range")
        self.state = state
        words = np.frombuffer(payload, dtype="<u4", count=len(payload) // 4 - 2)
        self.words = memoryview(words.astype(np.uint32, copy=False))
        self.wpos = len(self.words)

    def pull(self, tables, index) -> list[int]:
        """Pull one symbol per entry of ``index``, in push order; symbol i
        is decoded under ``tables[index[i]]``."""
        index = np.asarray(index, dtype=np.intp)
        cores = [_core(t) for t in tables]
        x, words, wpos = self.state, self.words, self.wpos
        out = []
        for C, a, lo, hi, b, M in map(cores.__getitem__, index.tolist()):
            cf = x % M  # rans_decode_step
            if lo <= cf < hi:
                sym = bisect_right(C, cf) - 1
                c = C[sym]
                x = (x // M) * (C[sym + 1] - c) + cf - c
                sym += a
            else:  # a tail symbol: its frequency is one and its C is cf
                sym = cf if cf < lo else b + cf - hi
                x //= M
            while x < RANS_L:
                if wpos == 0:
                    raise CorruptStreamError("coder state underflow: truncated payload")
                wpos -= 1
                x = (x << 32) | words[wpos]
            out.append(sym)
        self.state, self.wpos = x, wpos
        return out

    def finish(self):
        """Check that the whole payload was consumed and the state is back
        at its initial value, as after encoding nothing."""
        if self.wpos:
            raise CorruptStreamError(f"{self.wpos} payload words left over")
        if self.state != RANS_L:
            raise CorruptStreamError("coder state did not return to its initial value")
