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
built by a largest-remainder rule over tie groups (see mass_table) in
vectorized steps, since every codec call builds each distinct table it
needs afresh. A build evaluates only the window of symbols near mu whose
frequency can leave the floor of one, a few hundred of the codec's 4,096 at
its usual scales; beyond it every target mass is below TAU/2 and every
frequency is one. When the units that flooring leaves over cannot all go to
the window's remainders of at least TAU, the build reruns over the whole
alphabet, so every table equals the full-alphabet build bit for bit.
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


def _raw_probabilities(mu: float, s: float, lo: int, hi: int, a: int, b: int) -> np.ndarray:
    """Tail-collapsed discretized logistic over [lo, hi], at the symbols a..b.

    Interior masses come from the stable log-pmf; the boundary symbols absorb
    their whole tails. The two edge expressions mirror each other exactly so
    integer-centered tables come out palindromic. Each symbol's mass is
    computed on its own, so a window gives the same values as the whole
    alphabet does at those symbols.
    """
    z = np.arange(a, b + 1, dtype=np.float64)
    # At a subnormal s, 1/s overflows: a symbol away from mu then has both
    # boundary arguments at -inf and a NaN log-mass. Its mass is zero.
    with np.errstate(over="ignore", invalid="ignore"):
        p = np.exp2(logistic_logpmf_raw(z, mu, np.log(s)))
        if a == lo:
            p[0] = sigmoid(np.asarray((lo + 0.5 - mu) / s))
        if b == hi:
            p[-1] = sigmoid(np.asarray(-(hi - 0.5 - mu) / s))
    p[np.isnan(p)] = 0.0
    return p


def _window(mu: float, s: float, lo: int, hi: int, M: int) -> tuple[int, int]:
    """The symbols a..b within s*ln(2M/TAU) + 1 of mu, clipped to [lo, hi];
    the whole alphabet when mu lies outside it (see mass_table)."""
    r = s * math.log(2 * M / TAU) + 1
    if not lo <= mu <= hi or r >= hi - lo:
        return lo, hi
    return max(lo, math.ceil(mu - r)), min(hi, math.floor(mu + r))


def _spread_leftover(F: np.ndarray, rem: np.ndarray, leftover: int, min_rem: float) -> int:
    """Add the units that flooring left over to F, in place, and return the
    units that could not be placed.

    The symbols whose remainder is at least ``min_rem`` are ranked by
    remainder, largest first (ties in index order), and cut into tie groups
    of equal remainder. A group takes one unit per symbol only if the whole
    group fits in what is left over (all-or-none, which keeps tables of
    integer- and half-integer-centred priors symmetric); a group that does
    not fit is skipped and the next ones are tried. The leading run of
    groups whose cumulative size fits is served in one step, and only the
    few groups after the first misfit are stepped through.
    """
    eligible = np.flatnonzero(rem >= min_rem)
    order = eligible[np.argsort(-rem[eligible], kind="stable")]
    ranked = rem[order]
    # ends[g]: one past the last ranked symbol of tie group g
    ends = np.append(np.flatnonzero(ranked[1:] != ranked[:-1]) + 1, len(order))
    # groups 0..g-1 all fit; group g (if any) is the first that does not
    g = int(np.searchsorted(ends, leftover, side="right"))
    served = int(ends[g - 1]) if g else 0
    F[order[:served]] += 1
    leftover -= served
    while leftover > 0 and g + 1 < len(ends):
        sizes = np.diff(ends[g:])  # of groups g+1, g+2, ...
        fits = np.flatnonzero(sizes <= leftover)
        if not len(fits):
            break
        g += int(fits[0]) + 1
        F[order[ends[g - 1] : ends[g]]] += 1
        leftover -= int(sizes[fits[0]])
    return leftover


def mass_table(mu: float, s: float, lo: int, hi: int, M: int) -> MassTable:
    """Quantize the clipped logistic to integer frequencies summing to M.

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
    """
    if not (lo < hi):
        raise DataFormatError("mass table needs lo < hi")
    K = hi - lo + 1
    if M < K:
        raise DataFormatError(f"total mass {M} cannot cover {K} symbols")
    if not (s > 0 and np.isfinite(s) and np.isfinite(mu)):
        raise DataFormatError("mass table needs finite mu and positive s")

    for a, b, min_rem in ((*_window(mu, s, lo, hi, M), TAU), (lo, hi, 0.0)):
        target = _raw_probabilities(mu, s, lo, hi, a, b) * M
        base = np.floor(target)
        rem = target - base
        Fw = base.astype(np.int64)
        leftover = int(M - Fw.sum())
        if leftover > 0:
            # a call, not inline code: its sort temporaries are freed before
            # the table's own arrays are allocated (inline they raised peak RSS)
            leftover = _spread_leftover(Fw, rem, leftover, min_rem)
        if leftover <= 0:
            break
    else:
        # the full rule ranked every symbol: the residue goes to the largest
        Fw[np.argmax(Fw)] += leftover

    # the floor of one: every symbol outside the window floored to zero, so
    # its frequency is one, and the first largest frequency, which pays the
    # deficit, lies inside the window whenever it is above one
    np.maximum(Fw, 1, out=Fw)
    deficit = int(Fw.sum()) + K - len(Fw) - M
    while deficit > 0:
        j = int(np.argmax(Fw))
        take = min(deficit, int(Fw[j]) - 1)
        if take == 0:
            raise DataFormatError("mass table cannot satisfy the frequency floor")
        Fw[j] -= take
        deficit -= take

    w0, w1 = a - lo, b - lo + 1  # the window's slice of the alphabet
    F = np.ones(K, dtype=np.int64)
    F[w0:w1] = Fw
    # C steps by one at every symbol outside the window
    C = np.arange(K + 1, dtype=np.int64)
    C[w0 + 1 : w1 + 1] = w0 + np.cumsum(Fw)
    C[w1 + 1 :] += C[w1] - w1
    return MassTable(lo=lo, hi=hi, F=F, C=C, M=M)


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
