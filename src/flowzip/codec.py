"""End-to-end lossless codec: flow latents + conditional priors + rANS.

Container layout (little-endian):

    magic   5 bytes  "IODF1"
    version u8       (1)
    model checksum u64   blake2b-64 of (checkpoint bytes || path tag)
    h u16 | w u16 | c u8
    count   u32
    count x (len u32 | payload bytes)

Per-image payloads are chunks of one chained rANS stream: the encoder walks
images in reverse, recording which emitted words belong to which image, and
the final 64-bit coder state is appended to image 0's payload (the first
one decoded). Chaining amortizes the coder's fixed flush cost across the
whole container, which per-image independent streams cannot do at this
tensor size. Decoding is strictly sequential across images. Encoding runs
the flow forward once per slice of FORWARD_SLICE images: every flow op
works image by image (one GEMM per image), so the latents do not depend on
the slice size, and the fixed slice only bounds peak memory.

Decode order inside an image: final-level latent first (under the learnable
per-channel prior), then factored latents deepest to shallowest, each under
the prior network applied to its reconstructed conditioning half. Flattening
is channel-major, row-major.

Symbols are coded on a per-dimension alphabet of 4096 values recentred at
the prior's rounded location, with tail-collapsed mass tables of total
2**20 and a frequency floor of one, so any representable latent stays
encodable even under a badly mismatched prior. Prior parameters are snapped
to a grid (mu to 1/64, log s to 1/16, s clamped to [0.02, 512]) purely for
coding, which lets tables be cached and reused; both sides apply the same
snapping, and the analytic likelihood keeps the exact parameters.
"""

from __future__ import annotations

import struct
from collections import OrderedDict

import numpy as np

from .autodiff import depth_to_space
from .checkpoint import checksum64, serialize
from .errors import (
    AlphabetOverflowError,
    ChecksumError,
    CorruptStreamError,
    DataFormatError,
)
from .model import FlowModel
from .numerics import round_half_away
from .rans import RANS_L, MassTable, RansDecoder, RansEncoder, mass_table

MAGIC = b"IODF1"
VERSION = 1

CODING_M = 1 << 20
ALPHABET_HALF = 2048
MU_GRID = 64
LOG_S_GRID = 16
S_MIN, S_MAX = 0.02, 512.0
CACHE_CAP = 8192
# Images per flow_forward call in compress. Compressing 1000 desk images on
# the int path peaks at about 300 MiB RSS in one forward, 80 MiB in slices of 64.
FORWARD_SLICE = 64


def model_id(model: FlowModel, path: str) -> int:
    """Checksum committing to both the checkpoint bytes and the inference path."""
    return checksum64(serialize(model) + path.encode())


class PriorTableCache:
    """Mass tables keyed by snapped (fractional mu, log s); LRU-bounded."""

    def __init__(self, m: int = CODING_M):
        self.m = m
        self.tables: OrderedDict[tuple[int, int], MassTable] = OrderedDict()

    def keys_for(self, mu: np.ndarray, log_s: np.ndarray):
        """Vectorized snap: returns (center k, frac key, log-s key) arrays."""
        mu = np.asarray(mu, dtype=np.float64)
        log_s = np.clip(np.asarray(log_s, dtype=np.float64), np.log(S_MIN), np.log(S_MAX))
        mq = round_half_away(mu * MU_GRID).astype(np.int64)
        k = round_half_away(mq / MU_GRID).astype(np.int64)
        frac = (mq - MU_GRID * k).astype(np.int64)
        ls = round_half_away(log_s * LOG_S_GRID).astype(np.int64)
        return k, frac, ls

    def get(self, frac_key: int, ls_key: int) -> MassTable:
        key = (frac_key, ls_key)
        table = self.tables.get(key)
        if table is None:
            table = mass_table(
                frac_key / MU_GRID,
                float(np.exp(ls_key / LOG_S_GRID)),
                -ALPHABET_HALF,
                ALPHABET_HALF - 1,
                self.m,
            )
            self.tables[key] = table
            if len(self.tables) > CACHE_CAP:
                self.tables.popitem(last=False)
        else:
            self.tables.move_to_end(key)
        return table


def _plan_tensor(cache: PriorTableCache, values: np.ndarray, mu, log_s):
    """Flatten one latent tensor into (symbols, table keys) in scan order."""
    flat = values.reshape(-1)
    mu_b = np.broadcast_to(np.asarray(mu, dtype=np.float64), values.shape).reshape(-1)
    ls_b = np.broadcast_to(np.asarray(log_s, dtype=np.float64), values.shape).reshape(-1)
    k, frac, ls = cache.keys_for(mu_b, ls_b)
    sym = flat - k + ALPHABET_HALF
    bad = (sym < 0) | (sym >= 2 * ALPHABET_HALF)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise AlphabetOverflowError(
            f"latent value {flat[i]} is {flat[i] - k[i]:+d} from its prior center; "
            f"the +-{ALPHABET_HALF} alphabet must be widened"
        )
    return sym.astype(np.int64), frac, ls


def _image_plan(model: FlowModel, result, index: int, cache: PriorTableCache):
    """Symbols and table keys for one image, in decode order."""
    syms, fracs, lss = [], [], []
    order = [len(result.latents) - 1] + list(range(len(result.latents) - 2, -1, -1))
    for li in order:
        mu, log_s = result.priors[li]
        mu_i = mu if mu.shape[0] == 1 else mu[index : index + 1]
        ls_i = log_s if log_s.shape[0] == 1 else log_s[index : index + 1]
        s, f, l = _plan_tensor(cache, result.latents[li][index], mu_i[0], ls_i[0])
        syms.append(s)
        fracs.append(f)
        lss.append(l)
    return np.concatenate(syms), np.concatenate(fracs), np.concatenate(lss)


def compress(
    images: np.ndarray, model: FlowModel, path: str = "float"
) -> tuple[bytes, dict]:
    """Encode a batch of identically shaped u8 images into one container.

    Returns (container bytes, stats) where stats carries the analytic and
    coding bits-per-dimension of the batch.
    """
    images = np.asarray(images)
    if images.ndim != 4 or images.dtype != np.uint8:
        raise DataFormatError("compress expects a (N,C,H,W) uint8 array")
    n, c, h, w = images.shape
    if n == 0:
        raise DataFormatError("no images to compress")
    model.check_input(images[:1])
    cache = PriorTableCache()

    plans, log2p = [], []
    for start in range(0, n, FORWARD_SLICE):
        result = model.flow_forward(images[start : start + FORWARD_SLICE], path)
        plans += [
            _image_plan(model, result, i, cache) for i in range(len(result.log2p))
        ]
        log2p += result.log2p.tolist()
    analytic_bits = -float(sum(log2p))

    enc = RansEncoder()
    bounds = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        syms, fracs, lss = plans[i]
        for j in range(len(syms) - 1, -1, -1):
            enc.push(int(syms[j]), cache.get(int(fracs[j]), int(lss[j])))
        bounds[i] = enc.mark()
    # chunk i holds the words emitted while encoding image i's symbols
    chunks = [enc.payload(bounds[i + 1], bounds[i]) for i in range(n)]
    chunks[0] += struct.pack("<Q", enc.state)

    header = MAGIC + struct.pack(
        "<BQHHBI", VERSION, model_id(model, path), h, w, c, n
    )
    body = b"".join(struct.pack("<I", len(ch)) + ch for ch in chunks)
    container = header + body
    d = c * h * w
    stats = {
        "analytic_bpd": analytic_bits / (n * d),
        "coding_bpd": sum(len(ch) for ch in chunks) * 8 / (n * d),
        "payload_bytes": sum(len(ch) for ch in chunks),
    }
    return container, stats


def _parse_container(container: bytes):
    if len(container) < 23 or container[:5] != MAGIC:
        raise DataFormatError("not a flowzip container (bad magic)")
    version, checksum, h, w, c, count = struct.unpack("<BQHHBI", container[5:23])
    if version != VERSION:
        raise DataFormatError(f"unsupported container version {version}")
    chunks, pos = [], 23
    for _ in range(count):
        if pos + 4 > len(container):
            raise DataFormatError("truncated container (length field)")
        (ln,) = struct.unpack("<I", container[pos : pos + 4])
        pos += 4
        if pos + ln > len(container):
            raise DataFormatError("truncated container (payload)")
        chunks.append(container[pos : pos + ln])
        pos += ln
    if pos != len(container):
        raise DataFormatError("trailing bytes after the last payload")
    return checksum, h, w, c, chunks


def _decode_tensor(dec, cache, shape, mu, log_s) -> np.ndarray:
    mu_b = np.broadcast_to(np.asarray(mu, dtype=np.float64), shape).reshape(-1)
    ls_b = np.broadcast_to(np.asarray(log_s, dtype=np.float64), shape).reshape(-1)
    k, frac, ls = cache.keys_for(mu_b, ls_b)
    out = np.empty(len(k), dtype=np.int64)
    for j in range(len(k)):
        sym = dec.pull(cache.get(int(frac[j]), int(ls[j])))
        out[j] = sym - ALPHABET_HALF + k[j]
    return out.reshape(shape)


def decompress(container: bytes, model: FlowModel, path: str = "float") -> np.ndarray:
    """Exact inverse of compress; refuses containers from other models."""
    checksum, h, w, c, chunks = _parse_container(container)
    if checksum != model_id(model, path):
        raise ChecksumError(
            "container was written by a different model or inference path"
        )
    # c, h and w sit outside the checksum: check them before allocating
    model.check_input(np.empty((0, c, h, w), dtype=np.uint8))
    if not chunks:
        return np.zeros((0, c, h, w), dtype=np.uint8)
    if len(chunks[0]) < 8:
        raise CorruptStreamError("first payload is missing the coder state")
    (state,) = struct.unpack("<Q", chunks[0][-8:])
    dec = RansDecoder(state)
    cache = PriorTableCache()
    t_fn = model._t_fn(path)
    L = len(model.levels)
    out = np.empty((len(chunks), c, h, w), dtype=np.uint8)
    for i, chunk in enumerate(chunks):
        dec.feed(chunk[:-8] if i == 0 else chunk)
        hh, ww = h // (2**L), w // (2**L)
        final_mu = model.final_mu.value.reshape(-1, 1, 1)
        final_ls = model.final_log_s.value.reshape(-1, 1, 1)
        cur = _decode_tensor(
            dec, cache, (model.final_channels, hh, ww), final_mu, final_ls
        )[None]
        for li in reversed(range(L)):
            lvl = model.levels[li]
            if not lvl.is_last:
                mu, log_s = lvl.prior_params_raw(cur)
                fac_shape = (lvl.factored,) + cur.shape[2:]
                fac = _decode_tensor(dec, cache, fac_shape, mu[0], log_s[0])[None]
                cur = np.concatenate([cur, fac], axis=1)
            for coup in reversed(lvl.couplings):
                cur = coup.inverse_int_domain(cur, t_fn)
            cur = depth_to_space(cur)
        if not dec.chunk_exhausted():
            raise CorruptStreamError(f"image {i}: payload words left over")
        if cur.min() < 0 or cur.max() > 255:
            raise CorruptStreamError(f"image {i}: reconstruction left byte range")
        out[i] = cur[0]
    if dec.state != RANS_L:
        raise CorruptStreamError("coder state did not return to its initial value")
    return out
