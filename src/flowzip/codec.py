"""End-to-end lossless codec: flow latents + conditional priors + rANS.

Container layout (little-endian), version 3:

    magic   5 bytes  "IODF1"
    version u8       (3)
    model checksum u64   blake2b-64 of (checkpoint checksum || path tag)
    h u16 | w u16 | c u8
    count   u32
    image checksum u64   blake2b-64 of the images' bytes, (N,C,H,W) order
    len     u32
    payload len bytes: the emitted 32-bit words, then the final u64 coder state

decompress recomputes the image checksum after decoding and raises
CorruptStreamError on a mismatch, so a damaged or misordered payload that
still decodes cleanly cannot return a wrong image. Versions 1 and 2 (without
the image checksum) are not read.

The int path is the portable one: its residual blocks and output convs
accumulate integers, which BLAS sums exactly in any order (in float32 or
float64, as each conv's weight bound allows; see ``layers``), so its
containers are meant to decode bit-identically under any BLAS thread count
(a test decodes one in a process limited to one BLAS thread); its stems and
prior nets are float convs, though, so that rests on BLAS as below. The
float and fake paths round float64 sums whose order BLAS may change, so
their containers are only guaranteed to decode in the same numeric
environment (numpy and BLAS build, thread count) that wrote them. The model
checksum names the checkpoint and the path, not that environment.

The payload is one chained rANS stream over every image. Chaining amortizes
the coder's fixed 8-byte flush across the whole container, which per-image
streams cannot do at this tensor size. The order is level-major: the decoder
first reads the final-level latents of images 0..N-1 (under the learnable
per-channel prior), then each factored level deepest to shallowest, images
0..N-1 within a level, each under the prior network applied to its
reconstructed conditioning half. Within an image, flattening is
channel-major, row-major. The encoder pushes that order in reverse.

Both directions are batched across images in fixed slices of FORWARD_SLICE:
compress runs the flow forward once per slice, and decompress runs each prior
net and each inverse coupling once per slice of a level. Each conv folds its
slice into one GEMM (autodiff.im2col), and both directions cut the same
slices, so each conv sees the same batch on both sides; otherwise the slice
size only bounds peak memory. Whether the latents also do not depend on the
slice size differs by conv:

* the int path's residual-block and output convs (layers.int_conv_acc) sum
  integers that the GEMM's float type holds exactly, so for them it holds
  by construction;
* every float conv -- all convs of the float and fake paths, the int path's
  stems and every prior net -- rounds its sums, so it holds only while BLAS
  sums each output's K axis in the same order for any batch. Tests check
  that at desk size (per-image and 70-image forwards equal bit for bit);
  autodiff's docstring notes map sizes where a BLAS breaks it.

The coder itself is sequential: it pushes and pulls one slice of one level
at a time. ``_block_tables`` hands it each such block as the block's
distinct mass tables, from one ``PriorTableCache.get``, and the index of
every symbol's table among them (the inverse of one ``np.unique`` over the
table keys). The cache builds the tables it lacks in one ``mass_table``
call, so a block costs one build, however many tables it needs.

Symbols are coded on a per-dimension alphabet of 4096 values recentred at
the prior's rounded location, with tail-collapsed mass tables of total
2**20 and a frequency floor of one, so any representable latent stays
encodable even under a badly mismatched prior. Prior parameters are snapped
to a grid (mu to 1/64, log s to 1/16) purely for coding, which lets tables be
cached and reused; both sides apply the same snapping, and the analytic
likelihood keeps the exact parameters. The flow already bounds s to [S_MIN,
S_MAX] = [0.02, 512], and keys_for clips the model's own final log s there
too. The grid bounds one call's tables at 65 frac by 164 log-s keys, 10,660.
Without a path, a weight-quantized model codes on the int path, others float.

Per-model state. The int path reads the model's plan; ``FlowModel.int_plan``
says what it holds, how long it lives and what rebuilds it. The mass tables
(``PriorTableCache``) and the model id (``model_id``) are still built on
every call. perfbench's ``spans.EXPECTED`` lists ``rans.mass_table`` and
``checkpoint.serialize``, and ``Tracer.uncovered`` requires each listed span
to record at least one call over a traced run's operations, which follow a
warm-up operation; a table bank or an id kept across calls would record
none, so both stay per call until that check changes.
"""

from __future__ import annotations

import struct

import numpy as np

from .checkpoint import checksum64, serialize
from .errors import (
    AlphabetOverflowError,
    ChecksumError,
    CorruptStreamError,
    DataFormatError,
)
from .model import LOG_S_BOUNDS, S_MAX, S_MIN, FlowModel
from .numerics import round_half_away
from .rans import MassTable, RansDecoder, RansEncoder, mass_table

MAGIC = b"IODF1"
VERSION = 3
# the header after the magic: version, model checksum, h, w, c, count,
# image checksum, payload length
_HEADER = struct.Struct("<BQHHBIQI")
_HEADER_END = len(MAGIC) + _HEADER.size

CODING_M = 1 << 20
ALPHABET_HALF = 2048
MU_GRID = 64
LOG_S_GRID = 16
# keys_for clips mu here, so mu * MU_GRID stays below 2**53 and its int64
# keys and their float64 quotients are exact: frac keys stay in [-32, 32]
# (a latent this far out cannot be coded anyway).
MU_MAX = 2.0**40
# Images per flow_forward call in compress, and per prior-net and inverse
# coupling call in decompress. Compressing 1000 desk images on the int path
# peaks at about 300 MiB RSS in one forward, 80 MiB in slices of 64.
FORWARD_SLICE = 64
# Largest count*c*h*w a container may hold (about 21,800 desk images). The
# header is outside the checksum, so decompress checks this before allocating.
MAX_DIMS = 2**24
# The header stores h and w as u16.
MAX_SIDE = 2**16 - 1


def model_id(model: FlowModel, path: str) -> int:
    """Checksum committing to both the checkpoint and the inference path.

    The checkpoint's own 8-byte trailer, a blake2b-64 of its body, stands for
    the checkpoint, so the body is hashed once, inside ``serialize``.
    """
    return checksum64(serialize(model)[-8:] + path.encode())


def keys_for(shape, mu, log_s):
    """Vectorized snap of (mu, log s) broadcast to shape: returns flat
    (center k, frac key, log-s key) arrays in scan order; frac keys lie in
    [-32, 32] and log-s keys in [-63, 100] (NaN aside)."""
    mu = np.broadcast_to(np.asarray(mu, dtype=np.float64), shape).reshape(-1)
    log_s = np.broadcast_to(np.asarray(log_s, dtype=np.float64), shape).reshape(-1)
    mu = np.clip(mu, -MU_MAX, MU_MAX)
    log_s = np.clip(log_s, *LOG_S_BOUNDS)
    mq = round_half_away(mu * MU_GRID).astype(np.int64)
    k = round_half_away(mq / MU_GRID).astype(np.int64)
    frac = (mq - MU_GRID * k).astype(np.int64)
    ls = round_half_away(log_s * LOG_S_GRID).astype(np.int64)
    return k, frac, ls


class PriorTableCache:
    """One codec call's mass tables keyed by snapped (frac, log s): at most
    65 * 164. Each block's missing keys are built together."""

    def __init__(self):
        self.tables: dict[tuple[int, int], MassTable] = {}

    def get(self, fracs: np.ndarray, lss: np.ndarray) -> list[MassTable]:
        """The tables of the distinct keys (fracs[i], lss[i]), in order; the
        keys not yet held are built together, in one mass_table call."""
        keys = list(zip(fracs.tolist(), lss.tolist()))
        new = [key for key in keys if key not in self.tables]
        if new:
            f, ls = np.array(new).T
            built = mass_table(
                f / MU_GRID, np.exp(ls / LOG_S_GRID), -ALPHABET_HALF, ALPHABET_HALF - 1, CODING_M
            )
            self.tables.update(zip(new, built))
        return [self.tables[key] for key in keys]


def _plan_tensor(values: np.ndarray, mu, log_s):
    """Flatten a batch of latents into (symbols, table keys) in scan order."""
    flat = values.reshape(-1)
    k, frac, ls = keys_for(values.shape, mu, log_s)
    sym = flat - k + ALPHABET_HALF
    bad = (sym < 0) | (sym >= 2 * ALPHABET_HALF)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise AlphabetOverflowError(
            f"latent value {flat[i]} is {flat[i] - k[i]:+d} from its prior center; "
            f"the +-{ALPHABET_HALF} alphabet must be widened"
        )
    return sym.astype(np.int64), frac, ls


def _block_tables(
    cache: PriorTableCache, frac: np.ndarray, ls: np.ndarray
) -> tuple[list[MassTable], np.ndarray]:
    """A block's distinct tables, fetched in one cache call, and the index
    of each symbol's table among them: the form the coder takes a block in."""
    # keys_for clips log s, so |ls| < 2048 and the combined keys cannot collide
    _, first, inverse = np.unique(frac * 4096 + ls, return_index=True, return_inverse=True)
    return cache.get(frac[first], ls[first]), inverse


def _check_size(n: int, c: int, h: int, w: int):
    if max(h, w) > MAX_SIDE:
        raise DataFormatError(f"{h}x{w} images exceed the container's {MAX_SIDE}-pixel side")
    if n * c * h * w > MAX_DIMS:
        raise DataFormatError(
            f"{n} images of {c}x{h}x{w} exceed the {MAX_DIMS}-dimension container cap"
        )


def _path_for(model: FlowModel, path: str | None) -> str:
    """The given path, else "int" for a weight-quantized model, else "float"."""
    return path if path is not None else "int" if model.weight_quant else "float"


def compress(
    images: np.ndarray, model: FlowModel, path: str | None = None
) -> tuple[bytes, dict]:
    """Encode a batch of identically shaped u8 images into one container.

    ``path`` defaults by ``_path_for``. Returns (container bytes, stats) where
    stats carries the analytic and coding bits-per-dimension of the batch.
    """
    images = np.asarray(images)
    if images.ndim != 4 or images.dtype != np.uint8:
        raise DataFormatError("compress expects a (N,C,H,W) uint8 array")
    n, c, h, w = images.shape
    if n == 0:
        raise DataFormatError("no images to compress")
    model.check_input(images[:1])
    _check_size(n, c, h, w)
    path = _path_for(model, path)
    cache = PriorTableCache()

    # plans[li] holds one (symbols, frac keys, log-s keys) block per slice
    plans = [[] for _ in model.levels]
    log2p = []
    for start in range(0, n, FORWARD_SLICE):
        result = model.flow_forward(images[start : start + FORWARD_SLICE], path)
        for li, (mu, log_s) in enumerate(result.priors):
            plans[li].append(_plan_tensor(result.latents[li], mu, log_s))
        log2p += result.log2p.tolist()
    analytic_bits = -float(sum(log2p))

    # the exact reverse of decompress's pulls: shallowest level first, and
    # within a level its slices last to first
    enc = RansEncoder()
    for blocks in plans:
        for syms, fracs, lss in reversed(blocks):
            enc.push(syms, *_block_tables(cache, fracs, lss))
    payload = enc.payload()

    header = MAGIC + _HEADER.pack(
        VERSION, model_id(model, path), h, w, c, n, checksum64(images.tobytes()), len(payload)
    )
    container = header + payload
    d = c * h * w
    stats = {
        "analytic_bpd": analytic_bits / (n * d),
        "coding_bpd": len(payload) * 8 / (n * d),
        "payload_bytes": len(payload),
    }
    return container, stats


def _parse_container(container: bytes):
    if len(container) < 6 or container[:5] != MAGIC:
        raise DataFormatError("not a flowzip container (bad magic)")
    if container[5] != VERSION:
        raise DataFormatError(f"unsupported container version {container[5]}")
    if len(container) < _HEADER_END:
        raise DataFormatError("truncated container (header)")
    _, model_sum, h, w, c, count, image_sum, ln = _HEADER.unpack_from(container, len(MAGIC))
    if _HEADER_END + ln > len(container):
        raise DataFormatError("truncated container (payload)")
    if _HEADER_END + ln < len(container):
        raise DataFormatError("trailing bytes after the payload")
    return model_sum, h, w, c, count, image_sum, container[_HEADER_END:]


def _pull_tensor(dec: RansDecoder, cache: PriorTableCache, shape, mu, log_s) -> np.ndarray:
    """Decode one block of latents of the given shape under (mu, log s)."""
    k, frac, ls = keys_for(shape, mu, log_s)
    syms = np.asarray(dec.pull(*_block_tables(cache, frac, ls)), dtype=np.int64)
    return (syms - ALPHABET_HALF + k).reshape(shape)


def decompress(container: bytes, model: FlowModel, path: str | None = None) -> np.ndarray:
    """Exact inverse of compress; refuses containers from other models and
    decoded images that do not match the container's image checksum."""
    path = _path_for(model, path)
    model_sum, h, w, c, n, image_sum, payload = _parse_container(container)
    if model_sum != model_id(model, path):
        raise ChecksumError(
            "container was written by a different model or inference path"
        )
    # count, c, h and w sit outside the checksum: check them before allocating
    model.check_input(np.empty((0, c, h, w), dtype=np.uint8))
    if n == 0:
        raise DataFormatError("container holds no images")
    _check_size(n, c, h, w)
    dec = RansDecoder(payload)
    cache = PriorTableCache()
    t_fn = model._t_fn(path)
    starts = range(0, n, FORWARD_SLICE)
    L = len(model.levels)
    final_mu = model.final_mu.value.reshape(-1, 1, 1)
    final_ls = model.final_log_s.value.reshape(-1, 1, 1)
    cur = np.concatenate([
        _pull_tensor(
            dec, cache, (min(n - s, FORWARD_SLICE), model.final_channels, h >> L, w >> L),
            final_mu, final_ls,
        )
        for s in starts
    ])
    for lvl in reversed(model.levels):
        parts = []
        for s in starts:
            z = cur[s : s + FORWARD_SLICE]
            fac = None
            if lvl.prior_net is not None:
                mu, log_s = lvl.prior_params_raw(z)
                fac = _pull_tensor(dec, cache, (len(z), lvl.factored) + z.shape[2:], mu, log_s)
            parts.append(lvl.inverse(z, fac, t_fn))
        cur = np.concatenate(parts)
    dec.finish()
    if cur.min() < 0 or cur.max() > 255:
        raise CorruptStreamError("reconstruction left byte range")
    images = cur.astype(np.uint8)
    if checksum64(images.tobytes()) != image_sum:
        raise CorruptStreamError("decoded images do not match the image checksum")
    return images
