"""Versioned binary checkpoint format.

Layout (little-endian):

    magic   8 bytes  "IODFCKPT"
    version u16      format version (1)
    flags   u16      bit1 act_quant, bit2 weight_quant, bit3 gated
                     (other bits are undefined, and refused)
    stage   u8       last completed training stage (0..5, LAST_STAGE)
    L, D, blocks u8  architecture
    hidden  u16
    in_ch   u8
    splits  L x (retained u16, factored u16)
    count   u32      number of arrays
    arrays  count x (kind u8 | ndim u8 | ndim x u32 dims | payload)
             kind 0: f32 parameters   kind 2: f32 quantizer scales
             kind 3: u32 kept-filter indices   (other kinds are refused)
    checksum u64     blake2b-64 of all preceding bytes

Arrays appear in model declaration order. Parameters are stored as 32-bit
floats; in memory the model computes in float64. Every array's shape is
checked against the architecture: no stored shape may exceed the full-width
one as it is read, and each must match exactly before it is assigned.

A gated model has one stored form, its kept sets. Each block stores only
its kept filters (``ResidualBlock.kept_sets``; all of them when ungated) --
conv A's kept rows, conv B's kept rows and kept conv-A columns, with their
biases and weight scales -- and a gated block then its kept-index lists
idx_a and idx_b (strictly increasing, below the block width). Loading
places the kept filters into full-width arrays (a removed filter gets zero
weight and bias and a weight scale of 1), and each gated block holds the
lists as its kept sets, with no gate (``ResidualBlock.freeze``);
``round_to_stored`` sets a model in memory the same way. A branch is stored
whole or not at all: an older checkpoint with one list empty and the other
not is refused (``DataFormatError``, exit 2). At stage 5 one with an empty
idx_a never loaded anyway: its conv-B rows held a bias alone, which could
not be folded.
"""

from __future__ import annotations

import hashlib
import math
import struct

import numpy as np

from .errors import ChecksumError, DataFormatError, UsageError
from .model import FlowConfig, FlowModel

MAGIC = b"IODFCKPT"
VERSION = 1

KIND_PARAM, KIND_QSCALE, KIND_INDEX = 0, 2, 3

FLAG_ACT_Q, FLAG_WEIGHT_Q, FLAG_GATED = 2, 4, 8
LAST_STAGE = 5
# the header after the magic: version, flags, stage, L, D, blocks, hidden, in_ch
_HEADER = struct.Struct("<HHBBBBHB")


def checksum64(data: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


def _named_entries(model: FlowModel):
    """Yield (kind, name, obj, keep) in fixed declaration order.

    For kinds 0 and 2, ``obj`` is a Node and ``keep`` indexes the stored part
    of its value: all of it (``...``) or a block conv's kept filters. For
    kind 3 (idx_a then idx_b of each block of a gated model), ``obj`` is the
    ResidualBlock and ``keep`` the list. Quantizer scales appear once
    quantization is on.
    """
    gated = model.gated

    def conv_entries(prefix, layer, quantizable, rows=..., cols=None):
        w_keep = rows if cols is None else np.ix_(rows, cols)
        yield KIND_PARAM, f"{prefix}.w", layer.w, w_keep
        yield KIND_PARAM, f"{prefix}.b", layer.b, rows
        if model.weight_quant and quantizable:
            yield KIND_QSCALE, f"{prefix}.wscale", layer.wscale, rows

    for li, lvl in enumerate(model.levels):
        # (name, net, quantized): coupling nets are quantized, prior nets never
        nets = [(f"level{li}.coup{d}", c.net, True) for d, c in enumerate(lvl.couplings)]
        if lvl.prior_net is not None:
            nets.append((f"level{li}.prior", lvl.prior_net, False))
        for name, net, q in nets:
            yield from conv_entries(f"{name}.stem", net.stem, False)
            for bi, blk in enumerate(net.blocks):
                bp = f"{name}.block{bi}"
                ka, kb = blk.kept_sets()
                yield from conv_entries(f"{bp}.conv_a", blk.conv_a, q, ka)
                yield from conv_entries(f"{bp}.conv_b", blk.conv_b, q, kb, ka)
                if gated and q:  # prior nets are never gated
                    yield KIND_INDEX, f"{bp}.idx_a", blk, ka
                    yield KIND_INDEX, f"{bp}.idx_b", blk, kb
                if model.act_quant and q:
                    yield KIND_QSCALE, f"{bp}.q_in", blk.q_in, ...
                    yield KIND_QSCALE, f"{bp}.q_mid", blk.q_mid, ...
            yield from conv_entries(f"{name}.out", net.out, q)
            if model.act_quant and q:
                yield KIND_QSCALE, f"{name}.q_out", net.q_out, ...
    yield KIND_PARAM, "final.mu", model.final_mu, ...
    yield KIND_PARAM, "final.log_s", model.final_log_s, ...


def named_parameters(model: FlowModel):
    """(kind, name, Node) of every stored array the optimizer may touch; the
    kind is KIND_PARAM or KIND_QSCALE. The gates are ``model.gates()``."""
    for kind, name, obj, _ in _named_entries(model):
        if kind != KIND_INDEX:
            yield kind, name, obj


def _stored_arrays(model: FlowModel):
    """(kind, name, array) of each array a checkpoint of ``model`` holds, as stored."""
    for kind, name, obj, keep in _named_entries(model):
        arr = keep.astype(np.uint32) if kind == KIND_INDEX else obj.value[keep].astype(np.float32)
        yield kind, name, arr


def serialize(model: FlowModel) -> bytes:
    parts = [MAGIC]
    flags = (
        (FLAG_ACT_Q if model.act_quant else 0)
        | (FLAG_WEIGHT_Q if model.weight_quant else 0)
        | (FLAG_GATED if model.gated else 0)
    )
    cfg = model.cfg
    parts.append(_HEADER.pack(VERSION, flags, model.stage, cfg.levels, cfg.couplings,
                              cfg.blocks, cfg.hidden, cfg.in_channels))
    for lvl in model.levels:
        parts.append(struct.pack("<HH", lvl.retained, lvl.factored))

    arrays = list(_stored_arrays(model))
    parts.append(struct.pack("<I", len(arrays)))
    for kind, _, arr in arrays:
        parts.append(struct.pack("<BB", kind, arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(arr.tobytes())
    body = b"".join(parts)
    return body + struct.pack("<Q", checksum64(body))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise DataFormatError("truncated checkpoint")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def _kept_indices(stored: np.ndarray, width: int, name: str) -> np.ndarray:
    idx = stored.astype(np.int64)  # np.diff of unsigned values would wrap
    if idx.ndim != 1 or np.any(np.diff(idx) <= 0) or np.any(idx >= width):
        raise DataFormatError(
            f"{name} must list strictly increasing filter indices below {width}"
        )
    return idx


def _placed(stored: np.ndarray, full: np.ndarray, keep, kind: int, name: str) -> np.ndarray:
    """The stored part ``keep`` of an array of ``full``'s shape, in float64."""
    expected = full[keep].shape
    if stored.shape != expected:
        raise DataFormatError(
            f"checkpoint array {name} has shape {stored.shape}, expected {expected}"
        )
    if not np.all(np.isfinite(stored)):
        raise DataFormatError(f"non-finite values in checkpoint array {name}")
    if kind == KIND_QSCALE and np.any(stored <= 0):
        raise DataFormatError(f"non-positive quantizer scale in checkpoint array {name}")
    # a removed filter's weight scale is 1, every other removed value 0
    out = np.full_like(full, 1.0 if kind == KIND_QSCALE else 0.0)
    out[keep] = stored
    return out


def _assign(model: FlowModel, arrays: dict):
    """Set ``model`` in place to the stored ``arrays`` (name -> array): first
    each gated block freezes to its kept-index lists, which drops its gates
    and decides every keep, then every other array."""
    index = [(name, blk) for kind, name, blk, _ in _named_entries(model) if kind == KIND_INDEX]
    for (name_a, blk), (name_b, _) in zip(index[::2], index[1::2]):
        blk.freeze(_kept_indices(arrays[name_a], blk.width, name_a),
                   _kept_indices(arrays[name_b], blk.width, name_b))
    for kind, name, node, keep in _named_entries(model):
        if kind != KIND_INDEX:
            node.value[...] = _placed(arrays[name], node.value, keep, kind, name)


def deserialize(data: bytes) -> FlowModel:
    if len(data) < len(MAGIC) + 8 or data[: len(MAGIC)] != MAGIC:
        raise DataFormatError("not a flowzip checkpoint (bad magic)")
    body, stored = data[:-8], struct.unpack("<Q", data[-8:])[0]
    if checksum64(body) != stored:
        raise ChecksumError("checkpoint checksum mismatch")
    r = _Reader(body)
    r.take(len(MAGIC))
    version, flags, stage, L, D, blocks, hidden, in_ch = _HEADER.unpack(r.take(_HEADER.size))
    if version != VERSION:
        raise DataFormatError(f"unsupported checkpoint version {version}")
    if stage > LAST_STAGE:
        raise DataFormatError(f"checkpoint stage {stage} is above the last, {LAST_STAGE}")
    if flags & ~(FLAG_ACT_Q | FLAG_WEIGHT_Q | FLAG_GATED):
        raise DataFormatError(f"checkpoint flags {flags:#x} set an undefined bit")
    splits = [r.unpack("<HH") for _ in range(L)]

    cfg = FlowConfig(levels=L, couplings=D, hidden=hidden, blocks=blocks, in_channels=in_ch)
    model = FlowModel(cfg, seed=None)
    model.stage = stage
    model.act_quant = bool(flags & FLAG_ACT_Q)
    model.weight_quant = bool(flags & FLAG_WEIGHT_Q)
    for lvl, (ret, fac) in zip(model.levels, splits):
        if (lvl.retained, lvl.factored) != (ret, fac):
            raise DataFormatError("checkpoint split sizes do not match architecture")
    if flags & FLAG_GATED:  # all kept until the lists are read: every array reads at full width
        for blk in model.blocks():
            blk.freeze(np.arange(blk.width), np.arange(blk.width))

    (count,) = r.unpack("<I")
    entries = list(_named_entries(model))
    if count != len(entries):
        raise DataFormatError(
            f"checkpoint holds {count} arrays, model expects {len(entries)}"
        )
    arrays = {}
    for kind, name, obj, _ in entries:
        akind, ndim = r.unpack("<BB")
        if akind != kind:
            raise DataFormatError(f"array kind mismatch at {name}")
        shape = r.unpack(f"<{ndim}I")
        # no stored array exceeds its full-width shape
        full = (obj.width,) if kind == KIND_INDEX else obj.value.shape
        if ndim != len(full) or any(n > f for n, f in zip(shape, full)):
            raise DataFormatError(
                f"checkpoint array {name} has shape {shape}, larger than {full}"
            )
        raw = r.take(4 * math.prod(shape))
        dtype = "<u4" if kind == KIND_INDEX else "<f4"
        arrays[name] = np.frombuffer(raw, dtype=dtype).reshape(shape)
    if r.pos != len(body):
        raise DataFormatError("trailing bytes in checkpoint")
    _assign(model, arrays)
    if model.act_quant and model.weight_quant:
        # bound every int-path accumulator now, not at the first compress
        model.int_plan()
    return model


def round_to_stored(model: FlowModel):
    """Set ``model`` in place to exactly what its checkpoint stores, through
    ``deserialize``'s assignment: float32 values, each gated block's kept
    sets in place of its gates, and removed filters at weight and bias 0 and
    weight scale 1. Then ``model`` and ``deserialize(serialize(model))`` hold
    the same arrays."""
    _assign(model, {name: arr for _, name, arr in _stored_arrays(model)})


def save_model(model: FlowModel, path: str):
    """Write the checkpoint, whose trailer is the model's checksum. Writing
    changes nothing in ``model``: to compute as ``load_model(path)`` does, a
    float64 model is first rounded with ``round_to_stored``, as
    ``train.Trainer.run`` does at the end of every stage.
    """
    data = serialize(model)
    try:
        with open(path, "wb") as f:
            f.write(data)
    except OSError as e:
        raise UsageError(f"cannot write checkpoint: {e}") from e


def load_model(path: str) -> FlowModel:
    """Read a checkpoint; ``deserialize`` checks its trailer."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        raise DataFormatError(f"cannot read checkpoint: {e}") from e
    return deserialize(data)
