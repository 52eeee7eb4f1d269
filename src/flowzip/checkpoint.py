"""Versioned binary checkpoint format.

Layout (little-endian):

    magic   8 bytes  "IODFCKPT"
    version u16      format version (1)
    flags   u16      bit0 gated, bit1 act_quant, bit2 weight_quant, bit3 pruned
    stage   u8       last completed training stage (0..5)
    L, D, blocks u8  architecture
    hidden  u16
    in_ch   u8
    splits  L x (retained u16, factored u16)
    count   u32      number of arrays
    arrays  count x (kind u8 | ndim u8 | ndim x u32 dims | payload)
             kind 0: f32 parameters   kind 1: f32 gates
             kind 2: f32 quantizer scales   kind 3: u32 kept-filter indices
    checksum u64     blake2b-64 of all preceding bytes

Arrays appear in model declaration order. Parameters are stored as 32-bit
floats; in memory the model computes in float64. Every array's shape is
checked against the architecture: no stored shape may exceed the full-width
one as it is read, and each must match exactly before it is assigned.

A pruned checkpoint (flag bit3) is the storage form of a gated model whose
gates are frozen at 0 or 1. Each coupling-net block stores only its kept
filters -- conv A's kept rows, conv B's kept rows and kept conv-A columns,
with their biases and weight scales -- then its kept-index lists idx_a and
idx_b (strictly increasing, below the block width), and no gates. Loading
places the kept filters into full-width arrays (a removed filter gets zero
weight and bias and a weight scale of 1) and rebuilds binary gates from the
lists, so a loaded pruned model computes exactly what the gated one did.
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

KIND_PARAM, KIND_GATE, KIND_QSCALE, KIND_INDEX = 0, 1, 2, 3

FLAG_GATED, FLAG_ACT_Q, FLAG_WEIGHT_Q, FLAG_PRUNED = 1, 2, 4, 8


def checksum64(data: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


def _named_entries(model: FlowModel):
    """Yield (kind, name, obj, keep) in fixed declaration order.

    For kinds 0-2, ``obj`` is a Node and ``keep`` indexes the stored part of
    its value: all of it (``...``), or the kept filters of a pruned block's
    conv. For kind 3, ``obj`` is the GateVector and ``keep`` its kept-index
    list. Gates are serialized only for gated unpruned models; kept-index
    lists only for pruned ones; quantizer scales only once quantization is on.
    """
    gated = model.gated and not model.pruned

    def conv_entries(prefix, layer, quantizable, rows=..., cols=None):
        w_keep = rows if cols is None else np.ix_(rows, cols)
        yield KIND_PARAM, f"{prefix}.w", layer.w, w_keep
        yield KIND_PARAM, f"{prefix}.b", layer.b, rows
        if gated and layer.gate is not None:
            yield KIND_GATE, f"{prefix}.gate", layer.gate.node, ...
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
                if model.pruned and q:
                    ka, kb = blk.kept_sets()
                    yield from conv_entries(f"{bp}.conv_a", blk.conv_a, q, ka)
                    yield from conv_entries(f"{bp}.conv_b", blk.conv_b, q, kb, ka)
                    yield KIND_INDEX, f"{bp}.idx_a", blk.conv_a.gate, ka
                    yield KIND_INDEX, f"{bp}.idx_b", blk.conv_b.gate, kb
                else:
                    yield from conv_entries(f"{bp}.conv_a", blk.conv_a, q)
                    yield from conv_entries(f"{bp}.conv_b", blk.conv_b, q)
                if model.act_quant and q:
                    yield KIND_QSCALE, f"{bp}.q_in", blk.q_in, ...
                    yield KIND_QSCALE, f"{bp}.q_mid", blk.q_mid, ...
            yield from conv_entries(f"{name}.out", net.out, q)
            if model.act_quant and q:
                yield KIND_QSCALE, f"{name}.q_out", net.q_out, ...
    yield KIND_PARAM, "final.mu", model.final_mu, ...
    yield KIND_PARAM, "final.log_s", model.final_log_s, ...


def named_parameters(model: FlowModel):
    """(kind, name, Node) of everything the optimizer may touch; the kind is
    KIND_PARAM, KIND_GATE or KIND_QSCALE."""
    for kind, name, obj, _ in _named_entries(model):
        if kind != KIND_INDEX:
            yield kind, name, obj


def serialize(model: FlowModel) -> bytes:
    parts = [MAGIC]
    flags = (
        (FLAG_GATED if model.gated and not model.pruned else 0)
        | (FLAG_ACT_Q if model.act_quant else 0)
        | (FLAG_WEIGHT_Q if model.weight_quant else 0)
        | (FLAG_PRUNED if model.pruned else 0)
    )
    cfg = model.cfg
    parts.append(
        struct.pack(
            "<HHBBBBHB",
            VERSION,
            flags,
            model.stage,
            cfg.levels,
            cfg.couplings,
            cfg.blocks,
            cfg.hidden,
            cfg.in_channels,
        )
    )
    for lvl in model.levels:
        parts.append(struct.pack("<HH", lvl.retained, lvl.factored))

    arrays = []
    for kind, _, obj, keep in _named_entries(model):
        if kind == KIND_INDEX:
            arrays.append((kind, keep.astype(np.uint32)))
        else:
            arrays.append((kind, obj.value[keep].astype(np.float32)))
    parts.append(struct.pack("<I", len(arrays)))
    for kind, arr in arrays:
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


def deserialize(data: bytes) -> FlowModel:
    if len(data) < len(MAGIC) + 8 or data[: len(MAGIC)] != MAGIC:
        raise DataFormatError("not a flowzip checkpoint (bad magic)")
    body, stored = data[:-8], struct.unpack("<Q", data[-8:])[0]
    if checksum64(body) != stored:
        raise ChecksumError("checkpoint checksum mismatch")
    r = _Reader(body)
    r.take(len(MAGIC))
    version, flags, stage, L, D, blocks, hidden, in_ch = r.unpack("<HHBBBBHB")
    if version != VERSION:
        raise DataFormatError(f"unsupported checkpoint version {version}")
    splits = [r.unpack("<HH") for _ in range(L)]

    cfg = FlowConfig(levels=L, couplings=D, hidden=hidden, blocks=blocks, in_channels=in_ch)
    model = FlowModel(cfg, seed=0)
    model.stage = stage
    model.act_quant = bool(flags & FLAG_ACT_Q)
    model.weight_quant = bool(flags & FLAG_WEIGHT_Q)
    model.pruned = bool(flags & FLAG_PRUNED)
    for lvl, (ret, fac) in zip(model.levels, splits):
        if (lvl.retained, lvl.factored) != (ret, fac):
            raise DataFormatError("checkpoint split sizes do not match architecture")
    if flags & (FLAG_GATED | FLAG_PRUNED):
        model.attach_gates(0.8)

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
        # no stored array, pruned or not, exceeds its full-width shape
        full = (len(obj.g),) if kind == KIND_INDEX else obj.value.shape
        if ndim != len(full) or any(n > f for n, f in zip(shape, full)):
            raise DataFormatError(
                f"checkpoint array {name} has shape {shape}, larger than {full}"
            )
        raw = r.take(4 * math.prod(shape))
        dtype = "<u4" if kind == KIND_INDEX else "<f4"
        arrays[name] = np.frombuffer(raw, dtype=dtype).reshape(shape)
    if r.pos != len(body):
        raise DataFormatError("trailing bytes in checkpoint")
    # kept-index lists first: the gates they rebuild decide the pruned shapes
    for kind, name, gate, _ in entries:
        if kind == KIND_INDEX:
            gate.node.value[...] = 0.0
            gate.node.value[_kept_indices(arrays[name], len(gate.g), name)] = 1.0
    for kind, name, node, keep in _named_entries(model):
        if kind != KIND_INDEX:
            node.value = _placed(arrays[name], node.value, keep, kind, name)
    if model.act_quant and model.weight_quant:
        # bound every int-path accumulator now, not at the first compress
        model.int_plan()
    return model


def round_to_stored(model: FlowModel):
    """Set every array a checkpoint stores to the float32 value it stores, in
    place. Then ``model`` and the model that ``deserialize(serialize(model))``
    returns compute the same on every path."""
    for kind, _, node, keep in _named_entries(model):
        if kind != KIND_INDEX:
            node.value[keep] = node.value[keep].astype(np.float32)


def save_model(model: FlowModel, path: str):
    """Write the checkpoint, whose trailer is the model's checksum. Writing
    changes nothing in ``model``: to compute as ``load_model(path)`` does, a
    float64 model is first rounded with ``round_to_stored``, as
    ``train.run_pipeline`` does at the end of every stage.
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
