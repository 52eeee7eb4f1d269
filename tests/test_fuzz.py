"""Parsers of untrusted input raise only FlowzipError, whatever the bytes.

Each fuzzer draws inputs that are mostly well-formed, so they reach past
the first check, with hostile pieces spliced in: wrong lengths, huge
numbers, stray comments, invalid UTF-8.
"""

import struct
from dataclasses import fields

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowzip import checkpoint, codec
from flowzip.data import U8T_MAGIC, read_ppm, read_u8t
from flowzip.errors import FlowzipError
from flowzip.model import FlowConfig, FlowModel
from flowzip.train import TrainConfig

from helpers import gated_int_model, rechecksummed, stored_arrays

FUZZ = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def _only_flowzip_errors(parse, *args):
    try:
        parse(*args)
    except FlowzipError:
        pass


_ppm_token = st.one_of(
    st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b"# c\n", b"#", b"\x00", b"-", b"255"]),
    st.integers(0, 10**12).map(lambda v: str(v).encode()),
    st.binary(max_size=6),
)


@FUZZ
@given(
    st.sampled_from([b"P6", b"P6\n", b"P5", b""]),
    st.lists(_ppm_token, max_size=12),
    st.binary(max_size=64),
)
def test_read_ppm_raises_only_flowzip_errors(tmp_path, magic, tokens, body):
    path = tmp_path / "f.ppm"
    path.write_bytes(magic + b"".join(tokens) + body)
    _only_flowzip_errors(read_ppm, str(path))


@FUZZ
@given(
    st.sampled_from([U8T_MAGIC, b"U8T0", b""]),
    st.integers(0, 255),
    st.integers(0, 65535),
    st.integers(0, 65535),
    st.binary(max_size=64),
    st.integers(0, 12),
)
def test_read_u8t_raises_only_flowzip_errors(tmp_path, magic, c, h, w, body, cut):
    path = tmp_path / "f.u8t"
    header = magic + bytes([c]) + struct.pack("<HH", h, w)
    path.write_bytes((header + body)[: len(header) + len(body) - cut])
    _only_flowzip_errors(read_u8t, str(path))


_config_key = st.sampled_from([f.name for f in fields(TrainConfig)] + ["nokey", ""])
_config_value = st.one_of(
    st.sampled_from(["1", "0", "-1", "nan", "inf", "1e999", "1, 2", ",", "true", "9" * 5000]),
    st.text(max_size=8),
)
_config_line = st.one_of(
    st.tuples(_config_key, _config_value).map(lambda kv: f"{kv[0]} = {kv[1]}".encode()),
    st.sampled_from([b"# comment", b"", b"=", b"no equals sign"]),
    st.binary(max_size=8),
)


@FUZZ
@given(st.lists(_config_line, max_size=8))
def test_config_raises_only_flowzip_errors(tmp_path, lines):
    path = tmp_path / "f.cfg"
    path.write_bytes(b"\n".join(lines))
    _only_flowzip_errors(TrainConfig.from_file, str(path))


@given(
    st.sampled_from([codec.MAGIC, b"IODF0", b""]),
    st.integers(0, 255),
    st.binary(min_size=29, max_size=29),
    st.integers(0, 40),
    st.binary(max_size=48),
)
@settings(max_examples=300, deadline=None)
def test_parse_container_raises_only_flowzip_errors(magic, version, fields_, claimed, payload):
    # the last header field is the payload length: make it often near the truth
    header = magic + bytes([version]) + fields_[:-4] + struct.pack("<I", claimed)
    _only_flowzip_errors(codec._parse_container, header + payload)
    _only_flowzip_errors(codec._parse_container, (header + payload)[: len(magic) + version % 40])


def _checkpoint_bodies():
    """(body, offsets of the header fields and array headers) of a gated
    checkpoint, which stores kept filters and kept-index lists, and an
    ungated one; mutations aimed there get past the first check."""
    out = []
    for m in (gated_int_model(), FlowModel(FlowConfig(hidden=8, couplings=2, blocks=1))):
        blob = checkpoint.serialize(m)
        spots = list(range(len(checkpoint.MAGIC), len(checkpoint.MAGIC) + 30))
        for off, arr in stored_arrays(blob, m).values():
            spots.extend(range(off - 2 - 4 * arr.ndim, off + 4))
        out.append((blob[:-8], spots))
    return out


_BODIES = _checkpoint_bodies()
_edit = st.tuples(
    st.integers(0, 2**16),  # an aimed spot, or any byte (see below)
    st.booleans(),
    st.sampled_from([b"\x00", b"\xff", b"\x01", b"\x80\x7f", b"\xff\xff\xff\xff"])
    | st.binary(min_size=1, max_size=4),
)


@given(
    st.integers(0, 1),
    st.lists(_edit, min_size=1, max_size=4),
    st.integers(0, 3),
    st.integers(0, 2**16),
)
@settings(max_examples=300, deadline=None)
def test_deserialize_raises_only_flowzip_errors(which, edits, resize, where):
    # every mutant carries a valid checksum, so it reaches the parser proper
    body, spots = _BODIES[which]
    data = bytearray(body)
    for pos, aimed, chunk in edits:
        pos = spots[pos % len(spots)] if aimed else pos % len(data)
        data[pos : pos + len(chunk)] = chunk
    if resize == 1:
        del data[where % len(data):]
    elif resize == 2:
        data[where % len(data):where % len(data)] = b"\x00\x00\x00\x00"
    _only_flowzip_errors(checkpoint.deserialize, rechecksummed(bytes(data)))
