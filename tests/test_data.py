"""Synthetic generator determinism and image file round trips."""

import time

import numpy as np
import pytest

from flowzip.data import (
    gen_synth,
    load_dataset,
    read_image,
    read_ppm,
    write_image,
    write_ppm,
    write_u8t,
)
from flowzip.errors import DataFormatError


def test_gen_synth_deterministic():
    a = gen_synth(42, 5)
    b = gen_synth(42, 5)
    assert a.dtype == np.uint8 and a.shape == (5, 3, 16, 16)
    assert np.array_equal(a, b)


def test_gen_synth_seed_sensitivity():
    assert not np.array_equal(gen_synth(1, 3), gen_synth(2, 3))


def test_gen_synth_value_diversity():
    imgs = gen_synth(7, 100)
    assert len(np.unique(imgs)) >= 64


def test_gen_synth_spatial_correlation():
    imgs = gen_synth(11, 20).astype(np.float64)
    dx = np.abs(np.diff(imgs, axis=3)).mean()
    rng = np.random.default_rng(0)
    shuffled = imgs.copy().reshape(20, -1)
    rng.shuffle(shuffled, axis=1)
    dx_shuffled = np.abs(np.diff(shuffled.reshape(imgs.shape), axis=3)).mean()
    assert dx < 0.5 * dx_shuffled  # neighbors are far closer than random pairs


def test_ppm_roundtrip_bytes(tmp_path):
    img = gen_synth(3, 1)[0]
    p = str(tmp_path / "a.ppm")
    write_ppm(p, img)
    assert np.array_equal(read_ppm(p), img)
    write_ppm(str(tmp_path / "b.ppm"), read_ppm(p))
    assert open(p, "rb").read() == open(str(tmp_path / "b.ppm"), "rb").read()


def test_ppm_reads_comments_and_whitespace(tmp_path):
    img = gen_synth(3, 1)[0]
    p = str(tmp_path / "c.ppm")
    body = np.ascontiguousarray(img.transpose(1, 2, 0)).tobytes()
    with open(p, "wb") as f:
        f.write(b"P6\n# a comment\n 16\t16\n255\n" + body)
    assert np.array_equal(read_ppm(p), img)


@pytest.mark.parametrize("h, w", [(0, 16), (-4, 16), (16, 0), (16, -8)])
def test_gen_synth_rejects_non_positive_dims(h, w):
    with pytest.raises(DataFormatError, match="positive multiples"):
        gen_synth(0, 1, h, w)


def test_ppm_errors(tmp_path):
    p = str(tmp_path / "bad.ppm")
    open(p, "wb").write(b"P5\n1 1\n255\n\x00")
    with pytest.raises(DataFormatError):
        read_ppm(p)
    open(p, "wb").write(b"P6\n4 4\n255\nshort")
    with pytest.raises(DataFormatError):
        read_ppm(p)


def test_ppm_header_scan_is_linear(tmp_path):
    # a 1 MiB run of header whitespace, or of comment lines, fails fast
    p = tmp_path / "ws.ppm"
    for header in (b" " * (1 << 20), b"#\n" * (1 << 19), b" 16" + b"\t" * (1 << 20)):
        p.write_bytes(b"P6" + header)
        start = time.perf_counter()
        with pytest.raises(DataFormatError, match="malformed PPM header"):
            read_ppm(str(p))
        assert time.perf_counter() - start < 5.0


def test_ppm_header_field_of_many_digits_is_data_error(tmp_path):
    p = tmp_path / "big.ppm"
    p.write_bytes(b"P6 " + b"9" * 5000 + b" 1 255\n")
    with pytest.raises(DataFormatError, match="malformed PPM header"):
        read_ppm(str(p))


def test_u8t_roundtrip(tmp_path):
    img = gen_synth(5, 1)[0]
    p = str(tmp_path / "a.u8t")
    write_u8t(p, img)
    assert np.array_equal(read_image(p), img)
    open(p, "ab").write(b"x")
    with pytest.raises(DataFormatError):
        read_image(p)


def test_load_dataset_shape_check(tmp_path):
    a = str(tmp_path / "a.u8t")
    b = str(tmp_path / "b.u8t")
    write_u8t(a, gen_synth(1, 1)[0])
    write_u8t(b, gen_synth(1, 1, h=32, w=32)[0])
    with pytest.raises(DataFormatError):
        load_dataset([a, b])
    with pytest.raises(DataFormatError):
        load_dataset([])
    with pytest.raises(DataFormatError):
        write_image(str(tmp_path / "x.png"), gen_synth(0, 1)[0])
