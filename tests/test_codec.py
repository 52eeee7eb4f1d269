"""Container format and end-to-end compression semantics."""

import os
import struct
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from flowzip import checkpoint, codec
from flowzip.checkpoint import checksum64, load_model, round_to_stored, save_model
from flowzip.data import gen_synth
from flowzip.errors import (
    AlphabetOverflowError,
    ChecksumError,
    CorruptStreamError,
    DataFormatError,
    FlowzipError,
)
from flowzip.model import FlowConfig, FlowModel, FlowResult
from flowzip.train import calibrate_activations, calibrate_weights

from helpers import ROOT, gated_int_model, load_perfbench


def _model(seed=0, spread=0.05, cfg=None):
    model = FlowModel(cfg or FlowConfig(hidden=8, couplings=2, blocks=1), seed=seed)
    rng = np.random.default_rng(seed + 1)
    for net in model.coupling_nets():
        net.out.w.value[...] = rng.normal(0, spread, net.out.w.value.shape)
        net.out.b.value[...] = rng.normal(0, 4 * spread, net.out.b.value.shape)
    return model


def _quantized_model(seed=0):
    model = _model(seed)
    calib = gen_synth(99, 16)
    model.act_quant = True
    calibrate_activations(model, calib)
    model.weight_quant = True
    calibrate_weights(model)
    return model


def test_roundtrip_100_random_images_all_paths():
    x = gen_synth(21, 100)
    model = _quantized_model()
    for path in ("float", "fake", "int"):
        container, stats = codec.compress(x, model, path)
        back = codec.decompress(container, model, path)
        assert np.array_equal(back, x), f"{path} path not lossless"
        assert stats["coding_bpd"] >= stats["analytic_bpd"] - 0.001


def test_compress_deterministic():
    x = gen_synth(4, 10)
    model = _model()
    a, _ = codec.compress(x, model, "float")
    b, _ = codec.compress(x, model, "float")
    assert a == b


def _row(a, i):
    # the final level's prior has batch dimension 1 and serves every image
    return a if a.shape[0] == 1 else a[i : i + 1]


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_latents_do_not_depend_on_batch_split():
    # every conv folds its batch into one GEMM: the int path's integer convs
    # are exact in any order, the float convs (all of the float and fake
    # paths, the int stems and the prior nets) rest on BLAS summing each
    # output in the same order for any batch, which holds at desk size
    x = gen_synth(4, 70)
    model = _quantized_model()
    for path in ("float", "fake", "int"):
        whole = model.flow_forward(x, path)
        for i in range(len(x)):
            one = model.flow_forward(x[i : i + 1], path)
            for li, (mu, log_s) in enumerate(whole.priors):
                assert _same_bits(whole.latents[li][i : i + 1], one.latents[li]), path
                assert _same_bits(_row(mu, i), one.priors[li][0]), path
                assert _same_bits(_row(log_s, i), one.priors[li][1]), path
            assert _same_bits(whole.log2p[i : i + 1], one.log2p), path


def test_forward_slice_does_not_change_container(monkeypatch):
    x = gen_synth(12, 70)  # crosses the 64-image slice boundary
    model = _quantized_model()
    for path in ("float", "fake", "int"):
        container, stats = codec.compress(x, model, path)
        assert np.array_equal(codec.decompress(container, model, path), x), path
        monkeypatch.setattr(codec, "FORWARD_SLICE", 16)
        assert codec.compress(x, model, path) == (container, stats), path
        assert np.array_equal(codec.decompress(container, model, path), x), path
        monkeypatch.undo()


def test_header_image_size_must_fit_the_flow():
    model = _quantized_model()
    container, _ = codec.compress(gen_synth(7, 2), model, "int")
    for h, w in ((18, 18), (0, 16), (16, 0), (16, 10)):
        bad = container[:14] + struct.pack("<HH", h, w) + container[18:]
        with pytest.raises(DataFormatError, match="positive multiples"):
            codec.decompress(bad, model, "int")
    one_channel = container[:18] + bytes([1]) + container[19:]
    with pytest.raises(DataFormatError, match="expected"):
        codec.decompress(one_channel, model, "int")


def _with_count(container, count):
    return container[:19] + struct.pack("<I", count) + container[23:]


def test_hostile_header_sizes_are_refused_before_allocating():
    model = _quantized_model()
    container, _ = codec.compress(gen_synth(7, 2), model, "int")
    huge_images = container[:14] + struct.pack("<HH", 65532, 65532) + container[18:]
    for bad in (_with_count(container, 2**32 - 1), huge_images):
        tracemalloc.start()
        try:
            with pytest.raises(DataFormatError, match="cap"):
                codec.decompress(bad, model, "int")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20
    too_many = np.broadcast_to(np.zeros(1, dtype=np.uint8), (1, 3, 4096, 4096))
    with pytest.raises(DataFormatError, match="cap"):
        codec.compress(too_many, model, "int")


@pytest.mark.parametrize("hw", [(4, 65536), (65536, 4)])
def test_compress_refuses_sides_the_header_cannot_store(monkeypatch, hw):
    # the header stores h and w as u16; a wider side is refused before the
    # flow runs, not by struct.pack once it has
    model = _quantized_model()
    monkeypatch.setattr(model, "flow_forward", lambda *a: pytest.fail("the flow ran"))
    image = np.broadcast_to(np.zeros(1, dtype=np.uint8), (1, 3) + hw)
    with pytest.raises(DataFormatError, match="65535-pixel side"):
        codec.compress(image, model, "int")


def test_container_version_and_count_are_checked():
    x = gen_synth(13, 3)
    model = _quantized_model()
    for path in ("float", "fake", "int"):
        container, _ = codec.compress(x, model, path)
        for version in (1, 2):
            old = container[:5] + bytes([version]) + container[6:]
            with pytest.raises(DataFormatError, match=f"container version {version}"):
                codec.decompress(old, model, path)
        for count in (0, 2, 4):
            with pytest.raises(FlowzipError):
                codec.decompress(_with_count(container, count), model, path)


_ONE_THREAD_CHILD = textwrap.dedent("""
    import sys
    from pathlib import Path
    from flowzip import codec
    from flowzip.checkpoint import load_model
    from flowzip.data import gen_synth
    work = Path(sys.argv[1])
    model = load_model(str(work / "model.ckpt"))
    container = (work / "int.iodf").read_bytes()
    (work / "decoded.bin").write_bytes(codec.decompress(container, model, "int").tobytes())
    x = gen_synth(int(sys.argv[2]), int(sys.argv[3]))
    (work / "again.iodf").write_bytes(codec.compress(x, model, "int")[0])
""")


def test_int_container_is_exact_under_one_blas_thread(tmp_path):
    """The int path is the portable one: a container compressed here decodes
    bitwise equal, and the images re-compress to the same bytes, in a child
    process limited to one BLAS thread."""
    seed, count = 17, 8
    x = gen_synth(seed, count)
    model = _quantized_model()
    round_to_stored(model)  # the values the child loads
    container, _ = codec.compress(x, model, "int")
    save_model(model, str(tmp_path / "model.ckpt"))
    (tmp_path / "int.iodf").write_bytes(container)
    src = str(Path(codec.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    child = subprocess.run(
        [sys.executable, "-c", _ONE_THREAD_CHILD, str(tmp_path), str(seed), str(count)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert child.returncode == 0, child.stderr
    assert (tmp_path / "decoded.bin").read_bytes() == x.tobytes()
    assert (tmp_path / "again.iodf").read_bytes() == container


@pytest.fixture(scope="module")
def desk_checkpoint(tmp_path_factory):
    """The benchmark's stage-5 desk model in memory, and its checkpoint file."""
    fixture = load_perfbench("fixture")
    model = fixture.build_model(fixture.desk_config(str(ROOT)), 5)
    path = str(tmp_path_factory.mktemp("desk") / "model.ckpt")
    round_to_stored(model)
    save_model(model, path)
    return model, path


def test_models_loaded_from_one_checkpoint_agree_on_every_path(desk_checkpoint):
    _, ckpt = desk_checkpoint
    writer, reader = load_model(ckpt), load_model(ckpt)
    x = gen_synth(7, 70)
    for path in ("float", "fake", "int"):
        container, _ = codec.compress(x, writer, path)
        assert np.array_equal(codec.decompress(container, reader, path), x), path


def test_in_memory_container_decodes_exactly_under_loaded_model(desk_checkpoint):
    # round_to_stored sets the model to the float32 values save_model
    # writes, so the model and the one loaded from its file compute the same
    # on every path
    # (before, a fake container of these images failed its image checksum)
    model, ckpt = desk_checkpoint
    loaded = load_model(ckpt)
    x = gen_synth(7, 70)
    for path in ("float", "fake", "int"):
        container, _ = codec.compress(x, model, path)
        assert np.array_equal(codec.decompress(container, loaded, path), x), path
        assert container == codec.compress(x, loaded, path)[0], path


def test_compress_builds_each_blocks_tables_in_one_call(desk_checkpoint, monkeypatch):
    # one desk image codes two blocks, the final latent and the factored
    # half, each with a table per channel: each block's distinct tables come
    # from one mass_table call, and building them key by key again fails here
    calls = []
    build = codec.mass_table

    def counted(mu, s, *args):
        calls.append(list(zip(mu.tolist(), s.tolist())))
        return build(mu, s, *args)

    monkeypatch.setattr(codec, "mass_table", counted)
    model, _ = desk_checkpoint
    x = gen_synth(5, 1)
    container, _ = codec.compress(x, model, "int")
    assert len(calls) == len(model.levels) == 2
    assert all(len(set(keys)) == len(keys) for keys in calls)
    assert np.array_equal(codec.decompress(container, model, "int"), x)


def test_reference_container_is_byte_identical():
    # the benchmark's byte-identity gate, in Tier-1: the stage-5 fixture
    # compresses its reference input, gen_synth(20220617, 64), on the int
    # path to the same container bytes. The payload after the 35-byte header
    # is pinned on its own, so a change to the model id in the header cannot
    # hide a change to the coding.
    fixture = load_perfbench("fixture")
    model = fixture.build_model(fixture.desk_config(str(ROOT)), 5)
    container, _ = codec.compress(gen_synth(20220617, 64), model, "int")
    assert fixture.digest(container[35:]) == "4e9c70f1f654eab83410427b17149938"
    assert fixture.digest(container) == "22facb071703accf5935d234e282d8be"


def test_default_path_follows_the_model():
    # int for a weight-quantized model, float for any other
    x = gen_synth(12, 3)
    for model, path in ((_quantized_model(), "int"), (_model(), "float")):
        container, _ = codec.compress(x, model)
        assert container == codec.compress(x, model, path)[0], path
        assert np.array_equal(codec.decompress(container, model), x)


def test_keys_for_bounds_the_table_keys():
    # the bound that caps one call's tables at 65 * 164: frac keys in
    # [-32, 32] and log-s keys in [-63, 100], every one reachable
    rng = np.random.default_rng(0)
    n = 200_000
    mu = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3, 20, n)
    log_s = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3, 20, n)
    edges = np.array([np.inf, -np.inf, np.finfo(np.float64).max, -np.finfo(np.float64).max])
    k, frac, ls = codec.keys_for((n + 4,), np.append(mu, edges), np.append(log_s, edges))
    assert np.array_equal(np.unique(frac), np.arange(-32, 33))
    assert np.array_equal(np.unique(ls), np.arange(-63, 101))


def test_checksum_binds_model_and_path():
    x = gen_synth(5, 4)
    model = _quantized_model()
    container, _ = codec.compress(x, model, "float")
    with pytest.raises(ChecksumError):
        codec.decompress(container, model, "int")
    other = _quantized_model(seed=7)
    with pytest.raises(ChecksumError):
        codec.decompress(container, other, "float")


def test_model_field_is_checkpoint_trailer_with_path(tmp_path):
    """Header bytes 6..13 are blake2b-64 of (checkpoint file trailer || path tag)."""
    model = _quantized_model()
    save_model(model, str(tmp_path / "model.ckpt"))
    trailer = (tmp_path / "model.ckpt").read_bytes()[-8:]
    x = gen_synth(8, 2)
    for path in ("float", "fake", "int"):
        container, _ = codec.compress(x, model, path)
        want = checksum64(trailer + path.encode())
        assert container[6:14] == want.to_bytes(8, "little"), path


def test_compress_hashes_the_checkpoint_once(monkeypatch):
    """One compress hashes the checkpoint body once (inside serialize), the
    images once, and a few bytes more: the trailer and the path tag."""
    model = _quantized_model()
    x = gen_synth(9, 3)
    ckpt_bytes = len(checkpoint.serialize(model))
    hashed = []

    def recording(data):
        hashed.append(len(data))
        return checksum64(data)

    monkeypatch.setattr(codec, "checksum64", recording)
    monkeypatch.setattr(checkpoint, "checksum64", recording)
    codec.compress(x, model, "int")
    assert sum(hashed) <= ckpt_bytes + x.nbytes + 16, hashed


def test_tampered_payload_never_crashes():
    # mutations across the whole payload of an int container, the length
    # field kept consistent: bit flips at a stride, a replaced word, a
    # replaced final coder state (still in range) and a word cut out. Each
    # ends in a FlowzipError, with no other exception and no warning.
    x = gen_synth(6, 2)
    model = gated_int_model()
    container, _ = codec.compress(x, model, "int")
    header, payload = container[:31], container[35:]
    mid = 4 * ((len(payload) - 8) // 8)  # a word in the middle
    (state,) = struct.unpack("<Q", payload[-8:])
    cases = [
        payload[:mid] + bytes([0xA5, 0x5A, 0x0F, 0xF0]) + payload[mid + 4 :],
        payload[:-8] + struct.pack("<Q", state ^ 0x5A5A5A5A),
        payload[:mid] + payload[mid + 4 :],
    ]
    for offset in range(0, len(payload), 23):
        flipped = bytearray(payload)
        flipped[offset] ^= 1 << (offset % 8)
        cases.append(bytes(flipped))
    for corrupt in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FlowzipError):
                codec.decompress(header + struct.pack("<I", len(corrupt)) + corrupt, model, "int")


def test_image_checksum_is_checked():
    x = gen_synth(6, 4)
    model = _model()
    container, _ = codec.compress(x, model, "float")
    assert container[23:31] == checksum64(x.tobytes()).to_bytes(8, "little")
    for offset in (23, 30):
        corrupt = bytearray(container)
        corrupt[offset] ^= 0x01
        with pytest.raises(CorruptStreamError, match="image checksum"):
            codec.decompress(bytes(corrupt), model, "float")


def test_truncated_container_errors():
    x = gen_synth(6, 2)
    model = _model()
    container, _ = codec.compress(x, model, "float")
    with pytest.raises(DataFormatError):
        codec.decompress(container[: len(container) // 2], model, "float")
    with pytest.raises(DataFormatError):
        codec.decompress(b"JUNK" + container, model, "float")
    with pytest.raises(DataFormatError):
        codec.decompress(container + b"\x00", model, "float")


def test_latent_overflow_is_diagnosed():
    model = _model()
    # a huge coupling bias pushes latents far outside the alphabet window
    net = model.levels[0].couplings[0].net
    net.out.b.value[...] = 6000.0
    x = gen_synth(1, 2)
    with pytest.raises(AlphabetOverflowError, match="widened"):
        codec.compress(x, model, "float")


def test_wrong_decode_order_fails_roundtrip(monkeypatch):
    """Decoding a conditioned latent before its conditioner must not survive
    a round trip: hand compress the latents deepest first and expect failure."""
    x = gen_synth(8, 3)
    model = _model()
    flow_forward = FlowModel.flow_forward

    def reversed_levels(self, images, path):
        res = flow_forward(self, images, path)
        return FlowResult(res.latents[::-1], res.priors[::-1], res.log2p)

    monkeypatch.setattr(FlowModel, "flow_forward", reversed_levels)
    container, _ = codec.compress(x, model, "float")
    monkeypatch.undo()
    with pytest.raises(FlowzipError):
        codec.decompress(container, model, "float")


def test_empty_and_single_image_containers():
    model = _model()
    x = gen_synth(9, 1)
    container, stats = codec.compress(x, model, "float")
    back = codec.decompress(container, model, "float")
    assert np.array_equal(back, x)
    assert stats["payload_bytes"] >= 8
    with pytest.raises(DataFormatError):
        codec.compress(x[:0], model, "float")


def test_gap_small_even_untrained():
    # fixed coder overhead amortizes across the batch; the remaining gap is
    # the frequency floor plus table quantization
    x = gen_synth(3, 64)
    model = _model()
    _, stats = codec.compress(x, model, "float")
    gap = stats["coding_bpd"] - stats["analytic_bpd"]
    assert -0.001 <= gap <= 0.02


def test_mass_conservation_across_paths():
    x = gen_synth(31, 6)
    model = _quantized_model(3)
    sizes = {}
    for path in ("float", "fake", "int"):
        container, stats = codec.compress(x, model, path)
        sizes[path] = stats["coding_bpd"]
    # paths are different models of the data; all must be near each other here
    assert max(sizes.values()) - min(sizes.values()) < 0.5
