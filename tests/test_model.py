"""Flow structure: couplings, squeeze, bijectivity, checkpoints."""

import copy
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowzip import autodiff as ad
from flowzip import checkpoint, codec
from flowzip.autodiff import depth_to_space, space_to_depth
from flowzip.checkpoint import deserialize, load_model, round_to_stored, save_model, serialize
from flowzip.data import gen_synth
from flowzip.errors import ChecksumError, DataFormatError
from flowzip.model import (
    CouplingLayer,
    CouplingNet,
    MAX_PARAMS,
    FlowConfig,
    FlowModel,
    SimCtx,
)

from helpers import HOSTILE_CHECKPOINTS, gated_int_model, hostile_checkpoint, rechecksummed

RNG = np.random.default_rng(9)


def _randomize(model, scale=0.05, seed=5):
    rng = np.random.default_rng(seed)
    for net in model.coupling_nets():
        net.out.w.value[...] = rng.normal(0, scale, net.out.w.value.shape)
        net.out.b.value[...] = rng.normal(0, 4 * scale, net.out.b.value.shape)
    return model


def test_squeeze_channel_order():
    x = np.array([[[[1, 2], [3, 4]]]])
    out = space_to_depth(x)
    assert out.shape == (1, 4, 1, 1)
    assert list(out[0, :, 0, 0]) == [1, 2, 3, 4]


def test_squeeze_roundtrip_and_multiset():
    x = RNG.integers(0, 256, (3, 6, 8, 8))
    sq = space_to_depth(x)
    assert np.array_equal(depth_to_space(sq), x)
    assert sorted(sq.ravel()) == sorted(x.ravel())


def test_squeeze_odd_dims_error():
    with pytest.raises(DataFormatError):
        space_to_depth(np.zeros((1, 1, 3, 4)))


def _toy_coupling(channels=4, t_value=3.0):
    net = CouplingNet(channels // 2, channels // 2, 8, 1, RNG)
    net.out.b.value[...] = t_value  # zero weights; output is exactly the bias
    return CouplingLayer(channels, transform_second=True, net=net)


def _sim_t(net, xa):
    return net.forward_sim(xa, SimCtx())


def test_coupling_identity_at_rezero():
    coup = _toy_coupling(t_value=0.0)
    x = RNG.integers(0, 256, (2, 4, 4, 4))
    assert np.array_equal(coup.forward(ad.Node(x), _sim_t).value, x)


def test_coupling_hand_example():
    # t == 3: the transformed half shifts by exactly 3
    coup = _toy_coupling(t_value=3.0)
    x = RNG.integers(0, 200, (1, 4, 4, 4))
    z = coup.forward(ad.Node(x), _sim_t).value.astype(np.int64)
    assert np.array_equal(z[:, :2], x[:, :2])
    assert np.array_equal(z[:, 2:], x[:, 2:] + 3)
    assert np.array_equal(coup.inverse_int_domain(z, _sim_t), x)


@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_flow_bijective_for_random_weights(seed):
    model = _randomize(FlowModel(FlowConfig(hidden=8, couplings=2, blocks=1), seed=1),
                       seed=seed)
    x = np.random.default_rng(seed).integers(0, 256, (1, 3, 8, 8), dtype=np.uint8)
    container, _ = codec.compress(x, model, "float")
    assert np.array_equal(codec.decompress(container, model, "float"), x)


def test_flow_identity_at_init_permutes_input():
    model = FlowModel(FlowConfig(), seed=0)
    x = gen_synth(3, 2)
    res = model.flow_forward(x, "float")
    values = np.concatenate([l.reshape(2, -1) for l in res.latents], axis=1)
    for i in range(2):
        assert sorted(values[i]) == sorted(x[i].ravel().tolist())


def test_flow_rejects_bad_shapes():
    model = FlowModel(FlowConfig(), seed=0)
    with pytest.raises(DataFormatError):
        model.flow_forward(np.zeros((1, 3, 10, 10), dtype=np.uint8), "float")
    with pytest.raises(DataFormatError):
        model.flow_forward(np.zeros((1, 3, 0, 16), dtype=np.uint8), "float")
    with pytest.raises(DataFormatError):
        model.flow_forward(np.zeros((1, 1, 16, 16), dtype=np.uint8), "float")


def test_flow_deterministic():
    model = _randomize(FlowModel(FlowConfig(), seed=0))
    x = gen_synth(1, 3)
    a = model.flow_forward(x, "float")
    b = model.flow_forward(x, "float")
    assert all(np.array_equal(p, q) for p, q in zip(a.latents, b.latents))
    assert np.array_equal(a.log2p, b.log2p)


def test_training_forward_matches_inference_logp():
    model = _randomize(FlowModel(FlowConfig(hidden=8), seed=2))
    x = gen_synth(11, 4)
    res = model.flow_forward(x, "float")
    with ad.no_grad():
        total = model.training_forward(x).value
    assert float(total) == pytest.approx(float(res.log2p.sum()), rel=1e-12)


def test_bpd_of_quarter_probability_toy():
    # a model assigning probability 0.25 to an image costs exactly 2 bits/dim
    log2p = np.log2(0.25)
    d = 1
    assert -log2p / d == 2.0


def test_checkpoint_roundtrip_bitwise():
    model = _randomize(FlowModel(FlowConfig(), seed=0))
    blob = serialize(model)
    clone = deserialize(blob)
    x = gen_synth(2, 2)
    a = model.flow_forward(x, "float")
    b = clone.flow_forward(x, "float")
    # float32 storage rounds the parameters, so compare the clone with a
    # reserialized clone instead of the float64 original
    blob2 = serialize(clone)
    assert blob == blob2
    clone2 = deserialize(blob2)
    c = clone2.flow_forward(x, "float")
    assert all(np.array_equal(p, q) for p, q in zip(b.latents, c.latents))
    assert isinstance(a.latents, list)


def test_checkpoint_corruption_detected(tmp_path):
    model = FlowModel(FlowConfig(hidden=8), seed=0)
    path = str(tmp_path / "m.ckpt")
    save_model(model, path)
    data = bytearray(open(path, "rb").read())
    data[100] ^= 0xFF
    bad = str(tmp_path / "bad.ckpt")
    open(bad, "wb").write(bytes(data))
    with pytest.raises(ChecksumError):
        load_model(bad)
    with pytest.raises(DataFormatError):
        deserialize(b"NOTMAGIC" + bytes(16))


@pytest.mark.parametrize("fault", HOSTILE_CHECKPOINTS)
def test_checkpoint_shapes_are_checked(fault):
    # each blob carries a valid checksum; the arrays do not fit the model
    with pytest.raises(DataFormatError):
        deserialize(hostile_checkpoint(fault))


@pytest.mark.parametrize(
    "cfg",
    [FlowConfig(), FlowConfig(1, 1, 8, 1, 1), FlowConfig(3, 2, 5, 3, 3),
     FlowConfig(2, 4, 32, 2, 3)],
)
def test_param_count_matches_the_built_model(cfg):
    model = FlowModel(cfg, seed=0)
    stored = [
        node.value.size for kind, _, node in checkpoint.named_parameters(model)
        if kind == checkpoint.KIND_PARAM
    ]
    assert cfg.param_count() == sum(stored) <= MAX_PARAMS


@pytest.mark.parametrize(
    "hidden, in_ch, splits, match",
    [(65535, 3, (6, 6, 24, 0), "parameters"), (0, 3, (6, 6, 24, 0), ">= 1"),
     (8, 0, (0, 0, 0, 0), ">= 1")],
)
def test_header_architecture_is_refused_before_allocation(hidden, in_ch, splits, match):
    # a checksum-valid 39-byte checkpoint with no arrays: an architecture that
    # is too large or empty is refused from the header alone, before any
    # weight exists
    header = struct.pack("<HHBBBBHB", checkpoint.VERSION, 0, 1, 2, 4, 2, hidden, in_ch)
    blob = rechecksummed(
        checkpoint.MAGIC + header + struct.pack("<4H", *splits) + struct.pack("<I", 0)
    )
    assert len(blob) == 39
    tracemalloc.start()
    try:
        with pytest.raises(DataFormatError, match=match):
            deserialize(blob)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize(
    "cfg, match",
    [(FlowConfig(couplings=300, hidden=4), "couplings"),
     (FlowConfig(couplings=256, hidden=4), "couplings"),
     (FlowConfig(blocks=256, hidden=4), "blocks"),
     (FlowConfig(levels=256, hidden=4), "levels"),
     (FlowConfig(levels=1, hidden=4, in_channels=256), "in_channels"),
     (FlowConfig(levels=8, couplings=1, hidden=1, blocks=1, in_channels=255), "split field")],
)
def test_architecture_the_header_cannot_store_is_refused(cfg, match):
    # u8 levels, couplings, blocks and in_channels and u16 level splits: a
    # wider architecture is refused before any weight exists, and the widest
    # split that fits (3 * 2**14 last-level channels) is accepted
    with pytest.raises(DataFormatError, match=match):
        FlowModel(cfg)
    FlowConfig(levels=13, couplings=1, hidden=1, blocks=1, in_channels=3).validate()


def test_widest_u8_architecture_round_trips():
    model = FlowModel(FlowConfig(levels=1, couplings=255, hidden=1, blocks=1, in_channels=1))
    assert deserialize(serialize(model)).cfg == model.cfg


def test_checkpoint_preserves_flags_and_stage(tmp_path):
    model = FlowModel(FlowConfig(hidden=8), seed=0)
    model.attach_gates(0.8)
    model.act_quant = True
    model.stage = 4
    path = str(tmp_path / "m.ckpt")
    save_model(model, path)
    clone = load_model(path)
    assert clone.gated and clone.act_quant and not clone.weight_quant
    assert clone.stage == 4
    assert serialize(clone) == (tmp_path / "m.ckpt").read_bytes()


def test_int_path_requires_quantizers():
    model = FlowModel(FlowConfig(hidden=8), seed=0)
    with pytest.raises(DataFormatError):
        model.flow_forward(gen_synth(0, 1), "int")
    with pytest.raises(DataFormatError):
        model.flow_forward(gen_synth(0, 1), "fake")
    with pytest.raises(DataFormatError):
        model.flow_forward(gen_synth(0, 1), "bogus")


def _edit(model: FlowModel, edit: str):
    blk = model.levels[0].couplings[0].net.blocks[0]
    if edit == "round_to_stored":
        round_to_stored(model)
    elif edit == "weight_ulp":
        w = blk.conv_b.w.value
        w.flat[0] = np.nextafter(w.flat[0], np.inf)
    elif edit == "gate_flip":
        g = blk.conv_b.gate.node.value
        g[0] = 0.2 if g[0] > 0.5 else 0.8
    else:
        blk.q_mid.value *= 1.5


@pytest.mark.parametrize("edit", ["round_to_stored", "weight_ulp", "gate_flip", "q_mid_scaled"])
def test_int_plan_follows_in_place_edits(edit):
    # the plan is kept while the model is unchanged and rebuilt after any
    # in-place edit, so the next container is the one a fresh model with the
    # edited values writes
    model = gated_int_model()
    x = gen_synth(5, 2)
    codec.compress(x, model, "int")
    plan = model.int_plan()
    assert model.int_plan() is plan
    _edit(model, edit)
    assert model.int_plan() is not plan
    container, _ = codec.compress(x, model, "int")
    assert container == codec.compress(x, copy.deepcopy(model), "int")[0]
    assert np.array_equal(codec.decompress(container, model, "int"), x)
