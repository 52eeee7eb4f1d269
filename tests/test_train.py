"""Objectives, FLOPs accounting, pruning, and the staged workflow."""

import re

import numpy as np
import pytest

from flowzip import autodiff as ad
from flowzip.checkpoint import deserialize, named_parameters, save_model, serialize
from flowzip.data import gen_synth
from flowzip.errors import DivergenceError, StageTimeoutError
from flowzip.model import FlowConfig, FlowModel
from flowzip.quant import MIN_SCALE
from flowzip.train import (
    TrainConfig,
    Trainer,
    calculate_flops,
    clamp_auxiliary,
    gate_lambdas,
    gated_objective,
    loss_bpd,
    param_groups,
    prune,
    run_pipeline,
)

from helpers import DIVERGING_CONFIG, check_gradient, gated_int_model, stored_arrays


class _StubModel:
    """Assigns a fixed log2 probability per dimension (for loss tests)."""

    def __init__(self, log2p_per_dim):
        self.rate = log2p_per_dim

    def training_forward(self, x, calibrate=False):
        x = np.asarray(x)
        return ad.Node(np.asarray(self.rate * x.size, dtype=np.float64))


def test_loss_bpd_quarter_probability():
    # p = 0.25 per (single) dimension -> 2 bits
    batch = np.zeros((3, 1, 1, 1), dtype=np.uint8)
    loss = loss_bpd(batch, _StubModel(np.log2(0.25)))
    assert float(loss.value) == pytest.approx(2.0)


def test_loss_bpd_uniform_bytes_is_eight():
    batch = np.zeros((2, 3, 4, 4), dtype=np.uint8)
    loss = loss_bpd(batch, _StubModel(-8.0))
    assert float(loss.value) == pytest.approx(8.0)


def test_loss_bpd_batch_of_identical_images():
    model = FlowModel(FlowConfig(hidden=8), seed=0)
    one = gen_synth(5, 1)
    batch = np.repeat(one, 4, axis=0)
    a = float(loss_bpd(one, model).value)
    b = float(loss_bpd(batch, model).value)
    assert a == pytest.approx(b, rel=1e-12)


def _small_gated_model():
    model = FlowModel(FlowConfig(hidden=8, couplings=2, blocks=1), seed=0)
    model.attach_gates(0.8)
    return model


def test_gated_objective_counts_surviving_filters():
    model = _small_gated_model()
    cfg = TrainConfig(lambda_levels=(1.0, 1.0), hidden=8, couplings=2, blocks=1)
    lambdas = gate_lambdas(model, cfg)
    x = gen_synth(0, 2)
    total, base = gated_objective(x, model, lambdas)
    g_total = sum(len(g.g) for g in model.gates())
    lam = lambdas[0]
    assert float(total.value) - float(base.value) == pytest.approx(lam * g_total)

    # lambda = 0 reduces to the plain objective
    z_total, z_base = gated_objective(x, model, [0.0, 0.0])
    assert float(z_total.value) == pytest.approx(float(z_base.value))

    # toggling one gate across the threshold moves the penalty by exactly lam
    gate = model.gates()[0]
    gate.node.value[0] = 0.2
    t2, _ = gated_objective(x, model, lambdas)
    assert float(total.value) - float(t2.value) == pytest.approx(lam)


def test_gate_gradient_includes_penalty():
    model = _small_gated_model()
    cfg = TrainConfig(lambda_levels=(1.0, 2.0))
    lambdas = gate_lambdas(model, cfg)
    x = gen_synth(0, 2)
    total, _ = gated_objective(x, model, lambdas)
    ad.backward(total)
    g = model.gates()[0].node.grad
    assert g is not None and g.shape == (8,)


def test_conv_gradient_through_whole_model():
    # spot-check the assembled graph against finite differences
    model = FlowModel(FlowConfig(hidden=6, couplings=1, blocks=1), seed=3)
    x = gen_synth(2, 2)
    net = model.levels[0].couplings[0].net
    w = net.stem.w
    loss = loss_bpd(x, model)
    ad.backward(loss)
    got = w.grad.copy()

    h = 1e-5
    idx = (1, 2, 1, 1)
    keep = w.value[idx]
    w.value[idx] = keep + h
    up = float(loss_bpd(x, model).value)
    w.value[idx] = keep - h
    dn = float(loss_bpd(x, model).value)
    w.value[idx] = keep
    fd = (up - dn) / (2 * h)
    assert got[idx] == pytest.approx(fd, rel=1e-3, abs=1e-9)


def test_param_groups_follow_the_checkpoint_kinds():
    model = gated_int_model()
    main, gates, scales = param_groups(model)
    names = {id(node): name for _, name, node in named_parameters(model)}
    assert len(main) + len(gates) + len(scales) == len(names)
    assert all(names[id(n)].endswith(".gate") for n in gates)
    assert all(names[id(n)].endswith(("wscale", "q_in", "q_mid", "q_out")) for n in scales)
    assert not any(names[id(n)].endswith(("gate", "wscale", "q_in", "q_mid", "q_out"))
                   for n in main)
    scales[0].value[...] = -1.0
    clamp_auxiliary(model)
    assert np.all(scales[0].value == MIN_SCALE)


def test_calculate_flops_formula():
    # one 128->128 conv over a 16x16 map: 2*128*128*9*256
    from flowzip.train import _conv_flops

    assert _conv_flops(128, 128, 256) == 75_497_472


def test_flops_respect_gates_both_sides():
    model = _small_gated_model()
    f_full = calculate_flops(model, (16, 16))
    blk = model.levels[0].couplings[0].net.blocks[0]
    width = blk.width
    blk.conv_a.gate.node.value[: width // 2] = 0.0  # half of conv A off
    f_half = calculate_flops(model, (16, 16))
    px = 8 * 8
    # conv A loses half its rows AND conv B half its input columns
    expected_drop = (
        2 * (width // 2) * width * 9 * px + 2 * width * (width // 2) * 9 * px
    )
    assert f_full - f_half == expected_drop

    blk.conv_b.gate.node.value[:] = 0.0
    f_zero = calculate_flops(model, (16, 16))
    assert f_half - f_zero == 2 * width * (width // 2) * 9 * px  # conv B gone


def test_prune_identity_when_all_gates_on():
    model = _small_gated_model()
    pruned = prune(model)
    x = gen_synth(1, 4)
    a = model.flow_forward(x, "float")
    b = pruned.flow_forward(x, "float")
    assert all(np.array_equal(p, q) for p, q in zip(a.latents, b.latents))
    assert calculate_flops(pruned, (16, 16)) == calculate_flops(model, (16, 16))


def test_prune_two_filter_example():
    model = _small_gated_model()
    blk = model.levels[0].couplings[0].net.blocks[0]
    blk.conv_b.gate.node.value[:] = 0.0
    blk.conv_b.gate.node.value[3] = 0.9
    pruned = prune(model)
    blob = serialize(pruned)
    stored = stored_arrays(blob, pruned)
    assert stored["level0.coup0.block0.conv_b.w"][1].shape == (1, 8, 3, 3)
    assert list(stored["level0.coup0.block0.idx_b"][1]) == [3]
    # loading places the kept filter back at full width with a binary gate
    lblk = deserialize(blob).levels[0].couplings[0].net.blocks[0]
    w = lblk.conv_b.w.value
    assert w.shape == (8, 8, 3, 3) and not np.any(np.delete(w, 3, axis=0))
    assert np.array_equal(w[3], blk.conv_b.w.value[3].astype(np.float32))
    assert list(lblk.conv_b.gate.g) == [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]


def test_prune_equivalence_float_and_int():
    model = gated_int_model()
    x = gen_synth(2, 16)
    pruned = prune(model)
    for path in ("float", "int"):
        a = model.flow_forward(x, path)
        b = pruned.flow_forward(x, path)
        for p, q in zip(a.latents, b.latents):
            assert np.array_equal(p, q), f"{path} path diverged after pruning"
    assert calculate_flops(pruned, (16, 16)) == calculate_flops(model, (16, 16))


def test_prune_all_off_convs_match_on_every_path():
    # one block with every conv-A gate off, another with every conv-B gate off
    model = deserialize(serialize(gated_int_model()))  # float32-exact parameters
    model.levels[0].couplings[0].net.blocks[0].conv_a.gate.node.value[:] = 0.2
    model.levels[0].couplings[1].net.blocks[0].conv_b.gate.node.value[:] = 0.2
    pruned = prune(model)
    reloaded = deserialize(serialize(pruned))
    x = gen_synth(3, 4)
    for path in ("float", "fake", "int"):
        ref = model.flow_forward(x, path).latents
        for other in (pruned, reloaded):
            got = other.flow_forward(x, path).latents
            assert all(np.array_equal(p, q) for p, q in zip(ref, got)), path
    flops = calculate_flops(model, (16, 16))
    assert calculate_flops(pruned, (16, 16)) == flops
    assert calculate_flops(reloaded, (16, 16)) == flops


def test_stage2_immediate_when_target_is_one():
    cfg = TrainConfig(
        hidden=8, couplings=1, blocks=1, train_count=8, val_count=4,
        epochs_stage1=1, r_target=1.0, batch_size=8,
    )
    data = gen_synth(cfg.seed, 12)
    model, records = run_pipeline(cfg, data[:8], data[8:], last_stage=2, log=lambda s: None)
    assert [r.stage for r in records] == [1, 2]
    assert records[1].epochs == 0


def test_stage2_timeout_raises_with_diagnostics():
    cfg = TrainConfig(
        hidden=8, couplings=1, blocks=1, train_count=8, val_count=4,
        epochs_stage1=1, r_target=0.3, stage2_max_epochs=2, batch_size=8,
        lambda_levels=(0.0,),  # no pruning pressure: cannot terminate
    )
    data = gen_synth(cfg.seed, 12)
    with pytest.raises(StageTimeoutError, match="flops"):
        run_pipeline(cfg, data[:8], data[8:], last_stage=2, log=lambda s: None)


@pytest.mark.parametrize("change, found", [
    ({}, "loss is nan"),
    # one step per epoch, whose update overflows: the next loss comes too late
    ({"lr": 1e308, "train_count": 8, "epochs_stage1": 1}, "a parameter is not finite"),
])
def test_diverging_run_stops_before_any_checkpoint(change, found):
    cfg = TrainConfig(**{**DIVERGING_CONFIG, **change})
    data = gen_synth(cfg.seed, cfg.train_count + cfg.val_count)
    stages = []
    with pytest.raises(DivergenceError, match=f"stage 1 epoch 0: {found}"):
        run_pipeline(cfg, data[: cfg.train_count], data[cfg.train_count :],
                     log=lambda s: None, checkpoint_cb=lambda model, stage: stages.append(stage))
    assert stages == []


def test_flops_are_counted_at_the_training_images_size():
    # the config's height and width only size synthetic data; 32x32 images
    # under a 16x16 config cost four times the 16x16 FLOPs
    cfg = TrainConfig(
        hidden=8, couplings=1, blocks=1, train_count=8, val_count=4,
        epochs_stage1=1, r_target=1.0, batch_size=8,
    )
    data = gen_synth(cfg.seed, 12, 32, 32)
    lines = []
    model, records = run_pipeline(cfg, data[:8], data[8:], last_stage=2, log=lines.append)
    want = calculate_flops(model, (32, 32))
    assert want == 4 * calculate_flops(model, (cfg.height, cfg.width))
    assert [r.flops for r in records] == [want, want]
    assert f"flops={want} " in lines[0]


def test_pipeline_runs_stages_in_order_and_reports(capsys):
    cfg = TrainConfig(
        hidden=8, couplings=1, blocks=1, train_count=8, val_count=4,
        epochs_stage1=2, epochs_stage3=1, epochs_stage4=1, epochs_stage5=1,
        r_target=1.0, batch_size=8, calib_count=8,
    )
    data = gen_synth(cfg.seed, 12)
    model, records = run_pipeline(cfg, data[:8], data[8:], last_stage=5)
    assert [r.stage for r in records] == [1, 2, 3, 4, 5]
    assert model.stage == 5 and model.act_quant and model.weight_quant
    out = capsys.readouterr().out
    line = re.compile(r"stage=\d epoch=\d+ bpd=\d+\.\d+ flops=\d+ lr=[\d.e-]+")
    assert sum(1 for ln in out.splitlines() if line.fullmatch(ln.strip())) >= 4


def test_training_does_not_depend_on_checkpointing(tmp_path):
    # each stage ends on the float32 values a checkpoint stores, whether or
    # not a callback saves it, and saving changes nothing in the model
    cfg = TrainConfig(
        hidden=8, couplings=1, blocks=1, train_count=8, val_count=4,
        epochs_stage1=2, epochs_stage3=1, epochs_stage4=1, epochs_stage5=1,
        r_target=1.0, batch_size=8, calib_count=8,
    )
    data = gen_synth(cfg.seed, 12)
    saved = []

    def save_stage(model, stage):
        saved.append(str(tmp_path / f"stage{stage}.ckpt"))
        save_model(model, saved[-1])

    runs = [
        run_pipeline(cfg, data[:8], data[8:], log=lambda s: None, checkpoint_cb=cb)
        for cb in (None, save_stage)
    ]
    (plain, plain_records), (saving, saving_records) = runs
    assert serialize(plain) == serialize(saving)
    assert plain_records == saving_records
    with open(saved[-1], "rb") as f:
        assert f.read() == serialize(plain)
