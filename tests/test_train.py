"""Objectives, FLOPs accounting, pruning, and the staged workflow."""

import re

import numpy as np
import pytest

from flowzip import autodiff as ad
from flowzip import codec
from flowzip.checkpoint import (
    deserialize,
    named_parameters,
    round_to_stored,
    save_model,
    serialize,
)
from flowzip.cli import main
from flowzip.data import gen_synth, write_image
from flowzip.errors import DataFormatError, DivergenceError, StageTimeoutError
from flowzip.layers import ResidualBlock
from flowzip.model import LOG_S_BOUNDS, FlowConfig, FlowModel
from flowzip.quant import MIN_SCALE
from flowzip.train import (
    Adamax,
    TrainConfig,
    Trainer,
    calculate_flops,
    calibrate_activations,
    calibrate_weights,
    clamp_auxiliary,
    gate_lambdas,
    gated_objective,
    loss_bpd,
    param_groups,
    run_pipeline,
)

from helpers import (
    DIVERGING_CONFIG,
    RESUME_CONFIG,
    check_gradient,
    gated_int_model,
    randomize_convs,
    stored_arrays,
    use_reference_kernels,
)


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


def test_gated_objective_without_gates_is_the_plain_objective():
    # gate_lambdas gives no lambda for a model without gates, and none is read
    model = FlowModel(FlowConfig(hidden=8, couplings=2, blocks=1), seed=0)
    lambdas = gate_lambdas(model, TrainConfig())
    assert lambdas == []
    x = gen_synth(0, 2)
    total, base = gated_objective(x, model, lambdas)
    assert total is base
    assert float(base.value) == float(loss_bpd(x, model).value)


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
    # the stored parameters split by kind, and the gates, which a checkpoint
    # stores as kept-index lists, come from model.gates()
    model = gated_int_model()
    main, gates, scales = param_groups(model)
    names = {id(node): name for _, name, node in named_parameters(model)}
    assert len(main) + len(scales) == len(names)
    assert [id(n) for n in gates] == [id(g.node) for g in model.gates()]
    assert not any(id(n) in names for n in gates)
    assert all(names[id(n)].endswith(("wscale", "q_in", "q_mid", "q_out")) for n in scales)
    assert not any(names[id(n)].endswith(("wscale", "q_in", "q_mid", "q_out")) for n in main)
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

    # with conv B gone, conv A keeps none either: nothing reads its output
    blk.conv_b.gate.node.value[:] = 0.0
    f_zero = calculate_flops(model, (16, 16))
    assert f_half - f_zero == 2 * 2 * width * (width // 2) * 9 * px
    assert f_full - f_zero == 2 * 2 * width * width * 9 * px

    # with conv A gone, conv B keeps none either, and its rows of no columns
    # counted nothing before
    blk.conv_b.gate.node.value[:] = 0.8
    blk.conv_a.gate.node.value[:] = 0.0
    assert calculate_flops(model, (16, 16)) == f_zero


def _float32_exact(model: FlowModel) -> FlowModel:
    """``model`` with every stored array rounded to float32 in place, as a
    checkpoint stores it, and its live gates left live."""
    for _, _, node in named_parameters(model):
        node.value[...] = node.value.astype(np.float32)
    return model


def test_prune_identity_when_all_gates_on():
    # round_to_stored ends stage 2: with every gate on, the block keeps all
    model = _small_gated_model()
    x = gen_synth(1, 4)
    a = model.flow_forward(x, "float")
    flops = calculate_flops(model, (16, 16))
    round_to_stored(model)
    assert model.gates() == []
    for blk in model.blocks():
        assert all(np.array_equal(k, np.arange(blk.width)) for k in blk.kept_sets())
    b = model.flow_forward(x, "float")
    assert all(np.array_equal(p, q) for p, q in zip(a.latents, b.latents))
    assert calculate_flops(model, (16, 16)) == flops


def test_prune_two_filter_example():
    model = _small_gated_model()
    blk = model.levels[0].couplings[0].net.blocks[0]
    blk.conv_b.gate.node.value[:] = 0.0
    blk.conv_b.gate.node.value[3] = 0.9
    blob = serialize(model)
    stored = stored_arrays(blob, model)
    assert stored["level0.coup0.block0.conv_b.w"][1].shape == (1, 8, 3, 3)
    assert list(stored["level0.coup0.block0.idx_b"][1]) == [3]
    # loading places the kept filter back at full width, and the block holds
    # its kept sets with no gate
    lblk = deserialize(blob).levels[0].couplings[0].net.blocks[0]
    w = lblk.conv_b.w.value
    assert w.shape == (8, 8, 3, 3) and not np.any(np.delete(w, 3, axis=0))
    assert np.array_equal(w[3], blk.conv_b.w.value[3].astype(np.float32))
    assert lblk.gates() == [] and list(lblk.kept_sets()[1]) == [3]


def test_prune_equivalence_float_and_int():
    # a model with live gates and its reloaded checkpoint compute the same
    model = _float32_exact(gated_int_model())
    x = gen_synth(2, 16)
    stored = deserialize(serialize(model))
    for path in ("float", "int"):
        a = model.flow_forward(x, path)
        b = stored.flow_forward(x, path)
        for p, q in zip(a.latents, b.latents):
            assert np.array_equal(p, q), f"{path} path diverged after pruning"
    assert calculate_flops(stored, (16, 16)) == calculate_flops(model, (16, 16))


def test_prune_all_off_convs_match_on_every_path():
    # one block with every conv-A gate off and conv-B gates still on, which it
    # stores as an empty idx_b, and another with every conv-B gate off and
    # conv-A gates still on, which it stores as an empty idx_a
    model = _float32_exact(gated_int_model())
    empty_a = model.levels[0].couplings[0].net.blocks[0]
    empty_a.conv_a.gate.node.value[:] = 0.2
    assert empty_a.conv_b.gate.binarized().any()
    blk = model.levels[0].couplings[1].net.blocks[0]
    blk.conv_b.gate.node.value[:] = 0.2
    assert blk.conv_a.gate.binarized().any()
    blob = serialize(model)
    stored = stored_arrays(blob, model)
    assert stored["level0.coup0.block0.idx_b"][1].size == 0
    assert stored["level0.coup0.block0.conv_b.w"][1].shape == (0, 0, 3, 3)
    assert stored["level0.coup1.block0.idx_a"][1].size == 0
    assert stored["level0.coup1.block0.conv_a.w"][1].shape == (0, 8, 3, 3)
    reloaded = deserialize(blob)
    for b in (reloaded.levels[0].couplings[0].net.blocks[0],
              reloaded.levels[0].couplings[1].net.blocks[0]):
        assert [len(k) for k in b.kept_sets()] == [0, 0]
    x = gen_synth(3, 4)
    for path in ("float", "fake", "int"):
        ref = model.flow_forward(x, path).latents
        got = reloaded.flow_forward(x, path).latents
        assert all(np.array_equal(p, q) for p, q in zip(ref, got)), path
    flops = calculate_flops(model, (16, 16))
    assert calculate_flops(reloaded, (16, 16)) == flops

    # at stage 5, with conv-B biases that are not zero: stage 2 ends rounded,
    # which removes the conv-A-empty branch whole, and stages 4-5 calibrate
    # after it, so no conv-B row is left with a bias alone to fold
    empty_a.conv_b.b.value[:] = 0.05
    round_to_stored(model)
    assert [len(k) for k in empty_a.kept_sets()] == [0, 0]
    assert not empty_a.conv_b.b.value.any()
    calibrate_activations(model, x)
    calibrate_weights(model)
    round_to_stored(model)
    stage5 = deserialize(serialize(model))
    assert calculate_flops(stage5, (16, 16)) == flops
    container, _ = codec.compress(x, stage5, "int")
    assert np.array_equal(codec.decompress(container, stage5, "int"), x)


@pytest.mark.parametrize("empty", ["idx_a", "idx_b"])
def test_older_checkpoint_with_a_half_kept_branch_is_refused(monkeypatch, tmp_path, empty):
    # a writer whose conv B kept filters under an empty conv A stored conv B's
    # kept rows with no columns, and one whose conv A kept filters under an
    # empty conv B stored them; the branch is now kept whole or not at all
    model = gated_int_model()
    blk = model.levels[0].couplings[0].net.blocks[0]
    ka, kb = blk.kept_sets()
    assert len(ka) and len(kb)
    half = (np.arange(0), kb) if empty == "idx_a" else (ka, np.arange(0))
    shipped = ResidualBlock.kept_sets

    def older_kept_sets(self):
        return half if self is blk else shipped(self)

    with monkeypatch.context() as m:
        m.setattr(ResidualBlock, "kept_sets", older_kept_sets)
        blob = serialize(model)
    assert stored_arrays(blob, model)[f"level0.coup0.block0.{empty}"][1].size == 0
    with pytest.raises(DataFormatError, match="half-kept branch"):
        deserialize(blob)
    ckpt = tmp_path / "half.ckpt"
    ckpt.write_bytes(blob)
    images = tmp_path / "x.ppm"
    write_image(str(images), gen_synth(1, 1)[0])
    argv = ["compress", str(images), "--checkpoint", str(ckpt), "--out", str(tmp_path / "c")]
    assert main(argv) == 2


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
    # the priors' scales stay bounded, so the thrown-out weights give an
    # infinite distance, not a NaN
    ({}, "loss is inf"),
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


def test_prior_scale_stays_in_the_coded_range():
    # a prior net whose log s runs to -67 (a training step once drove one to
    # -66.7): unbounded, the loss reached 3.7e30 bpd, finite, with gradients
    # of 6.6e29; bounded at ln S_MIN it is 1465 bpd with gradients near 1.3
    model = FlowModel(FlowConfig(hidden=8, couplings=1, blocks=1), seed=0)
    lvl = model.levels[0]
    lvl.prior_net.out.b.value[lvl.factored :] = -67.0
    x = gen_synth(5, 2)
    _, log_s = model.flow_forward(x, "float").priors[0]
    assert log_s.min() == LOG_S_BOUNDS[0]
    loss = loss_bpd(x, model)
    ad.backward(loss)
    assert float(loss.value) < 1e4
    grads = [node.grad for _, _, node in named_parameters(model) if node.grad is not None]
    assert max(float(np.abs(g).max()) for g in grads) < 100


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


def test_resuming_from_any_stage_checkpoint_writes_the_uninterrupted_run():
    # each stage draws its shuffles from (seed, stage) alone, so nothing but
    # the checkpoint crosses a stage boundary
    cfg = TrainConfig(**RESUME_CONFIG)
    data = gen_synth(cfg.seed, cfg.train_count + cfg.val_count)
    train_x, val_x = data[: cfg.train_count], data[cfg.train_count :]
    blobs = {}

    def keep(model, stage):
        blobs[stage] = serialize(model)

    _, records = run_pipeline(cfg, train_x, val_x, log=lambda s: None, checkpoint_cb=keep)
    assert all(r.epochs >= 1 for r in records)
    for k in (1, 2, 3, 4):
        model = deserialize(blobs[k])
        Trainer(cfg, train_x, val_x, log=lambda s: None).run(model, range(k + 1, 6), None)
        assert serialize(model) == blobs[5], f"resumed from stage {k}"


def test_stored_blocks_removed_filters_take_no_gradient():
    # stages 3-5 train a stored block, whose constant mask holds every removed
    # filter's gradient at exactly 0 on the float and fake-quant objectives
    model = gated_int_model()
    round_to_stored(model)
    x = gen_synth(4, 2)
    for stored in (model, deserialize(serialize(model))):
        removed = 0
        for quantized in (False, True):
            stored.act_quant = stored.weight_quant = quantized
            for _, _, node in named_parameters(stored):
                node.grad = None
            ad.backward(loss_bpd(x, stored))
            for blk in stored.blocks():
                ka, kb = blk.kept_sets()
                off_a, off_b = (np.setdiff1d(np.arange(blk.width), k) for k in (ka, kb))
                for conv, off in ((blk.conv_a, off_a), (blk.conv_b, off_b)):
                    assert not conv.w.grad[off].any() and not conv.b.grad[off].any()
                assert not blk.conv_b.w.grad[:, off_a].any()
                removed += len(off_a) + len(off_b)
        assert removed


def _two_steps_of_stages_1_2_5():
    """Two Adamax steps on each of the float, gated and fake-quant objectives
    of one tiny model; returns every loss and the final parameters' bytes."""
    model = FlowModel(FlowConfig(hidden=8, couplings=2, blocks=1), seed=0)
    randomize_convs(model, np.random.default_rng(4))
    x = gen_synth(6, 4)
    losses = []

    def two_steps(groups, objective):
        opt = Adamax(groups)
        for _ in range(2):
            opt.zero_grad()
            loss = objective(x)
            ad.backward(loss)
            opt.step()
            clamp_auxiliary(model)
            losses.append(loss.value.tobytes())

    main, _, _ = param_groups(model)
    two_steps({"main": (main, 1e-3)}, lambda b: loss_bpd(b, model))
    model.attach_gates(0.8)
    lambdas = gate_lambdas(model, TrainConfig(hidden=8, couplings=2, blocks=1))
    main, gates, _ = param_groups(model)
    two_steps({"main": (main, 1e-3), "gate": (gates, 0.2)},
              lambda b: gated_objective(b, model, lambdas)[0])
    model.act_quant = True
    calibrate_activations(model, x)
    model.weight_quant = True
    calibrate_weights(model)
    main, _, scales = param_groups(model)
    two_steps({"main": (main, 1e-3), "scale": (scales, 1e-3)}, lambda b: loss_bpd(b, model))
    return losses, [(name, node.value.tobytes()) for _, name, node in named_parameters(model)]


def test_select_free_kernels_leave_training_bit_identical(monkeypatch):
    # relu, the LSQ backward and the log-mass sign against their np.where
    # forms, through calibration and two steps of each objective
    shipped = _two_steps_of_stages_1_2_5()
    use_reference_kernels(monkeypatch)
    assert _two_steps_of_stages_1_2_5() == shipped
