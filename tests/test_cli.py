"""Command-line surface: exit codes, file round trips, output formats."""

import copy
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields

import numpy as np
import pytest

from flowzip import codec
from flowzip.checkpoint import load_model, save_model, serialize
from flowzip.cli import main
from flowzip.data import gen_synth, write_image, write_u8t
from flowzip.errors import DataFormatError
from flowzip.model import FlowConfig, FlowModel
from flowzip.train import TrainConfig, Trainer

from helpers import (
    DIVERGING_CONFIG,
    HOSTILE_CHECKPOINTS,
    RESUME_CONFIG,
    gated_int_model,
    hostile_checkpoint,
)


@pytest.fixture()
def small_ckpt(tmp_path):
    model = FlowModel(FlowConfig(hidden=8, couplings=1, blocks=1), seed=0)
    rng = np.random.default_rng(1)
    for net in model.coupling_nets():
        net.out.w.value[...] = rng.normal(0, 0.05, net.out.w.value.shape)
    path = str(tmp_path / "model.ckpt")
    save_model(model, path)
    return path


def test_gen_synth_writes_deterministic_files(tmp_path):
    out1, out2 = str(tmp_path / "d1"), str(tmp_path / "d2")
    assert main(["gen-synth", "--seed", "5", "--count", "4", "--out", out1]) == 0
    assert main(["gen-synth", "--seed", "5", "--count", "4", "--out", out2]) == 0
    for name in sorted(os.listdir(out1)):
        a = open(os.path.join(out1, name), "rb").read()
        b = open(os.path.join(out2, name), "rb").read()
        assert a == b


def test_compress_decompress_files_byte_exact(tmp_path, small_ckpt):
    data_dir = str(tmp_path / "data")
    main(["gen-synth", "--seed", "3", "--count", "6", "--out", data_dir])
    container = str(tmp_path / "out.iodf")
    assert main(
        ["compress", data_dir, "--checkpoint", small_ckpt, "--out", container]
    ) == 0
    out_dir = str(tmp_path / "restored")
    assert main(
        ["decompress", container, "--checkpoint", small_ckpt, "--out", out_dir]
    ) == 0
    for src, dst in zip(sorted(os.listdir(data_dir)), sorted(os.listdir(out_dir))):
        a = open(os.path.join(data_dir, src), "rb").read()
        b = open(os.path.join(out_dir, dst), "rb").read()
        assert a == b


def test_eval_output_format(tmp_path, small_ckpt, capsys):
    data_dir = str(tmp_path / "data")
    main(["gen-synth", "--seed", "3", "--count", "4", "--out", data_dir])
    assert main(["eval", data_dir, "--checkpoint", small_ckpt]) == 0
    out = capsys.readouterr().out.strip().splitlines()[-1]
    assert re.fullmatch(
        r"analytic_bpd=\d+\.\d{6} coding_bpd=\d+\.\d{6} gap=-?\d+\.\d{6}", out
    )


def test_exit_codes(tmp_path, small_ckpt, capsys):
    # usage error: unknown flag value
    assert main(["compress", "nowhere", "--checkpoint", small_ckpt]) == 1
    # data error: input file is not an image
    bad = str(tmp_path / "bad.ppm")
    open(bad, "wb").write(b"not a ppm")
    assert main(
        ["compress", bad, "--checkpoint", small_ckpt, "--out", str(tmp_path / "x")]
    ) == 2
    # verification error: container from a different model
    data_dir = str(tmp_path / "data")
    main(["gen-synth", "--seed", "1", "--count", "2", "--out", data_dir])
    container = str(tmp_path / "c.iodf")
    main(["compress", data_dir, "--checkpoint", small_ckpt, "--out", container])
    other = FlowModel(FlowConfig(hidden=8, couplings=1, blocks=1), seed=9)
    other_path = str(tmp_path / "other.ckpt")
    save_model(other, other_path)
    assert main(
        ["decompress", container, "--checkpoint", other_path,
         "--out", str(tmp_path / "o")]
    ) == 3


TINY_CONFIG = (
    "hidden = 8\ncouplings = 1\nblocks = 1\ntrain_count = 8\nval_count = 4\n"
    "batch_size = 8\nepochs_stage1 = 1\nepochs_stage4 = 1\nepochs_stage5 = 1\n"
    "calib_count = 4\n"
)


def test_os_errors_end_in_their_exit_codes(tmp_path, small_ckpt, capsys):
    # unreadable inputs are data errors (2), unwritable outputs usage errors (1)
    data_dir = str(tmp_path / "data")
    main(["gen-synth", "--seed", "1", "--count", "2", "--out", data_dir])
    container = str(tmp_path / "c.iodf")
    assert main(["compress", data_dir, "--checkpoint", small_ckpt, "--out", container]) == 0
    gated = str(tmp_path / "gated.ckpt")
    save_model(gated_int_model(), gated)
    stage3 = str(tmp_path / "stage3.ckpt")
    model = FlowModel(FlowConfig(hidden=8, couplings=1, blocks=1), seed=0)
    model.attach_gates(0.8)
    model.stage = 3
    save_model(model, stage3)
    tiny = tmp_path / "tiny.cfg"
    tiny.write_text(TINY_CONFIG)
    nowhere = str(tmp_path / "nodir" / "x")
    missing = str(tmp_path / "missing.ppm")
    cases = [
        (["compress", missing, "--checkpoint", small_ckpt, "--out", str(tmp_path / "y")],
         2, "cannot read image"),
        (["compress", data_dir, "--checkpoint", small_ckpt, "--out", nowhere],
         1, "cannot write container"),
        (["decompress", container, "--checkpoint", small_ckpt, "--out", container],
         1, "cannot write images"),
        (["prune", "--checkpoint", gated, "--out", nowhere], 1, "cannot write checkpoint"),
        # the output directory is checked before any training starts
        (["train", "--config", str(tiny), "--stage", "1", "--out", nowhere],
         1, "cannot write checkpoint"),
        (["quantize", "--checkpoint", stage3, "--config", str(tiny), "--out", nowhere],
         1, "cannot write checkpoint"),
    ]
    for argv, code, message in cases:
        capsys.readouterr()
        assert main(argv) == code, argv
        out, err = capsys.readouterr()
        assert message in err, argv
        assert "epoch=" not in out, argv


def test_unwritable_out_fails_before_any_coding(tmp_path, small_ckpt, monkeypatch, capsys):
    data_dir = str(tmp_path / "data")
    main(["gen-synth", "--seed", "1", "--count", "2", "--out", data_dir])
    container = str(tmp_path / "c.iodf")
    assert main(["compress", data_dir, "--checkpoint", small_ckpt, "--out", container]) == 0

    def no_coding(*args, **kwargs):
        raise AssertionError("coded before checking --out")

    monkeypatch.setattr(codec, "compress", no_coding)
    monkeypatch.setattr(codec, "decompress", no_coding)
    cases = [
        ["compress", data_dir, "--checkpoint", small_ckpt,
         "--out", str(tmp_path / "nodir" / "c.iodf")],
        ["compress", data_dir, "--checkpoint", small_ckpt, "--out", data_dir],
        ["decompress", container, "--checkpoint", small_ckpt,
         "--out", os.path.join(container, "imgs")],
    ]
    for argv in cases:
        capsys.readouterr()
        assert main(argv) == 1, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("usage error: cannot write"), (argv, err)


@pytest.mark.parametrize("fault", HOSTILE_CHECKPOINTS)
def test_compress_with_malformed_checkpoint_is_data_error(tmp_path, capsys, fault):
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_bytes(hostile_checkpoint(fault))
    data_dir = str(tmp_path / "data")
    main(["gen-synth", "--seed", "1", "--count", "2", "--out", data_dir])
    capsys.readouterr()
    assert main(
        ["compress", data_dir, "--checkpoint", str(ckpt), "--out", str(tmp_path / "c")]
    ) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


def test_compress_with_unfoldable_bias_is_data_error(tmp_path):
    # a checksum-valid checkpoint whose conv-A bias folds beyond the
    # 32-bit accumulator budget on the int path
    model = gated_int_model()
    blk = model.levels[0].couplings[0].net.blocks[0]
    blk.conv_a.gate.node.value[:] = 0.9
    blk.conv_b.gate.node.value[:] = 0.9
    blk.conv_a.b.value[:] = 1e9
    ckpt = str(tmp_path / "bias.ckpt")
    save_model(model, ckpt)
    with pytest.raises(DataFormatError, match="folded bias"):
        load_model(ckpt)  # refused at load, not at the first compress
    data_dir = str(tmp_path / "data")
    main(["gen-synth", "--seed", "1", "--count", "2", "--out", data_dir])
    assert main(
        ["compress", data_dir, "--checkpoint", ckpt, "--out", str(tmp_path / "c")]
    ) == 2


def test_prune_stores_kept_filters_and_decodes_the_gated_payload(tmp_path, small_ckpt):
    # a gated checkpoint already stores only its kept filters: it is smaller
    # than the same model saved without gates, and prune rewrites it byte for
    # byte, so its containers decode under the pruned checkpoint as they are
    model = gated_int_model()
    gated_ckpt, pruned_ckpt = str(tmp_path / "gated.ckpt"), str(tmp_path / "pruned.ckpt")
    save_model(model, gated_ckpt)
    ungated = copy.deepcopy(model)
    for net in ungated.coupling_nets():
        for blk in net.blocks:
            blk.conv_a.gate = blk.conv_b.gate = None
    assert os.path.getsize(gated_ckpt) < len(serialize(ungated))
    assert main(["prune", "--checkpoint", gated_ckpt, "--out", pruned_ckpt]) == 0
    assert open(pruned_ckpt, "rb").read() == open(gated_ckpt, "rb").read()

    data_dir = str(tmp_path / "data")
    main(["gen-synth", "--seed", "4", "--count", "3", "--out", data_dir])
    container = str(tmp_path / "gated.iodf")
    assert main(["compress", data_dir, "--checkpoint", gated_ckpt, "--out", container]) == 0
    out_dir = str(tmp_path / "restored")
    assert main(["decompress", container, "--checkpoint", pruned_ckpt, "--out", out_dir]) == 0
    names = sorted(os.listdir(data_dir))
    assert names == sorted(os.listdir(out_dir))
    for name in names:
        a = open(os.path.join(data_dir, name), "rb").read()
        assert open(os.path.join(out_dir, name), "rb").read() == a

    # a checkpoint without gates has nothing to prune
    assert main(["prune", "--checkpoint", small_ckpt, "--out", str(tmp_path / "x")]) == 1


def test_load_and_prune_draw_no_random_init(tmp_path, monkeypatch):
    # loading overwrites every array and prune's FLOP count reads only the
    # architecture, so neither builds a randomly initialized model
    gated_ckpt, pruned_ckpt = str(tmp_path / "gated.ckpt"), str(tmp_path / "pruned.ckpt")
    save_model(gated_int_model(), gated_ckpt)

    def refuse(*args, **kwargs):
        raise AssertionError("a random generator was created")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    assert serialize(load_model(gated_ckpt)) == open(gated_ckpt, "rb").read()
    assert main(["prune", "--checkpoint", gated_ckpt, "--out", pruned_ckpt]) == 0


def test_quantize_writes_what_stage_4_saved_loaded_then_stage_5_writes(tmp_path, capsys):
    # quantize runs stages 4-5 through the stage runner, which rounds each
    # stage to what a checkpoint stores, so it writes what stage 4, a save
    # and a load, then stage 5 write
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(TINY_CONFIG)
    cfg = TrainConfig.from_file(str(cfg_path))
    model = FlowModel(cfg.flow_config(), seed=0)
    model.attach_gates(0.8)
    model.stage = 3
    stage3, out = str(tmp_path / "stage3.ckpt"), tmp_path / "quantized.ckpt"
    save_model(model, stage3)
    argv = ["quantize", "--checkpoint", stage3, "--config", str(cfg_path), "--out", str(out)]
    assert main(argv) == 0
    assert "quantized: bpd=" in capsys.readouterr().out

    images = gen_synth(cfg.seed, cfg.train_count + cfg.val_count, cfg.height, cfg.width)
    trainer = Trainer(cfg, images[: cfg.train_count], images[cfg.train_count :],
                      log=lambda s: None)
    model = load_model(stage3)
    trainer.stage4(model)
    model.stage = 4
    save_model(model, str(tmp_path / "stage4.ckpt"))
    model = load_model(str(tmp_path / "stage4.ckpt"))
    trainer.stage5(model)
    model.stage = 5
    assert out.read_bytes() == serialize(model)

    quantized = load_model(str(out))
    assert quantized.stage == 5 and quantized.act_quant and quantized.weight_quant
    container, _ = codec.compress(images[:2], quantized, "int")
    assert np.array_equal(codec.decompress(container, quantized, "int"), images[:2])


def test_quantize_writes_the_stage_5_of_the_train_run(tmp_path, capsys):
    # each stage seeds its own shuffles, so quantize on a train run's stage-3
    # checkpoint runs that run's own stages 4-5
    cfg = tmp_path / "resume.cfg"
    # a tuple value is written as its comma-separated items
    cfg.write_text("".join(f"{key} = {str(value).strip('()')}\n"
                           for key, value in RESUME_CONFIG.items()))
    run, out = str(tmp_path / "run.ckpt"), tmp_path / "quantized.ckpt"
    assert main(["train", "--config", str(cfg), "--out", run]) == 0
    argv = ["quantize", "--checkpoint", f"{run}.stage3.ckpt", "--config", str(cfg),
            "--out", str(out)]
    assert main(argv) == 0
    with open(f"{run}.stage5.ckpt", "rb") as f:
        assert out.read_bytes() == f.read()


def test_quantize_accepts_a_pruned_stage_3_checkpoint(tmp_path, capsys):
    # prune writes the one gated layout, which quantize reads like any other
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(TINY_CONFIG)
    model = gated_int_model()
    model.act_quant = model.weight_quant = False
    model.stage = 3
    stage3, pruned = str(tmp_path / "stage3.ckpt"), str(tmp_path / "pruned.ckpt")
    save_model(model, stage3)
    assert main(["prune", "--checkpoint", stage3, "--out", pruned]) == 0
    out = tmp_path / "quantized.ckpt"
    argv = ["quantize", "--checkpoint", pruned, "--config", str(cfg_path), "--out", str(out)]
    assert main(argv) == 0
    assert "quantized: bpd=" in capsys.readouterr().out
    quantized = load_model(str(out))
    assert quantized.stage == 5 and quantized.gated

    def kept(m):
        return [k.tolist() for blk in m.blocks() for k in blk.kept_sets()]

    assert kept(quantized) == kept(load_model(pruned))


@pytest.mark.parametrize("stage", [2, 4, 5])
def test_quantize_refuses_all_but_a_stage_3_checkpoint(tmp_path, capsys, stage):
    # from stage 4 on, the "stage 4" run would keep the checkpoint's quantizer
    # flags: at stage 5 it would train with weight fake-quantization still on
    model = gated_int_model()
    model.stage = stage
    ckpt, out = str(tmp_path / "m.ckpt"), tmp_path / "q.ckpt"
    save_model(model, ckpt)
    assert main(["quantize", "--checkpoint", ckpt, "--out", str(out)]) == 1
    assert "quantize expects a stage-3 (fine-tuned) checkpoint" in capsys.readouterr().err
    assert not out.exists()


def test_missing_required_args_is_usage_error():
    assert main(["compress"]) == 1


def test_train_and_config_file(tmp_path, capsys):
    cfg = tmp_path / "desk.cfg"
    cfg.write_text(
        "hidden = 8\ncouplings = 1\nblocks = 1\n"
        "train_count = 8\nval_count = 4\nbatch_size = 8\n"
        "epochs_stage1 = 1\nr_target = 1.0\n"
        "lambda_levels = 1, 2\n# comment line\n"
    )
    out = str(tmp_path / "run.ckpt")
    code = main(["train", "--config", str(cfg), "--out", out, "--stage", "2"])
    assert code == 0
    assert os.path.exists(out) and os.path.exists(out + ".stage1.ckpt")
    lines = capsys.readouterr().out
    assert re.search(r"stage=1 epoch=0 bpd=\d+\.\d+ flops=\d+ lr=", lines)


def test_diverging_training_is_one_error_line_and_no_checkpoint(tmp_path, capsys):
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in DIVERGING_CONFIG.items()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warnings would reach stderr
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "run.ckpt")])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: training diverged at stage 1")
    assert not list(tmp_path.glob("*.ckpt"))


def test_bad_config_key_is_data_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no_such_key = 3\n")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2


def test_non_utf8_config_is_data_error(tmp_path, capsys):
    cfg = tmp_path / "latin.cfg"
    cfg.write_bytes(b"lr=\xff\xfe\n")
    with pytest.raises(DataFormatError, match="not UTF-8"):
        TrainConfig.from_file(str(cfg))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "not UTF-8" in capsys.readouterr().err


def test_huge_ppm_header_is_data_error(tmp_path, small_ckpt, capsys):
    bad = tmp_path / "ws.ppm"
    bad.write_bytes(b"P6" + b" " * (1 << 20))
    argv = ["compress", str(bad), "--checkpoint", small_ckpt, "--out", str(tmp_path / "x")]
    assert main(argv) == 2
    assert "malformed PPM header" in capsys.readouterr().err


def test_image_wider_than_the_container_header_is_data_error(tmp_path, small_ckpt, capsys):
    # a PPM may be 65536 pixels wide; the container's u16 width may not
    wide = str(tmp_path / "wide.ppm")
    write_image(wide, np.zeros((3, 4, 65536), dtype=np.uint8))
    argv = ["compress", wide, "--checkpoint", small_ckpt, "--out", str(tmp_path / "x")]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "65535-pixel side" in err[0], err


@pytest.mark.parametrize(
    "blob", [b"P61 1 255\nabc", b"P6 1 1 255#c\nXYZ"], ids=["magic_run_on", "comment_after_maxval"]
)
def test_ppm_header_without_its_separators_is_data_error(tmp_path, small_ckpt, capsys, blob):
    # the magic must be followed by whitespace or a comment, and maxval by
    # exactly one whitespace byte; both files once read as a 1x1 image
    bad = tmp_path / "sep.ppm"
    bad.write_bytes(blob)
    argv = ["compress", str(bad), "--checkpoint", small_ckpt, "--out", str(tmp_path / "x")]
    assert main(argv) == 2
    assert "malformed PPM header" in capsys.readouterr().err


COUNT_KEYS = [
    f.name for f in fields(TrainConfig)
    if isinstance(getattr(TrainConfig(), f.name), int) and f.name != "seed"
]


@pytest.mark.parametrize("key", COUNT_KEYS)
def test_config_counts_below_one_are_data_errors(tmp_path, key):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(f"seed = 0\n{key} = 0\n")  # the seed alone may be zero
    with pytest.raises(DataFormatError, match=f"'{key}' must be at least 1"):
        TrainConfig.from_file(str(cfg))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("line", [
    "lr = nan", "lr = inf", "gate_lr = 1e999", "lambda_ramp = -inf",
    "r_target = NaN", "lambda_levels = 4, nan", "lambda_levels = 1e999, 1",
])
def test_config_non_finite_floats_are_data_errors(tmp_path, capsys, line):
    cfg = tmp_path / "nonfinite.cfg"
    cfg.write_text(line + "\n")
    key = line.split("=")[0].strip()
    with pytest.raises(DataFormatError, match=f"'{key}' must be finite"):
        TrainConfig.from_file(str(cfg))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert f"'{key}' must be finite" in capsys.readouterr().err


def test_negative_config_seed_is_data_error(tmp_path, capsys):
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed = -3\n")
    with pytest.raises(DataFormatError, match="'seed' must be at least 0"):
        TrainConfig.from_file(str(cfg))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "'seed' must be at least 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "quantize"])
def test_negative_seed_flag_is_usage_error(tmp_path, small_ckpt, capsys, command):
    args = [command, "--out", str(tmp_path / "x"), "--seed", "-2"]
    if command == "quantize":
        args += ["--checkpoint", small_ckpt]
    assert main(args) == 1
    assert "non-negative integer" in capsys.readouterr().err
    # gen-synth's SplitMix64 seed takes any integer
    assert main(["gen-synth", "--seed", "-2", "--count", "1", "--out", str(tmp_path / "d")]) == 0


def test_bench_report_schema(tmp_path, small_ckpt, capsys):
    data_dir = str(tmp_path / "data")
    main(["gen-synth", "--seed", "2", "--count", "8", "--out", data_dir])
    capsys.readouterr()
    assert main(
        ["bench", data_dir, "--checkpoint", small_ckpt, "--batch", "2,4",
         "--runs", "3"]
    ) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("path\tbatch\t")
    rows = [ln.split("\t") for ln in out[1:] if ln]
    assert {(r[0], r[1]) for r in rows} == {("float", "2"), ("float", "4")}
    for r in rows:
        assert float(r[2]) > 0 and float(r[4]) > 0 and int(r[6]) > 0


@pytest.mark.parametrize("bad", [
    ["--batch", "0"], ["--batch", "abc"], ["--batch", "2", "--runs", "0"], ["--batch=-2"],
])
def test_bench_bad_numbers_are_usage_errors(tmp_path, small_ckpt, capsys, bad):
    data_dir = str(tmp_path / "data")
    main(["gen-synth", "--seed", "2", "--count", "4", "--out", data_dir])
    capsys.readouterr()
    assert main(["bench", data_dir, "--checkpoint", small_ckpt, *bad]) == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("bad", [
    ["--count", "1", "--height", "-4"], ["--count", "1", "--height", "0"],
    ["--count", "0"], ["--count", "-1"],
])
def test_gen_synth_bad_numbers_are_usage_errors(tmp_path, bad):
    out = tmp_path / "d"
    assert main(["gen-synth", *bad, "--out", str(out)]) == 1
    assert not out.exists()


def test_cli_entrypoint_subprocess(tmp_path):
    # the child imports the package this process imported, as pytest's
    # pythonpath setting does not reach it
    src = os.path.dirname(os.path.dirname(os.path.abspath(codec.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-m", "flowzip.cli", "gen-synth", "--count", "2",
         "--out", str(tmp_path / "d")],
        capture_output=True, text=True, env=env,
    )
    assert out.returncode == 0
    assert "wrote 2 images" in out.stdout


def test_u8t_pipeline(tmp_path, small_ckpt):
    data_dir = tmp_path / "raw"
    data_dir.mkdir()
    imgs = gen_synth(5, 3)
    for i, img in enumerate(imgs):
        write_u8t(str(data_dir / f"{i}.u8t"), img)
    container = str(tmp_path / "c.iodf")
    assert main(
        ["compress", str(data_dir), "--checkpoint", small_ckpt, "--out", container]
    ) == 0
    out_dir = str(tmp_path / "back")
    assert main(
        ["decompress", container, "--checkpoint", small_ckpt, "--out", out_dir,
         "--format", "u8t"]
    ) == 0
    for i in range(3):
        a = open(data_dir / f"{i}.u8t", "rb").read()
        b = open(os.path.join(out_dir, f"img_{i:05d}.u8t"), "rb").read()
        assert a == b


def test_u8t_shape_beyond_its_header_is_data_error(tmp_path, capsys):
    # a u8t header holds h and w in u16: 65540 rows are refused before any
    # file is opened, not left as a partial file after an OverflowError
    out = tmp_path / "big"
    argv = ["gen-synth", "--format", "u8t", "--count", "1", "--height", "65540",
            "--width", "4", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "u8t header" in err[0], err
    assert not any(out.iterdir())
    with pytest.raises(DataFormatError, match="u8t header"):
        write_u8t(str(tmp_path / "wide.u8t"), np.zeros((256, 1, 1), dtype=np.uint8))
    assert not (tmp_path / "wide.u8t").exists()
