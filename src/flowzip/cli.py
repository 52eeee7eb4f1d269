"""Command-line interface.

Commands: gen-synth, train, compress, decompress, eval, bench, prune,
quantize. A gated checkpoint is stored pruned, so ``prune`` prints its FLOPs
ratio and writes it unchanged. Exit codes: 0 success, 1 usage error, 2
data/format error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import codec, data
from .checkpoint import load_model, save_model
from .errors import FlowzipError, UsageError, VerificationError
from .model import FlowModel
from .train import TrainConfig, Trainer, calculate_flops, run_pipeline


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _positive_int(text: str) -> int:
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _batch_sizes(text: str) -> list[int]:
    return [_positive_int(b) for b in text.split(",")]


def _add_common(p):
    p.add_argument("--seed", type=int, default=None, help="override the config seed")


def build_parser() -> _Parser:
    p = _Parser(prog="flowzip", description="Integer discrete-flow lossless codec")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-synth", help="write a deterministic synthetic dataset")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--count", type=_positive_int, required=True)
    g.add_argument("--height", type=_positive_int, default=16)
    g.add_argument("--width", type=_positive_int, default=16)
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--format", choices=tuple(data.IMAGE_FORMATS), default="ppm")

    t = sub.add_parser("train", help="run the staged training workflow")
    t.add_argument("--config", default=None, help="key=value config file")
    t.add_argument("--out", required=True, help="checkpoint path prefix")
    t.add_argument("--stage", type=int, default=5, choices=range(1, 6))
    t.add_argument("--data", default=None, help="directory of training images")
    _add_common(t)

    c = sub.add_parser("compress", help="compress images into a container")
    c.add_argument("inputs", nargs="+", help="image files or one directory")
    c.add_argument("--checkpoint", required=True)
    c.add_argument("--out", required=True)
    c.add_argument("--path", choices=("float", "fake", "int"), default=None)

    d = sub.add_parser("decompress", help="reconstruct images from a container")
    d.add_argument("container")
    d.add_argument("--checkpoint", required=True)
    d.add_argument("--out", required=True, help="output directory")
    d.add_argument("--path", choices=("float", "fake", "int"), default=None)
    d.add_argument("--format", choices=tuple(data.IMAGE_FORMATS), default="ppm")

    e = sub.add_parser("eval", help="print analytic and coding bits per dimension")
    e.add_argument("inputs", nargs="+")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--path", choices=("float", "fake", "int"), default=None)

    b = sub.add_parser("bench", help="latency / bandwidth report (informational)")
    b.add_argument("inputs", nargs="+")
    b.add_argument("--checkpoint", required=True)
    b.add_argument(
        "--batch", type=_batch_sizes, default="4,8,16,32", help="comma-separated batch sizes"
    )
    b.add_argument("--runs", type=_positive_int, default=20)

    pr = sub.add_parser("prune", help="save a gated checkpoint and print its FLOPs ratio")
    pr.add_argument("--checkpoint", required=True)
    pr.add_argument("--out", required=True)

    q = sub.add_parser(
        "quantize",
        help="run stages 4-5 from a stage-3 checkpoint",
        description="Run training stages 4-5 from a stage-3 checkpoint through the "
        "same stage runner as train; each stage ends rounded to what a checkpoint stores.",
    )
    q.add_argument("--checkpoint", required=True)
    q.add_argument("--config", default=None)
    q.add_argument("--out", required=True)
    q.add_argument("--data", default=None)
    _add_common(q)

    return p


def _load_inputs(inputs) -> np.ndarray:
    if len(inputs) == 1 and os.path.isdir(inputs[0]):
        paths = data.dataset_paths(inputs[0])
    else:
        paths = list(inputs)
    return data.load_dataset(paths)


def _load_config(path, seed) -> TrainConfig:
    cfg = TrainConfig.from_file(path) if path else TrainConfig()
    if seed is not None:
        if seed < 0:  # np.random.default_rng refuses it
            raise UsageError(f"--seed must be a non-negative integer, got {seed}")
        cfg.seed = seed
    return cfg


def _train_val(cfg: TrainConfig, data_dir):
    if data_dir:
        images = _load_inputs([data_dir])
        if len(images) < cfg.val_count + 1:
            raise UsageError("dataset smaller than val_count")
        return images[: -cfg.val_count], images[-cfg.val_count :]
    total = cfg.train_count + cfg.val_count
    images = data.gen_synth(cfg.seed, total, cfg.height, cfg.width, cfg.in_channels)
    return images[: cfg.train_count], images[cfg.train_count :]


def _check_out_dir(path: str, what: str):
    """Fail before any training or coding when the ``what`` file at ``path``
    could not be written."""
    directory = os.path.dirname(path) or "."
    if not (os.path.isdir(directory) and os.access(directory, os.W_OK)):
        raise UsageError(f"cannot write {what}: {directory} is not a writable directory")
    if os.path.isdir(path):
        raise UsageError(f"cannot write {what}: {path} is a directory")


def _make_image_dir(directory: str):
    """Create ``directory`` for image files; called before any work, so an
    unwritable ``--out`` fails first."""
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as e:
        raise UsageError(f"cannot write images: {e}") from e
    if not os.access(directory, os.W_OK):
        raise UsageError(f"cannot write images: {directory} is not writable")


def _write_images(directory: str, images: np.ndarray, fmt: str):
    try:
        for i, img in enumerate(images):
            data.write_image(os.path.join(directory, f"img_{i:05d}.{fmt}"), img)
    except OSError as e:
        raise UsageError(f"cannot write images: {e}") from e


def cmd_gen_synth(args) -> int:
    _make_image_dir(args.out)
    images = data.gen_synth(args.seed, args.count, args.height, args.width)
    _write_images(args.out, images, args.format)
    print(f"wrote {len(images)} images to {args.out}")
    return 0


def cmd_train(args) -> int:
    _check_out_dir(args.out, "checkpoint")
    cfg = _load_config(args.config, args.seed)
    train_x, val_x = _train_val(cfg, args.data)

    def save_stage(model, stage):
        save_model(model, f"{args.out}.stage{stage}.ckpt")

    model, records = run_pipeline(
        cfg, train_x, val_x, last_stage=args.stage, checkpoint_cb=save_stage
    )
    save_model(model, args.out)
    final = records[-1]
    print(f"final stage={final.stage} bpd={final.bpd:.4f} flops={final.flops}")
    return 0


def cmd_compress(args) -> int:
    _check_out_dir(args.out, "container")
    model = load_model(args.checkpoint)
    images = _load_inputs(args.inputs)
    container, stats = codec.compress(images, model, args.path)
    try:
        with open(args.out, "wb") as f:
            f.write(container)
    except OSError as e:
        raise UsageError(f"cannot write container: {e}") from e
    print(
        f"compressed {len(images)} images: coding_bpd={stats['coding_bpd']:.4f} "
        f"analytic_bpd={stats['analytic_bpd']:.4f} bytes={len(container)}"
    )
    return 0


def cmd_decompress(args) -> int:
    _make_image_dir(args.out)
    model = load_model(args.checkpoint)
    try:
        with open(args.container, "rb") as f:
            container = f.read()
    except OSError as e:
        raise UsageError(f"cannot read container: {e}") from e
    images = codec.decompress(container, model, args.path)
    _write_images(args.out, images, args.format)
    print(f"decompressed {len(images)} images to {args.out}")
    return 0


def cmd_eval(args) -> int:
    model = load_model(args.checkpoint)
    images = _load_inputs(args.inputs)
    _, stats = codec.compress(images, model, args.path)
    gap = stats["coding_bpd"] - stats["analytic_bpd"]
    print(
        f"analytic_bpd={stats['analytic_bpd']:.6f} "
        f"coding_bpd={stats['coding_bpd']:.6f} gap={gap:.6f}"
    )
    return 0


def cmd_bench(args) -> int:
    model = load_model(args.checkpoint)
    images = _load_inputs(args.inputs)
    paths = ["float"] + (["int"] if model.weight_quant else [])
    hw = images.shape[2:]
    flops = calculate_flops(model, hw)
    print("path\tbatch\tms_per_sample_min\tms_per_sample_median\t"
          "mb_s_min\tmb_s_median\tflops")
    for path in paths:
        for bs in args.batch:
            if bs > len(images):
                raise UsageError(f"batch {bs} exceeds dataset size {len(images)}")
            batch = images[:bs]
            raw_mb = batch.nbytes / 1e6
            lat, bw = [], []
            for _ in range(args.runs):
                t0 = time.perf_counter()
                model.flow_forward(batch, path)
                lat.append((time.perf_counter() - t0) * 1000 / bs)
                t0 = time.perf_counter()
                codec.compress(batch, model, path)
                bw.append(raw_mb / (time.perf_counter() - t0))
            print(
                f"{path}\t{bs}\t{min(lat):.3f}\t{float(np.median(lat)):.3f}\t"
                f"{min(bw):.3f}\t{float(np.median(bw)):.3f}\t{flops}"
            )
    return 0


def cmd_prune(args) -> int:
    _check_out_dir(args.out, "checkpoint")
    model = load_model(args.checkpoint)
    if not model.gated:
        raise UsageError("model has no gates to prune")
    # every level's pixel count scales with H*W, so the ratio holds at any size
    side = 2**model.cfg.levels
    before = calculate_flops(FlowModel(model.cfg, seed=None), (side, side))
    after = calculate_flops(model, (side, side))
    save_model(model, args.out)
    print(f"pruned: {after / before:.3f}x the FLOPs of the unpruned network")
    return 0


def cmd_quantize(args) -> int:
    _check_out_dir(args.out, "checkpoint")
    cfg = _load_config(args.config, args.seed)
    model = load_model(args.checkpoint)
    if model.stage != 3:
        raise UsageError("quantize expects a stage-3 (fine-tuned) checkpoint")
    trainer = Trainer(cfg, *_train_val(cfg, args.data))
    trainer.run(model, (4, 5), None)
    save_model(model, args.out)
    print(f"quantized: bpd={trainer.records[-1].bpd:.4f}")
    return 0


COMMANDS = {
    "gen-synth": cmd_gen_synth,
    "train": cmd_train,
    "compress": cmd_compress,
    "decompress": cmd_decompress,
    "eval": cmd_eval,
    "bench": cmd_bench,
    "prune": cmd_prune,
    "quantize": cmd_quantize,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return COMMANDS[args.command](args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except VerificationError as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return 3
    except FlowzipError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
