"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

The desk-scale pipeline (configs/desk.cfg) trains once per session; several
criteria read its stage records and checkpoints. Full-suite runtime is
roughly ten minutes on a laptop-class CPU.
"""

import os
import time

import numpy as np
import pytest

from flowzip import autodiff as ad
from flowzip import codec, layers
from flowzip import model as flow_model
from flowzip.checkpoint import load_model, save_model
from flowzip.cli import main
from flowzip.data import gen_synth
from flowzip.model import FlowModel
from flowzip.numerics import round_half_away
from flowzip.quant import QuantizerParams, grad_rescale, quantizer_backward
from flowzip.rans import RansDecoder, RansEncoder, mass_table, rans_decode_step, rans_encode_step
from flowzip.train import TrainConfig, calculate_flops, run_pipeline, Trainer

DESK_CFG = os.path.join(os.path.dirname(__file__), "..", "configs", "desk.cfg")


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="session")
def desk(tmp_path_factory):
    """Train the desk pipeline once; expose records and per-stage checkpoints."""
    root = tmp_path_factory.mktemp("desk")
    cfg = TrainConfig.from_file(DESK_CFG)
    total = cfg.train_count + cfg.val_count
    images = gen_synth(cfg.seed, total, cfg.height, cfg.width, cfg.in_channels)
    ckpts = {}

    def save_stage(model, stage):
        path = str(root / f"stage{stage}.ckpt")
        save_model(model, path)
        ckpts[stage] = path

    model, records = run_pipeline(
        cfg,
        images[: cfg.train_count],
        images[cfg.train_count :],
        last_stage=5,
        log=lambda s: None,
        checkpoint_cb=save_stage,
    )
    held_out = gen_synth(cfg.seed + 1, 256, cfg.height, cfg.width, cfg.in_channels)
    return {
        "cfg": cfg,
        "model": model,
        "records": {r.stage: r for r in records},
        "ckpts": ckpts,
        "root": root,
        "held_out": held_out,
    }


# -- 1. losslessness through the CLI, three paths, 1000 images, < 5 min ------


def test_criterion_1_losslessness(desk, tmp_path):
    t_start = time.monotonic()
    data_dir = str(tmp_path / "data")
    assert main(["gen-synth", "--seed", "77", "--count", "1000", "--out", data_dir]) == 0
    inputs = {
        name: open(os.path.join(data_dir, name), "rb").read()
        for name in sorted(os.listdir(data_dir))
    }
    runs = [
        ("float model", desk["ckpts"][3], "float"),
        ("fake-quant model", desk["ckpts"][5], "fake"),
        ("integer-path model", desk["ckpts"][5], "int"),
    ]
    for label, ckpt, path in runs:
        container = str(tmp_path / f"{path}.iodf")
        assert main(
            ["compress", data_dir, "--checkpoint", ckpt, "--out", container,
             "--path", path]
        ) == 0
        out_dir = str(tmp_path / f"out_{path}")
        assert main(
            ["decompress", container, "--checkpoint", ckpt, "--out", out_dir,
             "--path", path]
        ) == 0
        restored = sorted(os.listdir(out_dir))
        assert len(restored) == 1000
        for src, dst in zip(sorted(inputs), restored):
            got = open(os.path.join(out_dir, dst), "rb").read()
            assert got == inputs[src], f"{label}: {src} not byte-exact"
    elapsed = time.monotonic() - t_start
    _report(1, "losslessness", elapsed < 300.0,
            f"3 paths x 1000 images byte-exact in {elapsed:.0f}s")


# -- 2. analytic-vs-coding gap ------------------------------------------------


def test_criterion_2_coding_gap(desk):
    details = []
    ok = True
    for path in ("int", "float"):
        _, stats = codec.compress(desk["held_out"], desk["model"], path)
        gap = stats["coding_bpd"] - stats["analytic_bpd"]
        details.append(f"{path}: gap={gap:.4f}")
        ok = ok and (-0.001 <= gap <= 0.02)
    _report(2, "analytic-vs-coding gap", ok, "; ".join(details))


# -- 3. rANS optimality and exhaustive single-step inversion -------------------


def test_criterion_3_rans_optimality():
    rng = np.random.default_rng(2024)
    table = mass_table(0.0, 3.0, -32, 31, 1 << 16)
    symbols = rng.choice(len(table.F), size=100_000, p=table.F / table.M)
    index = np.zeros(len(symbols), dtype=np.intp)
    enc = RansEncoder()
    enc.push(symbols, [table], index)
    payload = enc.payload()
    bits = 8 * len(payload)
    entropy = float(np.sum(-np.log2(table.F / table.M)[symbols]))
    opt_ok = bits <= 1.005 * entropy + 64
    dec = RansDecoder(payload)
    rt_ok = dec.pull([table], index) == symbols.tolist()
    dec.finish()

    four = mass_table(0.5, 1.2, -2, 1, 1 << 16)
    assert len(four.F) == 4
    inv_ok = all(
        rans_decode_step(rans_encode_step(x, s, four), four) == (s, x)
        for x in range(1 << 16)
        for s in range(4)
    )
    _report(3, "rANS optimality", opt_ok and rt_ok and inv_ok,
            f"{bits} bits vs entropy {entropy:.0f}; round trip ok={rt_ok}; "
            f"exhaustive inversion ok={inv_ok}")


# -- 4. gradient suite ---------------------------------------------------------


def test_criterion_4_gradient_suite():
    rng = np.random.default_rng(8)
    failures = []

    def fd_check(name, build, params, wrt, h=1e-6, rtol=1e-3):
        nodes = {k: ad.Node(v, requires_grad=True) for k, v in params.items()}
        ad.backward(build(nodes))
        grad = nodes[wrt].grad
        base = params[wrt]
        flat = base.reshape(-1)
        idxs = rng.choice(flat.size, size=min(6, flat.size), replace=False)
        for i in idxs:
            for sign in (1, -1):
                pert = dict(params)
                arr = base.copy().reshape(-1)
                arr[i] += sign * h
                pert[wrt] = arr.reshape(base.shape)
                val = float(build({k: ad.Node(v) for k, v in pert.items()}).value)
                if sign == 1:
                    up = val
                else:
                    dn = val
            fd = (up - dn) / (2 * h)
            g = grad.reshape(-1)[i]
            if abs(g - fd) > rtol * max(abs(fd), 1e-6):
                failures.append(f"{name}/{wrt}[{i}]: {g:.6g} vs {fd:.6g}")

    x = rng.normal(0, 1, (2, 3, 4, 4))
    w = rng.normal(0, 0.4, (4, 3, 3, 3))
    b = rng.normal(0, 0.3, 4)
    proj = rng.normal(0, 1, (2, 4, 4, 4))
    conv_params = {"x": x, "w": w, "b": b}

    def conv_loss(n):
        return ad.nsum(ad.mul(ad.conv2d(n["x"], n["w"], n["b"]), proj))

    for wrt in ("x", "w", "b"):
        fd_check("conv2d", conv_loss, conv_params, wrt)

    r = rng.normal(0, 1, (3, 8))
    r[np.abs(r) < 0.15] += 0.3
    rproj = rng.normal(0, 1, r.shape)
    fd_check("relu", lambda n: ad.nsum(ad.mul(ad.relu(n["r"]), rproj)), {"r": r}, "r")

    base4 = rng.normal(0, 1, (1, 4, 2, 2))
    src = rng.normal(0, 1, (1, 2, 2, 2))
    sproj = rng.normal(0, 1, base4.shape)

    def sadd_loss(n):
        return ad.nsum(ad.mul(ad.scatter_add(n["a"], n["s"], np.array([0, 2])), sproj))

    fd_check("scatter_add", sadd_loss, {"a": base4, "s": src}, "a")
    fd_check("scatter_add", sadd_loss, {"a": base4, "s": src}, "s")

    z = rng.integers(-5, 6, size=10).astype(np.float64)
    pp = {"mu": rng.normal(0, 2, 10), "log_s": rng.uniform(-0.5, 1.5, 10), "z": z}
    pproj = rng.normal(0, 1, 10)

    def prior_loss(n):
        return ad.nsum(ad.mul(ad.logistic_logpmf(n["z"], n["mu"], n["log_s"]), pproj))

    for wrt in ("mu", "log_s", "z"):
        fd_check("logistic_logpmf", prior_loss, pp, wrt)

    # STE round: reported derivative is one everywhere
    xr = ad.Node(rng.normal(0, 3, 7), requires_grad=True)
    ad.backward(ad.nsum(ad.round_ste(xr)))
    if not np.array_equal(xr.grad, np.ones(7)):
        failures.append("round_ste gradient not identity")

    # LSQ scale gradient: three-branch closed form, exact on constructed inputs
    s = 0.5
    r_branch = np.array([3.0 * s, 3.2 * s, -200.0, 200.0])
    up = np.array([2.0, 3.0, 5.0, 7.0])
    p = QuantizerParams(scale=s)
    _, grad_s = quantizer_backward(r_branch, p, up)
    g = grad_rescale(r_branch, p)
    by_hand = g * (
        up[0] * 0.0
        + up[1] * (round_half_away(3.2) - 3.2)
        + up[2] * (-128.0)
        + up[3] * 127.0
    )
    if grad_s[0] != by_hand:
        failures.append(f"LSQ branch mismatch {grad_s[0]} vs {by_hand}")

    _report(4, "gradient suite", not failures, "; ".join(failures) or "all adjoints ok")


# -- 5. quantization quality ---------------------------------------------------


def test_criterion_5_quantization_quality(desk):
    cfg = desk["cfg"]
    float_model = load_model(desk["ckpts"][3])
    trainer = Trainer(cfg, desk["held_out"], desk["held_out"], log=lambda s: None)
    float_bpd = trainer.eval_bpd(float_model, desk["held_out"])
    fake_bpd = trainer.eval_bpd(desk["model"], desk["held_out"])
    diff = fake_bpd - float_bpd
    _report(5, "quantization quality", diff <= 0.10,
            f"fake {fake_bpd:.4f} vs float {float_bpd:.4f} (diff {diff:+.4f})")


# -- 6. pruning ----------------------------------------------------------------


def test_criterion_6_pruning(desk):
    rec1, rec2, rec3 = (desk["records"][s] for s in (1, 2, 3))
    flops_ok = rec2.flops <= 0.6 * rec1.flops

    # the trained model and its reloaded stage-5 checkpoint, kept filters only
    model = desk["model"]
    reloaded = load_model(desk["ckpts"][5])
    x = gen_synth(4242, 100)
    equal = True
    for path in ("float", "int"):
        a = model.flow_forward(x, path)
        b = reloaded.flow_forward(x, path)
        equal = equal and all(
            np.array_equal(p, q) for p, q in zip(a.latents, b.latents)
        )
    flops_match = calculate_flops(reloaded, (16, 16)) == calculate_flops(model, (16, 16))

    regression = rec3.bpd - rec1.bpd
    _report(
        6, "pruning",
        flops_ok and equal and flops_match and regression <= 0.10,
        f"flops {rec2.flops}/{rec1.flops}={rec2.flops / rec1.flops:.2%}, "
        f"trained==reloaded on 100 inputs: {equal}, "
        f"stage3 regression {regression:+.4f}",
    )


# -- 7. integer-path determinism and exact simulation ---------------------------


def _int_im2col(v, k):
    B, C, H, W = v.shape
    pad = (k - 1) // 2
    xp = np.zeros((B, C, H + 2 * pad, W + 2 * pad), dtype=np.int64)
    xp[:, :, pad : pad + H, pad : pad + W] = v
    cols = np.empty((B, C * k * k, H * W), dtype=np.int64)
    n = 0
    for c in range(C):
        for i in range(k):
            for j in range(k):
                cols[:, n] = xp[:, c, i : i + H, j : j + W].reshape(B, -1)
                n += 1
    return cols


def _int_conv_acc_reference(values, conv):
    """Literal integer accumulation (int64 matmul), no floating point, over
    the plan entry's int8 grid and folded bias."""
    B, C, H, W = values.shape
    cout = conv.w.shape[0]
    cols = _int_im2col(values.astype(np.int64), conv.w.shape[2])
    acc = np.matmul(conv.w.reshape(cout, -1).astype(np.int64), cols)
    acc += conv.bhat.astype(np.int64)[:, None]
    return acc.reshape(B, cout, H, W).astype(np.float64)


def test_criterion_7_integer_determinism(desk, monkeypatch):
    model = desk["model"]
    x = gen_synth(99, 100)
    run1 = model.flow_forward(x, "int")
    run2 = model.flow_forward(x, "int")
    deterministic = all(
        np.array_equal(a, b) for a, b in zip(run1.latents, run2.latents)
    )

    # model imports the kernel by value for each coupling net's output conv
    for owner in (layers, flow_model):
        monkeypatch.setattr(owner, "int_conv_acc", _int_conv_acc_reference)
    ref = model.flow_forward(x, "int")
    monkeypatch.undo()
    exact = all(np.array_equal(a, b) for a, b in zip(run1.latents, ref.latents))
    _report(7, "integer-path determinism", deterministic and exact,
            f"two runs identical: {deterministic}, matches int64 simulation: {exact}")


# -- 8. training sanity ----------------------------------------------------------


def test_criterion_8_training_sanity():
    curves = []
    finals = []
    for seed in (101, 202, 303):
        cfg = TrainConfig.from_file(DESK_CFG)
        cfg.seed = seed
        cfg.epochs_stage1 = 20
        cfg.patience = 1000  # no early stop: the criterion wants 20 epochs
        images = gen_synth(seed, cfg.train_count + cfg.val_count)
        _, records = run_pipeline(
            cfg, images[: cfg.train_count], images[cfg.train_count :],
            last_stage=1, log=lambda s: None,
        )
        curves.append(records[0].history)
        finals.append(records[0].bpd)
    median_curve = np.median(np.array(curves), axis=0)
    median_final = float(np.median(finals))
    monotone = bool(np.all(np.diff(median_curve) <= 0.05))
    _report(8, "training sanity", median_final < 7.5 and monotone,
            f"median held-out bpd {median_final:.4f}, "
            f"median curve monotone(+-0.05): {monotone}")


# -- 9. bench report ---------------------------------------------------------------


def test_criterion_9_bench_report(desk, tmp_path, capsys):
    data_dir = str(tmp_path / "bench_data")
    main(["gen-synth", "--seed", "31", "--count", "32", "--out", data_dir])
    capsys.readouterr()
    code = main(
        ["bench", data_dir, "--checkpoint", desk["ckpts"][5],
         "--batch", "4,8,16,32", "--runs", "20"]
    )
    out = capsys.readouterr().out.splitlines()
    rows = [ln.split("\t") for ln in out[1:] if ln]
    seen = {(r[0], int(r[1])) for r in rows}
    want = {(p, b) for p in ("float", "int") for b in (4, 8, 16, 32)}
    schema_ok = all(
        len(r) == 7 and float(r[2]) > 0 and float(r[4]) > 0 and int(r[6]) > 0
        for r in rows
    )
    ok = code == 0 and want <= seen and schema_ok
    # re-emit after capsys so the report line stays visible
    print()
    _report(9, "bench report", ok, f"{len(rows)} rows covering {sorted(seen)}")
