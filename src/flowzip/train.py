"""Objectives, optimizer, FLOPs accounting, pruning, and the training workflow.

The workflow has five stages: (1) train the float model, (2) attach binary
gates and train the gated objective until the pruned-model FLOPs drop below
the target fraction of the original, (3) fine-tune with gates frozen,
(4) fine-tune with fake-quantized activations, (5) fine-tune with weights
fake-quantized as well. Stage transitions calibrate quantizer scales from a
held-out calibration batch.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .checkpoint import KIND_GATE, KIND_PARAM, KIND_QSCALE, named_parameters, round_to_stored
from .errors import DataFormatError, DivergenceError, StageTimeoutError, UsageError
from .layers import KERNEL
from .model import FlowConfig, FlowModel
from .quant import MIN_SCALE

MAC_FLOPS = 2  # one multiply-accumulate counts as two floating point ops
# Early stopping counts an epoch as an improvement when bpd drops by more.
MIN_DELTA = 1e-3


@dataclass
class TrainConfig:
    # architecture
    levels: int = 2
    couplings: int = 4
    hidden: int = 32
    blocks: int = 2
    in_channels: int = 3
    height: int = 16
    width: int = 16
    # optimization (Adamax throughout)
    lr: float = 1e-3
    lr_decay: float = 0.99
    gate_lr: float = 5e-5
    finetune_lr: float = 5e-5
    quant_lr: float = 1e-4
    batch_size: int = 32
    # stage schedule
    epochs_stage1: int = 20
    epochs_stage3: int = 5
    epochs_stage4: int = 4
    epochs_stage5: int = 5
    stage2_max_epochs: int = 60
    patience: int = 5
    # gating / pruning
    alpha: float = 0.8
    lambda_levels: tuple = (1.0, 2.0, 4.0, 8.0)
    lambda_ramp: float = 1.25  # per-epoch growth while above the FLOPs target
    r_target: float = 0.6
    # quantization
    calib_count: int = 64
    # data
    seed: int = 1234
    train_count: int = 256
    val_count: int = 64

    def flow_config(self) -> FlowConfig:
        return FlowConfig(
            levels=self.levels,
            couplings=self.couplings,
            hidden=self.hidden,
            blocks=self.blocks,
            in_channels=self.in_channels,
        )

    @classmethod
    def from_file(cls, path: str) -> "TrainConfig":
        """Parse the flat key=value config format (# starts a comment)."""
        known = {f.name: f.type for f in fields(cls)}
        kwargs = {}
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as e:
            raise DataFormatError(f"cannot read config: {e}") from e
        except UnicodeDecodeError as e:
            raise DataFormatError(f"{path}: config is not UTF-8 text (byte {e.start})") from e
        for ln, line in enumerate(lines, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DataFormatError(f"{path}:{ln}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in known:
                raise DataFormatError(f"{path}:{ln}: unknown config key '{key}'")
            default = getattr(cls(), key)
            try:
                if isinstance(default, tuple):
                    kwargs[key] = tuple(float(v) for v in value.split(","))
                elif isinstance(default, int):
                    kwargs[key] = int(value)
                    least = 0 if key == "seed" else 1  # counts, sizes, epoch caps
                    if kwargs[key] < least:
                        raise DataFormatError(f"{path}:{ln}: '{key}' must be at least {least}")
                else:
                    kwargs[key] = float(value)
                # float() takes nan, inf and 1e999; training on them writes NaN weights
                if isinstance(default, (float, tuple)) and not np.all(np.isfinite(kwargs[key])):
                    raise DataFormatError(f"{path}:{ln}: '{key}' must be finite")
            except ValueError as e:
                raise DataFormatError(f"{path}:{ln}: bad value for '{key}'") from e
        return cls(**kwargs)


# ---------------------------------------------------------------------------
# objectives


def loss_bpd(batch: np.ndarray, model: FlowModel):
    """Mean bits per dimension of the batch under the model (a tape Node)."""
    batch = np.asarray(batch)
    if batch.size == 0:
        raise DataFormatError("empty batch")
    d = batch[0].size
    total = model.training_forward(batch)
    return ad.scale(total, -1.0 / (batch.shape[0] * d))


def gate_lambdas(model: FlowModel, config: TrainConfig) -> list[float]:
    """Effective per-gate penalty per level: table ratio / total gated filters."""
    total = sum(len(g.g) for g in model.gates())
    if total == 0:
        return []
    return [
        config.lambda_levels[min(li, len(config.lambda_levels) - 1)] / total
        for li in range(len(model.levels))
    ]


def gated_objective(batch: np.ndarray, model: FlowModel, lambdas) -> tuple:
    """bpd + sum over gates of lambda(level) * ||binarized gate||_1."""
    base = loss_bpd(batch, model)
    penalty = None
    for li, lvl in enumerate(model.levels):
        lam = float(lambdas[min(li, len(lambdas) - 1)])
        for coup in lvl.couplings:
            for blk in coup.net.blocks:
                for gate in blk.gates():
                    term = ad.scale(ad.nsum(ad.binarize_ste(gate.node)), lam)
                    penalty = term if penalty is None else ad.add(penalty, term)
    if penalty is None:
        return base, base
    return ad.add(base, penalty), base


# ---------------------------------------------------------------------------
# optimizer


class Adamax:
    """Adamax with per-group learning rates and per-epoch decay."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, groups: dict):
        # groups: name -> (params list, lr)
        self.groups = {
            name: {
                "params": list(params),
                "lr": lr,
                "m": [np.zeros_like(p.value) for p in params],
                "u": [np.zeros_like(p.value) for p in params],
            }
            for name, (params, lr) in groups.items()
        }
        self.t = 0

    def step(self):
        self.t += 1
        corr = 1.0 - self.beta1**self.t
        for grp in self.groups.values():
            for p, m, u in zip(grp["params"], grp["m"], grp["u"]):
                if p.grad is None:
                    continue
                g = p.grad
                m *= self.beta1
                m += (1 - self.beta1) * g
                np.maximum(self.beta2 * u, np.abs(g), out=u)
                p.value -= (grp["lr"] / corr) * m / (u + self.eps)

    def decay(self, factor: float):
        for grp in self.groups.values():
            grp["lr"] *= factor

    def zero_grad(self):
        for grp in self.groups.values():
            for p in grp["params"]:
                p.grad = None


def param_groups(model: FlowModel):
    """Split parameters into main / gate / quantizer-scale groups."""
    groups = {KIND_PARAM: [], KIND_GATE: [], KIND_QSCALE: []}
    for kind, _, node in named_parameters(model):
        groups[kind].append(node)
    return groups[KIND_PARAM], groups[KIND_GATE], groups[KIND_QSCALE]


def clamp_auxiliary(model: FlowModel):
    """Post-step projections: gates into [0,1], scales positive, s bounded."""
    for gate in model.gates():
        gate.clamp()
    for kind, _, node in named_parameters(model):
        if kind == KIND_QSCALE:
            np.clip(node.value, MIN_SCALE, None, out=node.value)
    np.clip(model.final_log_s.value, -5.0, 8.0, out=model.final_log_s.value)


# ---------------------------------------------------------------------------
# FLOPs accounting


def _conv_flops(c_out: int, c_in: int, hw: int) -> int:
    return MAC_FLOPS * c_out * c_in * KERNEL * KERNEL * hw


def calculate_flops(model: FlowModel, hw: tuple[int, int]) -> int:
    """FLOPs of one forward pass over an H x W image, honoring the gates.

    A gated-off filter removes its own output row and the matching input
    column of the following convolution inside the block; gated-off output
    channels of conv B pass the shortcut through, so block inputs always
    count full width. A pruned model counts exactly as its gated original.
    """
    H, W = hw
    total = 0
    for lvl in model.levels:
        H, W = H // 2, W // 2
        px = H * W
        nets = [c.net for c in lvl.couplings]
        if lvl.prior_net is not None:
            nets.append(lvl.prior_net)
        for net in nets:
            width = net.stem.c_out
            total += _conv_flops(width, net.stem.c_in, px)
            for blk in net.blocks:
                ka, kb = blk.kept_sets()
                total += _conv_flops(len(ka), width, px)
                total += _conv_flops(len(kb), len(ka), px)
            total += _conv_flops(net.out.c_out, width, px)
    return total


# ---------------------------------------------------------------------------
# pruning


def prune(model: FlowModel) -> FlowModel:
    """A copy of a gated model with every gate frozen at exactly 0 or 1.

    The copy computes bit-identically to the model on every path: the float
    and fake paths mask the same channels, and the integer path skips the
    gated-off filters either way. Pruning shows in storage: ``serialize``
    writes only the kept filters of a pruned model (see ``checkpoint``).
    """
    if not model.gated:
        raise UsageError("model has no gates to prune")
    pruned = copy.deepcopy(model)
    for gate in pruned.gates():
        gate.node.value[...] = gate.binarized()
    pruned.pruned = True
    return pruned


# ---------------------------------------------------------------------------
# calibration


def calibrate_activations(model: FlowModel, batch: np.ndarray):
    """One forward pass that sets every activation-quantizer scale from data."""
    with ad.no_grad():
        model.training_forward(batch, calibrate=True)


def calibrate_weights(model: FlowModel):
    for net in model.coupling_nets():
        for blk in net.blocks:
            blk.conv_a.calibrate_weight_scale()
            blk.conv_b.calibrate_weight_scale()
        net.out.calibrate_weight_scale()


# ---------------------------------------------------------------------------
# the workflow


@dataclass
class StageRecord:
    stage: int
    epochs: int
    bpd: float
    flops: int
    history: list = field(default_factory=list)


class Trainer:
    def __init__(self, config: TrainConfig, train_x: np.ndarray, val_x: np.ndarray,
                 log=print):
        self.cfg = config
        self.train_x = np.asarray(train_x)
        self.val_x = np.asarray(val_x)
        self.rng = np.random.default_rng(config.seed)
        self.log = log
        self.records: list[StageRecord] = []

    # -- helpers -----------------------------------------------------------

    def eval_bpd(self, model: FlowModel, x: np.ndarray) -> float:
        path = "fake" if model.act_quant else "float"
        total, n = 0.0, 0
        d = x[0].size
        for i in range(0, len(x), self.cfg.batch_size):
            chunk = x[i : i + self.cfg.batch_size]
            res = model.flow_forward(chunk, path)
            total += float(-res.log2p.sum()) / d
            n += len(chunk)
        return total / n

    def _epoch(self, model, optimizer, objective, stage: int, epoch: int):
        """One pass over the training set. A non-finite loss raises
        DivergenceError before its step updates anything, and so does a
        parameter that the last step left non-finite, which no checkpoint
        may hold. These checks replace numpy's overflow warnings."""
        where = f"training diverged at stage {stage} epoch {epoch}"
        order = self.rng.permutation(len(self.train_x))
        bs = self.cfg.batch_size
        with np.errstate(all="ignore"):
            for i in range(0, len(order), bs):
                batch = self.train_x[order[i : i + bs]]
                optimizer.zero_grad()
                loss = objective(batch)
                value = float(loss.value)
                if not np.isfinite(value):
                    raise DivergenceError(f"{where}: loss is {value}")
                ad.backward(loss)
                optimizer.step()
                clamp_auxiliary(model)
        for grp in optimizer.groups.values():
            if not all(np.isfinite(p.value).all() for p in grp["params"]):
                raise DivergenceError(f"{where}: a parameter is not finite")

    def _report(self, stage, epoch, bpd, flops, lr):
        self.log(f"stage={stage} epoch={epoch} bpd={bpd:.4f} flops={flops} lr={lr:.6g}")

    def _run_stage(self, model, stage, groups, epochs, early_stop=False):
        """Train the bpd objective with Adamax over ``groups``; record the stage.

        Gates are frozen or absent in these stages, so the FLOPs stay fixed.
        """
        opt = Adamax(groups)
        history = []
        best, since_best = np.inf, 0
        flops = calculate_flops(model, self.train_x.shape[2:])
        for epoch in range(epochs):
            self._epoch(model, opt, lambda b: loss_bpd(b, model), stage, epoch)
            opt.decay(self.cfg.lr_decay)
            bpd = self.eval_bpd(model, self.val_x)
            history.append(bpd)
            lr = next(iter(opt.groups.values()))["lr"]
            self._report(stage, epoch, bpd, flops, lr)
            if early_stop:
                if bpd < best - MIN_DELTA:
                    best, since_best = bpd, 0
                else:
                    since_best += 1
                    if since_best >= self.cfg.patience:
                        break
        model.stage = stage
        self.records.append(StageRecord(stage, len(history), history[-1], flops, history))

    def _quant_groups(self, model: FlowModel) -> dict:
        main, _, scales = param_groups(model)
        return {"main": (main, self.cfg.quant_lr), "scale": (scales, self.cfg.quant_lr)}

    # -- stages --------------------------------------------------------------

    def stage1(self, model: FlowModel):
        main, _, _ = param_groups(model)
        self._run_stage(
            model, 1, {"main": (main, self.cfg.lr)}, self.cfg.epochs_stage1,
            early_stop=True,
        )

    def stage2(self, model: FlowModel):
        """Gate training until the pruned-model FLOPs reach the target.

        The target is r_target times the FLOPs of the model before its gates
        are attached. The per-gate penalty starts at lambda_levels / G and
        grows by lambda_ramp every epoch spent above the target, so the loop
        terminates under any usefulness distribution; relative per-level
        ratios never change.
        """
        hw = self.train_x.shape[2:]
        target = self.cfg.r_target * calculate_flops(model, hw)
        model.attach_gates(self.cfg.alpha)
        lambdas = np.asarray(gate_lambdas(model, self.cfg))
        main, gates, _ = param_groups(model)
        opt = Adamax({"main": (main, self.cfg.lr), "gate": (gates, self.cfg.gate_lr)})
        history = []
        flops = calculate_flops(model, hw)
        epoch = 0
        while flops > target:
            if epoch >= self.cfg.stage2_max_epochs:
                raise StageTimeoutError(
                    f"gate training hit the {self.cfg.stage2_max_epochs}-epoch cap "
                    f"at {flops} FLOPs (target {target:.0f}); "
                    f"flops history: {history}"
                )
            self._epoch(model, opt, lambda b: gated_objective(b, model, lambdas)[0], 2, epoch)
            opt.decay(self.cfg.lr_decay)
            lambdas = lambdas * self.cfg.lambda_ramp
            flops = calculate_flops(model, hw)
            bpd = self.eval_bpd(model, self.val_x)
            history.append((bpd, flops))
            self._report(2, epoch, bpd, flops, opt.groups["gate"]["lr"])
            epoch += 1
        bpd = history[-1][0] if history else self.eval_bpd(model, self.val_x)
        model.stage = 2
        self.records.append(StageRecord(2, epoch, bpd, flops, history))

    def stage3(self, model: FlowModel):
        main, _, _ = param_groups(model)  # gates excluded: frozen
        self._run_stage(
            model, 3, {"main": (main, self.cfg.finetune_lr)}, self.cfg.epochs_stage3
        )

    def stage4(self, model: FlowModel, calib: np.ndarray):
        model.act_quant = True
        calibrate_activations(model, calib)
        self._run_stage(model, 4, self._quant_groups(model), self.cfg.epochs_stage4)

    def stage5(self, model: FlowModel):
        model.weight_quant = True
        calibrate_weights(model)
        self._run_stage(model, 5, self._quant_groups(model), self.cfg.epochs_stage5)


def run_pipeline(
    config: TrainConfig,
    train_x: np.ndarray,
    val_x: np.ndarray,
    last_stage: int = 5,
    log=print,
    checkpoint_cb=None,
) -> tuple[FlowModel, list[StageRecord]]:
    """Run training stages 1..last_stage and return the model plus records.

    Each stage ends by rounding the model to the float32 values a checkpoint
    stores (``checkpoint.round_to_stored``), then calls ``checkpoint_cb``, so
    the run is the same whether or not the callback saves it.
    """
    trainer = Trainer(config, train_x, val_x, log=log)
    model = FlowModel(config.flow_config(), seed=config.seed)
    calib = train_x[: config.calib_count]
    stages = {
        1: lambda: trainer.stage1(model),
        2: lambda: trainer.stage2(model),
        3: lambda: trainer.stage3(model),
        4: lambda: trainer.stage4(model, calib),
        5: lambda: trainer.stage5(model),
    }
    for s in range(1, last_stage + 1):
        stages[s]()
        round_to_stored(model)
        if checkpoint_cb is not None:
            checkpoint_cb(model, s)
    return model, trainer.records
