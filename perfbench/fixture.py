"""Deterministic desk-architecture models for the benchmark, built without training.

Training the real desk pipeline takes minutes and would tie every codec
number to training numerics, so the benchmark builds a model that has the
shape and statistics of a trained one instead:

* seeded init of the ``configs/desk.cfg`` architecture;
* gates attached, then about 40% of filters switched off by seed;
* coupling output-conv weights of std 0.1 (the scale a trained desk model has);
* prior biases per channel: mu = 128 +- 1, log s in [1.9, 3.0], with the
  prior nets' output convs left at zero, so each container needs one mass
  table per latent channel;
* quantizers calibrated as training stages 4 and 5 do.

Its coding_bpd (about 9.3) is higher than a trained model's (about 6.4);
that is a fact of the fixture, not something to tune.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from flowzip import checkpoint, train
from flowzip.data import gen_synth
from flowzip.model import FlowModel

OFF_FRACTION = 0.4
OUT_WEIGHT_STD = 0.1
MU_SPREAD = 1.0
LOG_S_RANGE = (1.9, 3.0)
GATE_OFF_VALUE = 0.2  # any value below the 0.5 binarization threshold


def desk_config(root: str) -> train.TrainConfig:
    return train.TrainConfig.from_file(os.path.join(root, "configs", "desk.cfg"))


def _prior_bias(rng: np.random.Generator, channels: int):
    mu = 128.0 + rng.uniform(-MU_SPREAD, MU_SPREAD, channels)
    log_s = rng.uniform(*LOG_S_RANGE, channels)
    return mu, log_s


def build_model(cfg: train.TrainConfig, stage: int) -> FlowModel:
    """The fixture model as it stands after training stage 1, 2 or 5.

    Every stage draws the same weights from the config seed; stage 2 adds
    the gates and stage 5 the calibrated quantizers.
    """
    rng = np.random.default_rng(cfg.seed)
    model = FlowModel(cfg.flow_config(), seed=cfg.seed)
    for net in model.coupling_nets():
        net.out.w.value[...] = rng.normal(0.0, OUT_WEIGHT_STD, net.out.w.value.shape)
    for lvl in model.levels:
        if lvl.prior_net is not None:
            mu, log_s = _prior_bias(rng, lvl.factored)
            lvl.prior_net.out.b.value[...] = np.concatenate([mu, log_s])
    model.final_mu.value[...], model.final_log_s.value[...] = _prior_bias(
        rng, model.final_channels
    )
    model.stage = 1
    if stage >= 2:
        model.attach_gates(cfg.alpha)
        for gate in model.gates():
            gate.node.value[rng.random(len(gate.g)) < OFF_FRACTION] = GATE_OFF_VALUE
        model.stage = 2
    if stage >= 5:
        calib = gen_synth(cfg.seed, cfg.calib_count, cfg.height, cfg.width, cfg.in_channels)
        model.act_quant = True
        train.calibrate_activations(model, calib)
        model.weight_quant = True
        train.calibrate_weights(model)
        model.stage = 5
    return model


def digest(*parts: bytes | np.ndarray) -> str:
    """blake2b-128 hex digest of byte strings and arrays, in order."""
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else part)
    return h.hexdigest()


def facts(model: FlowModel, cfg: train.TrainConfig) -> dict:
    """Workload-independent facts that identify the fixture."""
    gates = model.gates()
    kept = sum(int(g.binarized().sum()) for g in gates)
    total = sum(len(g.g) for g in gates)
    return {
        "model_digest": digest(checkpoint.serialize(model)),
        "flops": train.calculate_flops(model, (cfg.height, cfg.width)),
        "filters_kept": kept,
        "filters_gated": total,
    }
