"""The benchmark's workloads. Each one builds its inputs from the seed and runs
one operation at a time through flowzip's public API.

* ``int-batch``: 256 desk images as 64-image containers on the int path (the
  paper's deployment path). Per-image integer coupling nets and the
  per-symbol rANS dominate; mass-table builds are amortised over a container.
* ``int-single``: one-image containers on the int path, one round trip at a
  time, as a service handling single requests sees them. Fixed per-call
  costs (mass-table builds, the model id) dominate.
* ``train-step``: desk training steps at batch 16 on the stage-1 float, the
  stage-2 gated and the stage-5 fake-quant objectives. The only workload that
  runs the autodiff tape and the optimizer; the control for codec changes
  and for int-kernel changes.

An operation is a compress plus a decompress of one container, or one
training step of each objective. Its forward half is the compress or the
objectives' forward passes; its reverse half is the decompress or the
backward passes with the optimizer updates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from flowzip import autodiff, codec, train
from flowzip.data import gen_synth

from fixture import build_model, desk_config, digest

TRAIN_BATCHES = 8


@dataclass
class Op:
    forward_s: float
    reverse_s: float
    images: int
    failed: int = 0
    key: int = 0  # which input container
    payload_bytes: int = 0
    step_s: dict = field(default_factory=dict)  # training objective -> seconds


@dataclass
class State:
    cfg: train.TrainConfig
    model: object  # the stage-5 fixture the codec workloads run; None for train-step
    batches: list
    inputs_digest: str
    extra: dict = field(default_factory=dict)


class CodecWorkload:
    """Round trips of desk-sized containers on the int path."""

    steps = 1  # operations counted per op: one round trip

    def __init__(self, count: int, per_container: int, min_ops: int = 1):
        self.count, self.per_container, self.min_ops = count, per_container, min_ops

    def setup(self, root: str, seed: int) -> State:
        cfg = desk_config(root)
        model = build_model(cfg, 5)
        images = gen_synth(seed, self.count, cfg.height, cfg.width, cfg.in_channels)
        batches = [
            images[i : i + self.per_container]
            for i in range(0, self.count, self.per_container)
        ]
        return State(cfg, model, batches, digest(images))

    def _round_trip(self, state: State, batch: np.ndarray, key: int) -> Op:
        t0 = time.perf_counter()
        container, stats = codec.compress(batch, state.model, "int")
        t1 = time.perf_counter()
        out = codec.decompress(container, state.model, "int")
        t2 = time.perf_counter()
        exact = out.shape == batch.shape and np.array_equal(out, batch)
        return Op(t1 - t0, t2 - t1, len(batch), 0 if exact else 1, key, stats["payload_bytes"])

    def warm_up(self, state: State) -> Op:
        return self._round_trip(state, state.batches[0][:1], 0)

    def op(self, state: State, i: int) -> Op:
        key = i % len(state.batches)
        return self._round_trip(state, state.batches[key], key)

    def bpd(self, state: State, ops: list[Op]) -> float:
        """Coded bits per dimension over every distinct container coded."""
        payload = {op.key: op.payload_bytes for op in ops}
        dims = sum(state.batches[k].size for k in payload)
        return 8.0 * sum(payload.values()) / dims if dims else 0.0


class TrainWorkload:
    steps = 3  # one step per objective
    min_ops = 1

    def setup(self, root: str, seed: int) -> State:
        cfg = desk_config(root)
        images = gen_synth(
            seed, cfg.batch_size * TRAIN_BATCHES, cfg.height, cfg.width, cfg.in_channels
        )
        batches = [
            images[i : i + cfg.batch_size] for i in range(0, len(images), cfg.batch_size)
        ]
        objectives = {}
        for name, stage in (("float", 1), ("gated", 2), ("quant", 5)):
            model = build_model(cfg, stage)
            main, gates, scales = train.param_groups(model)
            if name == "float":
                opt = train.Adamax({"main": (main, cfg.lr)})
                objective = lambda b, m=model: train.loss_bpd(b, m)
            elif name == "gated":
                opt = train.Adamax({"main": (main, cfg.lr), "gate": (gates, cfg.gate_lr)})
                lambdas = train.gate_lambdas(model, cfg)
                objective = lambda b, m=model, lam=lambdas: train.gated_objective(b, m, lam)[0]
            else:
                opt = train.Adamax(
                    {"main": (main, cfg.quant_lr), "scale": (scales, cfg.quant_lr)}
                )
                objective = lambda b, m=model: train.loss_bpd(b, m)
            objectives[name] = (model, opt, objective)
        return State(cfg, None, batches, digest(images), {"objectives": objectives})

    def _cycle(self, state: State, i: int) -> Op:
        op = Op(0.0, 0.0, 0)
        for j, (name, (model, opt, objective)) in enumerate(state.extra["objectives"].items()):
            batch = state.batches[(3 * i + j) % len(state.batches)]
            opt.zero_grad()
            t0 = time.perf_counter()
            loss = objective(batch)
            t1 = time.perf_counter()
            autodiff.backward(loss)
            opt.step()
            train.clamp_auxiliary(model)
            t2 = time.perf_counter()
            value = float(loss.value)
            op.failed += 0 if np.isfinite(value) else 1
            op.forward_s += t1 - t0
            op.reverse_s += t2 - t1
            op.images += len(batch)
            op.step_s[name] = t2 - t0
        return op

    def warm_up(self, state: State) -> Op:
        model = state.extra["objectives"]["float"][0]
        with autodiff.no_grad():
            loss = train.loss_bpd(np.concatenate(state.batches), model)
        state.extra["initial_bpd"] = float(loss.value)
        return self._cycle(state, 0)

    def op(self, state: State, i: int) -> Op:
        return self._cycle(state, i)

    def bpd(self, state: State, ops: list[Op]) -> float:
        """The float objective over all inputs, before any update."""
        return state.extra.get("initial_bpd", 0.0)


WORKLOADS = {
    "int-batch": CodecWorkload(256, 64),
    # 200 round trips put ten samples beyond the reported p95
    "int-single": CodecWorkload(200, 1, min_ops=200),
    "train-step": TrainWorkload(),
}
