"""Spans around calls into flowzip's layers, installed from outside the package.

Each span counts calls and accumulates total and self nanoseconds, where self
time is the span's time minus the time of the spans it called. A span is
installed by replacing a public function or method with a timing wrapper and
is removed when the tracer closes. Several functions are imported by value,
so a span lists every module that holds its own reference.
"""

from __future__ import annotations

import time

from flowzip import autodiff, checkpoint, codec, layers, model, quant, rans, train

# span name -> the (owner, attribute) pairs it replaces
SPANS: dict[str, tuple] = {
    "codec.compress": ((codec, "compress"),),
    "codec.decompress": ((codec, "decompress"),),
    "codec.model_id": ((codec, "model_id"),),
    "checkpoint.serialize": ((codec, "serialize"), (checkpoint, "serialize")),
    "codec.table_get": ((codec.PriorTableCache, "get"),),
    "rans.mass_table": ((codec, "mass_table"), (rans, "mass_table")),
    "rans.push": ((rans.RansEncoder, "push"),),
    "rans.pull": ((rans.RansDecoder, "pull"),),
    "model.flow_forward": ((model.FlowModel, "flow_forward"),),
    "model.prior": ((model.Level, "prior_params_raw"),),
    "model.coupling_inverse": ((model.CouplingLayer, "inverse_int_domain"),),
    "model.net_int": ((model.CouplingNet, "forward_int"),),
    "model.net_sim": ((model.CouplingNet, "forward_sim"),),
    "layers.block_int": ((layers, "block_int"), (model, "block_int")),
    "layers.int_conv_acc": ((layers, "int_conv_acc"), (model, "int_conv_acc")),
    "layers.block_sim": ((layers, "block_sim"), (model, "block_sim")),
    "quant.quantize": ((quant, "quantize"),),
    "autodiff.im2col": ((autodiff, "im2col"),),
    "autodiff.conv2d_raw": ((autodiff, "conv2d_raw"),),
    "autodiff.conv2d": ((autodiff, "conv2d"),),
    "autodiff.fake_quantize": ((autodiff, "fake_quantize"),),
    "autodiff.backward": ((autodiff, "backward"),),
    "train.loss_bpd": ((train, "loss_bpd"),),
    "train.gated_objective": ((train, "gated_objective"),),
    "train.Adamax.step": ((train.Adamax, "step"),),
    "train.clamp_auxiliary": ((train, "clamp_auxiliary"),),
}

_CODEC = (
    "codec.compress", "codec.decompress", "codec.model_id", "checkpoint.serialize",
    "codec.table_get", "rans.mass_table", "rans.push", "rans.pull",
    "model.flow_forward", "model.prior", "model.coupling_inverse", "autodiff.im2col",
)
_INT = ("model.net_int", "layers.block_int", "layers.int_conv_acc", "quant.quantize")
_SIM = ("model.net_sim", "layers.block_sim", "autodiff.conv2d", "autodiff.fake_quantize")

# Spans that must record calls on each workload. A rename or a new by-value
# import in flowzip would otherwise drop a layer from the trace unnoticed.
EXPECTED: dict[str, tuple] = {
    "int-batch": _CODEC + _INT,
    "int-single": _CODEC + _INT,
    "train-step": _SIM + (
        "autodiff.im2col", "autodiff.conv2d_raw", "autodiff.backward",
        "train.loss_bpd", "train.gated_objective", "train.Adamax.step",
        "train.clamp_auxiliary",
    ),
}


class Tracer:
    """Installs every span in SPANS while open; see the module docstring."""

    def __init__(self):
        self.stats = {name: [0, 0, 0] for name in SPANS}  # calls, total ns, child ns
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn):
        st = self.stats[name]
        stack = self._stack
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                st[0] += 1
                st[1] += dt
                st[2] += stack.pop()
                if stack:
                    stack[-1] += dt

        return span

    def __enter__(self):
        self.missing = []
        for name, targets in SPANS.items():
            for owner, attr in targets:
                fn = owner.__dict__.get(attr)
                if fn is None:
                    self.missing.append(f"{name} ({owner.__name__}.{attr})")
                    continue
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def uncovered(self, workload: str) -> list[str]:
        """Expected spans that recorded no calls, plus spans that found no target."""
        return self.missing + [n for n in EXPECTED[workload] if self.stats[n][0] == 0]

    def metrics(self, ops: int) -> dict:
        """Calls, total ms and self ms of every span, per operation."""
        out = {}
        for name, (calls, total, child) in self.stats.items():
            out[f"{name}.calls"] = (calls / ops, "count")
            out[f"{name}.total_ms"] = (total / ops / 1e6, "ms")
            out[f"{name}.self_ms"] = ((total - child) / ops / 1e6, "ms")
        gets = self.stats["codec.table_get"][0]
        builds = self.stats["rans.mass_table"][0]
        out["codec.table_hit_ratio"] = (1.0 - builds / gets if gets else 0.0, "ratio")
        return out
