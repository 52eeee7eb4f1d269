"""The multi-scale integer discrete flow.

Each level squeezes space into channels, applies additive couplings with
alternating orientation, then factors out half the channels under a
conditional logistic prior predicted from the retained half; the last level
keeps everything under a learnable per-channel prior. All latent-domain
arithmetic is integer, so the flow inverts exactly for any parameter values
and any of the three execution paths (float, fake-quantized, integer).
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import quant
from .errors import DataFormatError
from .layers import (
    KERNEL,
    NET_INPUT_SCALE,
    ConvLayer,
    IntBlock,
    IntConv,
    ResidualBlock,
    block_int,
    block_sim,
    calibrate_activation,
    fold_bias,
    int_conv_acc,
    rescale,
)
from .numerics import round_half_away

LOG_S_INIT = float(np.log(32.0))
MU_INIT = 128.0
PRIOR_BLOCKS = 2  # residual blocks in each prior net
# Conv weights and biases plus the final prior; the desk model has 380,004.
MAX_PARAMS = 2**24


@dataclass
class FlowConfig:
    levels: int = 2
    couplings: int = 4
    hidden: int = 32
    blocks: int = 2
    in_channels: int = 3

    def validate(self):
        """Refuse, before any allocation, an architecture the checkpoint cannot hold."""
        if min(self.levels, self.couplings, self.blocks, self.hidden, self.in_channels) < 1:
            raise DataFormatError(
                "levels, couplings, blocks, hidden and in_channels must be >= 1"
            )
        for name, top in (("levels", 255), ("couplings", 255), ("blocks", 255),
                          ("hidden", 65535), ("in_channels", 255)):
            if getattr(self, name) > top:
                raise DataFormatError(f"{name} must be at most {top} to fit the checkpoint")
        # channels double per level, and the last level's u16 split keeps them all
        final = self.in_channels * 2 ** (self.levels + 1)
        if final > 65535:
            raise DataFormatError(f"the last level's {final} channels exceed the u16 split field")
        n = self.param_count()
        if n > MAX_PARAMS:
            raise DataFormatError(f"architecture has {n} parameters, above {MAX_PARAMS}")

    def param_count(self) -> int:
        """Conv weights and biases of every net plus the final prior, from the
        architecture alone (nothing is allocated)."""

        def net(c_in: int, c_out: int, blocks: int) -> int:
            convs = [(c_in, self.hidden)] + [(self.hidden, self.hidden)] * (2 * blocks)
            convs.append((self.hidden, c_out))
            return sum(o * i * KERNEL * KERNEL + o for i, o in convs)

        total, c = 0, self.in_channels
        for li in range(self.levels):
            c *= 4
            total += self.couplings * net(c // 2, c - c // 2, self.blocks)
            if li == self.levels - 1:
                return total + 2 * c
            total += net(c // 2, 2 * (c - c // 2), PRIOR_BLOCKS)
            c //= 2


@dataclass
class SimCtx:
    act_quant: bool = False
    weight_quant: bool = False
    calibrate: bool = False


class CouplingNet:
    """stem conv -> relu -> residual blocks -> zero-initialized output conv.

    The stem is never quantized; the output conv has no activation quantizer
    on its output (the coupling rounds it to integers anyway). Prior nets are
    CouplingNets too, never quantized: ``Level`` runs them under an empty SimCtx.
    """

    def __init__(
        self,
        c_in: int,
        c_out: int,
        hidden: int,
        n_blocks: int,
        rng: np.random.Generator,
    ):
        self.stem = ConvLayer(c_in, hidden, rng)
        self.blocks = [ResidualBlock.build(hidden, rng) for _ in range(n_blocks)]
        self.out = ConvLayer(hidden, c_out)
        self.q_out = ad.Node(np.ones(1), requires_grad=True)

    def forward_sim(self, u, ctx: SimCtx):
        """u holds raw latent values (integral); returns the net output Node."""
        aq, wq = ctx.act_quant, ctx.weight_quant
        v = ad.add_const(ad.scale(u, NET_INPUT_SCALE), -1.0)
        h = ad.relu(self.stem.forward_sim(v, False))
        for blk in self.blocks:
            h = block_sim(h, blk, aq, wq, calibrate=ctx.calibrate)
        if ctx.calibrate and aq:
            calibrate_activation(self.q_out, h.value)
        if aq:
            h = ad.fake_quantize(h, self.q_out, signed=False)
        return self.out.forward_sim(h, wq)

    def forward_int(self, u: np.ndarray, plan: "IntNet") -> np.ndarray:
        """Integer path: u8 grids between the (float) stem and the output,
        computed from this net's plan entry ``plan`` alone.

        The stem output is quantized onto the first block's ``q_in`` grid,
        each block requantizes onto the next block's ``q_in`` (the last onto
        ``q_out``), and the output conv accumulates the int8 weights against
        the ``q_out`` grid. Returns that accumulator rescaled to float64;
        the caller rounds it.
        """
        v = u.astype(np.float64) * NET_INPUT_SCALE - 1.0
        h = np.maximum(ad.conv2d_raw(v, plan.stem_w, plan.stem_b), 0.0)
        q = quant.quantize(h, plan.stem_q)
        for blk in plan.blocks:
            q = block_int(q, blk)
        acc = ad.channel_rows(int_conv_acc(q, plan.out))
        return ad.grid_view(rescale(acc, plan.out_m), q.shape)


@dataclass(frozen=True)
class IntNet:
    """A coupling net's int-path entry: copies of the float stem conv, the
    quantizer of its output, one ``IntBlock`` per residual block, the output
    conv and the (C_out, 1) column that takes its accumulator to real units."""

    stem_w: np.ndarray
    stem_b: np.ndarray
    stem_q: quant.QuantizerParams
    blocks: tuple
    out: IntConv
    out_m: np.ndarray

    @classmethod
    def build(cls, net: CouplingNet) -> "IntNet":
        scales = [blk.q_in.value[0] for blk in net.blocks[1:]] + [net.q_out.value[0]]
        sw = net.out.wscale.value
        sx = float(net.q_out.value[0])
        return cls(
            stem_w=net.stem.w.value.copy(),
            stem_b=net.stem.b.value.copy(),
            stem_q=quant.QuantizerParams(net.blocks[0].q_in.value.copy(), signed=False),
            blocks=tuple(IntBlock.build(blk, nxt) for blk, nxt in zip(net.blocks, scales)),
            out=IntConv.build(net.out.quantized_weight(), fold_bias(net.out.b.value, sw, sx)),
            out_m=(sw * sx)[:, None],
        )


class CouplingLayer:
    """Additive coupling: one half is shifted by the rounded net output.

    Orientation alternates per coupling index: even couplings transform the
    second channel half, odd ones the first.
    """

    def __init__(self, channels: int, transform_second: bool, net: CouplingNet):
        self.m = channels // 2
        self.channels = channels
        self.transform_second = transform_second
        self.net = net

    def _split(self):
        if self.transform_second:
            return (0, self.m), (self.m, self.channels)
        return (self.m, self.channels), (0, self.m)

    def forward(self, x, t_fn):
        """x is a latent Node; t_fn(net, xa: Node) -> Node evaluates the net."""
        (a0, a1), (b0, b1) = self._split()
        xa = ad.channel_slice(x, a0, a1)
        xb = ad.channel_slice(x, b0, b1)
        zb = ad.add(xb, ad.round_ste(t_fn(self.net, xa)))
        if self.transform_second:
            return ad.channel_concat(xa, zb)
        return ad.channel_concat(zb, xa)

    def inverse_int_domain(self, z: np.ndarray, t_fn) -> np.ndarray:
        """Exact inverse of forward on int64 latents, with the same t_fn."""
        (a0, a1), (b0, b1) = self._split()
        za, zb = z[:, a0:a1], z[:, b0:b1]
        t = round_half_away(t_fn(self.net, ad.Node(za)).value).astype(np.int64)
        xb = zb - t
        return (
            np.concatenate([za, xb], axis=1)
            if self.transform_second
            else np.concatenate([xb, za], axis=1)
        )


class Level:
    def __init__(
        self,
        channels: int,
        cfg: FlowConfig,
        rng: np.random.Generator,
        is_last: bool,
    ):
        self.channels = channels
        self.couplings = [
            CouplingLayer(
                channels,
                transform_second=(d % 2 == 0),
                net=CouplingNet(
                    channels // 2,
                    channels - channels // 2,
                    cfg.hidden,
                    cfg.blocks,
                    rng,
                ),
            )
            for d in range(cfg.couplings)
        ]
        self.is_last = is_last
        if is_last:
            self.retained, self.factored = channels, 0
            self.prior_net = None
        else:
            self.retained = channels // 2
            self.factored = channels - self.retained
            self.prior_net = CouplingNet(
                self.retained, 2 * self.factored, cfg.hidden, PRIOR_BLOCKS, rng
            )
            self.prior_net.out.b.value[: self.factored] = MU_INIT
            self.prior_net.out.b.value[self.factored :] = LOG_S_INIT

    def forward(self, h, t_fn):
        """Squeeze a latent Node, run the couplings and split it into
        (retained, factored) Nodes; the last level returns (h, None)."""
        h = ad.squeeze2x2(h)
        for coup in self.couplings:
            h = coup.forward(h, t_fn)
        if self.is_last:
            return h, None
        return (
            ad.channel_slice(h, 0, self.retained),
            ad.channel_slice(h, self.retained, self.channels),
        )

    def inverse(self, retained: np.ndarray, factored, t_fn) -> np.ndarray:
        """Exact inverse of forward on int64 latents (factored None on the last
        level): join the halves, undo the couplings, unsqueeze."""
        z = retained if factored is None else np.concatenate([retained, factored], axis=1)
        for coup in reversed(self.couplings):
            z = coup.inverse_int_domain(z, t_fn)
        return ad.depth_to_space(z)

    def prior_params_sim(self, retained):
        # Prior networks stay unquantized in every path.
        out = self.prior_net.forward_sim(retained, SimCtx())
        mu = ad.channel_slice(out, 0, self.factored)
        log_s = ad.channel_slice(out, self.factored, 2 * self.factored)
        return mu, log_s

    def prior_params_raw(self, retained_values: np.ndarray):
        """prior_params_sim on plain arrays, off the tape (the decoder's call)."""
        with ad.no_grad():
            mu, log_s = self.prior_params_sim(ad.Node(retained_values))
        return mu.value, log_s.value


class FlowResult:
    """Latents in decode-conditioning order shallow-to-deep, plus priors."""

    def __init__(self, latents, priors, log2p):
        self.latents = latents  # [factored level 1, ..., final]
        self.priors = priors  # matching (mu, log_s) float arrays
        self.log2p = log2p  # per-image analytic log2 probability, shape (B,)


@dataclass(frozen=True)
class IntPlan:
    """A stage-5 model's integer path, frozen: one ``IntNet`` per coupling
    net (keyed by the net), holding every int8 grid, folded bias, multiplier,
    kept set and accumulator bound that the path reads. ``FlowModel.int_plan``
    builds it once and keeps it while the model's values stay the same."""

    nets: dict

    @classmethod
    def build(cls, model: "FlowModel") -> "IntPlan":
        return cls({net: IntNet.build(net) for net in model.coupling_nets()})


# a gate that is not attached, among _plan_arrays: no gate has zero filters
_NO_GATE = np.empty(0)


def _plan_arrays(model: "FlowModel") -> list[np.ndarray]:
    """Every array an IntPlan is built from, in a fixed order."""
    arrays = []
    for net in model.coupling_nets():
        arrays += [net.stem.w.value, net.stem.b.value]
        for blk in net.blocks:
            for conv in (blk.conv_a, blk.conv_b):
                gate = _NO_GATE if conv.gate is None else conv.gate.g
                arrays += [conv.w.value, conv.b.value, conv.wscale.value, gate]
            arrays += [blk.q_in.value, blk.q_mid.value]
        arrays += [net.out.w.value, net.out.b.value, net.out.wscale.value, net.q_out.value]
    return arrays


# model -> (the shape and bytes of each of its _plan_arrays, the IntPlan
# built from them); an entry goes with its model
_PLANS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_PLANS_LOCK = threading.Lock()


class FlowModel:
    def __init__(self, cfg: FlowConfig, seed: int = 0):
        cfg.validate()
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        self.levels: list[Level] = []
        c = cfg.in_channels
        for li in range(cfg.levels):
            c *= 4
            level = Level(c, cfg, rng, is_last=(li == cfg.levels - 1))
            self.levels.append(level)
            c = level.retained
        self.final_channels = self.levels[-1].channels
        self.final_mu = ad.Node(
            np.full(self.final_channels, MU_INIT), requires_grad=True
        )
        self.final_log_s = ad.Node(
            np.full(self.final_channels, LOG_S_INIT), requires_grad=True
        )
        self.gated = False
        self.act_quant = False
        self.weight_quant = False
        self.pruned = False
        self.stage = 0

    # -- structure ---------------------------------------------------------

    def coupling_nets(self):
        for lvl in self.levels:
            for c in lvl.couplings:
                yield c.net

    def gates(self):
        out = []
        for net in self.coupling_nets():
            for blk in net.blocks:
                out.extend(blk.gates())
        return out

    def attach_gates(self, alpha: float):
        for net in self.coupling_nets():
            for blk in net.blocks:
                blk.attach_gates(alpha)
        self.gated = True

    def check_input(self, x: np.ndarray):
        if x.ndim != 4 or x.shape[1] != self.cfg.in_channels:
            raise DataFormatError(
                f"expected (B,{self.cfg.in_channels},H,W) input, got {x.shape}"
            )
        div = 2**self.cfg.levels
        h, w = x.shape[2:]
        if not (h and w) or h % div or w % div:
            raise DataFormatError(
                f"spatial dims must be positive multiples of {div}, got {x.shape[2:]}"
            )

    def int_plan(self) -> IntPlan:
        """The integer path's plan, built on first use and kept across calls.

        Training, loading and ``checkpoint.round_to_stored`` change arrays in
        place, so each call compares every array the plan was built from
        (``_plan_arrays``) with its current value, shape and bytes, and
        rebuilds on any difference. Raises DataFormatError when a conv's
        accumulator or folded bias would not fit its 32-bit budget.
        """
        arrays = _plan_arrays(self)
        with _PLANS_LOCK:
            cached = _PLANS.get(self)
            if cached is not None and len(cached[0]) == len(arrays) and all(
                a.shape == shape and a.tobytes() == data
                for a, (shape, data) in zip(arrays, cached[0])
            ):
                return cached[1]
            plan = IntPlan.build(self)
            _PLANS[self] = ([(a.shape, a.tobytes()) for a in arrays], plan)
            return plan

    def sim_ctx(self, calibrate: bool = False) -> SimCtx:
        return SimCtx(self.act_quant, self.weight_quant, calibrate)

    # -- the flow, shared by training and the inference paths ---------------

    def walk(self, x: np.ndarray, t_fn):
        """Run the flow on tape Nodes and yield (latent, mu, log_s) per level,
        shallow to deep: each factored half under its prior net, then the
        final latent under the per-channel prior. t_fn(net, xa) evaluates the
        coupling nets; latents stay integral, and float64 holds them exactly.
        """
        x = np.asarray(x)
        self.check_input(x)
        h = ad.Node(x)
        for lvl in self.levels:
            h, factored = lvl.forward(h, t_fn)
            if factored is not None:
                yield (factored, *lvl.prior_params_sim(h))
        yield (
            h,
            ad.reshape(self.final_mu, (1, -1, 1, 1)),
            ad.reshape(self.final_log_s, (1, -1, 1, 1)),
        )

    def training_forward(self, x: np.ndarray, calibrate: bool = False):
        """Returns the batch's total log2 probability as a scalar tape Node."""
        ctx = self.sim_ctx(calibrate)
        total = None
        for z, mu, log_s in self.walk(x, lambda net, xa: net.forward_sim(xa, ctx)):
            term = ad.nsum(ad.logistic_logpmf(z, mu, log_s))
            total = term if total is None else ad.add(total, term)
        return total

    def _t_fn(self, path: str):
        """Coupling-net evaluator for an inference path.

        "float" disables all quantizers, "fake" simulates them in float
        arithmetic, "int" runs the integer kernels.
        """
        if path == "int":
            if not (self.act_quant and self.weight_quant):
                raise DataFormatError("integer path requires a stage-5 checkpoint")
            nets = self.int_plan().nets
            return lambda net, xa: ad.Node(net.forward_int(xa.value, nets[net]))
        if path == "float":
            ctx = SimCtx(False, False)
        elif path == "fake":
            if not self.act_quant:
                raise DataFormatError("fake-quant path requires a quantized checkpoint")
            ctx = SimCtx(self.act_quant, self.weight_quant)
        else:
            raise DataFormatError(f"unknown inference path: {path}")

        def t_sim(net: CouplingNet, xa):
            with ad.no_grad():
                return net.forward_sim(xa, ctx)

        return t_sim

    def flow_forward(self, x: np.ndarray, path: str) -> FlowResult:
        """Map images to integer latents plus their priors and log2 mass."""
        t_fn = self._t_fn(path)
        latents, priors = [], []
        log2p = 0.0
        with ad.no_grad():
            for z, mu, log_s in self.walk(x, t_fn):
                latents.append(z.value.astype(np.int64))
                priors.append((mu.value, log_s.value))
                log2p += ad.logistic_logpmf_raw(z.value, mu.value, log_s.value).sum(
                    axis=(1, 2, 3)
                )
        return FlowResult(latents, priors, log2p)
