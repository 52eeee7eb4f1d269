"""flowzip: lossless image compression with integer discrete flows.

A discrete normalizing flow with additive integer couplings maps images to
latents under discretized-logistic priors; a bit-exact rANS coder turns the
latents into a compact container. The flow supports three inference paths
(float, fake-quantized, integer-only int8) and learnable binary-gate
pruning, trained with a five-stage workflow.
"""

from .checkpoint import load_model, save_model
from .codec import compress, decompress
from .data import gen_synth
from .model import FlowConfig, FlowModel
from .quant import QuantizerParams, init_scale, quantize
from .rans import MassTable, mass_table
from .train import TrainConfig, calculate_flops, loss_bpd, run_pipeline

__version__ = "0.1.0"

__all__ = [
    "FlowConfig",
    "FlowModel",
    "MassTable",
    "QuantizerParams",
    "TrainConfig",
    "calculate_flops",
    "compress",
    "decompress",
    "gen_synth",
    "init_scale",
    "load_model",
    "loss_bpd",
    "mass_table",
    "quantize",
    "run_pipeline",
    "save_model",
]
