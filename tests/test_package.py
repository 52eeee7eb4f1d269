"""The package's public surface."""

import flowzip

# a change to the public API shows up as a diff of this list
PUBLIC = [
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


def test_every_public_name_resolves():
    assert sorted(flowzip.__all__) == PUBLIC
    for name in flowzip.__all__:
        assert getattr(flowzip, name) is not None, name
    assert not hasattr(flowzip, "QuantizedTensor") and not hasattr(flowzip, "dequantize")
