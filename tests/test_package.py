"""The package's public surface."""

import flowzip


def test_every_public_name_resolves():
    assert len(set(flowzip.__all__)) == len(flowzip.__all__)
    for name in flowzip.__all__:
        assert getattr(flowzip, name) is not None, name
    assert not hasattr(flowzip, "QuantizedTensor") and not hasattr(flowzip, "dequantize")
