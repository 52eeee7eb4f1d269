"""The benchmark's span tracer finds every flowzip name it wraps, and its
fixture reads the desk config."""

import numpy as np
import pytest

from flowzip import autodiff, codec, train
from flowzip.data import gen_synth
from flowzip.model import LOG_S_BOUNDS, FlowConfig, FlowModel

from helpers import ROOT, gated_int_model, load_perfbench


def test_perfbench_span_targets_resolve():
    # A renamed or no longer imported name would only surface as an incorrect
    # traced benchmark run; fail here instead.
    spans = load_perfbench("spans")
    missing = [
        f"{name}: {owner.__name__}.{attr}"
        for name, targets in spans.SPANS.items()
        for owner, attr in targets
        if attr not in owner.__dict__
    ]
    assert not missing


def test_perfbench_fixture_reads_the_desk_config():
    # the benchmark's setup parses configs/desk.cfg and builds the stage-5
    # fixture on every run: a key that TrainConfig no longer knows, or a
    # fixture the int path cannot code, would fail every codec workload
    fixture = load_perfbench("fixture")
    cfg = fixture.desk_config(str(ROOT))
    assert isinstance(cfg, train.TrainConfig)
    assert fixture.build_model(cfg, 2).gated
    model = fixture.build_model(cfg, 5)
    image = gen_synth(7, 1, cfg.height, cfg.width, cfg.in_channels)
    container, _ = codec.compress(image, model, "int")
    assert np.array_equal(codec.decompress(container, model, "int"), image)
    # every prior's log s lies strictly inside the bound the flow clips to, so
    # a fixture change that made the clip bind would fail here, not only move
    # the benchmark's containers
    lo, hi = LOG_S_BOUNDS
    for _, log_s in model.flow_forward(image, "int").priors:
        assert lo < log_s.min() and log_s.max() < hi
    # the benchmark's int GEMMs run in float32 (40 convs, the largest bound
    # 590,580): a conv whose bound passed 2**24 would move them to float64
    # without failing anything else
    convs = [
        conv
        for net in model.int_plan().values()
        for conv in (net.out, *(c for blk in net.blocks for c in (blk.conv_a, blk.conv_b)))
        if conv is not None
    ]
    assert convs and all(conv.w.dtype == np.float32 for conv in convs)


def _int_round_trip():
    model = gated_int_model()
    images = gen_synth(3, 2)
    container, _ = codec.compress(images, model, "int")
    assert np.array_equal(codec.decompress(container, model, "int"), images)


def _one_step_per_objective():
    # the stage-1 float, stage-2 gated and stage-5 fake-quant objectives
    images = gen_synth(4, 2)
    float_model = FlowModel(FlowConfig(hidden=8, couplings=2, blocks=1), seed=0)
    gated_model = FlowModel(FlowConfig(hidden=8, couplings=2, blocks=1), seed=0)
    gated_model.attach_gates(0.8)
    lambdas = [1e-3] * len(gated_model.levels)
    quant_model = gated_int_model()
    steps = (
        (float_model, lambda: train.loss_bpd(images, float_model)),
        (gated_model, lambda: train.gated_objective(images, gated_model, lambdas)[0]),
        (quant_model, lambda: train.loss_bpd(images, quant_model)),
    )
    for model, objective in steps:
        main, gates, scales = train.param_groups(model)
        opt = train.Adamax({"main": (main, 1e-3), "gate": (gates, 1e-3),
                            "scale": (scales, 1e-3)})
        autodiff.backward(objective())
        opt.step()
        train.clamp_auxiliary(model)


@pytest.mark.parametrize(
    "run, workloads",
    [(_int_round_trip, ("int-batch", "int-single")),
     (_one_step_per_objective, ("train-step",))],
)
def test_perfbench_expected_spans_record_calls(run, workloads):
    # Calls move between spans as kernels are shared; a span in EXPECTED that
    # records nothing would otherwise show up only in a traced benchmark run.
    spans = load_perfbench("spans")
    with spans.Tracer() as tracer:
        run()
    for workload in workloads:
        assert tracer.uncovered(workload) == [], workload
