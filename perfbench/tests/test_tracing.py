"""Span integrity and conv classification of the benchmark's tracer.

    python3 -m pytest -q perfbench/tests
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))
sys.path.insert(0, os.path.join(HERE, ".."))

import pdconv  # noqa: E402
import tracing as tr  # noqa: E402
from pdconv import autograd as ag, network, tensor as T  # noqa: E402


def traced_train_step(tracer, unit=0):
    cfg = network.NetConfig(classes=3, channels=(4, 6, 8), blocks_per_stage=1,
                            decoder_channels=4)
    net = network.ToyPdcNet(cfg, rng=np.random.default_rng(0))
    rng = np.random.default_rng(1)
    rgb = rng.random((2, 3, 16, 16)).astype(np.float32)
    depth = rng.random((2, 1, 16, 16)).astype(np.float32)
    labels = rng.integers(0, 3, size=(2, 16, 16))
    tracer.install(pdconv)
    try:
        token = tracer.begin_unit(unit)
        ag.backward(ag.cross_entropy(net.forward(rgb, depth), labels))
        tracer.end_unit(token)
    finally:
        tracer.uninstall()


def test_real_spans_nest_and_self_times_sum_to_unit_wall():
    tracer = tr.Tracer()
    traced_train_step(tracer, unit=0)
    traced_train_step(tracer, unit=1)
    spans = tracer.spans
    assert tr.check_spans(spans) == []
    names = {s[tr.NAME] for s in spans}
    assert {"network.forward", "autograd.backward", "pdc.forward", "clk.cpdc",
            "fusion.ecf", "tensor.conv3x3.fwd", "tensor.conv3x3.dx",
            "tensor.conv3x3s2.dw", "tensor.dw5x5.fwd", "tensor.dw7x7d3.dx",
            "tensor.pw1x1.fwd"} <= names
    assert not any(tr.UNCLASSIFIED in n for n in names)
    own = tr.self_times(spans)
    for s in spans:
        if s[tr.NAME] != "unit":
            continue
        total = sum(t for t, x in zip(own, spans) if x[tr.UNIT] == s[tr.UNIT])
        assert total == pytest.approx(s[tr.END] - s[tr.START],
                                      abs=tr.SELF_TIME_TOLERANCE_S * len(spans))
    for i, s in enumerate(spans):
        if s[tr.PARENT] >= 0:
            parent = spans[s[tr.PARENT]]
            assert parent[tr.START] <= s[tr.START] <= s[tr.END] <= parent[tr.END], i


def test_uninstall_restores_every_original():
    before = (T.conv2d, network.pdc_forward, network.ToyPdcNet.__dict__["forward"],
              vars(pdconv.metrics.ConfusionMatrix)["from_labels"], ag.backward)
    tracer = tr.Tracer()
    tracer.install(pdconv)
    assert T.conv2d is not before[0]
    tracer.uninstall()
    after = (T.conv2d, network.pdc_forward, network.ToyPdcNet.__dict__["forward"],
             vars(pdconv.metrics.ConfusionMatrix)["from_labels"], ag.backward)
    assert all(a is b for a, b in zip(before, after))


def span(name, start, end, parent=-1, unit=0):
    return [name, start, end, parent, unit, 0]


@pytest.mark.parametrize("spans,needle", [
    ([span("unit", 0.0, 1.0), span("a", 0.5, 1.5, 0)], "outlasts"),
    ([span("unit", 0.0, 1.0), span("a", 0.1, 0.5, 0), span("b", 0.4, 0.6, 0)], "overlaps"),
    ([span("unit", 0.0, 1.0), span("a", 0.1, None, 0)], "open"),
    ([span("unit", 0.0, 1.0), span("a", 0.1, 0.2, 0, unit=3)], "unit 3"),
    ([span("unit", 0.0, 1.0), span("a", 0.1, 0.2, 5)], "bad parent"),
])
def test_broken_spans_are_reported(spans, needle):
    problems = tr.check_spans(spans)
    assert any(needle in p for p in problems), problems


def test_units_nested_in_a_check_span_are_their_own_roots():
    spans = [span("checks.x", 0.0, 1.0, unit=-2), span("unit", 0.1, 0.4, 0, unit=7),
             span("tensor.pw1x1.fwd", 0.2, 0.3, 1, unit=7), span("autograd.backward",
             0.5, 0.9, 0, unit=-2)]
    assert tr.check_spans(spans) == []
    assert tr.self_times(spans) == pytest.approx([0.3, 0.2, 0.1, 0.4])


@pytest.mark.parametrize("kernel,dilation,stride,groups,c,kind", [
    ((3, 3), 1, 1, 1, 8, "conv3x3"),
    ((3, 3), 2, 1, 1, 8, "conv3x3"),
    ((3, 3), 1, 2, 1, 8, "conv3x3s2"),
    ((1, 1), 1, 1, 1, 8, "pw1x1"),
    ((5, 5), 1, 1, 8, 8, "dw5x5"),
    ((5, 5), 1, 1, 1, 1, "dw5x5"),
    ((7, 7), 3, 1, 8, 8, "dw7x7d3"),
    ((7, 7), 1, 1, 8, 8, tr.UNCLASSIFIED),
    ((3, 3), 1, 3, 1, 8, tr.UNCLASSIFIED),
    ((5, 5), 1, 1, 1, 8, tr.UNCLASSIFIED),
])
def test_conv_kind(kernel, dilation, stride, groups, c, kind):
    spec = T.ConvSpec(kernel=kernel, dilation=dilation, stride=stride, groups=groups)
    w_shape = (c, c // groups) + kernel
    assert tr.conv_kind(spec, w_shape) == kind


def test_conv_macs_match_flop_count_at_stride_1():
    spec = T.depthwise_spec(8, (7, 7), 3)
    x = np.zeros((2, 8, 12, 12), dtype=np.float32)
    w = np.zeros((8, 1, 7, 7), dtype=np.float32)
    out = T.conv2d(x, w, spec)
    assert tr.conv_macs(out.shape, w.shape) == 2 * T.flop_count(spec, 8, 8, (12, 12))
