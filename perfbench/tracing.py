"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files by replacing public
pdconv functions with wrappers while a traced unit runs.  Each span holds
its name, start, end, parent index, unit id and computed MAC count; spans
stay in memory until the run ends.  The run is single-threaded, so a stack
gives every span its parent.
"""

from __future__ import annotations

import functools
import os
import time

# span record fields
NAME, START, END, PARENT, UNIT, MACS = range(6)

SETUP_UNIT = -1    # spans recorded during set-up
OUTSIDE_UNIT = -2  # spans of the measured phase outside any unit
CONV_KINDS = ("conv3x3", "conv3x3s2", "dw5x5", "dw7x7d3", "pw1x1")
UNCLASSIFIED = "unclassified"

# autograd ops whose spans are grouped as "autograd.elementwise"
ELEMENTWISE_OPS = ("add", "sub", "mul", "scale", "relu", "sigmoid", "vsum", "mean",
                   "reduce_to_channel", "concat_channels")

# one microsecond per span: perf_counter rounding plus float summation error
SELF_TIME_TOLERANCE_S = 1e-6


def conv_kind(spec, w_shape) -> str:
    """Bucket one conv call by its ConvSpec and weight shape (O, C/g, kh, kw).

    Dense 3x3 at stride 1 includes the dilated instance the gradcheck
    registry uses; every other geometry is unclassified.
    """
    o, cg, kh, kw = w_shape
    if spec.groups == 1 and (kh, kw) == (3, 3):
        return {1: "conv3x3", 2: "conv3x3s2"}.get(spec.stride, UNCLASSIFIED)
    if spec.groups == 1 and (kh, kw) == (1, 1) and spec.stride == 1:
        return "pw1x1"
    if cg == 1 and spec.groups == o and spec.stride == 1:
        if (kh, kw) == (5, 5) and spec.dilation == 1:
            return "dw5x5"
        if (kh, kw) == (7, 7) and spec.dilation == 3:
            return "dw7x7d3"
    return UNCLASSIFIED


def conv_macs(out_shape, w_shape) -> int:
    """Multiply-accumulates of one conv direction, computed from the output
    (or output-gradient) shape: N*O*Ho*Wo * C/g*kh*kw."""
    n, o, ho, wo = out_shape
    _, cg, kh, kw = w_shape
    return n * o * ho * wo * cg * kh * kw


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.unit = SETUP_UNIT
        self._patched: list[tuple] = []
        self.file_bytes = 0

    # -- recording ----------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.unit, 0])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def begin_unit(self, unit: int) -> tuple[int, int]:
        """Open a "unit" span; spans under it carry ``unit`` as their id."""
        outer = self.unit
        self.unit = unit
        return self.open("unit"), outer

    def end_unit(self, token: tuple[int, int]) -> None:
        idx, outer = token
        self.close(idx)
        self.unit = outer

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return wrapped

    def conv_span(self, direction: str, fn):
        """Wrap conv2d / conv2d_input_grad / conv2d_weight_grad."""
        @functools.wraps(fn)
        def wrapped(a, b, spec, *rest):
            if direction == "fwd":       # conv2d(x, weights, spec)
                w_shape = getattr(b, "weights", b).shape
            elif direction == "dx":      # conv2d_input_grad(gout, w, spec, x_shape)
                w_shape = b.shape
            else:                        # conv2d_weight_grad(gout, x, spec, w_shape)
                w_shape = rest[0]
            idx = self.open(f"tensor.{conv_kind(spec, w_shape)}.{direction}")
            try:
                out = fn(a, b, spec, *rest)
            finally:
                self.close(idx)
            # forward MACs from its output, gradient MACs from gout
            self.spans[idx][MACS] = conv_macs(out.shape if direction == "fwd" else a.shape,
                                              w_shape)
            return out
        return wrapped

    def io_span(self, name: str, fn):
        """Wrap a pdtio reader/writer whose first argument is a path; the file
        size is read after the span closes."""
        timed = self.span(name, fn)

        @functools.wraps(fn)
        def wrapped(path, *args, **kwargs):
            out = timed(path, *args, **kwargs)
            self.file_bytes += os.path.getsize(path)
            return out
        return wrapped

    # -- installing wrappers ------------------------------------------------

    def patch(self, owner, attr: str, make) -> None:
        raw = vars(owner)[attr]
        new = classmethod(make(raw.__func__)) if isinstance(raw, classmethod) else make(raw)
        setattr(owner, attr, new)
        self._patched.append((owner, attr, raw))

    def install(self, pd) -> None:
        """Wrap each public function where the code under test looks it up.

        ``pd`` is the imported pdconv package.  Names imported by value are
        wrapped in the importing module: pdc_forward / cpdc_raw / ecf_fuse in
        network, pdc_forward in clk, the pdtio readers and writers in scenes
        and network.  autograd calls conv2d* through ``T.``, so those are
        wrapped on the tensor module.
        """
        T, ag, net = pd.tensor, pd.autograd, pd.network
        self.patch(T, "conv2d", lambda f: self.conv_span("fwd", f))
        self.patch(T, "conv2d_input_grad", lambda f: self.conv_span("dx", f))
        self.patch(T, "conv2d_weight_grad", lambda f: self.conv_span("dw", f))
        named = [
            (net, "pdc_forward", "pdc.forward"), (pd.clk, "pdc_forward", "pdc.forward"),
            (net, "cpdc_raw", "clk.cpdc"), (net, "ecf_fuse", "fusion.ecf"),
            (net, "make_batch", "network.make_batch"),
            (net.ToyPdcNet, "forward", "network.forward"),
            (net.SgdState, "step", "network.sgd"),
            (ag, "backward", "autograd.backward"),
            (ag, "standardize", "autograd.standardize"),
            (ag, "upsample_bilinear", "autograd.upsample"),
            (pd.metrics.ConfusionMatrix, "from_labels", "metrics.confusion"),
            (pd.metrics.ConfusionMatrix, "merge", "metrics.confusion"),
            (pd.scenes, "gen_scene", "scenes.gen"),
            (pd.scenes, "load_dataset", "scenes.load"),
        ]
        named += [(ag, op, "autograd.elementwise") for op in ELEMENTWISE_OPS]
        for owner, attr, name in named:
            self.patch(owner, attr, functools.partial(self.span, name))
        for owner, attr, name in [(pd.scenes, "read_pdt", "pdtio.read"),
                                  (pd.scenes, "write_pdt", "pdtio.write"),
                                  (net, "read_checkpoint", "pdtio.read"),
                                  (net, "write_checkpoint", "pdtio.write")]:
            self.patch(owner, attr, functools.partial(self.io_span, name))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)


# --- analysis ----------------------------------------------------------------

def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def check_spans(spans) -> list[str]:
    """Integrity problems in a span list; empty when the spans are sound.

    Every span is closed and no shorter than zero, children lie inside their
    parent and share its unit (a "unit" span starts a new one), siblings do
    not overlap, and the self times of the spans under each "unit" span sum
    to that span's duration within SELF_TIME_TOLERANCE_S per span.
    """
    problems = []
    last_child_end: dict[int, float] = {}
    for i, s in enumerate(spans):
        if s[END] is None or s[END] < s[START]:
            problems.append(f"span {i} {s[NAME]} is open or ends before it starts")
            continue
        p = s[PARENT]
        if p < 0:
            continue
        if p >= i or spans[p][END] is None:
            problems.append(f"span {i} {s[NAME]} has bad parent {p}")
            continue
        parent = spans[p]
        if s[START] < parent[START] or s[END] > parent[END]:
            problems.append(f"span {i} {s[NAME]} outlasts its parent {parent[NAME]}")
        if s[UNIT] != parent[UNIT] and s[NAME] != "unit":
            problems.append(f"span {i} {s[NAME]} is in unit {s[UNIT]}, parent in {parent[UNIT]}")
        if s[START] < last_child_end.get(p, float("-inf")):
            problems.append(f"span {i} {s[NAME]} overlaps an earlier sibling")
        last_child_end[p] = s[END]
    if problems:
        return problems
    own = self_times(spans)
    root_of = list(range(len(spans)))
    for i, s in enumerate(spans):
        if s[PARENT] >= 0 and s[NAME] != "unit":
            root_of[i] = root_of[s[PARENT]]
    sums: dict[int, list] = {}
    for i, t in enumerate(own):
        acc = sums.setdefault(root_of[i], [0.0, 0])
        acc[0] += t
        acc[1] += 1
    for root, (total, count) in sums.items():
        if spans[root][NAME] != "unit":
            continue
        wall = spans[root][END] - spans[root][START]
        if abs(total - wall) > SELF_TIME_TOLERANCE_S * count:
            problems.append(f"unit {spans[root][UNIT]}: self times sum to {total:.9f}s, "
                            f"wall {wall:.9f}s")
    return problems


def layer_totals(spans, unit_filter) -> dict[str, dict[str, float]]:
    """Per span name: summed duration, self time, calls and MACs over the
    spans whose unit passes ``unit_filter``."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s, t in zip(spans, own):
        if not unit_filter(s[UNIT]):
            continue
        acc = out.setdefault(s[NAME], {"s": 0.0, "self_s": 0.0, "calls": 0, "macs": 0})
        acc["s"] += s[END] - s[START]
        acc["self_s"] += t
        acc["calls"] += 1
        acc["macs"] += s[MACS]
    return out
