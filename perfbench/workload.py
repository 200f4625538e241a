"""One benchmark workload in one fresh process: set up, then measure.

Started by run.py, which pins the BLAS/OpenMP thread counts before this
process imports numpy.  The last line of stdout is one JSON object: the
monotonic time at which set-up finished, the unit durations, the failure
count and, in a traced run, the per-layer metrics.  With --probe the process
stops after set-up, so run.py can time set-up several times.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import math
import os
import platform
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

import pdconv  # noqa: E402
import tracing as tr  # noqa: E402
from pdconv import autograd as ag  # noqa: E402
from pdconv import checks, clk, fusion, metrics, network, pdc, scenes, tensor  # noqa: E402

if os.path.dirname(os.path.abspath(pdconv.__file__)) != os.path.join(SRC, "pdconv"):
    sys.exit(f"pdconv was imported from {pdconv.__file__}, not from {SRC}")

GRADCHECK_TOL = 1e-4
PDC_FORMS_TOL = 1e-5      # rewritten vs definitional PDC, relative to max |y|
CONV_ORACLE_TOL = 1e-5    # conv2d vs naive_conv2d at f32, relative to max |y|
ALPHA_INIT = math.log(4.0)  # the blend ToyPdcNet starts its PDC layers at


def load_naive():
    """tests/naive.py holds the brute-force oracles; it is not a package."""
    spec = importlib.util.spec_from_file_location(
        "naive", os.path.join(ROOT, "tests", "naive.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def max_rel_dev(a: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(a - ref))) / max(float(np.max(np.abs(ref))), 1e-30)


def reachable_nodes(root: ag.Var) -> int:
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.parents)
    return len(seen)


# --- workloads ----------------------------------------------------------------
#
# Each class builds its inputs from the seed in __init__ (set-up), runs one
# unit in unit(i) (timed) and checks that unit's output in check() (untimed).
# Library calls go through module attributes, never names bound here, so the
# traced run's wrappers see them.

class Train:
    """SGD steps of the default `full` ToyPdcNet on batch-8 48x48 scenes."""

    batch = 8
    items = batch
    pool = 32
    has_tape = True

    def __init__(self, seed: int, workdir: str):
        cfg = scenes.SceneConfig()
        self.samples = [scenes.gen_scene(seed * 1000 + k, cfg) for k in range(self.pool)]
        self.net = network.ToyPdcNet(network.NetConfig(), rng=np.random.default_rng(seed))
        self.params = self.net.parameters()
        self.decayable = self.net.decayable()
        self.hyper = network.TrainConfig()
        self.opt = network.SgdState()

    def unit(self, i: int):
        start = (i * self.batch) % self.pool
        rgb, depth, labels = network.make_batch(self.samples[start : start + self.batch],
                                                self.net.dtype)
        loss = ag.cross_entropy(self.net.forward(rgb, depth), labels)
        ag.backward(loss)
        h = self.hyper
        self.opt.step(self.params, self.decayable, h.lr, h.momentum, h.weight_decay)
        return (loss,)

    def check(self, out) -> list[str]:
        value = float(out[0].value)
        return [] if math.isfinite(value) else [f"loss is {value}"]


class Eval:
    """Batch-16 inference from a checkpoint and dataset written to disk and
    read back during set-up."""

    batch = 16
    items = batch
    count = 48
    has_tape = False

    def __init__(self, seed: int, workdir: str):
        data = os.path.join(workdir, "data")
        ckpt = os.path.join(workdir, "net.pdck")
        scenes.save_dataset(data, self.count, seed * 1000, scenes.SceneConfig())
        network.ToyPdcNet(network.NetConfig(), rng=np.random.default_rng(seed)).save(ckpt)
        _, self.samples = scenes.load_dataset(data)
        self.net = network.ToyPdcNet.load(ckpt)
        self.classes = self.net.cfg.classes
        self.total = metrics.ConfusionMatrix(np.zeros((self.classes,) * 2, dtype=np.int64))
        self.naive = load_naive()

    def unit(self, i: int):
        start = (i * self.batch) % self.count
        rgb, depth, labels = network.make_batch(self.samples[start : start + self.batch],
                                                self.net.dtype)
        preds = np.argmax(self.net.forward(rgb, depth).value, axis=1)
        cm = metrics.ConfusionMatrix.from_labels(preds, labels, self.classes)
        self.total = self.total.merge(cm)
        return preds, labels, cm

    def check(self, out) -> list[str]:
        preds, labels, cm = out
        problems = []
        if int(cm.counts.sum()) != preds.size:
            problems.append(f"confusion total {int(cm.counts.sum())} != {preds.size} pixels")
        acc, miou = self.naive.naive_metrics(preds, labels, self.classes)
        if abs(cm.mean_iou() - miou) > 1e-12 or abs(cm.pixel_accuracy() - acc) > 1e-12:
            problems.append(f"mIoU {cm.mean_iou()} / acc {cm.pixel_accuracy()} differ from "
                            f"naive {miou} / {acc}")
        return problems


class Ops:
    """ecf_fuse(xr, xd, cpdc_raw(xr), pdc_forward(xd)) forward and backward at
    f32, N=4, C=32, 64x64: the paper's operators alone, no dense 3x3 conv."""

    shape = (4, 32, 64, 64)
    items = shape[0]
    has_tape = True

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        c = self.shape[1]
        self.xr = rng.standard_normal(self.shape).astype(np.float32)
        self.xd = rng.standard_normal(self.shape).astype(np.float32)
        self.cpdc = clk.make_cpdc_layer(c, rng=rng, alpha_init=ALPHA_INIT, with_gate=False)
        self.pdc = pdc.make_pdc_layer(c, rng=rng, alpha_init=ALPHA_INIT, with_gate=False)
        self.ecf = fusion.make_ecf_layer(c, rng=rng)
        self.reference = None

    def unit(self, i: int):
        # called through pdconv.network, the namespace the net itself uses
        xr, xd = ag.parameter(self.xr), ag.parameter(self.xd)
        hat_r = network.cpdc_raw(xr, self.cpdc)
        hat_d = network.pdc_forward(xd, self.pdc)
        loss = ag.mean(network.ecf_fuse(xr, xd, hat_r, hat_d, self.ecf))
        ag.backward(loss)
        return loss, hat_r.value, hat_d.value, xr.grad, xd.grad

    def _definitional(self):
        layers = (self.cpdc.stage_local, self.cpdc.stage_long, self.pdc)
        for layer in layers:
            layer.mode = "definitional"
        try:
            return (clk.cpdc_raw(self.xr, self.cpdc).value,
                    pdc.pdc_forward(self.xd, self.pdc).value)
        finally:
            for layer in layers:
                layer.mode = "rewritten"

    def check(self, out) -> list[str]:
        loss, hat_r, hat_d, gxr, gxd = out
        if self.reference is None:
            self.reference = self._definitional()
        problems = []
        for name, got, ref in (("cpdc", hat_r, self.reference[0]),
                               ("pdc", hat_d, self.reference[1])):
            dev = max_rel_dev(got, ref)
            if not dev <= PDC_FORMS_TOL:
                problems.append(f"{name} rewritten vs definitional deviation {dev:.2e}")
        if not (math.isfinite(float(loss.value)) and np.isfinite(gxr).all()
                and np.isfinite(gxd).all()):
            problems.append("non-finite loss or input gradient")
        return problems

    def final_check(self) -> list[str]:
        """One cropped dw 7x7-d3 conv2d call against the six-loop oracle."""
        naive = load_naive()
        x = self.xr[:1, :2, :16, :16]
        w = self.cpdc.stage_long.weights.value[:2]
        spec = tensor.depthwise_spec(2, clk.LONG_KERNEL, clk.LONG_DILATION)
        dev = max_rel_dev(tensor.conv2d(x, w, spec), naive.naive_conv2d(x, w, spec))
        return [] if dev <= CONV_ORACLE_TOL else [f"conv2d vs naive deviation {dev:.2e}"]


WORKLOADS = {"train": Train, "eval": Eval, "ops": Ops}


# --- measurement -------------------------------------------------------------

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def measure_units(wl, seconds: float, tracer) -> dict:
    """Closed loop: the next unit starts when the previous one and its check
    are done.  In a traced run odd units are traced and even ones are not,
    so both halves see the same conditions."""
    durations, traced_durations, problems = [], [], []
    failed = 0
    tape_nodes = 0
    end = time.perf_counter() + seconds
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        out, error = None, None
        if traced:
            tracer.install(pdconv)
            token = tracer.begin_unit(i)
        t0 = time.perf_counter()
        try:
            out = wl.unit(i)
        except Exception:
            error = traceback.format_exc()
        dt = time.perf_counter() - t0
        if traced:
            tracer.end_unit(token)
            tracer.uninstall()
        unit_problems = [error] if error else wl.check(out)
        if unit_problems:
            failed += 1
            problems.extend(f"unit {i}: {p}" for p in unit_problems)
        elif traced and wl.has_tape and not tape_nodes:
            tape_nodes = reachable_nodes(out[0])
        (traced_durations if traced else durations).append(dt)
        i += 1
        if time.perf_counter() >= end and (tracer is None or i % 2 == 0):
            break
    if hasattr(wl, "final_check"):
        extra = wl.final_check()
        failed += len(extra)
        problems.extend(extra)
    return {"durations": durations, "latencies": durations, "traced_durations": traced_durations,
            "busy_s": sum(durations), "traced_busy_s": sum(traced_durations),
            "items": wl.items * len(durations), "traced_items": wl.items * len(traced_durations),
            "attempted": i, "failed": failed, "problems": problems, "tape_nodes": tape_nodes}


class Gradcheck:
    """The checks.REGISTRY suite at f64; a unit is one scalar loss evaluation.

    Every op is built from the registry's seed-0 instance, the one the
    acceptance suite checks; the run seed picks the coordinates probed in
    the sampled ops.
    """

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.ops = list(checks.REGISTRY)
        # warm-up: one loss evaluation of every op
        for op in self.ops:
            f, _ = checks.REGISTRY[op](np.random.default_rng(0))
            f()

    def check_op(self, op: str, coord_seed: int, tracer, unit_ids, durations: list):
        """Gradcheck one op, appending each loss evaluation's time to
        `durations`; returns the report and the time inside gradcheck."""
        f, params = checks.REGISTRY[op](np.random.default_rng(0))

        def timed_f():
            token = tracer.begin_unit(next(unit_ids)) if tracer else None
            t0 = time.perf_counter()
            try:
                return f()
            finally:
                durations.append(time.perf_counter() - t0)
                if tracer:
                    tracer.end_unit(token)

        idx = tracer.open(f"checks.{op}") if tracer else None
        t0 = time.perf_counter()
        try:
            report = ag.gradcheck(timed_f, params, max_coords=checks.SAMPLED_COORDS.get(op),
                                  rng=np.random.default_rng(coord_seed))
        finally:
            if tracer:
                tracer.close(idx)
        return report, time.perf_counter() - t0


def measure_gradcheck(wl: Gradcheck, seconds: float, tracer) -> dict:
    """Whole passes over the registry, so every run evaluates the same mix of
    ops: at least two, and another only while it is expected to end within
    `seconds`.  In a traced run op k of pass p is traced when k + p is odd,
    and passes come in pairs, so each op is traced as often as not.

    The latency percentiles are taken over pass times (the time inside
    gradcheck for all nine ops): loss evaluations of the nine ops form
    overlapping clusters from 0.01 to 10 ms, and a median over that mix
    jumps between clusters from run to run."""
    res = {"durations": [], "traced_durations": [], "busy_s": 0.0, "traced_busy_s": 0.0,
           "failed": 0, "problems": [], "tape_nodes": 0, "latencies": []}
    unit_ids = itertools.count()
    start = time.perf_counter()
    p = 0
    while True:
        pass_busy = 0.0
        for k, op in enumerate(wl.ops):
            traced = tracer is not None and (k + p) % 2 == 1
            if traced:
                tracer.install(pdconv)
            durations = []
            try:
                report, busy = wl.check_op(op, wl.seed * 1000 + p,
                                           tracer if traced else None, unit_ids, durations)
                problem = (None if report.passed(GRADCHECK_TOL)
                           else f"max error {report.max_error:.2e}")
            except Exception:
                busy, problem = 0.0, traceback.format_exc()
            finally:
                if traced:
                    tracer.uninstall()
            res["traced_durations" if traced else "durations"].extend(durations)
            res["traced_busy_s" if traced else "busy_s"] += busy
            pass_busy += busy
            if problem:
                res["failed"] += max(len(durations), 1)
                res["problems"].append(f"pass {p} {op}: {problem}")
        res["latencies"].append(pass_busy)
        p += 1
        elapsed = time.perf_counter() - start
        if p >= 2 and elapsed * (p + 1) / p > seconds and (tracer is None or p % 2 == 0):
            break
    res["passes"] = p
    res["items"] = len(res["durations"])
    res["traced_items"] = len(res["traced_durations"])
    res["attempted"] = res["items"] + res["traced_items"]
    return res


# --- per-layer metrics ---------------------------------------------------------

def per_layer(tracer, res: dict, check_ops) -> dict:
    """Per traced unit: layer time in ms, calls and computed MACs summed over
    the traced part of the measured phase and divided by the traced units.
    Set-up layers (scenes, pdtio) are totals over the run's one set-up; a
    checks.<op> time is per gradcheck of that op."""
    measured = tr.layer_totals(tracer.spans, lambda u: u != tr.SETUP_UNIT)
    setup = tr.layer_totals(tracer.spans, lambda u: u == tr.SETUP_UNIT)
    units = max(len(res["traced_durations"]), 1)
    out = {}

    def get(table, name, key="s"):
        return table.get(name, {}).get(key, 0)

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def ms_per_unit(metric, span, key="s"):
        put(metric, get(measured, span, key) * 1e3 / units, "ms")

    for kind in tr.CONV_KINDS:
        spans = [f"tensor.{kind}.{d}" for d in ("fwd", "dx", "dw")]
        for span in spans:
            ms_per_unit(f"{span}_ms", span)
        secs = sum(get(measured, n) for n in spans)
        macs = sum(get(measured, n, "macs") for n in spans)
        put(f"tensor.{kind}.calls", sum(get(measured, n, "calls") for n in spans) / units,
            "count")
        put(f"tensor.{kind}.macs", macs / units, "MAC_computed")
        put(f"tensor.{kind}.gmac_per_s", macs / secs / 1e9 if secs else 0.0, "GMAC/s")
    ms_per_unit("autograd.backward_ms", "autograd.backward")
    ms_per_unit("autograd.backward_self_ms", "autograd.backward", "self_s")
    put("autograd.tape_nodes", res["tape_nodes"], "count")
    for name in ("elementwise", "standardize", "upsample"):
        ms_per_unit(f"autograd.{name}_ms", f"autograd.{name}")
    ms_per_unit("network.forward_ms", "network.forward")
    ms_per_unit("network.forward_self_ms", "network.forward", "self_s")
    ms_per_unit("network.sgd_ms", "network.sgd")
    ms_per_unit("network.make_batch_ms", "network.make_batch")
    ms_per_unit("pdc.forward_ms", "pdc.forward")
    put("pdc.calls", get(measured, "pdc.forward", "calls") / units, "count")
    ms_per_unit("clk.cpdc_ms", "clk.cpdc")
    ms_per_unit("fusion.ecf_ms", "fusion.ecf")
    ms_per_unit("metrics.confusion_ms", "metrics.confusion")
    pairs = max(res.get("passes", 0) // 2, 1)  # each op is traced once per pass pair
    for op in check_ops:
        put(f"checks.{op}_ms", get(measured, f"checks.{op}") * 1e3 / pairs, "ms")
    for name in ("scenes.gen", "scenes.load", "pdtio.read", "pdtio.write"):
        put(f"{name}_ms", get(setup, name) * 1e3, "ms")
    put("pdtio.bytes", tracer.file_bytes, "bytes")
    put("unit.mean_ms", sum(res["traced_durations"]) * 1e3 / units, "ms")
    traced_ips = res["traced_items"] / res["traced_busy_s"] if res["traced_busy_s"] else 0.0
    plain_ips = res["items"] / res["busy_s"] if res["busy_s"] else 0.0
    put("trace.items_per_s", traced_ips, "1/s")
    put("trace.overhead_pct", (plain_ips / traced_ips - 1.0) * 100 if traced_ips else 0.0, "%")
    return out


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threadpoolctl = importlib.util.find_spec("threadpoolctl") is not None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "PDCONV_THREADS": os.environ.get("PDCONV_THREADS"),
        "threadpoolctl": threadpoolctl,
        "PDCONV_THREADS_effect": (
            "none: only the pdconv CLI reads it, and it needs threadpoolctl, "
            + ("which is installed" if threadpoolctl else "which is not installed")),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "gradcheck"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help="stop after set-up")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    tracer = tr.Tracer() if args.trace else None
    if tracer:
        tracer.install(pdconv)
    if args.workload == "gradcheck":
        wl = Gradcheck(args.seed, args.workdir)
    else:
        wl = WORKLOADS[args.workload](args.seed, args.workdir)
        wl.unit(-1)  # warm-up unit, part of set-up
    if tracer:
        tracer.uninstall()
        tracer.unit = tr.OUTSIDE_UNIT
    ready_at = time.monotonic()
    result = {"ready_at": ready_at}
    if not args.probe:
        if args.workload == "gradcheck":
            res = measure_gradcheck(wl, args.seconds, tracer)
        else:
            res = measure_units(wl, args.seconds, tracer)
        result.update(res)
        result["peak_rss_mb"] = peak_rss_mb()
        result["env"] = environment()
        if tracer:
            problems = tr.check_spans(tracer.spans)
            unclassified = [s for s in tracer.spans if s[tr.NAME].startswith(
                f"tensor.{tr.UNCLASSIFIED}.")]
            problems += [f"conv call outside the five kinds: span {s}" for s in unclassified[:5]]
            result["span_problems"] = problems
            result["spans"] = len(tracer.spans)
            result["per_layer"] = per_layer(tracer, res, list(checks.REGISTRY))
            with open(os.path.join(args.workdir, "spans.json"), "w") as f:
                json.dump({"fields": ["name", "start", "end", "parent", "unit", "macs"],
                           "spans": tracer.spans}, f)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
