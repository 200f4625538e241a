"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines.  Criterion 9
(the blend-coefficient sweep) is a long-running extended check, enabled by
setting PDCONV_EXTENDED=1.
"""

import os
import statistics
import time

import numpy as np
import pytest

from pdconv import autograd as ag
from pdconv import checks
from pdconv import pdtio
from pdconv import tensor as T
from pdconv.cli import main as cli_main
from pdconv.clk import (RF_MODES, analytic_support, clk_flops,
                        large_kernel_flops, receptive_field)
from pdconv.errors import FormatError
from pdconv.metrics import metrics
from pdconv.network import (NetConfig, SgdState, ToyPdcNet, TrainConfig,
                            cross_entropy, evaluate, make_batch, poly_lr, train)
from pdconv.pdc import equivalence_deviation, make_pdc_layer, pdc_forward
from pdconv.scenes import SceneConfig, gen_scene

from naive import naive_metrics


def report(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:>2d} [{name}]: {status}{suffix}")
    assert passed, f"criterion {number} ({name}) failed{suffix}"


# -- benchmark dataset shared by criteria 8 and 9 ----------------------------

BENCH_SEEDS = (0, 1, 2)
BENCH_EPOCHS = 3
BENCH_NET = dict(classes=5)


@pytest.fixture(scope="module")
def benchmark_data():
    cfg = SceneConfig()
    train_s = [gen_scene(1000 + i, cfg) for i in range(250)]
    test_s = [gen_scene(9000 + i, cfg) for i in range(50)]
    return train_s, test_s


def run_benchmark(variant: str, seed: int, benchmark_data, epochs=BENCH_EPOCHS,
                  alpha_mode="learnable", alpha_value=0.5) -> float:
    train_s, test_s = benchmark_data
    net = ToyPdcNet(NetConfig(variant=variant, alpha_mode=alpha_mode,
                              alpha_value=alpha_value, **BENCH_NET),
                    rng=np.random.default_rng(seed))
    train(net, train_s, TrainConfig(epochs=epochs, seed=seed))
    _, miou, _ = evaluate(net, test_s)
    return miou


# -- criteria -----------------------------------------------------------------

def test_criterion_1_blend_equivalence():
    t0 = time.time()
    dev32 = equivalence_deviation(200, dtype=np.float32)
    dev64 = equivalence_deviation(200, dtype=np.float64)
    elapsed = time.time() - t0
    ok = dev32 <= 1e-6 and dev64 <= 1e-12 and elapsed < 10
    report(1, "blend formulation equivalence", ok,
           f"f32 {dev32:.2e} <=1e-6, f64 {dev64:.2e} <=1e-12, {elapsed:.1f}s")


def test_criterion_2_degenerate_blends():
    t0 = time.time()
    rng = np.random.default_rng(0)
    zero = make_pdc_layer(2, rng=rng, dtype=np.float64, alpha_fixed=0.0,
                          with_gate=False)
    x = rng.standard_normal((1, 2, 12, 12))
    dev0 = float(np.max(np.abs(pdc_forward(x, zero).value
                               - T.conv2d(x, zero.weights.value, zero.spec))))
    one = make_pdc_layer(1, rng=rng, dtype=np.float64, alpha_fixed=1.0,
                         with_gate=False)
    const = np.full((1, 1, 12, 12), 3.7)
    interior = float(np.max(np.abs(pdc_forward(const, one).value[:, :, 2:-2, 2:-2])))
    elapsed = time.time() - t0
    ok = dev0 <= 1e-7 and interior <= 1e-6 and elapsed < 5
    report(2, "degenerate blends", ok,
           f"alpha=0 dev {dev0:.2e} <=1e-7, alpha=1 interior {interior:.2e} <=1e-6")


def test_criterion_3_gradcheck_registry():
    t0 = time.time()
    worst = {}
    for op in checks.REGISTRY:
        rep = checks.run_gradcheck(op, seed=0)
        worst[op] = rep.max_error
    elapsed = time.time() - t0
    ok = all(v <= 1e-4 for v in worst.values()) and elapsed < 300
    detail = ", ".join(f"{op} {v:.1e}" for op, v in worst.items())
    report(3, "gradcheck all registered ops", ok, f"{detail}; {elapsed:.0f}s")


def test_criterion_4_receptive_fields():
    t0 = time.time()
    exact = all(np.array_equal(receptive_field(m).counts, analytic_support(m))
                for m in RF_MODES)
    cascade = receptive_field("cascade")
    parallel = receptive_field("parallel")
    single7 = receptive_field("single7d3")
    cas_mask = cascade.counts > 0
    embedded = np.zeros_like(cas_mask)
    embedded[2:21, 2:21] = parallel.counts > 0
    containment = bool(np.all(cas_mask[embedded]) and cas_mask.sum() > embedded.sum())
    elapsed = time.time() - t0
    ok = (exact and cascade.holes() == 0 and containment
          and parallel.holes() >= 1 and single7.extent == (19, 19)
          and elapsed < 30)
    report(4, "receptive fields", ok,
           f"exact={exact}, cascade holes {cascade.holes()}, "
           f"parallel holes {parallel.holes()}, 7x7d3 extent {single7.extent}")


def test_criterion_5_cost_claim():
    t0 = time.time()
    dominated = all(clk_flops(c, (s, s)) < large_kernel_flops(c, (s, s))
                    for c in (1, 8, 64, 256, 1024) for s in (32, 128))
    small = clk_flops(8, (32, 32), include_pointwise=False)
    big = large_kernel_flops(8, (32, 32), include_pointwise=False)
    ratio_exact = small * 441 == big * 74
    elapsed = time.time() - t0
    ok = dominated and ratio_exact and elapsed < 1
    report(5, "cost claim", ok,
           f"CLK < 21x21 everywhere={dominated}, dw ratio {small}/{big} == 74/441")


def test_criterion_6_metrics_oracle():
    rng = np.random.default_rng(0)
    exact = True
    for m in (2, 4, 7):
        for _ in range(50):
            preds = rng.integers(0, m, size=(16, 16))
            truth = rng.integers(0, m, size=(16, 16))
            acc, miou, _ = metrics(preds, truth, m)
            nacc, nmiou = naive_metrics(preds, truth, m)
            exact &= acc == nacc and abs(miou - nmiou) < 1e-15
    truth = rng.integers(0, 4, size=(16, 16))
    pacc, pmiou, _ = metrics(truth, truth, 4)
    acc22, miou22, _ = metrics(np.array([[0, 1], [1, 1]]),
                               np.array([[0, 1], [0, 1]]), 2)
    worked = abs(acc22 - 0.75) < 1e-9 and abs(miou22 - (0.5 + 2 / 3) / 2) < 1e-9
    ok = exact and pacc == 1.0 and pmiou == 1.0 and worked
    report(6, "metrics oracle", ok,
           f"150 random maps exact={exact}, perfect=1.0/1.0, "
           f"2x2 example {acc22:.4f}/{miou22:.4f}")


def test_criterion_7_overfit_sanity():
    t0 = time.time()
    cfg = SceneConfig(height=32, width=32, classes=4)
    rgb, depth, labels = make_batch([gen_scene(50 + i, cfg) for i in range(4)])
    net = ToyPdcNet(NetConfig(classes=4, channels=(8, 16, 32), blocks_per_stage=1,
                              decoder_channels=16), rng=np.random.default_rng(0))
    params, decayable = net.parameters(), net.decayable()
    opt = SgdState()
    losses = []
    for it in range(300):
        loss = cross_entropy(net.forward(rgb, depth), labels)
        losses.append(float(loss.value))
        ag.backward(loss)
        opt.step(params, decayable, poly_lr(2e-2, it, 300), 0.9, 1e-4)
    preds = np.argmax(net.forward(rgb, depth).value, axis=1)
    acc = float((preds == labels).mean())
    smoothed = [sum(losses[i : i + 10]) / 10 for i in range(41)]
    decreasing = all(b < a for a, b in zip(smoothed, smoothed[1:]))
    elapsed = time.time() - t0
    ok = acc >= 0.99 and decreasing and elapsed < 120
    report(7, "overfit sanity", ok,
           f"batch acc {acc:.4f} >=0.99, smoothed loss decreasing={decreasing}, "
           f"{elapsed:.0f}s")


def test_criterion_8_mechanism_demonstration(benchmark_data):
    t0 = time.time()
    full = [run_benchmark("full", s, benchmark_data) for s in BENCH_SEEDS]
    base = [run_benchmark("vanilla-baseline", s, benchmark_data) for s in BENCH_SEEDS]
    delta = statistics.median(full) - statistics.median(base)
    elapsed = time.time() - t0
    ok = delta >= 0.05 and elapsed <= 900
    report(8, "mechanism demonstration", ok,
           f"median mIoU full {statistics.median(full):.4f} vs baseline "
           f"{statistics.median(base):.4f}, delta {delta * 100:+.1f} pts "
           f"(need >= +5.0), {elapsed:.0f}s")


@pytest.mark.skipif(os.environ.get("PDCONV_EXTENDED") != "1",
                    reason="extended suite; set PDCONV_EXTENDED=1")
def test_criterion_9_alpha_sweep(benchmark_data):
    t0 = time.time()
    rows = []
    for a in [round(0.1 * k, 1) for k in range(1, 10)]:
        miou = run_benchmark("full", 0, benchmark_data,
                             alpha_mode="fixed", alpha_value=a)
        rows.append((f"{a:.1f}", miou))
    learnable = run_benchmark("full", 0, benchmark_data)
    rows.append(("learnable", learnable))
    print(f"{'alpha':>9s} {'mIoU':>7s}")
    for name, miou in rows:
        print(f"{name:>9s} {miou:>7.4f}")
    fixed_median = statistics.median(m for name, m in rows if name != "learnable")
    elapsed = time.time() - t0
    ok = learnable >= fixed_median and elapsed <= 3600
    report(9, "alpha sweep", ok,
           f"learnable {learnable:.4f} >= fixed median {fixed_median:.4f}, "
           f"{elapsed:.0f}s")


def test_criterion_10_serialization(tmp_path, capsys):
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((2, 3, 4)).astype(np.float32)
    pdt = str(tmp_path / "t.pdt")
    pdtio.write_pdt(pdt, arr)
    tensor_ok = pdtio.read_pdt(pdt).tobytes() == arr.tobytes()

    tensors = {"w": arr, "alpha": np.asarray(0.3, dtype=np.float64)}
    ck = str(tmp_path / "c.pdck")
    pdtio.write_checkpoint(ck, tensors)
    back = pdtio.read_checkpoint(ck)
    ckpt_ok = all(back[k].tobytes() == v.tobytes() and back[k].shape == v.shape
                  for k, v in tensors.items())

    bad_magic = tmp_path / "bad.pdck"
    bad_magic.write_bytes(b"XXXX" + open(ck, "rb").read()[4:])
    truncated = tmp_path / "trunc.pdck"
    truncated.write_bytes(open(ck, "rb").read()[:-5])
    rejects = 0
    for bad in (bad_magic, truncated):
        try:
            pdtio.read_checkpoint(str(bad))
        except FormatError:
            rejects += 1
    # CLI maps the format failure to exit code 1 (check failure)
    code = cli_main(["eval", "--ckpt", str(bad_magic), "--data", str(tmp_path)])
    capsys.readouterr()
    ok = tensor_ok and ckpt_ok and rejects == 2 and code == 1
    report(10, "serialization", ok,
           f"round trips bit-exact, corrupt files rejected ({rejects}/2), "
           f"CLI exit {code}")
