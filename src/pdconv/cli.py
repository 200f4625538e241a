"""pdconv command-line interface.

Subcommands: gradcheck, equivalence, rfmap, bench, gen, train, eval.
Exit codes: 0 success, 1 check failure or out of memory, 2 bad arguments
(a path of the wrong kind included), 3 missing file, 4 training divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

import numpy as np

from . import MALLOC
from . import autograd as ag
from . import checks
from . import tensor as T
from .clk import (RF_MODES, analytic_support, clk_flops, large_kernel_flops,
                  make_clk_layer, make_cpdc_layer, clk_forward, cpdc_forward,
                  receptive_field)
from .errors import ConfigurationError, PdconvError, TrainingDiverged
from .network import VARIANTS, ToyPdcNet, evaluate, load_run_config, train
from .pdc import alpha_effective, equivalence_deviation, make_pdc_layer, pdc_forward
from .pdtio import check_writable, write_pdt
from .scenes import SceneConfig, load_dataset, save_dataset

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_MISSING = 3
EXIT_DIVERGED = 4


def _at_least(value, low: int, flag: str) -> int:
    """A flag's int, or one entry of a list flag, checked to be an int >= ``low``."""
    if not str(value).removeprefix("-").isdecimal() or int(value) < low:
        raise ConfigurationError(f"{flag} must be an int of at least {low}, got {value!r}")
    return int(value)


def cmd_gradcheck(args) -> int:
    seed = _at_least(args.seed, 0, "--seed")
    failed = False
    for op in ([args.op] if args.op else checks.REGISTRY):
        report = checks.run_gradcheck(op, seed=seed)
        for name, err in report.errors.items():
            status = "ok" if err <= ag.GRADCHECK_TOL else "FAIL"
            print(f"gradcheck {op:<12s} {name:<24s} rel_err={err:.3e} "
                  f"h={ag.GRADCHECK_STEP:g} dtype={report.dtype} {status}")
        failed |= not report.passed()
    return EXIT_FAIL if failed else EXIT_OK


def cmd_equivalence(args) -> int:
    dtype = np.float32 if args.dtype == "f32" else np.float64
    tol = 1e-6 if args.dtype == "f32" else 1e-12
    deviation = equivalence_deviation(_at_least(args.seeds, 1, "--seeds"), dtype=dtype)
    status = "ok" if deviation <= tol else "FAIL"
    print(f"equivalence seeds={args.seeds} dtype={args.dtype} "
          f"max_rel_deviation={deviation:.3e} tol={tol:g} {status}")
    return EXIT_OK if deviation <= tol else EXIT_FAIL


def cmd_rfmap(args) -> int:
    support = receptive_field(args.mode)
    analytic = analytic_support(args.mode)
    match = np.array_equal(support.counts, analytic)
    print(f"rfmap mode={args.mode} extent={support.extent[0]}x{support.extent[1]} "
          f"holes={support.holes()} analytic_match={match}")
    if args.mode in ("cascade", "cpdc"):
        print("note: composed extent is 23x23; the approximated large kernel is 21x21")
    if args.ascii:
        print(support.to_ascii())
    if args.out:
        write_pdt(args.out, support.counts.astype(np.int32))
        print(f"wrote {args.out}")
    return EXIT_OK if match else EXIT_FAIL


def cmd_bench(args) -> int:
    sizes = [_at_least(s, 1, "--sizes") for s in args.sizes.split(",")]
    c = _at_least(args.channels, 1, "--channels")
    reps = _at_least(args.reps, 1, "--reps")
    rng = np.random.default_rng(_at_least(args.seed, 0, "--seed"))
    print(f"bench channels={c} malloc={MALLOC}")
    print(f"{'op':<10s} {'size':>5s} {'MACs':>12s} {'ms':>9s} {'GMAC/s':>8s}")
    for size in sizes:
        x = rng.standard_normal((1, c, size, size)).astype(np.float32)
        spec5 = T.depthwise_spec(c, (5, 5), 1)
        w5 = rng.standard_normal((c, 1, 5, 5)).astype(np.float32)
        clk = make_clk_layer(c, rng=rng)
        pdc = make_pdc_layer(c, rng=rng)
        cpdc = make_cpdc_layer(c, rng=rng)
        spec3 = T.ConvSpec(kernel=(3, 3))  # the backbone's dense C -> C conv
        w3 = rng.standard_normal((c, c, 3, 3)).astype(np.float32)
        cases = [
            ("conv2d", lambda: T.conv2d(x, w5, spec5),
             T.flop_count(spec5, c, c, (size, size))),
            ("conv3x3", lambda: T.conv2d(x, w3, spec3),
             T.flop_count(spec3, c, c, (size, size))),
            ("clk", lambda: clk_forward(x, clk).value, clk_flops(c, (size, size))),
            ("pdc", lambda: pdc_forward(x, pdc).value,
             T.flop_count(spec5, c, c, (size, size))),
            ("cpdc", lambda: cpdc_forward(x, cpdc).value,  # + the gate product
             clk_flops(c, (size, size)) + c * size * size),
        ]
        for name, fn, macs in cases:
            fn = ag.small_ufunc_buffer(fn)  # as the net runs the operators
            fn()  # warm up
            t0 = time.perf_counter()
            for _ in range(reps):
                fn()
            dt = (time.perf_counter() - t0) / reps
            print(f"{name:<10s} {size:>5d} {macs:>12d} {dt * 1e3:>9.3f} "
                  f"{macs / dt / 1e9:>8.3f}")
        big = large_kernel_flops(c, (size, size))
        print(f"{'21x21dw+pw':<10s} {size:>5d} {big:>12d} {'-':>9s} {'-':>8s} "
              f"(clk/21x21 MACs = {clk_flops(c, (size, size)) / big:.3f})")
    return EXIT_OK


def cmd_gen(args) -> int:
    cfg = SceneConfig(height=args.height, width=args.width, classes=args.classes,
                      depth_noise=args.depth_noise)
    save_dataset(args.out, args.count, _at_least(args.seed, 0, "--seed"), cfg)
    print(f"wrote {args.count} scenes to {args.out}")
    return EXIT_OK


def _net_from_config(run_cfg, manifest, variant: str, seed: int) -> ToyPdcNet:
    cfg = dataclasses.replace(run_cfg.model, classes=manifest["classes"], variant=variant)
    return ToyPdcNet(cfg, rng=np.random.default_rng(seed))


def cmd_train(args) -> int:
    run_cfg = load_run_config(args.config)
    manifest, samples = load_dataset(args.data)
    seed = args.seed if args.seed is not None else run_cfg.seed
    hyper = dataclasses.replace(run_cfg.training, seed=seed)
    net = _net_from_config(run_cfg, manifest, args.variant, seed)
    check_writable(args.out)
    log_file = open(args.log, "w") if args.log else None
    try:
        def log_fn(record):
            if log_file is not None:
                log_file.write(json.dumps(record, sort_keys=True) + "\n")
                log_file.flush()
            print(f"epoch {record['epoch']:>3d} iter {record['iter']:>5d} "
                  f"lr {record['lr']:.5f} loss {record['loss']:.4f} "
                  f"pix_acc {record['pix_acc']:.4f} miou {record['miou']:.4f}")

        train(net, samples, hyper, log_fn=log_fn)
    finally:
        if log_file is not None:
            log_file.close()
    net.save(args.out)
    print(f"wrote checkpoint {args.out}")
    return EXIT_OK


def _scalar_params(net: ToyPdcNet) -> dict[str, float]:
    out = {}
    for i, (*_, op_rgb, op_depth, ecf) in enumerate(net.stages):
        out[f"s{i}.eta"] = float(ecf.eta.value)
        out[f"s{i}.lambda"] = float(ecf.lam.value)
        for side, layer in (("rgb", op_rgb), ("depth", op_depth)):
            stages = ([layer.stage_local, layer.stage_long]
                      if hasattr(layer, "stage_local") else [layer])
            for j, st in enumerate(stages):
                out[f"s{i}.{side}.alpha{j}"] = float(alpha_effective(st).value)
    return out


def cmd_eval(args) -> int:
    net = ToyPdcNet.load(args.ckpt)
    if args.variant and net.cfg.variant != args.variant:
        raise ConfigurationError(f"checkpoint variant is {net.cfg.variant!r}, "
                                 f"not {args.variant!r}")
    manifest, samples = load_dataset(args.data)
    if manifest["classes"] != net.cfg.classes:
        raise ConfigurationError(f"dataset has {manifest['classes']} classes, "
                                 f"checkpoint {net.cfg.classes}")
    pix_acc, miou, cm = evaluate(net, samples)
    result = {
        "pixel_acc": round(pix_acc, 6),
        "miou": round(miou, 6),
        "per_class_iou": [None if v is None else round(v, 6)
                          for v in cm.per_class_iou()],
        "variant": net.cfg.variant,
    }
    if args.dump_params:
        result["params"] = {k: round(v, 6) for k, v in sorted(_scalar_params(net).items())}
    print(json.dumps(result, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pdconv",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gradcheck", help="compare analytic and numeric gradients")
    p.add_argument("--op", help="check a single registered op")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("equivalence",
                       help="cross-check PDC's rewritten form (one conv on the folded "
                            "kernel) against its definitional two-term form")
    p.add_argument("--seeds", type=int, default=200)
    p.add_argument("--dtype", choices=["f32", "f64"], default="f32")
    p.set_defaults(fn=cmd_equivalence)

    p = sub.add_parser("rfmap", help="emit receptive-field support maps")
    p.add_argument("--mode", choices=RF_MODES, required=True)
    p.add_argument("--out", help="write the support map as a .pdt tensor")
    p.add_argument("--ascii", action="store_true", help="print an ASCII heat map")
    p.set_defaults(fn=cmd_rfmap)

    p = sub.add_parser("bench", help="time the conv operators and count MACs")
    p.add_argument("--sizes", default="32,64")
    p.add_argument("--channels", type=int, default=8)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("gen", help="generate a synthetic scene dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--height", type=int, default=48)
    p.add_argument("--width", type=int, default=48)
    p.add_argument("--classes", type=int, default=5)
    p.add_argument("--depth-noise", type=float, default=0.02)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("train", help="train the toy network")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--log", help="JSONL training log path")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--variant", choices=VARIANTS, default="full")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--variant", choices=VARIANTS)
    p.add_argument("--dump-params", action="store_true")
    p.set_defaults(fn=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except TrainingDiverged as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    except FileNotFoundError as e:
        print(f"error: missing file {e.filename or e}", file=sys.stderr)
        return EXIT_MISSING
    except (IsADirectoryError, NotADirectoryError, FileExistsError) as e:
        print(f"error: {e.strerror}: {e.filename}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigurationError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except PdconvError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAIL
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
