import dataclasses
import hashlib
import os
import platform
import re
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

import pdconv
from pdconv.errors import (ConfigurationError, ContractError, DataError, DimensionError,
                           FormatError, TrainingDiverged)
from pdconv.metrics import ConfusionMatrix, metrics
from pdconv import network
from pdconv.network import (EVAL_BATCH, NetConfig, SgdState, ToyPdcNet, TrainConfig,
                            evaluate, make_batch, normalize_depth, poly_lr, train)
from pdconv.pdtio import write_checkpoint, write_pdt
from pdconv.scenes import (DEPTH_PAIR, SceneConfig, gen_scene, load_dataset,
                           save_dataset)

from naive import naive_metrics

from pdconv import autograd as ag


SMALL_NET = NetConfig(classes=3, channels=(4, 6, 8), blocks_per_stage=1,
                      decoder_channels=8)
SMALL_SCENES = SceneConfig(height=24, width=24, classes=3)
# every field differs from NetConfig's default
NON_DEFAULT_NET = NetConfig(classes=3, channels=(4, 6), blocks_per_stage=1,
                            decoder_channels=8, variant="swap", alpha_mode="fixed",
                            alpha_value=0.25)
NET_FIELDS = [f.name for f in dataclasses.fields(NetConfig)]


# --- metrics -----------------------------------------------------------------

class TestMetrics:
    def test_worked_2x2_example(self):
        preds = np.array([[0, 1], [1, 1]])
        truth = np.array([[0, 1], [0, 1]])
        pix_acc, miou, cm = metrics(preds, truth, 2)
        assert pix_acc == pytest.approx(0.75)
        # class 0: 1/2, class 1: 2/3
        assert miou == pytest.approx((0.5 + 2 / 3) / 2, abs=1e-12)
        assert cm.per_class_iou() == [pytest.approx(0.5), pytest.approx(2 / 3)]

    @pytest.mark.parametrize("m", [2, 4, 7])
    def test_matches_naive_counting(self, m):
        rng = np.random.default_rng(m)
        for trial in range(50):
            preds = rng.integers(0, m, size=(16, 16))
            truth = rng.integers(0, m, size=(16, 16))
            pix_acc, miou, _ = metrics(preds, truth, m)
            naive_acc, naive_miou = naive_metrics(preds, truth, m)
            assert pix_acc == pytest.approx(naive_acc, abs=1e-12)
            assert miou == pytest.approx(naive_miou, abs=1e-12)

    def test_perfect_prediction(self):
        truth = np.random.default_rng(0).integers(0, 4, size=(8, 8))
        pix_acc, miou, _ = metrics(truth, truth, 4)
        assert pix_acc == 1.0 and miou == 1.0

    def test_absent_class_excluded_from_mean(self):
        preds = np.array([[0, 0], [1, 1]])
        truth = np.array([[0, 0], [1, 1]])
        _, miou, cm = metrics(preds, truth, 3)
        assert cm.per_class_iou()[2] is None
        assert miou == 1.0

    def test_class_appearing_only_in_prediction_counts_as_zero(self):
        preds = np.array([[2, 0], [1, 1]])
        truth = np.array([[0, 0], [1, 1]])
        _, miou, cm = metrics(preds, truth, 3)
        ious = cm.per_class_iou()
        assert ious[2] == 0.0
        assert miou == pytest.approx((0.5 + 1.0 + 0.0) / 3)

    def test_merge_equals_joint_computation(self):
        rng = np.random.default_rng(1)
        a_p, a_t = rng.integers(0, 3, (2, 10, 10))
        b_p, b_t = rng.integers(0, 3, (2, 10, 10))
        merged = (ConfusionMatrix.from_labels(a_p, a_t, 3)
                  .merge(ConfusionMatrix.from_labels(b_p, b_t, 3)))
        joint = ConfusionMatrix.from_labels(np.stack([a_p, b_p]),
                                            np.stack([a_t, b_t]), 3)
        np.testing.assert_array_equal(merged.counts, joint.counts)

    def test_out_of_range_label_rejected(self):
        with pytest.raises(DataError, match="out of range"):
            metrics(np.array([[0, 3]]), np.array([[0, 1]]), 3)

    def test_permutation_invariance_of_totals(self):
        rng = np.random.default_rng(2)
        preds = rng.integers(0, 4, size=(12, 12))
        truth = rng.integers(0, 4, size=(12, 12))
        a = metrics(preds, truth, 4)
        order = rng.permutation(preds.size)
        b = metrics(preds.reshape(-1)[order].reshape(12, 12),
                    truth.reshape(-1)[order].reshape(12, 12), 4)
        assert a[0] == b[0] and a[1] == pytest.approx(b[1], abs=1e-12)


# --- the label rule ----------------------------------------------------------

LABEL_PLANE = (16, 16)  # the smallest canvas gen_scene paints


def _bad_label_map(case):
    """A 3-class (1, 16, 16) label map that breaks the label rule at (0, 2, 1)."""
    labels = np.zeros((1,) + LABEL_PLANE, dtype=np.int32)
    if case == "float":
        return labels.astype(np.float32)
    labels[0, 2, 1] = {"negative": -1, "equal to m": 3}[case]
    return labels


def _load_with_label_map(labels, tmp_path):
    save_dataset(str(tmp_path), 1, seed=0, cfg=SceneConfig(*LABEL_PLANE, classes=3))
    write_pdt(str(tmp_path / "scene_00000.label.pdt"), labels[0])
    return load_dataset(str(tmp_path))


GOOD_LABELS = np.zeros((1,) + LABEL_PLANE, dtype=np.int32)
# each entry point: its call on a label map, its message prefix, the bad index
LABEL_ENTRY_POINTS = {
    "cross_entropy": (lambda labels, _: ag.cross_entropy(np.zeros((1, 3) + LABEL_PLANE),
                                                         labels),
                      "cross_entropy:", "(0, 2, 1)"),
    "from_labels preds": (lambda labels, _: ConfusionMatrix.from_labels(labels, GOOD_LABELS, 3),
                          "from_labels: predicted", "(0, 2, 1)"),
    "from_labels truth": (lambda labels, _: ConfusionMatrix.from_labels(GOOD_LABELS, labels, 3),
                          "from_labels: ground-truth", "(0, 2, 1)"),
    "load_dataset": (_load_with_label_map, "scene_00000.label.pdt:", "(2, 1)"),
}


# a label file of float dtype is a FormatError, checked with the file's shape
# (tests/test_cli.py, "float labels")
LABEL_CASES = [(entry, case) for entry in sorted(LABEL_ENTRY_POINTS)
               for case in ("float", "negative", "equal to m")
               if (entry, case) != ("load_dataset", "float")]


@pytest.mark.parametrize("entry,case", LABEL_CASES)
def test_label_rule_refuses_bad_maps(entry, case, tmp_path):
    call, what, index = LABEL_ENTRY_POINTS[entry]
    expected = {"float": f"{what} labels must be of integer dtype, found float32",
                "negative": f"{what} label -1 out of range [0,3) at {index}",
                "equal to m": f"{what} label 3 out of range [0,3) at {index}"}[case]
    with pytest.raises(DataError, match=re.escape(expected)):
        call(_bad_label_map(case), tmp_path)


def test_label_rule_refuses_bool_maps():
    with pytest.raises(DataError, match="found bool"):
        ConfusionMatrix.from_labels(GOOD_LABELS, GOOD_LABELS.astype(bool), 3)


# --- scene generator ---------------------------------------------------------

class TestScenes:
    def test_deterministic_in_seed(self):
        cfg = SceneConfig()
        a = gen_scene(7, cfg)
        b = gen_scene(7, cfg)
        assert a.rgb.tobytes() == b.rgb.tobytes()
        assert a.depth.tobytes() == b.depth.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()
        c = gen_scene(8, cfg)
        assert a.labels.tobytes() != c.labels.tobytes()

    def test_shapes_dtypes_and_ranges(self):
        cfg = SceneConfig()
        s = gen_scene(0, cfg)
        assert s.rgb.shape == (3, 48, 48) and s.rgb.dtype == np.float32
        assert s.depth.shape == (1, 48, 48) and s.depth.dtype == np.float32
        assert s.labels.shape == (48, 48) and s.labels.dtype == np.int32
        assert s.rgb.min() >= 0.0 and s.rgb.max() <= 1.0
        assert s.depth.min() >= 0.0 and s.depth.max() <= 1.0
        assert s.labels.min() >= 0 and s.labels.max() < cfg.classes

    def test_depth_pair_same_color_distinct_depth(self):
        """The designated class pair must be color-ambiguous but depth-separated."""
        cfg = SceneConfig(rgb_noise=0.0, depth_noise=0.0, depth_ramp=0.0)
        for seed in range(100):
            s = gen_scene(seed, cfg)
            base = s.labels == DEPTH_PAIR[0]
            raised = s.labels == DEPTH_PAIR[1]
            assert base.any() and raised.any()
            rgb_base = s.rgb[:, base].mean(axis=1)
            rgb_raised = s.rgb[:, raised].mean(axis=1)
            assert np.abs(rgb_base - rgb_raised).max() < 0.01
            gap = abs(s.depth[0][raised].mean() - s.depth[0][base].mean())
            assert gap >= 0.2

    def test_all_classes_present_over_sample(self):
        cfg = SceneConfig()
        seen = np.zeros(cfg.classes, dtype=np.int64)
        for seed in range(100):
            seen += np.bincount(gen_scene(seed, cfg).labels.reshape(-1),
                                minlength=cfg.classes)
        assert np.all(seen > 0)

    def test_three_class_config(self):
        s = gen_scene(0, SceneConfig(classes=3))
        assert s.labels.max() <= 2

    def test_infeasible_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            SceneConfig(classes=2)
        with pytest.raises(ConfigurationError):
            SceneConfig(height=8, width=8)
        with pytest.raises(ConfigurationError):
            SceneConfig(depth_gap=(0.1, 0.3))
        with pytest.raises(ConfigurationError):
            SceneConfig(classes=12, width=20, height=20)
        for field in ("rgb_noise", "depth_noise"):
            for value in (-0.01, float("nan"), float("inf")):
                with pytest.raises(ConfigurationError, match=field):
                    SceneConfig(**{field: value})

    def test_dataset_round_trip(self, tmp_path):
        cfg = SceneConfig(height=20, width=20, classes=4)
        save_dataset(str(tmp_path), 3, seed=11, cfg=cfg)
        manifest, samples = load_dataset(str(tmp_path))
        assert manifest["count"] == 3 and manifest["classes"] == 4
        for i, s in enumerate(samples):
            ref = gen_scene(11 + i, cfg)
            assert s.rgb.tobytes() == ref.rgb.tobytes()
            assert s.depth.tobytes() == ref.depth.tobytes()
            assert s.labels.tobytes() == ref.labels.tobytes()

    def test_load_missing_dataset(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(str(tmp_path / "nope"))


# --- network forward / persistence --------------------------------------------

def small_batch(seed=0, n=2, cfg=SMALL_SCENES):
    samples = [gen_scene(seed + i, cfg) for i in range(n)]
    return samples, make_batch(samples)


class TestNetwork:
    def test_forward_shape_and_determinism(self):
        net = ToyPdcNet(SMALL_NET, rng=np.random.default_rng(0))
        _, (rgb, depth, _) = small_batch()
        a = net.forward(rgb, depth).value
        b = net.forward(rgb, depth).value
        assert a.shape == (2, 3, 24, 24)
        assert a.tobytes() == b.tobytes()

    def test_zeroed_classifier_gives_uniform_logits(self):
        net = ToyPdcNet(SMALL_NET, rng=np.random.default_rng(1))
        net.cls_w.value[:] = 0.0
        net.cls_b.value[:] = 0.0
        _, (rgb, depth, labels) = small_batch()
        logits = net.forward(rgb, depth)
        np.testing.assert_array_equal(logits.value, np.zeros_like(logits.value))
        loss = ag.cross_entropy(logits, labels)
        assert float(loss.value) == pytest.approx(np.log(3), rel=1e-6)

    # first 16 hex digits of the sha256 of the default net's parameters()
    # names, joined by newlines, and of their initial values' bytes in that
    # order, at seed 0; the names and the blends' stored values do not
    # depend on whether a blend is fixed, so only swap differs
    DEFAULT_BUILD = {"full": ("24efea529c25ff3c", "74d5815b9dea5742"),
                     "vanilla-baseline": ("24efea529c25ff3c", "74d5815b9dea5742"),
                     "swap": ("8fa10e9e44f7e066", "383d47e8611f9845"),
                     "pdc-only": ("24efea529c25ff3c", "74d5815b9dea5742"),
                     "cpdc-only": ("24efea529c25ff3c", "74d5815b9dea5742")}

    @pytest.mark.parametrize("variant", network.VARIANTS)
    def test_default_build_keeps_its_names_order_and_draws(self, variant):
        # the build order fixes every seed's weights, and the names' order
        # fixes the checkpoint's tensors; no BLAS product runs at init
        params = ToyPdcNet(NetConfig(variant=variant), rng=np.random.default_rng(0)).parameters()
        assert len(params) == 138
        names = hashlib.sha256("\n".join(params).encode()).hexdigest()[:16]
        values = hashlib.sha256(b"".join(p.value.tobytes() for p in params.values()))
        assert (names, values.hexdigest()[:16]) == self.DEFAULT_BUILD[variant]

    @pytest.mark.parametrize("variant", ["full", "vanilla-baseline", "swap",
                                         "pdc-only", "cpdc-only"])
    def test_variants_have_matched_parameter_counts(self, variant):
        ref = ToyPdcNet(SMALL_NET, rng=np.random.default_rng(0))
        cfg = NetConfig(classes=3, channels=(4, 6, 8), blocks_per_stage=1,
                        decoder_channels=8, variant=variant)
        net = ToyPdcNet(cfg, rng=np.random.default_rng(0))
        count = lambda n: sum(p.value.size for p in n.parameters().values())
        assert count(net) == count(ref)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigurationError):
            NetConfig(variant="bogus")

    @pytest.mark.parametrize("bad", [
        {"alpha_mode": "bogus"}, {"alpha_value": 2.0},
        {"alpha_value": -0.1}, {"alpha_value": float("nan")}, {"classes": 1},
        {"channels": ()}, {"channels": (4, 0)}, {"blocks_per_stage": 0},
        {"decoder_channels": 0}, {"decoder_channels": -1},
    ], ids=repr)
    def test_invalid_net_config_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            NetConfig(**bad)

    def test_load_rejects_out_of_range_meta(self, tmp_path):
        state = ToyPdcNet(SMALL_NET, rng=np.random.default_rng(0)).state_dict()
        state["meta.alpha_value"] = np.asarray([2.0])
        path = str(tmp_path / "net.pdck")
        write_checkpoint(path, state)
        with pytest.raises(FormatError, match="alpha_value"):
            ToyPdcNet.load(path)

    @pytest.mark.parametrize("key, value", [
        ("meta.variant", [-1]), ("meta.variant", [9]), ("meta.alpha_mode", [2]),
        ("meta.classes", None), ("meta.blocks_per_stage", [1, 1]),
        # sizes that no tensor in the file matches
        ("meta.channels", [4, 6, 8, 6]), ("meta.blocks_per_stage", [2]),
        ("meta.decoder_channels", [9]), ("meta.classes", [4])])
    def test_load_rejects_bad_meta(self, tmp_path, key, value):
        state = ToyPdcNet(SMALL_NET, rng=np.random.default_rng(0)).state_dict()
        if value is None:
            del state[key]
        else:
            state[key] = np.asarray(value, dtype=np.int32)
        path = str(tmp_path / "net.pdck")
        write_checkpoint(path, state)
        with pytest.raises(FormatError, match=key):
            ToyPdcNet.load(path)

    def test_load_refuses_a_size_no_tensor_matches_before_building(self, tmp_path):
        # built first, 1 << 24 channels would draw gigabytes of weights
        cfg = NetConfig(classes=3, channels=(4,), blocks_per_stage=1, decoder_channels=8)
        state = ToyPdcNet(cfg, rng=np.random.default_rng(0)).state_dict()
        state["meta.channels"] = np.asarray([1 << 24], dtype=np.int32)
        path = str(tmp_path / "net.pdck")
        write_checkpoint(path, state)
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=re.escape(
                    f"checkpoint {path}: meta.channels[0] needs a tensor 's0.trans_rgb.w' "
                    f"of first axis {1 << 24}")):
                ToyPdcNet.load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_checkpoint_round_trip_bit_exact(self, tmp_path):
        cfg = NON_DEFAULT_NET
        assert [f for f in NET_FIELDS
                if getattr(cfg, f) == getattr(NetConfig(), f)] == []
        net = ToyPdcNet(cfg, rng=np.random.default_rng(3))
        path = str(tmp_path / "net.pdck")
        net.save(path)
        back = ToyPdcNet.load(path)
        assert back.cfg == cfg
        for name, p in net.parameters().items():
            assert back.parameters()[name].value.tobytes() == p.value.tobytes()
        _, (rgb, depth, _) = small_batch()
        np.testing.assert_array_equal(back.forward(rgb, depth).value,
                                      net.forward(rgb, depth).value)

    @pytest.mark.parametrize("field", NET_FIELDS)
    def test_load_requires_every_meta_field(self, tmp_path, field):
        state = ToyPdcNet(NON_DEFAULT_NET, rng=np.random.default_rng(0)).state_dict()
        del state[f"meta.{field}"]
        path = str(tmp_path / "net.pdck")
        write_checkpoint(path, state)
        with pytest.raises(FormatError, match=re.escape(f"missing key(s) meta.{field}")):
            ToyPdcNet.load(path)

    @pytest.mark.parametrize("key, value, named", [
        ("meta.bogus", [1.0], "unknown key(s) meta.bogus"),
        ("meta.classes", [5.9], "meta.classes must be int, got 5.9"),
        ("meta.channels", [5.9, 6], "meta.channels must be int, got 5.9"),
        ("meta.blocks_per_stage", [1.0], "meta.blocks_per_stage must be int, got 1.0"),
        ("meta.variant", [1.0], "meta.variant is 1.0, not a code in 0..4"),
    ])
    def test_load_refuses_meta_by_the_run_config_rules(self, tmp_path, key, value, named):
        state = ToyPdcNet(NON_DEFAULT_NET, rng=np.random.default_rng(0)).state_dict()
        state[key] = np.asarray(value, dtype=np.float64)
        path = str(tmp_path / "net.pdck")
        write_checkpoint(path, state)
        with pytest.raises(FormatError, match=re.escape(f"checkpoint {path}: {named}")):
            ToyPdcNet.load(path)

    def test_default_net_backward_bit_identical(self):
        # full size: the dense convs and upsample run on BLAS inside backward
        net = ToyPdcNet(NetConfig(), rng=np.random.default_rng(5))
        _, (rgb, depth, labels) = small_batch(n=8, cfg=SceneConfig())
        assert rgb.dtype == np.float32 and rgb.shape == (8, 3, 48, 48)
        params = net.parameters()
        assert len(params) == 138
        grads = []
        for _ in range(2):  # backward consumes the graph: build it again
            ag.backward(ag.cross_entropy(net.forward(rgb, depth), labels))
            grads.append({name: p.grad.tobytes() for name, p in params.items()})
        for name in params:
            assert grads[1][name] == grads[0][name], name

    def test_backward_peak_stays_near_the_forward_tape(self):
        # backward releases each node once its rule has run, so its traced
        # peak stays close to what the forward left live
        net = ToyPdcNet(NetConfig(), rng=np.random.default_rng(5))
        _, (rgb, depth, labels) = small_batch(n=2, cfg=SceneConfig())
        tracemalloc.start()
        try:
            loss = ag.cross_entropy(net.forward(rgb, depth), labels)
            tape, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            ag.backward(loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * tape, (peak, tape)

    def test_conv_unit_output_is_one_tape_node(self):
        # everything after a unit's conv is one node: no standardized, affine
        # or pre-relu value of any unit is reachable from the logits
        net = ToyPdcNet(NetConfig(), rng=np.random.default_rng(7))
        _, (rgb, depth, _) = small_batch(n=2, cfg=SceneConfig())
        consumers = {}
        for node in ag._topo(net.forward(rgb, depth)):
            for p in node.parents:
                consumers.setdefault(id(p), []).append(node)

        def unit_output(unit):
            assert len(consumers[id(unit.gamma)]) == 1
            out = consumers[id(unit.gamma)][0]
            conv = out.parents[0]
            assert conv.parents[1] is unit.w
            assert consumers[id(conv)] == consumers[id(unit.beta)] == [out]
            return out, conv

        trans, blocks = [], []
        for trans_r, trans_d, blocks_r, blocks_d, *_ in net.stages:
            trans += [trans_r, trans_d]
            blocks += blocks_r + blocks_d
        plain = [net.stem_rgb, net.stem_depth, *trans, *(b.unit1 for b in blocks)]
        assert len(plain) + len(blocks) == 32
        for unit in plain:
            out, conv = unit_output(unit)
            assert out.parents == (conv, unit.gamma, unit.beta)
        for b in blocks:
            out, conv = unit_output(b.unit2)
            block_input = unit_output(b.unit1)[1].parents[0]
            assert out.parents == (conv, b.unit2.gamma, b.unit2.beta, block_input)

    def test_train_step_skips_input_grad_of_the_images(self, monkeypatch):
        # plain image arrays are constants: the two stem convs compute no
        # input gradient, and every parameter gradient stays the same
        net = ToyPdcNet(NetConfig(), rng=np.random.default_rng(6))
        _, (rgb, depth, labels) = small_batch(n=8, cfg=SceneConfig())
        params = net.parameters()
        calls = []
        real = pdconv.tensor.conv2d_input_grad

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(pdconv.tensor, "conv2d_input_grad", counted)

        def step(r, d):
            calls.clear()
            ag.backward(ag.cross_entropy(net.forward(r, d), labels))
            return len(calls), {name: p.grad.tobytes() for name, p in params.items()}

        wrapped_calls, wrapped_grads = step(ag.Var(rgb), ag.Var(depth))
        plain_calls, plain_grads = step(rgb, depth)
        assert wrapped_calls - plain_calls == 2
        assert plain_grads == wrapped_grads

    def test_normalize_depth(self):
        d = np.array([[[1.0, 3.0], [2.0, 5.0]]])
        out = normalize_depth(d)
        assert out.min() == 0.0 and out.max() == 1.0
        np.testing.assert_array_equal(normalize_depth(np.full((1, 2, 2), 4.0)),
                                      np.zeros((1, 2, 2)))

    def test_evaluate_matches_direct_metrics(self):
        net = ToyPdcNet(SMALL_NET, rng=np.random.default_rng(4))
        samples, (rgb, depth, labels) = small_batch(n=EVAL_BATCH + 1)  # two batches
        pix_acc, miou, _ = evaluate(net, samples)
        preds = np.argmax(net.forward(rgb, depth).value, axis=1)
        want_acc, want_miou, _ = metrics(preds, labels, 3)
        assert pix_acc == pytest.approx(want_acc)
        assert miou == pytest.approx(want_miou)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the malloc thresholds are set on glibc only")
    def test_repeated_evaluate_does_not_fault_memory_back_in(self):
        # A fresh process, so the heap starts as a user's does.  The second
        # pass runs 3 batches of 16 on a heap the first pass has grown; with
        # glibc's default thresholds each batch faults ~8K pages back in.
        probe = (
            "import resource\n"
            "import numpy as np\n"
            "from pdconv import network, scenes\n"
            "net = network.ToyPdcNet(network.NetConfig(), rng=np.random.default_rng(0))\n"
            "samples = [scenes.gen_scene(i, scenes.SceneConfig()) for i in range(48)]\n"
            "network.evaluate(net, samples)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "network.evaluate(net, samples)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
        src = os.path.dirname(os.path.dirname(pdconv.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert int(out) / 3 < 300


# --- training ------------------------------------------------------------------

class TestTraining:
    def test_poly_lr_closed_form(self):
        assert poly_lr(8e-3, 0, 100) == pytest.approx(8e-3)
        assert poly_lr(8e-3, 50, 100) == pytest.approx(8e-3 * 0.5 ** 0.9)
        assert poly_lr(8e-3, 50, 100) == pytest.approx(4.286e-3, rel=1e-3)
        assert poly_lr(8e-3, 100, 100) == 0.0

    def test_sgd_step_hand_computed(self):
        p = ag.parameter(np.asarray([1.0]))
        p.grad = np.asarray([0.5])
        opt = SgdState()
        opt.step({"w": p}, {"w"}, lr=0.1, momentum=0.9, weight_decay=0.01)
        # v = g + wd*p = 0.5 + 0.01 = 0.51; p = 1 - 0.1*0.51
        assert p.value[0] == pytest.approx(1.0 - 0.051)
        p.grad = np.asarray([0.5])
        opt.step({"w": p}, {"w"}, lr=0.1, momentum=0.9, weight_decay=0.01)
        v2 = 0.9 * 0.51 + 0.5 + 0.01 * 0.949
        assert p.value[0] == pytest.approx(0.949 - 0.1 * v2)

    def test_momentum_skips_decay_for_undecayable(self):
        p = ag.parameter(np.asarray([2.0]))
        p.grad = np.asarray([0.0])
        opt = SgdState()
        opt.step({"b": p}, set(), lr=0.1, momentum=0.9, weight_decay=0.5)
        assert p.value[0] == 2.0

    def test_short_training_reduces_loss_deterministically(self):
        samples = [gen_scene(100 + i, SMALL_SCENES) for i in range(9)]  # 8 train, 1 val
        histories = []
        for _ in range(2):
            net = ToyPdcNet(SMALL_NET, rng=np.random.default_rng(5))
            hyper = TrainConfig(epochs=3, batch_size=4, seed=0)
            histories.append(train(net, samples, hyper))
        h1, h2 = histories
        assert [r["loss"] for r in h1] == [r["loss"] for r in h2]
        assert h1[-1]["loss"] < h1[0]["loss"]
        assert len(h1) == 3 and h1[-1]["iter"] == 6

    @pytest.mark.parametrize("count", [3, 12])
    def test_each_epoch_evaluates_the_tail_split(self, count, monkeypatch):
        samples = [gen_scene(100 + i, SMALL_SCENES) for i in range(count)]
        seen = []
        monkeypatch.setattr(network, "evaluate",
                            lambda net, val: seen.append(val) or (0.0, 0.0, None))
        net = ToyPdcNet(SMALL_NET, rng=np.random.default_rng(5))
        train(net, samples, TrainConfig(epochs=2, batch_size=4, val_fraction=0.25, seed=0))
        tail = samples[-max(1, int(count * 0.25)):]
        assert [[id(s) for s in val] for val in seen] == [[id(s) for s in tail]] * 2

    def test_previous_step_tape_is_freed_before_next_forward(self, monkeypatch):
        samples = [gen_scene(100 + i, SMALL_SCENES) for i in range(7)]
        net = ToyPdcNet(SMALL_NET, rng=np.random.default_rng(5))
        forward = net.forward
        previous = []  # weakref to the last step's logits array; Var has no __weakref__
        alive = []

        def probe(rgb, depth):
            if previous:
                alive.append(previous[-1]() is not None)
            logits = forward(rgb, depth)
            previous.append(weakref.ref(logits.value))
            return logits

        monkeypatch.setattr(net, "forward", probe)
        train(net, samples, TrainConfig(epochs=2, batch_size=2, seed=0))
        # 3 steps and 1 validation forward per epoch: 8 forward passes
        assert alive == [False] * 7

    @pytest.mark.parametrize("bad", [
        {"lr": 0.0}, {"lr": float("nan")}, {"epochs": 0}, {"batch_size": 0},
        {"momentum": 1.0}, {"weight_decay": -1e-4}, {"weight_decay": float("nan")},
        {"val_fraction": 1.0}, {"val_fraction": -0.1}, {"seed": -1},
        {"lr": float("inf")}, {"weight_decay": float("inf")}, {"poly_power": float("nan")},
        {"poly_power": -1.0}, {"poly_power": float("inf")},
    ], ids=repr)
    def test_invalid_train_config_rejected(self, bad):
        with pytest.raises(ConfigurationError, match=f"^{next(iter(bad))} must be"):
            TrainConfig(**bad)

    @pytest.mark.parametrize("count", [0, 1])
    def test_empty_training_split_rejected(self, count):
        samples = [gen_scene(300 + i, SMALL_SCENES) for i in range(count)]
        net = ToyPdcNet(SMALL_NET, rng=np.random.default_rng(0))
        with pytest.raises(ConfigurationError, match="empty"):
            train(net, samples, TrainConfig(epochs=1, batch_size=2))

    def test_divergence_reports_iteration(self):
        samples = [gen_scene(200 + i, SMALL_SCENES) for i in range(3)]
        net = ToyPdcNet(SMALL_NET, rng=np.random.default_rng(6))
        net.stem_rgb.gamma.value[:] = np.nan  # poisons every logit
        hyper = TrainConfig(epochs=1, batch_size=2, seed=0)
        with pytest.raises(TrainingDiverged) as exc:
            train(net, samples, hyper)
        assert exc.value.iteration == 0


# --- numpy's ufunc buffer -------------------------------------------------------

@pytest.fixture
def norm_act_seen(monkeypatch):
    """(pass, np.getbufsize()) per ag.norm_act call and per run of its rule."""
    seen = []
    real = ag.norm_act

    def probe(*args):
        out = real(*args)
        rule = out._backward
        out._backward = lambda g: seen.append(("backward", np.getbufsize())) or rule(g)
        seen.append(("forward", np.getbufsize()))
        return out

    monkeypatch.setattr(ag, "norm_act", probe)
    return seen


class TestUfuncBuffer:
    def test_forward_and_backward_run_under_it_and_restore_the_callers(
            self, caller_bufsize, norm_act_seen):
        net = ToyPdcNet(SMALL_NET, rng=np.random.default_rng(0))
        _, (rgb, depth, labels) = small_batch()
        loss = ag.cross_entropy(net.forward(rgb, depth), labels)
        assert np.getbufsize() == caller_bufsize
        assert set(norm_act_seen) == {("forward", ag.UFUNC_BUFSIZE)}
        ag.backward(loss)
        assert np.getbufsize() == caller_bufsize
        assert set(norm_act_seen) == {("forward", ag.UFUNC_BUFSIZE),
                                      ("backward", ag.UFUNC_BUFSIZE)}
        assert ag.UFUNC_BUFSIZE != caller_bufsize

    def test_train_and_evaluate_leave_the_callers(self, caller_bufsize, norm_act_seen):
        samples = [gen_scene(100 + i, SMALL_SCENES) for i in range(3)]  # 2 train, 1 val
        net = ToyPdcNet(SMALL_NET, rng=np.random.default_rng(5))
        train(net, samples, TrainConfig(epochs=1, batch_size=2, seed=0))
        assert np.getbufsize() == caller_bufsize
        evaluate(net, samples)
        assert np.getbufsize() == caller_bufsize
        assert {size for _, size in norm_act_seen} == {ag.UFUNC_BUFSIZE}
        assert {kind for kind, _ in norm_act_seen} == {"forward", "backward"}

    def test_a_raising_forward_restores_the_callers(self, caller_bufsize, norm_act_seen):
        net = ToyPdcNet(SMALL_NET, rng=np.random.default_rng(0))
        _, (rgb, depth, _) = small_batch()
        with pytest.raises(DimensionError, match="for input C=2"):
            net.forward(rgb, np.concatenate([depth, depth], axis=1))
        assert norm_act_seen == [("forward", ag.UFUNC_BUFSIZE)]  # the RGB stem ran
        assert np.getbufsize() == caller_bufsize

    def test_a_raising_backward_restores_the_callers(self, caller_bufsize, norm_act_seen):
        net = ToyPdcNet(SMALL_NET, rng=np.random.default_rng(0))
        _, (rgb, depth, labels) = small_batch()
        loss = ag.cross_entropy(net.forward(rgb, depth), labels)
        ag.backward(loss)
        with pytest.raises(ContractError, match="consumed by an earlier backward"):
            ag.backward(loss)
        assert np.getbufsize() == caller_bufsize
        assert {size for _, size in norm_act_seen} == {ag.UFUNC_BUFSIZE}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("variant", network.VARIANTS)
    def test_outputs_do_not_depend_on_its_size(self, variant, dtype, monkeypatch):
        # default sizes, so the 48x48 planes and their (2, 3) reductions span
        # several 1024-element buffers
        _, (rgb, depth, labels) = small_batch(n=2, cfg=SceneConfig())
        rgb, depth = rgb.astype(dtype), depth.astype(dtype)

        def run():
            net = ToyPdcNet(NetConfig(variant=variant), rng=np.random.default_rng(0),
                            dtype=dtype)
            logits = net.forward(rgb, depth)
            loss = ag.cross_entropy(logits, labels)
            ag.backward(loss)
            return [logits.value.tobytes(), loss.value.tobytes()] + [
                b"none" if p.grad is None else p.grad.tobytes()
                for p in net.parameters().values()]

        shipped = run()
        monkeypatch.setattr(ag, "UFUNC_BUFSIZE", 8192)  # numpy's default
        assert run() == shipped
