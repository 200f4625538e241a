import numpy as np
import pytest

from pdconv.errors import ConfigurationError, DataError, TrainingDiverged
from pdconv.metrics import ConfusionMatrix, metrics
from pdconv.network import (NetConfig, SgdState, ToyPdcNet, TrainConfig,
                            evaluate, make_batch, normalize_depth, poly_lr, train)
from pdconv.pdtio import write_checkpoint
from pdconv.scenes import (DEPTH_PAIR, SceneConfig, gen_scene, load_dataset,
                           save_dataset)

from naive import naive_metrics

from pdconv import autograd as ag


SMALL_NET = NetConfig(classes=3, channels=(4, 6, 8), blocks_per_stage=1,
                      decoder_channels=8)
SMALL_SCENES = SceneConfig(height=24, width=24, classes=3)


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
        with pytest.raises(ConfigurationError, match="alpha_value"):
            ToyPdcNet.load(path)

    def test_checkpoint_round_trip_bit_exact(self, tmp_path):
        cfg = NetConfig(classes=3, channels=(4, 6), blocks_per_stage=1,
                        decoder_channels=8, variant="swap", alpha_mode="fixed",
                        alpha_value=0.25)
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

    def test_default_net_backward_bit_identical(self):
        # full size: the dense convs and upsample run on BLAS inside backward
        net = ToyPdcNet(NetConfig(), rng=np.random.default_rng(5))
        _, (rgb, depth, labels) = small_batch(n=8, cfg=SceneConfig())
        assert rgb.dtype == np.float32 and rgb.shape == (8, 3, 48, 48)
        params = net.parameters()
        assert len(params) == 138
        loss = ag.cross_entropy(net.forward(rgb, depth), labels)
        ag.backward(loss)
        first = {name: p.grad.tobytes() for name, p in params.items()}
        ag.backward(loss)
        for name, p in params.items():
            assert p.grad.tobytes() == first[name], name

    def test_normalize_depth(self):
        d = np.array([[[1.0, 3.0], [2.0, 5.0]]])
        out = normalize_depth(d)
        assert out.min() == 0.0 and out.max() == 1.0
        np.testing.assert_array_equal(normalize_depth(np.full((1, 2, 2), 4.0)),
                                      np.zeros((1, 2, 2)))

    def test_evaluate_matches_direct_metrics(self):
        net = ToyPdcNet(SMALL_NET, rng=np.random.default_rng(4))
        samples, (rgb, depth, labels) = small_batch(n=3)
        pix_acc, miou, _ = evaluate(net, samples, batch_size=2)
        preds = np.argmax(net.forward(rgb, depth).value, axis=1)
        want_acc, want_miou, _ = metrics(preds, labels, 3)
        assert pix_acc == pytest.approx(want_acc)
        assert miou == pytest.approx(want_miou)


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
        samples = [gen_scene(100 + i, SMALL_SCENES) for i in range(12)]
        histories = []
        for _ in range(2):
            net = ToyPdcNet(SMALL_NET, rng=np.random.default_rng(5))
            hyper = TrainConfig(epochs=3, batch_size=4, seed=0)
            histories.append(train(net, samples[:8], samples[8:], hyper))
        h1, h2 = histories
        assert [r["loss"] for r in h1] == [r["loss"] for r in h2]
        assert h1[-1]["loss"] < h1[0]["loss"]
        assert len(h1) == 3 and h1[-1]["iter"] == 6

    @pytest.mark.parametrize("bad", [
        {"lr": 0.0}, {"lr": float("nan")}, {"epochs": 0}, {"batch_size": 0},
        {"momentum": 1.0}, {"weight_decay": -1e-4}, {"weight_decay": float("nan")},
        {"val_fraction": 1.0}, {"val_fraction": -0.1}, {"seed": -1},
    ], ids=repr)
    def test_invalid_train_config_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            TrainConfig(**bad)

    @pytest.mark.parametrize("count", [0, 1])
    def test_empty_training_split_rejected(self, count):
        samples = [gen_scene(300 + i, SMALL_SCENES) for i in range(count)]
        net = ToyPdcNet(SMALL_NET, rng=np.random.default_rng(0))
        with pytest.raises(ConfigurationError, match="empty"):
            train(net, samples, None, TrainConfig(epochs=1, batch_size=2))

    def test_divergence_reports_iteration(self):
        samples = [gen_scene(200 + i, SMALL_SCENES) for i in range(4)]
        net = ToyPdcNet(SMALL_NET, rng=np.random.default_rng(6))
        net.stem_rgb.gamma.value[:] = np.nan  # poisons every logit
        hyper = TrainConfig(epochs=1, batch_size=2, seed=0)
        with pytest.raises(TrainingDiverged) as exc:
            train(net, samples[:2], samples[2:], hyper)
        assert exc.value.iteration == 0
