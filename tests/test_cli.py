import json
import os
import sys

import numpy as np
import pytest

from pdconv.cli import main
from pdconv.config import load_run_config
from pdconv.errors import ConfigurationError
from pdconv.pdtio import read_checkpoint, read_pdt, write_checkpoint, write_pdt


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SMALL_CONFIG = {
    "seed": 0,
    "model": {"channels": [4, 6], "blocks_per_stage": 1, "decoder_channels": 8},
    "training": {"epochs": 1, "batch_size": 4, "lr": 8e-3},
}


@pytest.fixture
def small_dataset(tmp_path, capsys):
    data_dir = str(tmp_path / "data")
    code, out, _ = run(capsys, "gen", "--out", data_dir, "--count", "6",
                       "--seed", "5", "--height", "24", "--width", "24",
                       "--classes", "3")
    assert code == 0 and "wrote 6 scenes" in out
    return data_dir


@pytest.fixture
def config_path(tmp_path):
    path = str(tmp_path / "run.json")
    with open(path, "w") as f:
        json.dump(SMALL_CONFIG, f)
    return path


class TestGradcheckCommand:
    def test_single_op_passes(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--op", "pdc")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("gradcheck")]
        assert lines and all(l.endswith("ok") for l in lines)
        assert any("alpha" in l for l in lines)

    def test_unknown_op_is_usage_error(self, capsys):
        code, _, err = run(capsys, "gradcheck", "--op", "nonsense")
        assert code == 2
        assert "unknown op" in err


class TestEquivalenceCommand:
    def test_f32_and_f64(self, capsys):
        for dtype in ("f32", "f64"):
            code, out, _ = run(capsys, "equivalence", "--seeds", "50",
                               "--dtype", dtype)
            assert code == 0
            assert out.strip().endswith("ok")


class TestRfmapCommand:
    def test_cascade_dense(self, capsys, tmp_path):
        out_path = str(tmp_path / "rf.pdt")
        code, out, _ = run(capsys, "rfmap", "--mode", "cascade",
                           "--ascii", "--out", out_path)
        assert code == 0
        assert "extent=23x23" in out and "holes=0" in out
        assert "analytic_match=True" in out
        grid = read_pdt(out_path)
        assert grid.shape == (23, 23) and grid.min() >= 1

    def test_parallel_reports_holes(self, capsys):
        code, out, _ = run(capsys, "rfmap", "--mode", "parallel")
        assert code == 0
        assert "extent=19x19" in out and "holes=288" in out

    def test_bad_mode_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "rfmap", "--mode", "donut")
        assert code == 2


def test_bench_runs_and_reports_mac_advantage(capsys):
    code, out, _ = run(capsys, "bench", "--sizes", "16", "--channels", "4",
                       "--reps", "1")
    assert code == 0
    assert "clk/21x21 MACs" in out
    for op in ("conv2d", "conv3x3", "clk", "pdc", "cpdc"):
        assert any(line.startswith(op) for line in out.splitlines())


def test_bench_header_says_when_thread_cap_is_ignored(capsys, monkeypatch):
    monkeypatch.setenv("PDCONV_THREADS", "4")
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # import fails
    code, out, _ = run(capsys, "bench", "--sizes", "8", "--channels", "2",
                       "--reps", "1")
    assert code == 0
    assert out.splitlines()[0] == ("bench channels=2 "
                                   "threads=4 (ignored: threadpoolctl not installed)")


class TestGenCommand:
    def test_deterministic_bytes(self, tmp_path, capsys):
        dirs = []
        for name in ("a", "b"):
            d = str(tmp_path / name)
            code, _, _ = run(capsys, "gen", "--out", d, "--count", "2",
                             "--seed", "9", "--height", "20", "--width", "20",
                             "--classes", "3")
            assert code == 0
            dirs.append(d)
        for fname in sorted(os.listdir(dirs[0])):
            a = open(os.path.join(dirs[0], fname), "rb").read()
            b = open(os.path.join(dirs[1], fname), "rb").read()
            assert a == b, fname

    def test_infeasible_geometry_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen", "--out", str(tmp_path / "x"),
                           "--count", "1", "--seed", "0",
                           "--height", "8", "--width", "8")
        assert code == 2 and "error" in err


class TestTrainEvalFlow:
    def test_train_then_eval(self, small_dataset, config_path, tmp_path, capsys):
        ckpt = str(tmp_path / "net.pdck")
        log = str(tmp_path / "train.jsonl")
        code, out, _ = run(capsys, "train", "--config", config_path,
                           "--data", small_dataset, "--out", ckpt, "--log", log)
        assert code == 0 and os.path.exists(ckpt)
        records = [json.loads(l) for l in open(log)]
        assert len(records) == 1 and "loss" in records[0]

        code, out, _ = run(capsys, "eval", "--ckpt", ckpt, "--data", small_dataset,
                           "--dump-params")
        assert code == 0
        result = json.loads(out)
        assert set(result) == {"pixel_acc", "miou", "per_class_iou", "variant",
                               "params"}
        assert result["variant"] == "full"
        assert len(result["per_class_iou"]) == 3
        assert any(k.endswith("alpha0") for k in result["params"])

        # byte-identical re-evaluation
        code2, out2, _ = run(capsys, "eval", "--ckpt", ckpt, "--data", small_dataset,
                             "--dump-params")
        assert code2 == 0 and out2 == out

    def test_eval_variant_mismatch_is_usage_error(self, small_dataset, config_path,
                                                  tmp_path, capsys):
        ckpt = str(tmp_path / "net.pdck")
        code, _, _ = run(capsys, "train", "--config", config_path,
                         "--data", small_dataset, "--out", ckpt,
                         "--variant", "vanilla-baseline")
        assert code == 0
        code, _, err = run(capsys, "eval", "--ckpt", ckpt, "--data", small_dataset,
                           "--variant", "full")
        assert code == 2 and "variant" in err

    def test_training_seed_points_at_top_level_seed(self, small_dataset, tmp_path, capsys):
        # cmd_train always seeds from the top-level seed, so training.seed is refused
        path = str(tmp_path / "run.json")
        with open(path, "w") as f:
            json.dump({**SMALL_CONFIG, "training": {**SMALL_CONFIG["training"], "seed": 3}}, f)
        code, _, err = run(capsys, "train", "--config", path, "--data", small_dataset,
                           "--out", str(tmp_path / "net.pdck"))
        assert code == 2 and "training.seed" in err and "top-level 'seed'" in err

    def test_eval_bad_checkpoint_meta_is_format_error(self, small_dataset, config_path,
                                                      tmp_path, capsys):
        ckpt = str(tmp_path / "net.pdck")
        code, _, _ = run(capsys, "train", "--config", config_path,
                         "--data", small_dataset, "--out", ckpt)
        assert code == 0
        state = read_checkpoint(ckpt)
        state["meta.variant"] = np.asarray([9], dtype=np.int32)
        write_checkpoint(ckpt, state)
        code, _, err = run(capsys, "eval", "--ckpt", ckpt, "--data", small_dataset)
        assert code == 1 and "meta.variant" in err and "Traceback" not in err

    def test_missing_data_dir(self, config_path, tmp_path, capsys):
        code, _, err = run(capsys, "train", "--config", config_path,
                           "--data", str(tmp_path / "nope"),
                           "--out", str(tmp_path / "net.pdck"))
        assert code == 3 and "missing file" in err

    def test_missing_checkpoint(self, small_dataset, capsys):
        code, _, _ = run(capsys, "eval", "--ckpt", "/does/not/exist.pdck",
                         "--data", small_dataset)
        assert code == 3

    def test_missing_config(self, small_dataset, tmp_path, capsys):
        code, _, _ = run(capsys, "train", "--config", str(tmp_path / "no.json"),
                         "--data", small_dataset, "--out", str(tmp_path / "n.pdck"))
        assert code == 3

    def test_empty_training_split_is_usage_error(self, config_path, tmp_path, capsys):
        data_dir = str(tmp_path / "one")
        code, _, _ = run(capsys, "gen", "--out", data_dir, "--count", "1",
                         "--seed", "5", "--height", "24", "--width", "24",
                         "--classes", "3")
        assert code == 0
        code, _, err = run(capsys, "train", "--config", config_path, "--data", data_dir,
                           "--out", str(tmp_path / "net.pdck"))
        assert code == 2 and "error:" in err and "empty" in err

    def test_unknown_subcommand_and_flag(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2
        assert run(capsys, "rfmap", "--mode", "cascade", "--bogus")[0] == 2


class TestRunConfig:
    def test_defaults_round_trip(self, tmp_path):
        path = str(tmp_path / "c.json")
        with open(path, "w") as f:
            json.dump({}, f)
        cfg = load_run_config(path)
        assert cfg.training.lr == 8e-3
        assert cfg.training.momentum == 0.9
        assert cfg.training.weight_decay == 1e-4
        assert cfg.training.batch_size == 8
        assert cfg.model.channels == (16, 32, 64)

    def test_unknown_key_rejected(self, tmp_path):
        path = str(tmp_path / "c.json")
        with open(path, "w") as f:
            json.dump({"training": {"learning_rate": 0.1}}, f)
        with pytest.raises(ConfigurationError, match="learning_rate"):
            load_run_config(path)

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = str(tmp_path / "c.json")
        with open(path, "w") as f:
            json.dump({"optimizer": "sgd"}, f)
        with pytest.raises(ConfigurationError, match="optimizer"):
            load_run_config(path)

    def test_invalid_values_rejected(self, tmp_path):
        path = str(tmp_path / "c.json")
        with open(path, "w") as f:
            json.dump({"training": {"lr": -1.0}}, f)
        with pytest.raises(ConfigurationError):
            load_run_config(path)

    def test_model_fields_set_per_run_stay_unknown(self, tmp_path):
        # the class count comes from the dataset and the variant from --variant
        path = str(tmp_path / "c.json")
        for key, value in (("classes", 3), ("variant", "swap")):
            with open(path, "w") as f:
                json.dump({"model": {key: value}}, f)
            with pytest.raises(ConfigurationError, match=key):
                load_run_config(path)

    def test_int_stands_for_float(self, tmp_path):
        path = str(tmp_path / "c.json")
        with open(path, "w") as f:
            json.dump({"model": {"alpha_value": 1}, "training": {"lr": 1}}, f)
        cfg = load_run_config(path)
        assert cfg.model.alpha_value == 1.0 and isinstance(cfg.model.alpha_value, float)
        assert cfg.training.lr == 1.0 and isinstance(cfg.training.lr, float)


MALFORMED_CONFIGS = [
    {"model": {"decoder_channels": 0}},
    {"model": {"decoder_channels": -1}},
    {"model": {"channels": []}},
    {"model": {"channels": [4.5]}},
    {"model": {"alpha_value": 2}},
    {"model": {"blocks_per_stage": True}},
    {"seed": "abc"},
    {"seed": -1},
    {"training": {"lr": "0.1"}},
    {"training": {"epochs": 1.5}},
    {"model": [1]},
    {"training": {"val_fraction": 2}},
    {"generator": {"depth_gap": [0.25, "x"]}},
]


@pytest.mark.parametrize("case", MALFORMED_CONFIGS, ids=json.dumps)
def test_malformed_run_config_is_usage_error(case, small_dataset, tmp_path, capsys):
    config = dict(SMALL_CONFIG)
    for key, value in case.items():
        base = config.get(key)
        config[key] = ({**base, **value}
                       if isinstance(base, dict) and isinstance(value, dict) else value)
    path = str(tmp_path / "bad.json")
    with open(path, "w") as f:
        json.dump(config, f)
    code, _, err = run(capsys, "train", "--config", path, "--data", small_dataset,
                       "--out", str(tmp_path / "net.pdck"))
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


def test_invalid_json_is_usage_error(small_dataset, tmp_path, capsys):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as f:
        f.write('{"seed": 0,')
    code, _, err = run(capsys, "train", "--config", path, "--data", small_dataset,
                       "--out", str(tmp_path / "net.pdck"))
    assert code == 2 and err.startswith("error:")


def _rewrite_sample(data_dir, part, change):
    path = os.path.join(data_dir, f"scene_00000.{part}.pdt")
    write_pdt(path, change(read_pdt(path)))


def _rewrite_manifest(data_dir, change):
    path = os.path.join(data_dir, "manifest.json")
    with open(path) as f:
        manifest = json.load(f)
    change(manifest)
    with open(path, "w") as f:
        json.dump(manifest, f)


def _write_text(data_dir, name, text):
    with open(os.path.join(data_dir, name), "w") as f:
        f.write(text)


# each damage, and what the error must name: the file and the key or shape
DAMAGED_DATASETS = {
    "label rows cut": (lambda d: _rewrite_sample(d, "label", lambda a: a[:20]),
                       "scene_00000.label.pdt: expected shape (24, 24)"),
    "depth of rank 2": (lambda d: _rewrite_sample(d, "depth", lambda a: a[0]),
                        "found shape (24, 24)"),
    "rgb of 20x20": (lambda d: _rewrite_sample(d, "rgb", lambda a: a[:, :20, :20]),
                     "scene_00000.rgb.pdt: expected shape (3, 24, 24)"),
    "no count": (lambda d: _rewrite_manifest(d, lambda m: m.pop("count")),
                 "manifest.json: manifest key 'count' is missing"),
    "count a string": (lambda d: _rewrite_manifest(d, lambda m: m.update(count="12")),
                       "'count' must be a non-negative integer, got '12'"),
    "manifest not JSON": (lambda d: _write_text(d, "manifest.json", '{"version": 1,'),
                          "manifest.json is not a JSON manifest"),
    "float labels": (lambda d: _rewrite_sample(d, "label", lambda a: a.astype(np.float32)),
                     "of integer dtype, found shape (24, 24) of dtype float32"),
}


@pytest.mark.parametrize("damage", sorted(DAMAGED_DATASETS))
def test_damaged_dataset_is_format_error(damage, small_dataset, config_path, tmp_path,
                                         capsys):
    change, named = DAMAGED_DATASETS[damage]
    change(small_dataset)
    code, _, err = run(capsys, "train", "--config", config_path, "--data", small_dataset,
                       "--out", str(tmp_path / "net.pdck"))
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert named in err
