import json
import math
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

import pdconv
from pdconv import checks
from pdconv.autograd import GradReport
from pdconv.cli import main
from pdconv.config import load_run_config
from pdconv.errors import ConfigurationError
from pdconv.network import NetConfig, ToyPdcNet
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


def test_import_loads_only_numpy_and_stdlib():
    # a fresh process, so no other test's imports count; `setup_s` in
    # perfbench pays for every module the import pulls in
    probe = ("import sys\nbefore = set(sys.modules)\nimport pdconv, pdconv.cli\n"
             "added = {m.split('.')[0] for m in set(sys.modules) - before}\n"
             "print(sorted(added - set(sys.stdlib_module_names)))")
    src = os.path.dirname(os.path.dirname(pdconv.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "['numpy', 'pdconv']"


class TestGradcheckCommand:
    def test_single_op_passes(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--op", "pdc")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("gradcheck")]
        assert lines and all(l.endswith("ok") for l in lines)
        assert any("alpha" in l for l in lines)

    def test_non_finite_error_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(checks, "run_gradcheck",
                            lambda op, seed: GradReport("float64", {"x": math.nan}))
        code, out, _ = run(capsys, "gradcheck", "--op", "pdc")
        assert code == 1 and out.rstrip().endswith("FAIL")

    def test_unknown_op_is_usage_error(self, capsys):
        code, out, err = run(capsys, "gradcheck", "--op", "nonsense")
        assert code == 2 and out == ""
        assert err.startswith("error: unknown op 'nonsense'")


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

    def test_out_in_missing_directory_names_the_given_path(self, capsys, tmp_path,
                                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, "rfmap", "--mode", "cascade", "--out", "nodir/x.pdt")
        assert code == 3 and err == "error: missing file nodir/x.pdt\n"
        assert [p.name for p in tmp_path.rglob("*")] == []

    @pytest.mark.parametrize("make", ["dir", "file"], ids=["out-is-dir", "parent-is-file"])
    def test_out_of_the_wrong_kind_is_usage_error(self, make, capsys, tmp_path):
        if make == "dir":
            (tmp_path / "d").mkdir()
            out = str(tmp_path / "d")
        else:
            (tmp_path / "d").write_text("")
            out = str(tmp_path / "d" / "x.pdt")
        code, _, err = run(capsys, "rfmap", "--mode", "cascade", "--out", out)
        assert code == 2 and err.startswith("error:") and err.count("\n") == 1
        assert out in err and ".tmp" not in err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["d"]


def test_bench_runs_and_reports_mac_advantage(capsys):
    code, out, _ = run(capsys, "bench", "--sizes", "16", "--channels", "4",
                       "--reps", "1")
    assert code == 0
    assert out.splitlines()[0] == f"bench channels=4 malloc={pdconv.MALLOC}"
    if platform.libc_ver()[0] == "glibc":
        assert pdconv.MALLOC == "fixed"
    assert "clk/21x21 MACs" in out
    for op in ("conv2d", "conv3x3", "clk", "pdc", "cpdc"):
        assert any(line.startswith(op) for line in out.splitlines())


def test_bench_pdc_macs_are_one_depthwise_5x5_conv(capsys):
    code, out, _ = run(capsys, "bench", "--sizes", "8", "--channels", "3", "--reps", "1")
    assert code == 0
    rows = {line.split()[0]: int(line.split()[2]) for line in out.splitlines()[2:]
            if line.split()[0] in ("pdc", "cpdc")}
    dw5 = pdconv.tensor.flop_count(pdconv.tensor.depthwise_spec(3, (5, 5), 1), 3, 3, (8, 8))
    assert rows["pdc"] == dw5
    assert rows["cpdc"] == pdconv.clk.clk_flops(3, (8, 8)) + 3 * 8 * 8


# each out-of-range flag value, and the flag its one error line names
BAD_FLAGS = [
    (("gradcheck", "--op", "pdc", "--seed", "-1"), "--seed"),
    (("bench", "--seed", "-1"), "--seed"),
    (("gen", "--count", "1", "--seed", "-1"), "--seed"),
    (("bench", "--reps", "0"), "--reps"),
    (("bench", "--sizes", "abc"), "--sizes"),
    (("bench", "--sizes", "16,0"), "--sizes"),
    (("bench", "--channels", "0"), "--channels"),
    (("equivalence", "--seeds", "0"), "--seeds"),
    (("equivalence", "--seeds", "-3"), "--seeds"),
]


@pytest.mark.parametrize("argv, flag", BAD_FLAGS, ids=[" ".join(a) for a, _ in BAD_FLAGS])
def test_bad_flag_value_is_one_usage_error_line(argv, flag, tmp_path, capsys):
    if argv[0] == "gen":
        argv += ("--out", str(tmp_path / "x"))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag} must be") and err.count("\n") == 1
    assert not (tmp_path / "x").exists()


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

    @pytest.mark.parametrize("flag, value", [("--depth-noise", "-1"), ("--depth-noise", "nan"),
                                             ("--count", "-1")],
                             ids=["negative-noise", "nan-noise", "negative-count"])
    def test_bad_value_is_usage_error_that_writes_nothing(self, flag, value, tmp_path, capsys):
        out = tmp_path / "x"
        args = {"--out": str(out), "--count": "2", "--seed": "0", flag: value}
        code, _, err = run(capsys, "gen", *[a for pair in args.items() for a in pair])
        assert code == 2 and err.startswith("error:") and "Traceback" not in err
        assert not (out / "manifest.json").exists()

    def test_out_naming_a_file_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("keep")
        code, _, err = run(capsys, "gen", "--out", str(out), "--count", "1", "--seed", "0")
        assert code == 2 and err == f"error: File exists: {out}\n"
        assert out.read_text() == "keep"

    def test_manifest_of_the_wrong_kind_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "d" / "manifest.json").mkdir(parents=True)
        manifest = str(tmp_path / "d" / "manifest.json")
        code, _, err = run(capsys, "gen", "--out", str(tmp_path / "d"), "--count", "1",
                           "--seed", "0")
        assert code == 2 and err.startswith("error:") and err.count("\n") == 1
        assert manifest in err and ".tmp" not in err
        assert not list(tmp_path.rglob("*.tmp"))

    def test_zero_count_writes_an_empty_dataset(self, tmp_path, capsys):
        out = tmp_path / "x"
        code, stdout, _ = run(capsys, "gen", "--out", str(out), "--count", "0", "--seed", "0")
        assert code == 0 and "wrote 0 scenes" in stdout
        assert json.loads((out / "manifest.json").read_text())["count"] == 0


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

    @pytest.mark.parametrize("variant", ["full", "vanilla-baseline"])
    def test_eval_dump_params_lists_every_stage(self, variant, small_dataset, tmp_path,
                                                capsys):
        cfg = NetConfig(classes=3, channels=(4, 6, 8), blocks_per_stage=1,
                        decoder_channels=8, variant=variant)
        ckpt = str(tmp_path / "net.pdck")
        ToyPdcNet(cfg, rng=np.random.default_rng(0)).save(ckpt)
        code, out, _ = run(capsys, "eval", "--ckpt", ckpt, "--data", small_dataset,
                           "--dump-params")
        assert code == 0
        params = json.loads(out)["params"]
        assert set(params) == {f"s{i}.{k}" for i in range(3) for k in (
            "eta", "lambda", "rgb.alpha0", "rgb.alpha1", "depth.alpha0")}
        alphas = [v for k, v in params.items() if ".alpha" in k]
        assert set(alphas) == ({0.8} if variant == "full" else {0.0})

    def test_eval_variant_mismatch_is_usage_error(self, small_dataset, config_path,
                                                  tmp_path, capsys):
        ckpt = str(tmp_path / "net.pdck")
        code, _, _ = run(capsys, "train", "--config", config_path,
                         "--data", small_dataset, "--out", ckpt,
                         "--variant", "vanilla-baseline")
        assert code == 0
        code, out, err = run(capsys, "eval", "--ckpt", ckpt, "--data", small_dataset,
                             "--variant", "full")
        assert code == 2 and out == ""
        assert err.startswith("error: checkpoint variant is 'vanilla-baseline', not 'full'")

    @pytest.mark.parametrize("gen_args, named", [
        (("--count", "0"), "error: nothing to evaluate"),
        (("--count", "1", "--classes", "4"), "error: dataset has 4 classes, checkpoint 5"),
    ], ids=["empty", "4 classes"])
    def test_eval_on_unusable_dataset_is_usage_error(self, gen_args, named, tmp_path, capsys):
        data_dir = str(tmp_path / "data")
        assert run(capsys, "gen", "--out", data_dir, "--seed", "0", *gen_args)[0] == 0
        ckpt = str(tmp_path / "net.pdck")
        cfg = NetConfig(classes=5, channels=(4, 6), blocks_per_stage=1, decoder_channels=8)
        ToyPdcNet(cfg, rng=np.random.default_rng(0)).save(ckpt)
        code, out, err = run(capsys, "eval", "--ckpt", ckpt, "--data", data_dir)
        assert code == 2 and out == ""
        assert err.startswith(named) and "Traceback" not in err

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

    @pytest.mark.parametrize("out, want_code, problem", [
        ("nodir/net.pdck", 3, "missing file"),
        ("adir", 2, "Is a directory:"),
        ("afile/net.pdck", 2, "Not a directory:"),
    ], ids=["missing dir", "a dir", "under a file"])
    def test_bad_out_is_refused_before_training(self, out, want_code, problem,
                                                small_dataset, config_path, tmp_path,
                                                capsys):
        (tmp_path / "adir").mkdir()
        (tmp_path / "afile").write_text("kept")
        before = sorted(os.listdir(tmp_path))
        out = str(tmp_path / out)
        log = str(tmp_path / "train.jsonl")
        code, stdout, err = run(capsys, "train", "--config", config_path,
                                "--data", small_dataset, "--out", out, "--log", log)
        assert code == want_code
        assert err == f"error: {problem} {out}\n"
        assert "epoch" not in stdout
        # nothing was created, the log included, and the file was not overwritten
        assert sorted(os.listdir(tmp_path)) == before
        assert os.listdir(tmp_path / "adir") == []
        assert (tmp_path / "afile").read_text() == "kept"

    def test_missing_checkpoint(self, small_dataset, capsys):
        code, _, _ = run(capsys, "eval", "--ckpt", "/does/not/exist.pdck",
                         "--data", small_dataset)
        assert code == 3

    def test_checkpoint_that_is_a_directory_is_usage_error(self, small_dataset, capsys):
        code, _, err = run(capsys, "eval", "--ckpt", small_dataset, "--data", small_dataset)
        assert code == 2 and err == f"error: Is a directory: {small_dataset}\n"

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


# each malformed config, and what the error must name
MALFORMED_CONFIGS = [
    ({"model": {"decoder_channels": 0}}, "decoder_channels must be positive"),
    ({"model": {"decoder_channels": -1}}, "decoder_channels must be positive"),
    ({"model": {"channels": []}}, "model.channels must be a non-empty list"),
    ({"model": {"channels": [4.5]}}, "model.channels must be int"),
    ({"model": {"alpha_value": 2}}, "alpha_value must be in [0,1]"),
    ({"model": {"blocks_per_stage": True}}, "model.blocks_per_stage must be int"),
    ({"seed": "abc"}, "seed must be int"),
    ({"seed": -1}, "seed must be non-negative"),
    ({"training": {"lr": "0.1"}}, "training.lr must be float"),
    ({"training": {"epochs": 1.5}}, "training.epochs must be int"),
    ({"model": [1]}, "model must be a JSON object"),
    ({"training": {"val_fraction": 2}}, "val_fraction must be in [0,1)"),
    ({"training": {"lr": float("inf")}}, "lr must be positive and finite, got inf"),
    ({"training": {"weight_decay": float("inf")}},
     "weight_decay must be non-negative and finite, got inf"),
    ({"training": {"poly_power": float("nan")}},
     "poly_power must be non-negative and finite, got nan"),
    ({"training": {"poly_power": -1}}, "poly_power must be non-negative and finite, got -1.0"),
    ({"training": {"poly_power": float("inf")}},
     "poly_power must be non-negative and finite, got inf"),
    ({"generator": {"depth_gap": [0.25, "x"]}}, "unknown top-level key(s) ['generator']"),
]


@pytest.mark.parametrize("case, named", [pytest.param(*c, id=json.dumps(c[0]))
                                         for c in MALFORMED_CONFIGS])
def test_malformed_run_config_is_usage_error(case, named, small_dataset, tmp_path, capsys):
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
    assert named in err


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


def _first_set_to(value):
    def change(a):
        a = a.copy()
        a.flat[0] = value
        return a
    return change


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
    "nan depth": (lambda d: _rewrite_sample(d, "depth", _first_set_to(np.nan)),
                  "scene_00000.depth.pdt holds non-finite values"),
    "label 7 of 3 classes": (lambda d: _rewrite_sample(d, "label", _first_set_to(7)),
                             "scene_00000.label.pdt: label 7 out of range [0,3)"),
    "classes 1": (lambda d: _rewrite_manifest(d, lambda m: m.update(classes=1)),
                  "manifest.json: manifest key 'classes' must be at least 2, got 1"),
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


def _set_first(key, value):
    def change(state):
        state[key] = state[key].copy()
        state[key].flat[0] = value
    return change


# each damage to a valid checkpoint, and what the error must name
BAD_CHECKPOINTS = {
    "nan conv weight": (_set_first("s0.rgb_blk0.c1.w", np.nan),
                        "checkpoint tensor 's0.rgb_blk0.c1.w' holds non-finite values"),
    "nan ecf eta": (_set_first("s0.ecf.eta", np.nan),
                    "checkpoint tensor 's0.ecf.eta' holds non-finite values"),
    "inf stem gamma": (_set_first("stem_rgb.gamma", np.inf),
                       "checkpoint tensor 'stem_rgb.gamma' holds non-finite values"),
    "alpha_value 2.0": (_set_first("meta.alpha_value", 2.0),
                        "net.pdck: 'meta.*' value out of range: alpha_value must be in [0,1]"),
    "classes 1": (_set_first("meta.classes", 1),
                  "net.pdck: 'meta.*' value out of range: classes must be at least 2"),
    "channels [0, 6]": (_set_first("meta.channels", 0),
                        "net.pdck: 'meta.*' value out of range: channels must be non-empty"),
    "extra meta.bogus": (lambda state: state.update({"meta.bogus": np.zeros(1, np.int32)}),
                         "net.pdck: unknown key(s) meta.bogus"),
    "classes 5.9": (lambda state: state.update({"meta.classes": np.asarray([5.9])}),
                    "net.pdck: meta.classes must be int, got 5.9"),
    "channels [1 << 24]": (
        lambda state: state.update({"meta.channels": np.asarray([1 << 24], np.int32)}),
        "net.pdck: meta.channels[0] needs a tensor 's0.trans_rgb.w' of first axis 16777216"),
}


@pytest.mark.parametrize("damage", sorted(BAD_CHECKPOINTS))
def test_eval_bad_checkpoint_values_are_format_error(damage, small_dataset, tmp_path,
                                                     capsys):
    cfg = NetConfig(classes=3, channels=(4, 6), blocks_per_stage=1, decoder_channels=8)
    state = ToyPdcNet(cfg, rng=np.random.default_rng(0)).state_dict()
    change, named = BAD_CHECKPOINTS[damage]
    change(state)
    ckpt = str(tmp_path / "net.pdck")
    write_checkpoint(ckpt, state)
    code, out, err = run(capsys, "eval", "--ckpt", ckpt, "--data", small_dataset)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert named in err
