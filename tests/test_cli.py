import copy
import csv
import io
import json
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checkpoint_meta import npy_bytes, rewrite_meta

from tpcost.cli import (_MODEL_KEYS, _ORACLE_KEYS, _SCHEMA, EXIT_INPUT,
                        EXIT_OK, EXIT_USAGE, load_run_config, main)
from tpcost.costmodel import (CostModelConfig, encode_dataset, forward,
                              init_params, load_checkpoint, save_checkpoint)
from tpcost.dataset import (Sample, SynthOracleConfig, fit_boxcox,
                            load_dataset, sample_to_line)
from tpcost.errors import CheckpointError, TpcostError
from tpcost.features import build_compact_ast, load_device_catalog
from tpcost.ir import parse_program

IR_OK = """program demo {
  for i in 0..16 @parallel {
    for j in 0..8 { compute body { fma=32 bytes_read=64 bytes_written=16 } }
  }
}
"""

IR_BAD = "program broken { for i in 0..4 { comput typo } }"

GRAPH = {
    "nodes": [
        {"id": "n0", "tir_key": "k0", "program_ref": "demo"},
        {"id": "n1", "tir_key": "k1", "program_ref": "demo", "gap_s": 0.001},
        {"id": "n2", "tir_key": "k0", "program_ref": "demo"},
    ],
    "edges": [["n0", "n1"], ["n1", "n2"]],
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Shared artifacts: synthetic dataset + a tiny trained checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    synth_cfg = root / "synth.cfg"
    synth_cfg.write_text("n = 160\nseed = 5\n", encoding="utf-8")
    assert main(["--config", str(synth_cfg), "--out", str(root / "synth"),
                 "synth"]) == EXIT_OK
    train_cfg = root / "train.cfg"
    train_cfg.write_text(f"""
dataset = {root}/synth/dataset.jsonl
devices = {root}/synth/devices.json
d_model = 16
n_layers = 1
n_heads = 2
d_ff = 16
d_embed = 8
d_device = 4
decoder_dims = 8
batch_size = 32
epochs = 25
seed = 3
""", encoding="utf-8")
    assert main(["--config", str(train_cfg), "--out", str(root / "train"),
                 "train"]) == EXIT_OK
    return root


def test_usage_errors():
    assert main([]) == EXIT_USAGE
    assert main(["extract"]) == EXIT_USAGE  # missing files and --out-jsonl
    assert main(["no-such-command"]) == EXIT_USAGE


def test_unknown_config_key(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("frobnicate = 3\n", encoding="utf-8")
    assert main(["--config", str(bad), "--out", str(tmp_path / "o"),
                 "synth"]) == EXIT_INPUT


def test_synth_noise_out_of_float_range(tmp_path, capsys):
    # exp(1000 z) overflows or underflows for most draws of z
    cfg = tmp_path / "noisy.cfg"
    cfg.write_text("n = 20\nnoise_sigma = 1000\n", encoding="utf-8")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                 "synth"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "noise_sigma" in err and "sample s" in err


@pytest.mark.filterwarnings("error")
def test_synth_skewness_of_huge_finite_labels(tmp_path):
    # labels past 1e154 overflow a sum of squares, not their skewness
    cfg = tmp_path / "noisy.cfg"
    cfg.write_text("n = 20\nnoise_sigma = 300\n", encoding="utf-8")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                 "synth"]) == EXIT_OK
    assert max(load_dataset(tmp_path / "o" / "dataset.jsonl").labels()) > 1e154
    report = json.loads((tmp_path / "o" / "skew_report.json").read_text())
    assert all(np.isfinite(report[k])
               for k in ("skewness_raw", "skewness_boxcox"))


def test_malformed_config_line(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("just some words\n", encoding="utf-8")
    assert main(["--config", str(bad), "--out", str(tmp_path / "o"),
                 "synth"]) == EXIT_INPUT


def test_config_defaults_and_parsing(tmp_path):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text("""
# comment line
decoder_dims = 32,16
holdout_models = m1, m2
lr = 5e-4
""", encoding="utf-8")
    config = load_run_config(str(cfg_file))
    assert config.decoder_dims == (32, 16)
    assert config.holdout_models == ("m1", "m2")
    assert config.lr == 5e-4
    assert config.d_model == 64  # untouched default
    with pytest.raises(TpcostError):
        config.require("dataset")


def test_model_keys_follow_cost_model_config(tmp_path):
    """Also the oracle's keys follow SynthOracleConfig."""
    for cls, keys in ((CostModelConfig, _MODEL_KEYS),
                      (SynthOracleConfig, _ORACLE_KEYS)):
        key_of = {f.name: f.name for f in fields(cls)}
        if cls is SynthOracleConfig:
            key_of["seed"] = "oracle_seed"  # `seed` is the model's
        defaults = load_run_config(None)
        for f in fields(cls):
            assert defaults.values[key_of[f.name]] == f.default, f.name
        assert defaults.build(cls, keys) == cls()
        # each key parses the text of its default back to the default
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("".join(
            f"{key_of[f.name]} = "
            f"{','.join(map(str, f.default)) if isinstance(f.default, tuple) else f.default}\n"
            for f in fields(cls)), encoding="utf-8")
        parsed = load_run_config(str(cfg_file)).build(cls, keys)
        assert parsed == cls()
        assert all(type(getattr(parsed, f.name)) is type(f.default)
                   for f in fields(cls))


# every key's default, and what its parser makes of the text "1": a change
# here changes the command line
KEY_DEFAULTS = {
    **dict.fromkeys(["dataset", "target_dataset", "devices", "splits",
                     "checkpoint", "graph", "programs", "rules", "device"],
                    (None, "1")),
    "n": (1000, 1), "flops_efficiency": (0.6, 1.0),
    "mem_efficiency": (0.7, 1.0), "per_leaf_overhead_s": (2e-06, 1.0),
    "noise_sigma": (0.0, 1.0), "oracle_seed": (0, 1),
    "split_seed": (0, 1), "holdout_models": ((), ("1",)),
    "ratio_train": (8, 1), "ratio_valid": (1, 1), "ratio_test": (1, 1),
    "kappa": (4, 1), "budget": (8, 1), "tune_epochs": (10, 1),
    "d_model": (64, 1), "n_layers": (2, 1), "n_heads": (2, 1),
    "d_ff": (128, 1), "d_embed": (32, 1), "d_device": (16, 1),
    "decoder_dims": ((64, 64), (1,)), "n_leaf_max": (16, 1),
    "lambda_hybrid": (0.001, 1.0), "alpha_cmd": (0.0, 1.0),
    "cmd_order": (5, 1), "lr": (0.001, 1.0), "weight_decay": (0.0, 1.0),
    "optimizer": ("adam", "1"), "lr_schedule": ("constant", "1"),
    "batch_size": (64, 1), "epochs": (300, 1), "seed": (0, 1),
    "loss_mode": ("hybrid", "1"),
}


def test_config_key_defaults_are_pinned():
    defaults = load_run_config(None).values
    assert set(defaults) == set(KEY_DEFAULTS)
    for key, (default, one) in KEY_DEFAULTS.items():
        # repr tells 0 from 0.0 and (1,) from ('1',)
        assert repr(defaults[key]) == repr(default), key
        assert repr(_SCHEMA[key][0]("1")) == repr(one), key


@pytest.mark.parametrize("command, line, argv, key", [
    ("train", "seed = -1", [], "seed"),
    ("train", "split_seed = -1", [], "split_seed"),
    ("synth", "", ["--seed", "-5"], "seed"),
    ("sample", "", ["--seed", "-2"], "seed"),
    ("dataset-split", "split_seed = -1", [], "split_seed"),
    ("synth", "oracle_seed = -1", [], None),  # hashed, never given to numpy
])
def test_negative_seed_is_input_error(workdir, tmp_path, capsys, command,
                                      line, argv, key):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{line}\nn = 20\ndataset = {workdir}/synth/dataset.jsonl"
                   f"\ndevices = {workdir}/synth/devices.json\n",
                   encoding="utf-8")
    code = main(["--config", str(cfg), *argv, "--out", str(tmp_path / "o"),
                 command])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if key is None:
        assert code == EXIT_OK
        return
    assert code == EXIT_INPUT
    where = f"{cfg}:1: " if line else "--seed: "
    assert f"{where}'{key}' must be >= 0" in err


def test_extract_happy_and_partial_failure(tmp_path, capsys):
    good = tmp_path / "good.ir"
    good.write_text(IR_OK, encoding="utf-8")
    bad = tmp_path / "bad.ir"
    bad.write_text(IR_BAD, encoding="utf-8")
    out = tmp_path / "feat.jsonl"

    assert main(["extract", str(good), "--out-jsonl", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["id"] == "demo"
    assert record["n_leaf"] == 1

    first = out.read_bytes()
    assert main(["extract", str(good), "--out-jsonl", str(out)]) == EXIT_OK
    assert out.read_bytes() == first  # byte-identical rerun

    code = main(["extract", str(good), str(bad), "--out-jsonl", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT
    assert "bad.ir" in err
    assert len(out.read_text().splitlines()) == 1  # good file still written


def test_synth_outputs(workdir):
    lines = (workdir / "synth" / "dataset.jsonl").read_text().splitlines()
    assert len(lines) == 160
    report = json.loads((workdir / "synth" / "skew_report.json").read_text())
    assert report["n"] == 160
    assert report["skewness_raw"] > 0.5
    manifest = json.loads((workdir / "synth" / "manifest.json").read_text())
    assert "dataset.jsonl" in manifest


def test_synth_deterministic(workdir, tmp_path):
    cfg = workdir / "synth.cfg"
    assert main(["--config", str(cfg), "--out", str(tmp_path / "again"),
                 "synth"]) == EXIT_OK
    assert (tmp_path / "again" / "dataset.jsonl").read_bytes() == \
        (workdir / "synth" / "dataset.jsonl").read_bytes()


def test_dataset_split_command(workdir, tmp_path):
    cfg = tmp_path / "split.cfg"
    cfg.write_text(f"dataset = {workdir}/synth/dataset.jsonl\n"
                   "split_seed = 4\n", encoding="utf-8")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "split"),
                 "dataset-split"]) == EXIT_OK
    splits = json.loads((tmp_path / "split" / "splits.json").read_text())
    assert len(splits) == 160
    counts = json.loads((tmp_path / "split" / "split_summary.json").read_text())
    assert counts == {"train": 128, "valid": 16, "test": 16}


def test_train_artifacts(workdir):
    run = workdir / "train"
    for name in ("checkpoint.npz", "train_log.csv", "summary.json",
                 "manifest.json", "config.txt"):
        assert (run / name).exists()
    log_lines = (run / "train_log.csv").read_text().splitlines()
    assert log_lines[0].startswith("epoch,train_loss,val_mape")
    assert len(log_lines) == 26  # header + 25 epochs
    summary = json.loads((run / "summary.json").read_text())
    assert "test" in summary and summary["n_params"] > 0


def test_train_deterministic(workdir, tmp_path):
    cfg = workdir / "train.cfg"
    assert main(["--config", str(cfg), "--out", str(tmp_path / "t2"),
                 "train"]) == EXIT_OK
    assert (tmp_path / "t2" / "checkpoint.npz").read_bytes() == \
        (workdir / "train" / "checkpoint.npz").read_bytes()
    assert (tmp_path / "t2" / "train_log.csv").read_bytes() == \
        (workdir / "train" / "train_log.csv").read_bytes()


def test_predict_eval_consistency(workdir, tmp_path, capsys):
    cfg = tmp_path / "pe.cfg"
    cfg.write_text(f"""
dataset = {workdir}/synth/dataset.jsonl
devices = {workdir}/synth/devices.json
checkpoint = {workdir}/train/checkpoint.npz
""", encoding="utf-8")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "pred"),
                 "predict"]) == EXIT_OK
    pred_metrics = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert main(["--config", str(cfg), "--out", str(tmp_path / "ev"),
                 "eval", "--emit-plot-data"]) == EXIT_OK
    eval_metrics = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert pred_metrics == eval_metrics
    plot = (tmp_path / "ev" / "plot_data.csv").read_text().splitlines()
    assert plot[0] == "id,actual_s,predicted_s"
    assert len(plot) == 161
    pred_csv = (tmp_path / "pred" / "predictions.csv").read_text().splitlines()
    assert len(pred_csv) == 161


def test_sample_command(workdir, tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(f"dataset = {workdir}/synth/dataset.jsonl\n",
                   encoding="utf-8")
    assert main(["--config", str(cfg), "--seed", "2",
                 "--out", str(tmp_path / "sel"), "sample",
                 "--kappa", "2"]) == EXIT_OK
    selected = json.loads((tmp_path / "sel" / "selected_tasks.json").read_text())
    assert isinstance(selected, list) and len(selected) == 2
    assert len(set(selected)) == 2
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert printed == selected


def test_replay_command(workdir, tmp_path, capsys):
    programs = tmp_path / "programs.ir"
    programs.write_text(IR_OK, encoding="utf-8")
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps(GRAPH), encoding="utf-8")
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"k1": 2}), encoding="utf-8")
    cfg = tmp_path / "r.cfg"
    cfg.write_text(f"""
devices = {workdir}/synth/devices.json
checkpoint = {workdir}/train/checkpoint.npz
graph = {graph}
programs = {programs}
rules = {rules}
device = synth0
""", encoding="utf-8")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "rp"),
                 "replay", "--timeline"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["iteration_time_s"] > 0
    result = json.loads((tmp_path / "rp" / "simresult.json").read_text())
    assert len(result["schedule"]) == 4  # n1 expanded into 2 sub-nodes
    timeline = (tmp_path / "rp" / "timeline.csv").read_text().splitlines()
    assert len(timeline) == 5


def test_finetune_command(workdir, tmp_path, capsys):
    cfg = tmp_path / "ft.cfg"
    cfg.write_text(f"""
dataset = {workdir}/synth/dataset.jsonl
target_dataset = {workdir}/synth/dataset.jsonl
devices = {workdir}/synth/devices.json
checkpoint = {workdir}/train/checkpoint.npz
d_model = 16
n_layers = 1
n_heads = 2
d_ff = 16
d_embed = 8
d_device = 4
decoder_dims = 8
batch_size = 32
epochs = 1
alpha_cmd = 1.0
seed = 3
""", encoding="utf-8")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "ft"),
                 "finetune"]) == EXIT_OK
    summary = json.loads((tmp_path / "ft" / "summary.json").read_text())
    assert "cmd_before" in summary and "cmd_after" in summary
    assert (tmp_path / "ft" / "checkpoint.npz").exists()


def test_tune_command(workdir, tmp_path):
    cfg = tmp_path / "tune.cfg"
    cfg.write_text(f"""
dataset = {workdir}/synth/dataset.jsonl
devices = {workdir}/synth/devices.json
d_model = 16
n_layers = 1
n_heads = 2
d_ff = 16
d_embed = 8
d_device = 4
decoder_dims = 8
batch_size = 32
budget = 2
tune_epochs = 1
seed = 1
alpha_cmd = 0.5
""", encoding="utf-8")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "tu"),
                 "tune"]) == EXIT_OK
    best = json.loads((tmp_path / "tu" / "best_config.json").read_text())
    assert best["epochs"] == 1
    with open(tmp_path / "tu" / "trials.csv", newline="",
              encoding="utf-8") as f:
        trials = [json.loads(row["config"]) for row in csv.DictReader(f)]
    assert len(trials) == 2
    # train has no target pool, so alpha_cmd is not searched: every config
    # keeps the run config's value
    assert [c["alpha_cmd"] for c in [best, *trials]] == [0.5] * 3


def test_invalid_log_level_warns(workdir, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TPCOST_LOG", "chatty")
    cfg = workdir / "synth.cfg"
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                 "synth"]) == EXIT_OK
    assert "TPCOST_LOG" in capsys.readouterr().err


def test_missing_dataset_is_input_error(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("dataset = /nonexistent/ds.jsonl\n", encoding="utf-8")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                 "dataset-split"]) == EXIT_INPUT


@pytest.mark.parametrize("graph", [
    {"nodes": [], "edges": []},
    {"nodes": [{"tir_key": "k0", "program_ref": "demo"}], "edges": []},
    {"nodes": [{"id": "n0", "program_ref": "demo"}], "edges": []},
])
def test_bad_replay_graph_is_input_error(workdir, tmp_path, capsys, graph):
    programs = tmp_path / "programs.ir"
    programs.write_text(IR_OK, encoding="utf-8")
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph), encoding="utf-8")
    cfg = tmp_path / "r.cfg"
    cfg.write_text(f"""
devices = {workdir}/synth/devices.json
checkpoint = {workdir}/train/checkpoint.npz
graph = {path}
programs = {programs}
device = synth0
""", encoding="utf-8")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "rp"),
                 "replay"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "Traceback" not in err and str(path) in err


@pytest.mark.parametrize("rules, message", [
    ({"k1": "x"}, "rule 'k1'"),
    ({"k1": True}, "rule 'k1'"),
    ({"k1": 2.5}, "rule 'k1'"),
    ({"k1": 2, "k2": None}, "rule 'k2'"),
    (["k1", 2], "JSON object"),
    (4, "JSON object"),
])
def test_bad_replay_rules_are_input_error(workdir, tmp_path, capsys, rules,
                                          message):
    programs = tmp_path / "programs.ir"
    programs.write_text(IR_OK, encoding="utf-8")
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps(GRAPH), encoding="utf-8")
    path = tmp_path / "rules.json"
    path.write_text(json.dumps(rules), encoding="utf-8")
    cfg = tmp_path / "r.cfg"
    cfg.write_text(f"""
devices = {workdir}/synth/devices.json
checkpoint = {workdir}/train/checkpoint.npz
graph = {graph}
programs = {programs}
rules = {path}
device = synth0
""", encoding="utf-8")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "rp"),
                 "replay"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert str(path) in err and message in err


def test_dataset_line_without_field_is_input_error(workdir, tmp_path, capsys):
    lines = (workdir / "synth" / "dataset.jsonl").read_text().splitlines()
    broken = json.loads(lines[2])
    del broken["task_id"]
    lines[2] = json.dumps(broken)
    data = tmp_path / "ds.jsonl"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"dataset = {data}\n", encoding="utf-8")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                 "dataset-split"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{data}:3:" in err and "task_id" in err


def _dataset_with(workdir, tmp_path, index, **fields):
    """The shared dataset with `fields` set on line `index` (from 0)."""
    lines = (workdir / "synth" / "dataset.jsonl").read_text().splitlines()
    lines[index] = json.dumps({**json.loads(lines[index]), **fields})
    data = tmp_path / "ds.jsonl"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return data


@pytest.mark.parametrize("command, key", [
    ("predict", "dataset"), ("eval", "dataset"), ("train", "dataset"),
    ("tune", "dataset"), ("finetune", "dataset"),
    ("finetune", "target_dataset")])
def test_unknown_device_names_dataset_and_sample(workdir, tmp_path, capsys,
                                                 command, key):
    data = _dataset_with(workdir, tmp_path, 2, device_id="nope")
    sample_id = json.loads(data.read_text().splitlines()[2])["id"]
    values = {"dataset": f"{workdir}/synth/dataset.jsonl",
              "target_dataset": f"{workdir}/synth/dataset.jsonl",
              "devices": f"{workdir}/synth/devices.json",
              "checkpoint": f"{workdir}/train/checkpoint.npz", key: data}
    cfg = tmp_path / "c.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()),
                   encoding="utf-8")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                 command]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{data}: sample '{sample_id}': unknown device 'nope'" in err


@pytest.mark.parametrize("command, n_leaf_max, limit", [
    ("train", 2, 2),  # the config's n_leaf_max
    ("predict", 32, 16),  # the checkpoint's, not the config's
])
def test_leaf_count_over_model_limit_names_dataset_and_sample(
        workdir, tmp_path, capsys, command, n_leaf_max, limit):
    text = ("program big { for i in 0..2 { "
            + " ".join(f"compute c{i} {{ fma=1 }}" for i in range(17))
            + " } }")
    big = Sample(id="big", task_id="t_big", model_id="m0", device_id="synth0",
                 compact=build_compact_ast(parse_program(text, max_leaves=17)),
                 latency_s=1e-3)
    data = tmp_path / "ds.jsonl"
    data.write_text((workdir / "synth" / "dataset.jsonl").read_text()
                    + sample_to_line(big) + "\n", encoding="utf-8")
    first = next(record for record in map(json.loads,
                                          data.read_text().splitlines())
                 if record["n_leaf"] > limit)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"dataset = {data}\ndevices = {workdir}/synth/devices.json"
                   f"\ncheckpoint = {workdir}/train/checkpoint.npz"
                   f"\nn_leaf_max = {n_leaf_max}\n", encoding="utf-8")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                 command]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert (f"{data}: sample '{first['id']}': {first['n_leaf']} leaves, the "
            f"model supports 1..{limit}") in err


@pytest.mark.parametrize("value", [True, "1e-3", -1])
def test_bad_latency_names_dataset_line(workdir, tmp_path, capsys, value):
    data = _dataset_with(workdir, tmp_path, 2, latency_s=value)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"dataset = {data}\ndevices = {workdir}/synth/devices.json"
                   f"\ncheckpoint = {workdir}/train/checkpoint.npz\n",
                   encoding="utf-8")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                 "predict"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"{data}:3: latency_s must be a finite JSON number > 0" in err
    assert "Traceback" not in err


def _exit_code(workdir, tmp_path, capsys, command="predict", **keys):
    """Exit code of `command` on the shared dataset and model, with config
    keys set or overridden by `keys`; asserts that stderr has no
    traceback."""
    values = {"dataset": f"{workdir}/synth/dataset.jsonl",
              "devices": f"{workdir}/synth/devices.json",
              "checkpoint": f"{workdir}/train/checkpoint.npz", **keys}
    cfg = tmp_path / "c.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()),
                   encoding="utf-8")
    code = main(["--config", str(cfg), "--out", str(tmp_path / "o"), command])
    assert "Traceback" not in capsys.readouterr().err
    return code


def _without(key):
    def edit(obj):
        del obj[key]
        return obj
    return edit


def _in_config(edit):
    def apply(meta):
        meta["config"] = edit(meta["config"])
        return meta
    return apply


@pytest.mark.parametrize("edit", [
    _without("config"), _without("checksum"), _without("normalizer"),
    _in_config(lambda c: {**c, "frobnicate": 1}),
    lambda m: {**m, "normalizer": {**m["normalizer"], "frobnicate": 1}},
    lambda m: [m],
    _in_config(lambda c: {**c, "n_heads": 3}),
    _in_config(_without("d_model")),
], ids=["no-config", "no-checksum", "no-normalizer", "unknown-config-key",
        "unknown-normalizer-key", "meta-list", "heads-not-dividing",
        "no-d_model"])
def test_malformed_checkpoint_meta_is_input_error(workdir, tmp_path, capsys,
                                                  edit):
    bad = tmp_path / "bad.npz"
    rewrite_meta(workdir / "train" / "checkpoint.npz", bad, edit)
    assert _exit_code(workdir, tmp_path, capsys,
                         checkpoint=bad) == EXIT_INPUT


@pytest.mark.parametrize("splits", [["a", "train"], {"x": "training"},
                                    {"x": 3}, 5])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_bad_splits_file_is_input_error(workdir, tmp_path, capsys, splits,
                                        command):
    path = tmp_path / "splits.json"
    path.write_text(json.dumps(splits), encoding="utf-8")
    assert _exit_code(workdir, tmp_path, capsys, command,
                         splits=path, epochs=1) == EXIT_INPUT


@pytest.mark.parametrize("value", [[1, 2], "x", 5, None],
                         ids=["list", "string", "number", "null"])
@pytest.mark.parametrize("where", ["dataset-line", "graph-node",
                                   "catalog-entry", "splits", "rules"])
def test_entry_that_is_not_an_object_is_input_error(workdir, tmp_path, capsys,
                                                    where, value):
    """A dataset line, graph node or catalog entry, or a whole splits or
    rules document, that is not a JSON object: exit 2, naming the file and
    the place, in tpcost's words and not in Python's."""
    programs = tmp_path / "programs.ir"
    programs.write_text(IR_OK, encoding="utf-8")
    lines = (workdir / "synth" / "dataset.jsonl").read_text().splitlines()
    catalog = json.loads((workdir / "synth" / "devices.json").read_text())
    graph = copy.deepcopy(GRAPH)
    keys = {"dataset": tmp_path / "ds.jsonl",
            "devices": tmp_path / "devices.json",
            "checkpoint": workdir / "train" / "checkpoint.npz",
            "graph": tmp_path / "graph.json", "programs": programs,
            "device": "synth0"}
    command, key, place = {
        "dataset-line": ("predict", "dataset", ":3: "),
        "graph-node": ("replay", "graph", ": node 1: "),
        "catalog-entry": ("predict", "devices", ": entry 1: "),
        "splits": ("train", "splits", ": splits "),
        "rules": ("replay", "rules", ": rules "),
    }[where]
    if where == "dataset-line":
        lines[2] = json.dumps(value)
    elif where == "graph-node":
        graph["nodes"][1] = value
    elif where == "catalog-entry":
        catalog.append(value)
    else:
        keys[key] = tmp_path / f"{key}.json"
        keys[key].write_text(json.dumps(value), encoding="utf-8")
    keys["dataset"].write_text("\n".join(lines) + "\n", encoding="utf-8")
    keys["devices"].write_text(json.dumps(catalog), encoding="utf-8")
    keys["graph"].write_text(json.dumps(graph), encoding="utf-8")
    cfg = tmp_path / "c.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()),
                   encoding="utf-8")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                 command]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"{keys[key]}{place}" in err and "JSON object" in err
    assert "indices must be integers" not in err and "Traceback" not in err


@pytest.mark.parametrize("catalog, message", [
    ({"name": "synth0"}, "JSON list"),
    (["synth0"], "entry 0"),
    ([{"name": "d", "mem_gb": 1, "bandwidth_gbps": 1, "cores": 1}],
     "clock_mhz"),
    ([{"name": "d", "clock_mhz": "x", "mem_gb": 1, "bandwidth_gbps": 1,
       "cores": 1}], "entry 0"),
    # a core count that is not a JSON integer, after a valid entry
    *(([{"name": name, "clock_mhz": 1, "mem_gb": 1, "bandwidth_gbps": 1,
         "cores": cores, "peak_fp32_gflops": 1} for name, cores
        in (("d", 16), ("e", bad))], "entry 1: cores")
      for bad in (16.9, True, "16")),
])
def test_bad_device_catalog_is_input_error(workdir, tmp_path, capsys,
                                           catalog, message):
    path = tmp_path / "devices.json"
    path.write_text(json.dumps(catalog), encoding="utf-8")
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"dataset = {workdir}/synth/dataset.jsonl\n"
                   f"devices = {path}\n", encoding="utf-8")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                 "synth"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert str(path) in err and message in err


# ---------------------------------------------------------------------------
# Fuzzed inputs: a mutated checkpoint meta, splits file or device catalog is
# either accepted or rejected with exit 2, never a traceback
# ---------------------------------------------------------------------------

def _json_paths(doc, prefix=()):
    """The path of every value inside a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _json_paths(value, prefix + (key,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4)


@pytest.fixture(scope="module")
def fuzz_inputs(workdir, tmp_path_factory):
    """A 12-sample dataset with splits, plus valid JSON documents of the
    shared model's checkpoint meta, a splits file and a device catalog."""
    root = tmp_path_factory.mktemp("fuzz")
    lines = (workdir / "synth" / "dataset.jsonl").read_text().splitlines()
    (root / "dataset.jsonl").write_text("\n".join(lines[:12]) + "\n",
                                        encoding="utf-8")
    ids = [json.loads(line)["id"] for line in lines[:12]]
    with np.load(workdir / "train" / "checkpoint.npz") as data:
        meta = json.loads(bytes(data["__meta__"]).decode())
    docs = {
        "checkpoint": meta,
        "splits": {i: ("train", "valid", "test")[n % 3]
                   for n, i in enumerate(ids)},
        "devices": json.loads(
            (workdir / "synth" / "devices.json").read_text()),
    }
    return root, docs


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzzed_inputs_exit_0_or_2(workdir, fuzz_inputs, data):
    root, docs = fuzz_inputs
    which = data.draw(st.sampled_from(sorted(docs)))
    doc = copy.deepcopy(docs[which])
    path = data.draw(st.sampled_from(list(_json_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(JSON_VALUES)
    files = {"dataset": root / "dataset.jsonl",
             "checkpoint": workdir / "train" / "checkpoint.npz",
             "devices": root / "devices.json", "splits": root / "splits.json"}
    for name in ("devices", "splits"):
        files[name].write_text(json.dumps(doc if name == which
                                          else docs[name]), encoding="utf-8")
    if which == "checkpoint":
        files["checkpoint"] = root / "checkpoint.npz"
        rewrite_meta(workdir / "train" / "checkpoint.npz",
                     files["checkpoint"], lambda _: doc)
    cfg = root / "c.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in files.items()),
                   encoding="utf-8")
    command = data.draw(st.sampled_from(["predict", "eval"]))
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = main(["--config", str(cfg), "--out", str(root / "out"),
                     command])
    assert code in (EXIT_OK, EXIT_INPUT), err.getvalue()
    assert "Traceback" not in err.getvalue()


@pytest.fixture(scope="module")
def fuzz_runs(workdir, tmp_path_factory):
    """Valid input files (a 12-sample dataset, its splits, a graph and its
    programs) and, for each of replay, predict and eval, the values of a
    valid run config by key."""
    root = tmp_path_factory.mktemp("fuzz_runs")
    lines = (workdir / "synth" / "dataset.jsonl").read_text().splitlines()
    files = {"dataset": root / "dataset.jsonl", "graph": root / "graph.json",
             "programs": root / "programs.ir", "splits": root / "splits.json",
             "devices": workdir / "synth" / "devices.json",
             "checkpoint": workdir / "train" / "checkpoint.npz"}
    files["dataset"].write_text("\n".join(lines[:12]) + "\n",
                                encoding="utf-8")
    files["graph"].write_text(json.dumps(GRAPH), encoding="utf-8")
    files["programs"].write_text(IR_OK, encoding="utf-8")
    files["splits"].write_text(json.dumps(  # eval scores every sample
        {json.loads(line)["id"]: "test" for line in lines[:12]}),
        encoding="utf-8")
    shared = {"devices": files["devices"], "checkpoint": files["checkpoint"]}
    configs = {
        "replay": {**shared, "graph": files["graph"],
                   "programs": files["programs"], "device": "synth0"},
        "predict": {**shared, "dataset": files["dataset"]},
        "eval": {**shared, "dataset": files["dataset"],
                 "splits": files["splits"]},
    }
    return root, files, lines[:12], configs


CONFIG_TEXT = st.text(st.characters(codec="utf-8", exclude_characters="#",
                                    exclude_categories=("Cc", "Zl", "Zp")),
                      max_size=6)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzzed_run_inputs_exit_0_or_2_and_write_json(fuzz_runs, data):
    """One value of a run config, or one JSON value of a graph file or a
    dataset line, replaced: replay, predict and eval exit 0 or 2 without a
    traceback, and write only strict JSON. Rules files are left out: a
    large core count is real work, not a fault."""
    root, files, lines, configs = fuzz_runs
    which = data.draw(st.sampled_from(["config", "graph", "dataset"]))
    command = "replay" if which == "graph" else data.draw(
        st.sampled_from(["predict", "eval"] if which == "dataset"
                        else sorted(configs)))
    config = dict(configs[command])
    graph, dataset = GRAPH, lines
    if which == "config":
        key = data.draw(st.sampled_from(sorted(config)))
        config[key] = data.draw(CONFIG_TEXT | st.sampled_from(
            sorted(map(str, files.values()))))
    else:
        doc = copy.deepcopy(GRAPH)
        if which == "dataset":
            n = data.draw(st.integers(0, len(lines) - 1))
            doc = json.loads(lines[n])
        # as often a field as a node, an edge or a vector row, and as often
        # as one of their elements
        depth = data.draw(st.integers(1, 3))
        path = data.draw(st.sampled_from(
            [path for path in _json_paths(doc) if len(path) == depth]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        old = parent[path[-1]]
        # any value, or a list one element shorter or longer
        parent[path[-1]] = data.draw(JSON_VALUES | st.sampled_from(
            [old[:-1], old + old[-1:]] if isinstance(old, list) else [old]))
        if which == "graph":
            graph = doc
        else:
            dataset = [*lines[:n], json.dumps(doc), *lines[n + 1:]]
    (root / "graph.fuzz.json").write_text(json.dumps(graph), encoding="utf-8")
    (root / "dataset.fuzz.jsonl").write_text("\n".join(dataset) + "\n",
                                             encoding="utf-8")
    for key, name in (("graph", "graph.fuzz.json"),
                      ("dataset", "dataset.fuzz.jsonl")):
        if config.get(key) == files[key]:
            config[key] = root / name
    cfg = root / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in config.items()),
                   encoding="utf-8")
    out = root / "out"
    shutil.rmtree(out, ignore_errors=True)
    err, stdout = io.StringIO(), io.StringIO()
    with redirect_stderr(err), redirect_stdout(stdout):
        code = main(["--config", str(cfg), "--out", str(out), command])
    assert code in (EXIT_OK, EXIT_INPUT), err.getvalue()
    assert "Traceback" not in err.getvalue()
    for text in stdout.getvalue().splitlines() + [
            p.read_text(encoding="utf-8") for p in out.glob("*.json")]:
        json.loads(text, parse_constant=_reject_constant)


# ---------------------------------------------------------------------------
# One typing policy for every input file: a number swapped for a bool, null
# or its own value as a JSON string exits 2 and names the file and the line,
# node or entry
# ---------------------------------------------------------------------------

TYPED_GRAPH = {"nodes": [{"device": 0, "gap_s": 0.0, "duration_s": 0.0, **node}
                         for node in GRAPH["nodes"]],
               "edges": GRAPH["edges"]}


def _number_paths(which, doc):
    """The paths of the numbers of a dataset line, or of a graph's nodes or
    a device catalog's entries."""
    if which == "dataset":
        return [("latency_s",), ("n_leaf",),
                *(("vectors", i, j) for i, row in enumerate(doc["vectors"])
                  for j in range(len(row))),
                *(("ordering", k) for k in range(len(doc["ordering"]))),
                *(("serialized", k) for k in range(len(doc["serialized"])))]
    if which == "graph":
        return [("nodes", i, key) for i in range(len(doc["nodes"]))
                for key in ("duration_s", "gap_s", "device")]
    return [(i, key) for i in range(len(doc))
            for key in ("clock_mhz", "mem_gb", "bandwidth_gbps", "cores",
                        "peak_fp32_gflops", "l2_cache_mb")]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_number_swapped_for_bool_null_or_text_is_input_error(fuzz_runs, data):
    root, files, lines, configs = fuzz_runs
    which = data.draw(st.sampled_from(["dataset", "graph", "devices"]))
    n = data.draw(st.integers(0, len(lines) - 1))
    doc = {"dataset": json.loads(lines[n]), "graph": copy.deepcopy(TYPED_GRAPH),
           "devices": json.loads(files["devices"].read_text())}[which]
    path = data.draw(st.sampled_from(_number_paths(which, doc)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    parent[path[-1]] = data.draw(st.sampled_from(
        [True, False, None, json.dumps(old)]))
    config = dict(configs["replay" if which == "graph" else "predict"])
    name = {"dataset": "dataset.swap.jsonl", "graph": "graph.swap.json",
            "devices": "devices.swap.json"}[which]
    config[which] = out = root / name
    if which == "dataset":
        out.write_text("\n".join([*lines[:n], json.dumps(doc), *lines[n + 1:]])
                       + "\n", encoding="utf-8")
        where = f"{out}:{n + 1}: "
    else:
        out.write_text(json.dumps(doc), encoding="utf-8")
        where = (f"{out}: node {path[1]}: " if which == "graph"
                 else f"{out}: entry {path[0]}: ")
    cfg = root / "swap.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in config.items()),
                   encoding="utf-8")
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = main(["--config", str(cfg), "--out", str(root / "swap"),
                     "replay" if which == "graph" else "predict"])
    assert code == EXIT_INPUT, err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert where in err.getvalue()


# ---------------------------------------------------------------------------
# A NaN, infinite or negative number from outside the program exits 2 and
# the error names where it came from
# ---------------------------------------------------------------------------

SMALL_MODEL = """d_model = 16
n_layers = 1
n_heads = 2
d_ff = 16
d_embed = 8
d_device = 4
decoder_dims = 8
"""


def _input_error(tmp_path, capsys, command, config_text, *names):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(config_text, encoding="utf-8")
    code = main(["--config", str(cfg), "--out", str(tmp_path / "o"), command])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT, err
    assert "Traceback" not in err
    for name in names:
        assert name in err


@pytest.mark.parametrize("key, value", [
    ("lr", "nan"), ("lr", "inf"), ("weight_decay", "-1"),
    ("weight_decay", "nan"), ("lambda_hybrid", "nan"), ("alpha_cmd", "inf"),
])
def test_bad_model_coefficient_is_input_error(workdir, tmp_path, capsys, key,
                                              value):
    _input_error(tmp_path, capsys, "train",
                 f"dataset = {workdir}/synth/dataset.jsonl\n"
                 f"devices = {workdir}/synth/devices.json\n"
                 f"{SMALL_MODEL}epochs = 1\n{key} = {value}\n", key)


@pytest.mark.parametrize("key, value", [
    ("per_leaf_overhead_s", "nan"), ("per_leaf_overhead_s", "inf"),
    ("noise_sigma", "nan"), ("noise_sigma", "inf"),
])
def test_bad_oracle_value_is_input_error(tmp_path, capsys, key, value):
    _input_error(tmp_path, capsys, "synth", f"n = 8\n{key} = {value}\n", key)


@pytest.mark.parametrize("field, value", [
    ("clock_mhz", "nan"), ("mem_gb", "inf"), ("bandwidth_gbps", float("nan")),
    ("peak_fp32_gflops", "inf"), ("l2_cache_mb", "nan"),
    # a string or a bool is never a number
    ("clock_mhz", "1500"), ("clock_mhz", True), ("l2_cache_mb", False),
])
def test_non_finite_device_field_is_input_error(workdir, tmp_path, capsys,
                                                field, value):
    catalog = json.loads((workdir / "synth" / "devices.json").read_text())
    catalog[0][field] = value
    path = tmp_path / "devices.json"
    path.write_text(json.dumps(catalog), encoding="utf-8")
    _input_error(tmp_path, capsys, "synth", f"n = 8\ndevices = {path}\n",
                 str(path), "entry 0", field)


@pytest.mark.parametrize("field, value", [
    ("gap_s", float("nan")), ("gap_s", float("inf")), ("gap_s", -1.0),
    ("duration_s", float("nan")), ("duration_s", -1.0),
    # a string or a bool is never a number
    ("duration_s", "0.5"), ("duration_s", True), ("gap_s", "1e-3"),
    ("gap_s", False),
])
def test_bad_graph_time_is_input_error(workdir, tmp_path, capsys, field,
                                       value):
    programs = tmp_path / "programs.ir"
    programs.write_text(IR_OK, encoding="utf-8")
    graph = copy.deepcopy(GRAPH)
    graph["nodes"][1][field] = value
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph), encoding="utf-8")
    _input_error(tmp_path, capsys, "replay",
                 f"devices = {workdir}/synth/devices.json\n"
                 f"checkpoint = {workdir}/train/checkpoint.npz\n"
                 f"graph = {path}\nprograms = {programs}\ndevice = synth0\n",
                 str(path), "node 1", field)


@pytest.mark.parametrize("field", ["duration_s", "gap_s"])
def test_graph_time_too_large_for_a_float_names_node(workdir, tmp_path,
                                                     capsys, field):
    programs = tmp_path / "programs.ir"
    programs.write_text(IR_OK, encoding="utf-8")
    graph = copy.deepcopy(GRAPH)
    graph["nodes"][1][field] = 10 ** 400  # float() raises OverflowError
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph), encoding="utf-8")
    _input_error(tmp_path, capsys, "replay",
                 f"devices = {workdir}/synth/devices.json\n"
                 f"checkpoint = {workdir}/train/checkpoint.npz\n"
                 f"graph = {path}\nprograms = {programs}\ndevice = synth0\n",
                 f"{path}: node 1: {field}", "too large")


AB_NODES = [{"id": "a", "tir_key": "k0", "program_ref": "demo"},
            {"id": "b", "tir_key": "k1", "program_ref": "demo"}]


@pytest.mark.parametrize("graph, names", [
    # a string or an object of two-letter keys once unpacked as an a -> b edge
    ({"nodes": AB_NODES, "edges": ["ab"]}, ["edges[0]"]),
    ({"nodes": AB_NODES, "edges": {"ab": 1}}, ["edges"]),
    ({"nodes": AB_NODES, "edges": [["a", "b"], ["a", "b", "c"]]},
     ["edges[1]"]),
    ({"nodes": AB_NODES, "edges": [["a", "zz"]]}, ["edge 0", "zz"]),
    ({"nodes": [AB_NODES[0], {**AB_NODES[1], "device": 1.9}]},
     ["node 1", "device"]),
    ({"nodes": [AB_NODES[0], {**AB_NODES[1], "device": True}]},
     ["node 1", "device"]),
], ids=["edge-string", "edges-object", "edge-triple", "unknown-endpoint",
        "device-float", "device-bool"])
def test_malformed_graph_edge_or_device_is_input_error(workdir, tmp_path,
                                                       capsys, graph, names):
    programs = tmp_path / "programs.ir"
    programs.write_text(IR_OK, encoding="utf-8")
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph), encoding="utf-8")
    _input_error(tmp_path, capsys, "replay",
                 f"devices = {workdir}/synth/devices.json\n"
                 f"checkpoint = {workdir}/train/checkpoint.npz\n"
                 f"graph = {path}\nprograms = {programs}\ndevice = synth0\n",
                 str(path), *names)


GOOD_BLOCK = ("program {} {{\n  for i in 0..4 {{ compute c {{ fma=1 "
              "bytes_read=8 }} }}\n}}\n")


@pytest.mark.parametrize("text, names", [
    # 50 three-line blocks, then a bad extent on line 153 of 154
    ("".join(GOOD_BLOCK.format(f"p{i}") for i in range(50))
     + "program last {\n# a comment\n  for j in 0..x { compute c { fma=1 } }"
     "\n}\n", [":153:15: expected"]),
    (GOOD_BLOCK.format("demo") + GOOD_BLOCK.format("demo"),
     [":4: duplicate program 'demo'"]),
], ids=["bad-extent", "duplicate"])
def test_bad_sidecar_program_names_file_and_line(workdir, tmp_path, capsys,
                                                 text, names):
    programs = tmp_path / "programs.ir"
    programs.write_text(text, encoding="utf-8")
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps(GRAPH), encoding="utf-8")
    _input_error(tmp_path, capsys, "replay",
                 f"devices = {workdir}/synth/devices.json\n"
                 f"checkpoint = {workdir}/train/checkpoint.npz\n"
                 f"graph = {graph}\nprograms = {programs}\ndevice = synth0\n",
                 *(f"{programs}{name}" for name in names))


@pytest.mark.parametrize("field, value", [
    ("lambda_bc", float("nan")), ("t_mean", float("inf")),
    ("loss_offset", float("nan")), ("t_std", float("nan")), ("t_std", 0.0),
    ("shift", -1.0), ("shift", float("inf")),
])
def test_normalizer_out_of_range_is_input_error(workdir, tmp_path, capsys,
                                                field, value):
    bad = tmp_path / "bad.npz"
    rewrite_meta(workdir / "train" / "checkpoint.npz", bad,
                 lambda m: {**m, "normalizer": {**m["normalizer"],
                                                field: value}})
    _input_error(tmp_path, capsys, "predict",
                 f"dataset = {workdir}/synth/dataset.jsonl\n"
                 f"devices = {workdir}/synth/devices.json\n"
                 f"checkpoint = {bad}\n", field)


NOT_A_ZIP = "error: cannot read checkpoint: File is not a zip file"


@pytest.mark.parametrize("content, message", [
    (b"", NOT_A_ZIP), (npy_bytes(np.linspace(0.0, 1.0, 5)), NOT_A_ZIP),
    (b"dataset = x.jsonl\n", NOT_A_ZIP),
    (None, "error: cannot read checkpoint: [Errno 2] No such file or "
           "directory: '{bad}'"),
], ids=["empty", "npy", "text", "missing"])
def test_checkpoint_that_is_no_npz_is_input_error(workdir, tmp_path, capsys,
                                                  content, message):
    bad = tmp_path / "bad.npz"
    if content is not None:
        bad.write_bytes(content)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"dataset = {workdir}/synth/dataset.jsonl\n"
                   f"devices = {workdir}/synth/devices.json\n"
                   f"checkpoint = {bad}\n", encoding="utf-8")
    code = main(["--config", str(cfg), "--out", str(tmp_path / "o"), "eval"])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT, err
    assert err.splitlines() == [message.format(bad=bad)]


def test_non_finite_checkpoint_tensor_is_input_error(workdir, tmp_path,
                                                    capsys):
    params, norm = load_checkpoint(workdir / "train" / "checkpoint.npz")
    names = list(params.tensors)
    params.tensors[names[3]][0] = np.nan
    params.tensors[names[-1]][0] = np.inf
    save_checkpoint(tmp_path / "bad.npz", params, norm)
    message = f"tensor '{names[3]}' holds a non-finite value"
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(tmp_path / "bad.npz")
    _input_error(tmp_path, capsys, "predict",
                 f"dataset = {workdir}/synth/dataset.jsonl\n"
                 f"devices = {workdir}/synth/devices.json\n"
                 f"checkpoint = {tmp_path}/bad.npz\n", message)


NO_SAMPLES = "{empty}: dataset has no samples"


@pytest.mark.parametrize("argv, keys, code, message", [
    (["train"], {"splits": "{splits}", "epochs": "1"}, EXIT_OK, ""),
    (["train"], {"epochs": "abc"}, EXIT_INPUT,
     "{config}:4: bad value for 'epochs'"),
    (["predict"], {"checkpoint": "{bare}"}, EXIT_INPUT,
     "{bare}: normalizer must be a JSON object with the keys"),
    (["eval", "--split", "holdout"], {"splits": "{splits}"}, EXIT_INPUT,
     "split 'holdout' is empty"),
    (["sample"], {"dataset": "{empty}"}, EXIT_INPUT, NO_SAMPLES),
    (["dataset-split"], {"dataset": "{empty}"}, EXIT_INPUT, NO_SAMPLES),
    (["predict"], {"dataset": "{empty}"}, EXIT_INPUT, NO_SAMPLES),
    (["eval"], {"dataset": "{empty}"}, EXIT_INPUT, NO_SAMPLES),
    (["finetune"], {"dataset": "{empty}", "target_dataset": "{data}"},
     EXIT_INPUT, NO_SAMPLES),
    (["finetune"], {"target_dataset": "{empty}"}, EXIT_INPUT, NO_SAMPLES),
    (["finetune"], {"splits": "{no_train}", "target_dataset": "{data}"},
     EXIT_INPUT, "finetune() needs non-empty train and valid splits"),
], ids=["train-on-splits-file", "unparsable-value", "no-normalizer",
        "empty-eval-split", "empty-dataset-sample", "empty-dataset-split",
        "empty-dataset-predict", "empty-dataset-eval", "empty-finetune-source",
        "empty-finetune-target", "empty-finetune-train-split"])
def test_cli_path_on_split_or_config_or_checkpoint(workdir, tmp_path, capsys,
                                                   argv, keys, code, message):
    """`argv` on the shared dataset and model, with config `keys` set; a
    splits file from `dataset-split`, one that puts no sample in train, an
    empty dataset file and a checkpoint whose normalizer is null are at
    hand."""
    split_cfg = tmp_path / "split.cfg"
    split_cfg.write_text(f"dataset = {workdir}/synth/dataset.jsonl\n"
                         "split_seed = 4\n", encoding="utf-8")
    assert main(["--config", str(split_cfg), "--out", str(tmp_path / "split"),
                 "dataset-split"]) == EXIT_OK
    rewrite_meta(workdir / "train" / "checkpoint.npz", tmp_path / "bare.npz",
                 lambda m: {**m, "normalizer": None})
    (tmp_path / "no_train.json").write_text("{}", encoding="utf-8")
    (tmp_path / "empty.jsonl").write_text("", encoding="utf-8")
    config = tmp_path / "c.cfg"
    names = {"splits": tmp_path / "split" / "splits.json",
             "no_train": tmp_path / "no_train.json",
             "empty": tmp_path / "empty.jsonl",
             "data": workdir / "synth" / "dataset.jsonl",
             "bare": tmp_path / "bare.npz", "config": config}
    values = {"dataset": f"{workdir}/synth/dataset.jsonl",
              "devices": f"{workdir}/synth/devices.json",
              "checkpoint": f"{workdir}/train/checkpoint.npz",
              **{k: v.format(**names) for k, v in keys.items()}}
    config.write_text("".join(f"{k} = {v}\n" for k, v in values.items()),
                      encoding="utf-8")
    result = main(["--config", str(config), "--out", str(tmp_path / "o"),
                   *argv])
    err = capsys.readouterr().err
    assert result == code, err
    assert message.format(**names) in err and "Traceback" not in err
    if code == EXIT_OK:  # the same split given inline trains the same model
        del values["splits"]
        config.write_text("".join(f"{k} = {v}\n" for k, v in values.items())
                          + "split_seed = 4\n", encoding="utf-8")
        assert main(["--config", str(config), "--out", str(tmp_path / "i"),
                     "train"]) == EXIT_OK
        assert (tmp_path / "o" / "checkpoint.npz").read_bytes() == \
            (tmp_path / "i" / "checkpoint.npz").read_bytes()


# ---------------------------------------------------------------------------
# Out-of-range predictions: inf in CSVs, null in JSON, exit 0
# ---------------------------------------------------------------------------

def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("command, csv_name", [
    ("predict", "predictions.csv"), ("eval", "plot_data.csv")])
def test_out_of_range_predictions_are_inf_and_null(workdir, tmp_path, capsys,
                                                   command, csv_name):
    ds = load_dataset(workdir / "synth" / "dataset.jsonl")
    devices = load_device_catalog(workdir / "synth" / "devices.json")
    params = init_params(CostModelConfig(
        d_model=16, n_layers=1, n_heads=2, d_ff=16, d_embed=8, d_device=4,
        decoder_dims=(8,), seed=5))
    norm = fit_boxcox(ds.labels())
    save_checkpoint(tmp_path / "untrained.npz", params, norm)
    raw, _ = forward(params, encode_dataset(ds.samples, devices))
    no_preimage = norm.lambda_bc * (raw * norm.t_std + norm.t_mean) + 1.0 <= 0
    assert 0 < no_preimage.sum() < len(ds.samples)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"dataset = {workdir}/synth/dataset.jsonl\n"
                   f"devices = {workdir}/synth/devices.json\n"
                   f"checkpoint = {tmp_path}/untrained.npz\n",
                   encoding="utf-8")
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out", str(out), command]
                + (["--emit-plot-data"] if command == "eval" else [])
                ) == EXIT_OK
    stdout = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(stdout) == {"mape": None, "rmse": None, "mspe": None}
    for text in [stdout] + [p.read_text() for p in out.glob("*.json")]:
        json.loads(text, parse_constant=_reject_constant)
    with open(out / csv_name, newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    assert [r["predicted_s"] == "inf" for r in rows] == no_preimage.tolist()
