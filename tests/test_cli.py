import json
from dataclasses import fields

import pytest

from tpcost.cli import (EXIT_INPUT, EXIT_OK, EXIT_USAGE, load_run_config,
                        main)
from tpcost.costmodel import CostModelConfig
from tpcost.errors import TpcostError

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
    defaults = load_run_config(None)
    for f in fields(CostModelConfig):
        assert defaults.values[f.name] == f.default, f.name
    assert defaults.model_config() == CostModelConfig()
    # each key parses the text of its default back to the default
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text("".join(
        f"{f.name} = "
        f"{','.join(map(str, f.default)) if isinstance(f.default, tuple) else f.default}\n"
        for f in fields(CostModelConfig)), encoding="utf-8")
    parsed = load_run_config(str(cfg_file)).model_config()
    assert parsed == CostModelConfig()
    assert all(type(getattr(parsed, f.name)) is type(f.default)
               for f in fields(CostModelConfig))


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
""", encoding="utf-8")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "tu"),
                 "tune"]) == EXIT_OK
    best = json.loads((tmp_path / "tu" / "best_config.json").read_text())
    assert best["epochs"] == 1
    trials = (tmp_path / "tu" / "trials.csv").read_text().splitlines()
    assert len(trials) == 3  # header + 2 trials


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
