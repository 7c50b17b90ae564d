"""Command-line front end.

Subcommands: extract, synth, dataset-split, train, finetune, sample,
predict, replay, tune, eval. Every command reads a line-oriented
`key = value` config file (unknown keys rejected), seeds everything, and
writes its artifacts plus a checksum manifest into the --out directory, so
a rerun with identical inputs produces identical bytes.

Exit codes: 0 success, 2 input error, 64 usage error, 70 internal error.
Set TPCOST_LOG to error/info/debug to control stderr logging.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import math
import os
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import costmodel as cm
from . import dataset as dsmod
from . import replayer, sampling
from .errors import (TpcostError, ValidationError, json_int, json_object,
                     read_json, read_text)
from .features import (build_compact_ast, load_device_catalog,
                       save_device_catalog)
from .ir import parse_program
from .dataset import (DEFAULT_SYNTH_DEVICE, SPLIT_RATIOS, SynthOracleConfig,
                      compact_to_dict, json_line, load_dataset,
                      save_dataset, skewness, split_dataset)

log = logging.getLogger("tpcost")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_USAGE = 64
EXIT_INTERNAL = 70


class UsageError(Exception):
    pass


def _json_text(obj, indent: int | None = None) -> str:
    """JSON text with sorted keys for every artifact and stdout line. JSON
    has no Infinity or NaN: a non-finite float, nested ones included, is
    written as null."""
    def finite(value):
        if isinstance(value, float):
            return value if math.isfinite(value) else None
        if isinstance(value, dict):
            return {k: finite(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [finite(v) for v in value]
        return value
    return json.dumps(finite(obj), indent=indent, sort_keys=True,
                      allow_nan=False)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Run configuration: `key = value` lines, '#' comments, schema-validated
# ---------------------------------------------------------------------------

def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _strs(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _field_keys(cls, **rename: str) -> dict:
    """Config key -> (field name, parser, default) for every field of the
    dataclass `cls`; the parser is the type of the field's default."""
    return {rename.get(f.name, f.name):
            (f.name, _ints if isinstance(f.default, tuple) else type(f.default),
             f.default) for f in fields(cls)}


# model architecture / optimization, plus the global seed
_MODEL_KEYS = _field_keys(cm.CostModelConfig)
_ORACLE_KEYS = _field_keys(SynthOracleConfig, seed="oracle_seed")

_SCHEMA: dict[str, tuple] = {
    # paths
    "dataset": (str, None),
    "target_dataset": (str, None),
    "devices": (str, None),
    "splits": (str, None),
    "checkpoint": (str, None),
    "graph": (str, None),
    "programs": (str, None),
    "rules": (str, None),
    # names
    "device": (str, None),
    # synthetic dataset
    "n": (int, 1000),
    **{key: spec[1:] for key, spec in _ORACLE_KEYS.items()},
    # splitting
    "split_seed": (int, 0),
    "holdout_models": (_strs, ()),
    **{key: (int, ratio) for key, ratio in
       zip(("ratio_train", "ratio_valid", "ratio_test"), SPLIT_RATIOS)},
    # sampling / tuning
    "kappa": (int, 4),
    "budget": (int, 8),
    "tune_epochs": (int, 10),
    **{key: spec[1:] for key, spec in _MODEL_KEYS.items()},
}


class RunConfig:
    def __init__(self, values: dict, source_text: str = ""):
        self.values = values
        self.source_text = source_text

    def __getattr__(self, key):
        try:
            return self.values[key]
        except KeyError:
            raise AttributeError(key) from None

    def require(self, key: str):
        value = self.values.get(key)
        if value is None:
            raise TpcostError(f"config key '{key}' is required for this command")
        return value

    def build(self, cls, keys: dict):  # keys: the `_field_keys` of cls
        return cls(**{name: self.values[key]
                      for key, (name, *_) in keys.items()})

    def model_config(self) -> cm.CostModelConfig:
        return self.build(cm.CostModelConfig, _MODEL_KEYS)


def load_run_config(path: str | None, seed_override: int | None = None) -> RunConfig:
    values = {key: default for key, (_, default) in _SCHEMA.items()}
    where = {}  # key -> "path:line: " of the config line that set it
    text = ""
    if path is not None:
        text = read_text(path)
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise TpcostError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in _SCHEMA:
                raise TpcostError(f"{path}:{lineno}: unknown config key '{key}'")
            parser_fn = _SCHEMA[key][0]
            try:
                values[key] = parser_fn(value)
            except ValueError as e:
                raise TpcostError(
                    f"{path}:{lineno}: bad value for '{key}': {e}") from e
            where[key] = f"{path}:{lineno}: "
    if seed_override is not None:
        values["seed"] = seed_override
        where["seed"] = "--seed: "
    for key in ("seed", "split_seed"):
        if values[key] < 0:
            raise TpcostError(f"{where[key]}'{key}' must be >= 0, "
                              f"got {values[key]}")
    return RunConfig(values, source_text=text)


# ---------------------------------------------------------------------------
# Run directory helpers
# ---------------------------------------------------------------------------

class RunDir:
    def __init__(self, path: str, config: RunConfig):
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.artifacts: list[str] = []
        if config.source_text:
            self.write_text("config.txt", config.source_text)

    def file(self, name: str) -> Path:
        return self.path / name

    def register(self, name: str) -> None:
        if name not in self.artifacts:
            self.artifacts.append(name)

    def write_text(self, name: str, text: str) -> Path:
        target = self.file(name)
        target.write_text(text, encoding="utf-8")
        self.register(name)
        return target

    def write_json(self, name: str, obj) -> Path:
        return self.write_text(name, _json_text(obj, indent=2) + "\n")

    def write_csv(self, name: str, header: list[str], rows) -> None:
        with open(self.file(name), "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(header)
            writer.writerows(rows)
        self.register(name)

    def finalize(self) -> None:
        manifest = {}
        for name in sorted(self.artifacts):
            digest = hashlib.sha256(self.file(name).read_bytes()).hexdigest()
            manifest[name] = digest
        self.write_text("manifest.json",
                        json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _write_log_csv(run: RunDir, name: str, rows: list[cm.EpochLog]) -> None:
    run.write_csv(name, ["epoch", "train_loss", "val_mape", "val_rmse", "lr",
                         "cmd"],
                  ([row.epoch, repr(row.train_loss), repr(row.val_mape),
                    repr(row.val_rmse), repr(row.lr), repr(row.cmd)]
                   for row in rows))


def _load_devices(config: RunConfig) -> dict:
    path = config.values.get("devices")
    if path is None:
        return {DEFAULT_SYNTH_DEVICE.name: DEFAULT_SYNTH_DEVICE}
    return load_device_catalog(path)


def _load_model(config: RunConfig):
    """The checkpoint's parameters and its fitted normalizer."""
    params, normalizer = cm.load_checkpoint(config.require("checkpoint"))
    if normalizer is None:
        raise TpcostError("checkpoint has no fitted normalizer")
    return params, normalizer


def _load_splits(path: str) -> dict[str, str]:
    """A splits file: a JSON object of sample id to split name."""
    splits = json_object(read_json(path), f"{path}: splits")
    for key, name in splits.items():
        if name not in dsmod.SPLITS:
            raise ValidationError(f"{path}: '{key}': unknown split {name!r}")
    return splits


def _ratio_split(ds: dsmod.Dataset, config: RunConfig) -> dsmod.Dataset:
    ratios = (config.ratio_train, config.ratio_valid, config.ratio_test)
    return split_dataset(ds, ratios=ratios, seed=config.split_seed,
                         holdout_models=set(config.holdout_models))


def _load_dataset_for(path: str, devices: dict,
                      n_leaf_max: int) -> dsmod.Dataset:
    """A dataset whose samples all run on a device of the catalog and have
    at most `n_leaf_max` leaves, the model's limit."""
    ds = load_dataset(path)
    for s in ds.samples:
        if s.device_id not in devices:
            raise ValidationError(f"{path}: sample '{s.id}': unknown device "
                                  f"'{s.device_id}'")
        if s.compact.n_leaf > n_leaf_max:
            raise ValidationError(
                f"{path}: sample '{s.id}': {s.compact.n_leaf} leaves, the "
                f"model supports 1..{n_leaf_max}")
    return ds


def _load_split_dataset(config: RunConfig, devices: dict,
                        n_leaf_max: int) -> dsmod.Dataset:
    ds = _load_dataset_for(config.require("dataset"), devices, n_leaf_max)
    if config.splits is None:
        return _ratio_split(ds, config)
    ds.splits = _load_splits(config.splits)
    return ds


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_extract(args, config: RunConfig) -> int:
    failures = 0
    lines = []
    for path in args.ir_files:
        try:
            ast = parse_program(read_text(path), max_leaves=config.n_leaf_max)
            compact = build_compact_ast(ast)
            lines.append(json_line({"id": ast.name, "source": str(path),
                                    **compact_to_dict(compact)}))
        except (TpcostError, OSError) as e:
            failures += 1
            print(f"error: {path}: {e}", file=sys.stderr)
    out_path = Path(args.out_jsonl)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text("".join(line + "\n" for line in lines),
                        encoding="utf-8")
    log.info("extracted %d programs to %s", len(lines), out_path)
    return EXIT_INPUT if failures else EXIT_OK


def cmd_synth(args, config: RunConfig, run: RunDir) -> int:
    devices = _load_devices(config)
    ds = dsmod.generate_synthetic(config.n, list(devices.values()),
                                  config.build(SynthOracleConfig, _ORACLE_KEYS),
                                  seed=config.seed)
    save_dataset(ds, run.file("dataset.jsonl"))
    run.register("dataset.jsonl")
    save_device_catalog(devices, run.file("devices.json"))
    run.register("devices.json")
    labels = ds.labels()
    norm = dsmod.fit_boxcox(labels)
    report = {
        "n": len(ds.samples),
        "skewness_raw": skewness(labels),
        "skewness_boxcox": skewness(norm.transform(labels)),
        "boxcox_lambda": norm.lambda_bc,
    }
    run.write_json("skew_report.json", report)
    print(_json_text(report))
    return EXIT_OK


def cmd_dataset_split(args, config: RunConfig, run: RunDir) -> int:
    ds = _ratio_split(load_dataset(config.require("dataset")), config)
    run.write_json("splits.json", ds.splits)
    counts = {}
    for name in ds.splits.values():
        counts[name] = counts.get(name, 0) + 1
    run.write_json("split_summary.json", counts)
    print(_json_text(counts))
    return EXIT_OK


def cmd_train(args, config: RunConfig, run: RunDir) -> int:
    devices = _load_devices(config)
    ds = _load_split_dataset(config, devices, config.n_leaf_max)
    model_config = config.model_config()
    result = cm.train(model_config, ds, devices)
    cm.save_checkpoint(run.file("checkpoint.npz"), result.params,
                       result.normalizer)
    run.register("checkpoint.npz")
    _write_log_csv(run, "train_log.csv", result.log)
    test_samples = ds.subset("test")
    summary = {"best_epoch": result.best_epoch,
               "best_val_mape": result.best_val_mape,
               "n_params": result.params.n_params()}
    if test_samples:
        _, summary["test"] = _predict_over_dataset(
            result.params, result.normalizer, devices, test_samples)
    run.write_json("summary.json", summary)
    print(_json_text(summary))
    return EXIT_OK


def cmd_finetune(args, config: RunConfig, run: RunDir) -> int:
    devices = _load_devices(config)
    params, normalizer = _load_model(config)
    n_leaf_max = params.config.n_leaf_max
    source = _load_split_dataset(config, devices, n_leaf_max)
    target = _load_dataset_for(config.require("target_dataset"), devices,
                               n_leaf_max)
    target_inputs = cm.encode_dataset(target.samples, devices)
    model_config = config.model_config()
    source_train_inputs = cm.encode_dataset(source.subset("train"), devices)
    cmd_before = cm.cmd_between(params, source_train_inputs, target_inputs,
                                model_config.cmd_order)
    result = cm.finetune(params, source, target_inputs, model_config,
                         devices, normalizer)
    cmd_after = cm.cmd_between(result.params, source_train_inputs,
                               target_inputs, model_config.cmd_order)
    cm.save_checkpoint(run.file("checkpoint.npz"), result.params, normalizer)
    run.register("checkpoint.npz")
    _write_log_csv(run, "finetune_log.csv", result.log)
    summary = {"cmd_before": cmd_before, "cmd_after": cmd_after,
               "val_mape": result.best_val_mape}
    if target.samples:
        pred = cm.predict_batch(result.params, target_inputs, normalizer)
        summary["target"] = cm.metrics(
            pred, [s.latency_s for s in target.samples])
    run.write_json("summary.json", summary)
    print(_json_text(summary))
    return EXIT_OK


def cmd_sample(args, config: RunConfig, run: RunDir) -> int:
    ds = load_dataset(config.require("dataset"))
    by_task: dict[str, list[np.ndarray]] = {}
    for s in ds.samples:
        by_task.setdefault(s.task_id, []).append(
            s.compact.leaf_vectors.mean(axis=0))
    task_ids = sorted(by_task)
    tasks = [sampling.TaskFeatureSet(task_id=t,
                                     features=np.stack(by_task[t]))
             for t in task_ids]
    x = np.concatenate([t.features for t in tasks], axis=0)
    kappa = args.kappa if args.kappa is not None else config.kappa
    selected = sampling.select_tasks(x, kappa, tasks, seed=config.seed)
    run.write_json("selected_tasks.json", selected)
    print(_json_text(selected))
    return EXIT_OK


def _predict_over_dataset(params, normalizer, devices,
                          samples) -> tuple[np.ndarray, dict[str, float]]:
    """Predicted latencies of `samples` and their metrics."""
    pred = cm.predict_batch(params, cm.encode_dataset(samples, devices),
                            normalizer)
    return pred, cm.metrics(pred, [s.latency_s for s in samples])


def _score_checkpoint(config: RunConfig, run: RunDir, split: str | None):
    """Scores the checkpoint on the dataset, or on its `split` given a splits
    file: writes and prints the metrics, returns samples and predictions."""
    devices = _load_devices(config)
    params, normalizer = _load_model(config)
    ds = _load_dataset_for(config.require("dataset"), devices,
                           params.config.n_leaf_max)
    samples = ds.samples
    if split is not None and config.splits is not None:
        ds.splits = _load_splits(config.splits)
        samples = ds.subset(split)
        if not samples:
            raise TpcostError(f"split '{split}' is empty")
    pred, result = _predict_over_dataset(params, normalizer, devices, samples)
    run.write_json("metrics.json", result)
    print(_json_text(result))
    return samples, pred


def cmd_predict(args, config: RunConfig, run: RunDir) -> int:
    samples, pred = _score_checkpoint(config, run, split=None)
    run.write_csv("predictions.csv", ["id", "predicted_s", "actual_s"],
                  ([s.id, repr(float(p)), repr(s.latency_s)]
                   for s, p in zip(samples, pred)))
    return EXIT_OK


def cmd_eval(args, config: RunConfig, run: RunDir) -> int:
    samples, pred = _score_checkpoint(config, run, split=args.split)
    if args.emit_plot_data:
        run.write_csv("plot_data.csv", ["id", "actual_s", "predicted_s"],
                      ([s.id, repr(s.latency_s), repr(float(p))]
                       for s, p in zip(samples, pred)))
    return EXIT_OK


def cmd_replay(args, config: RunConfig, run: RunDir) -> int:
    devices = _load_devices(config)
    params, normalizer = _load_model(config)
    device_name = config.require("device")
    if device_name not in devices:
        raise TpcostError(f"unknown device '{device_name}'")
    rules = {}
    rules_path = config.values.get("rules")
    if rules_path is not None:
        rules = json_object(read_json(rules_path), f"{rules_path}: rules")
        for op_class, k in rules.items():
            json_int(k, f"{rules_path}: rule '{op_class}': core count", 1)
    result = replayer.replay_model(config.require("graph"),
                                   config.require("programs"), params,
                                   devices[device_name], normalizer,
                                   rules=rules)
    payload = {"iteration_time_s": result.iteration_time,
               "schedule": {k: list(v) for k, v in
                            sorted(result.schedule.items())}}
    run.write_json("simresult.json", payload)
    if args.timeline:
        run.write_csv("timeline.csv", ["node", "start_s", "end_s"],
                      ([node, repr(start), repr(end)] for node, (start, end)
                       in sorted(result.schedule.items())))
    print(_json_text({"iteration_time_s": result.iteration_time}))
    return EXIT_OK


def cmd_tune(args, config: RunConfig, run: RunDir) -> int:
    devices = _load_devices(config)
    ds = _load_split_dataset(config, devices, config.n_leaf_max)
    space = {
        "n_layers": [1, 2],
        "d_model": [32, 64],
        "d_ff": [64, 128],
        "lr": ("loguniform", 1e-4, 1e-2),
        "weight_decay": ("loguniform", 1e-6, 1e-2),
        "optimizer": ["adam", "sgd"],
        "lr_schedule": ["constant", "cyclic"],
        "batch_size": [32, 64],
        "alpha_cmd": [0.0, 0.1, 1.0],
    }
    base = replace(config.model_config(),
                   epochs=min(config.tune_epochs, config.epochs))
    best, trials = cm.tune(space, config.budget, ds, devices,
                           seed=config.seed, base=base)
    run.write_json("best_config.json", asdict(best))
    run.write_csv("trials.csv", ["trial", "val_mape", "config"],
                  ([trial.index, repr(trial.val_mape),
                    _json_text(asdict(trial.config))]
                   for trial in trials))
    print(_json_text({"best_val_mape": min(t.val_mape for t in trials)}))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="tpcost",
                     description="Tensor-program latency prediction toolkit")
    parser.add_argument("--config", help="run configuration file")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", default="runs/out", help="run directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="parse IR files into feature JSONL")
    p.add_argument("ir_files", nargs="+")
    p.add_argument("--out-jsonl", required=True)

    sub.add_parser("synth", help="generate a synthetic dataset")
    sub.add_parser("dataset-split", help="assign train/valid/test/holdout")
    sub.add_parser("train", help="pre-train the cost model")
    sub.add_parser("finetune", help="CMD-regularized fine-tuning")

    p = sub.add_parser("sample", help="select tasks to profile")
    p.add_argument("--kappa", type=int, help="number of tasks to select")

    sub.add_parser("predict", help="predict latencies for a dataset")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--split", default="test")
    p.add_argument("--emit-plot-data", action="store_true")

    p = sub.add_parser("replay", help="simulate a dataflow graph end to end")
    p.add_argument("--timeline", action="store_true")

    sub.add_parser("tune", help="random hyper-parameter search")
    return parser


def _setup_logging() -> None:
    level_name = os.environ.get("TPCOST_LOG", "info").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO,
              "debug": logging.DEBUG}
    if level_name not in levels:
        print(f"warning: ignoring invalid TPCOST_LOG={level_name!r}",
              file=sys.stderr)
        level_name = "info"
    logging.basicConfig(stream=sys.stderr, level=levels[level_name],
                        format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        config = load_run_config(args.config, seed_override=args.seed)
        if args.command == "extract":
            return cmd_extract(args, config)
        run = RunDir(args.out, config)
        handler = {
            "synth": cmd_synth,
            "dataset-split": cmd_dataset_split,
            "train": cmd_train,
            "finetune": cmd_finetune,
            "sample": cmd_sample,
            "predict": cmd_predict,
            "eval": cmd_eval,
            "replay": cmd_replay,
            "tune": cmd_tune,
        }[args.command]
        code = handler(args, config, run)
        run.finalize()
        return code
    except (TpcostError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except Exception:  # pragma: no cover - defensive
        import traceback
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
