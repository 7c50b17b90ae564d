"""The benchmark's three workloads, driven through tpcost's public API.

Each workload has a set-up (seeded data generation and whatever model it
needs), a timed job that is repeated for the run's duration, and output
checks that run after the timed part. Workloads call tpcost through module
attributes (`costmodel.train`, not an imported `train`) so that the tracer
in tracing.py sees every call.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tpcost import costmodel, dataset, ir, replayer, sampling
from tpcost.dataset import DEFAULT_SYNTH_DEVICE, SynthOracleConfig
from tpcost.errors import DomainError, TpcostError
from tpcost.features import DeviceSpec

# The "new device" of the fine-tuning workload: faster and wider than the
# synthetic training device, so its device features are unseen in pretraining.
TARGET_DEVICE = DeviceSpec(name="synth1", clock_mhz=1400.0, mem_gb=24.0,
                           bandwidth_gbps=1536.0, cores=24,
                           peak_fp32_gflops=4096.0, l2_cache_mb=6.0)
DEVICES = {d.name: d for d in (DEFAULT_SYNTH_DEVICE, TARGET_DEVICE)}
ORACLE = SynthOracleConfig(noise_sigma=0.0)
SPLIT = (8, 1, 1)
OP_CLASSES = ("matmul", "conv", "softmax", "layernorm", "elementwise")
SPLIT_RULES = {"matmul": 4, "conv": 2}
BATCH_REL_TOL = 1e-12


@dataclass(frozen=True)
class Sizes:
    n_samples: int = 2000          # synthetic set of every workload
    pretrain_epochs: int = 15      # pretrain: epochs of the timed train()
    warm_epochs: int = 3           # finetune_cmd: set-up pretrain
    finetune_epochs: int = 2       # finetune_cmd: epochs of the timed finetune()
    pool_samples: int = 1280       # finetune_cmd: labelled target-device pool
    pool_task_size: int = 64       # programs per pool task (one leaf count)
    kappa: int = 8                 # finetune_cmd: tasks chosen by select_tasks
    ckpt_epochs: int = 5           # serve_replay: set-up checkpoint training
    graph_nodes: int = 20000       # serve_replay: replayed graph
    graph_extra_edges: int = 10000  # on top of the node chain
    kernels: int = 400             # distinct kernels, given only as IR text
    query_calls: int = 250         # finetune_cmd: predict calls per repetition
    min_predict_calls: int = 1000  # the p99 needs >= 10 calls beyond it


FULL = Sizes()
# Small enough for the self-test; not a benchmark setting.
TINY = Sizes(n_samples=200, pretrain_epochs=3, warm_epochs=3,
             finetune_epochs=1, pool_samples=96, pool_task_size=32, kappa=2,
             ckpt_epochs=3,
             graph_nodes=300, graph_extra_edges=150, kernels=12,
             query_calls=20, min_predict_calls=40)


@dataclass
class Tally:
    """Operations attempted and failed, output checks included."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, label: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{label}: {detail}" if detail else label)
        return ok


@dataclass
class Measurements:
    """What the timed job repetitions measured; one entry per repetition
    except `predict_ms`, which holds one entry per predict call."""

    job_s: list[float] = field(default_factory=list)
    samples_per_s: list[float] = field(default_factory=list)
    predict_ms: list[float] = field(default_factory=list)
    predict_failures: list[str] = field(default_factory=list)
    outputs: list[dict] = field(default_factory=list)


def params_checksum(params) -> str:
    h = hashlib.sha256()
    for name in sorted(params.tensors):
        arr = np.ascontiguousarray(params.tensors[name], dtype=np.float64)
        h.update(name.encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _predict(params, normalizer, sample) -> float:
    return costmodel.predict(params, sample.compact, DEVICES[sample.device_id],
                             normalizer)


def _query(params, normalizer, samples, n_calls: int,
           meas: Measurements) -> list[float]:
    """Single-sample predict calls over `samples`, cycled to `n_calls`, after
    one untimed call (the first call after training runs on cold caches). A
    call that raises counts as failed and yields NaN."""
    try:
        _predict(params, normalizer, samples[0])
    except TpcostError:
        pass  # the timed call on the same sample counts the failure
    values = []
    for s in itertools.islice(itertools.cycle(samples), n_calls):
        t0 = time.perf_counter()
        try:
            y = _predict(params, normalizer, s)
        except TpcostError as e:
            meas.predict_failures.append(f"predict {s.id}: {e!r}")
            y = math.nan
        meas.predict_ms.append((time.perf_counter() - t0) * 1e3)
        values.append(y)
    return values


def _labelled_set(seed: int, sizes: Sizes):
    ds = dataset.generate_synthetic(sizes.n_samples, [DEFAULT_SYNTH_DEVICE],
                                    ORACLE, seed=seed)
    return dataset.split_dataset(ds, SPLIT, seed=seed)


def _same(tally: Tally, label: str, values: list) -> None:
    tally.check(label, all(v == values[0] for v in values),
                f"{len(set(map(str, values)))} distinct values over "
                f"{len(values)} repetitions")


# ---------------------------------------------------------------------------
# pretrain
# ---------------------------------------------------------------------------

class Pretrain:
    """costmodel.train on a seeded synthetic set: the training step."""

    name = "pretrain"

    def setup(self, seed: int, sizes: Sizes, workdir: Path) -> dict:
        ds = _labelled_set(seed, sizes)
        return {"ds": ds, "sizes": sizes,
                "config": costmodel.desk_config(epochs=sizes.pretrain_epochs,
                                                seed=seed),
                "n_train": len(ds.subset("train")),
                "valid": ds.subset("valid"),
                # every repetition predicts each sample once: on a shared
                # host, fewer calls sample too short a stretch of the run
                "queries": ds.samples}

    def run_job(self, st: dict, meas: Measurements) -> None:
        t0 = time.perf_counter()
        result = costmodel.train(st["config"], st["ds"], DEVICES)
        wall = time.perf_counter() - t0
        meas.job_s.append(wall)
        meas.samples_per_s.append(st["n_train"] * st["config"].epochs / wall)
        _query(result.params, result.normalizer, st["queries"],
               len(st["queries"]), meas)
        out = {"checksum": params_checksum(result.params),
               "val_mape": result.best_val_mape}
        if not meas.outputs:
            # later repetitions keep no model, so that the peak RSS does not
            # grow with the number of repetitions
            out["result"] = result
        meas.outputs.append(out)

    def extra_queries(self, st: dict, meas: Measurements, n: int) -> None:
        result = meas.outputs[0]["result"]
        _query(result.params, result.normalizer, st["queries"], n, meas)

    def check(self, st: dict, meas: Measurements, tally: Tally) -> dict:
        outs = meas.outputs
        _same(tally, "pretrain: parameter checksum repeats",
              [o["checksum"] for o in outs])
        _same(tally, "pretrain: val_mape repeats", [o["val_mape"] for o in outs])
        val_mape = outs[0]["val_mape"]
        result = outs[0]["result"]
        untrained = _mape_or_inf(costmodel.init_params(st["config"]),
                                 result.normalizer, st["valid"])
        tally.check("pretrain: val_mape finite and below the untrained model's",
                    math.isfinite(val_mape) and val_mape < untrained,
                    f"val_mape {val_mape}, untrained {untrained}")
        return {"val_mape": (val_mape, "ratio"),
                "untrained_val_mape": (untrained, "ratio"),
                "params_checksum": (outs[0]["checksum"][:16], "sha256")}


def _mape_or_inf(params, normalizer, samples) -> float:
    inputs = costmodel.encode_dataset(samples, DEVICES)
    try:
        pred = costmodel.predict_batch(params, inputs, normalizer)
    except DomainError:  # an untrained decoder leaves the Box-Cox domain
        return math.inf
    return costmodel.metrics(pred, [s.latency_s for s in samples])["mape"]


# ---------------------------------------------------------------------------
# finetune_cmd
# ---------------------------------------------------------------------------

class FinetuneCmd:
    """select_tasks then CMD fine-tuning towards a second device."""

    name = "finetune_cmd"

    def setup(self, seed: int, sizes: Sizes, workdir: Path) -> dict:
        source = _labelled_set(seed, sizes)
        pre = costmodel.train(costmodel.desk_config(epochs=sizes.warm_epochs,
                                                    seed=seed),
                              source, DEVICES)
        # tasks of batch-size many programs fill every target batch, so the
        # CMD term's work per step does not depend on which tasks are chosen
        pool = dataset.generate_synthetic(sizes.pool_samples, [TARGET_DEVICE],
                                          ORACLE, seed=seed + 1_000_003,
                                          task_size=sizes.pool_task_size)
        by_task: dict[str, list[np.ndarray]] = {}
        for s in pool.samples:
            by_task.setdefault(s.task_id, []).append(
                s.compact.leaf_vectors.mean(axis=0))
        tasks = [sampling.TaskFeatureSet(task_id=t, features=np.stack(f))
                 for t, f in sorted(by_task.items())]
        return {
            "source": source, "pre": pre, "pool": pool.samples, "sizes": sizes,
            "seed": seed, "tasks": tasks,
            "x": np.concatenate([t.features for t in tasks], axis=0),
            "pool_inputs": costmodel.encode_dataset(pool.samples, DEVICES),
            "n_train": len(source.subset("train")),
            "config": costmodel.desk_config(epochs=sizes.finetune_epochs,
                                            seed=seed, lr=3e-4, alpha_cmd=1.0),
        }

    def _targets(self, st: dict, selected: list[str]) -> list:
        chosen = set(selected)
        return [enc for s, enc in zip(st["pool"], st["pool_inputs"])
                if s.task_id in chosen]

    def run_job(self, st: dict, meas: Measurements) -> None:
        pre = st["pre"]
        t0 = time.perf_counter()
        selected = sampling.select_tasks(st["x"], st["sizes"].kappa,
                                         st["tasks"], seed=st["seed"])
        t1 = time.perf_counter()
        tuned = costmodel.finetune(pre.params, st["source"],
                                   self._targets(st, selected), st["config"],
                                   DEVICES, pre.normalizer)
        t2 = time.perf_counter()
        meas.job_s.append(t2 - t0)
        meas.samples_per_s.append(
            st["n_train"] * st["config"].epochs / (t2 - t1))
        _query(tuned.params, pre.normalizer, st["pool"],
               st["sizes"].query_calls, meas)
        out = {"selected": selected, "checksum": params_checksum(tuned.params)}
        if not meas.outputs:  # as in Pretrain.run_job
            out["tuned"] = tuned
        meas.outputs.append(out)

    def extra_queries(self, st: dict, meas: Measurements, n: int) -> None:
        _query(meas.outputs[0]["tuned"].params, st["pre"].normalizer,
               st["pool"], n, meas)

    def check(self, st: dict, meas: Measurements, tally: Tally) -> dict:
        outs = meas.outputs
        _same(tally, "finetune_cmd: selected tasks repeat",
              [o["selected"] for o in outs])
        _same(tally, "finetune_cmd: parameter checksum repeats",
              [o["checksum"] for o in outs])
        pre, tuned = st["pre"], outs[0]["tuned"]
        targets = self._targets(st, outs[0]["selected"])
        source_inputs = costmodel.encode_dataset(st["source"].subset("train"),
                                                 DEVICES)
        k = st["config"].cmd_order
        before = costmodel.cmd_between(pre.params, source_inputs, targets, k)
        after = costmodel.cmd_between(tuned.params, source_inputs, targets, k)
        tally.check("finetune_cmd: cmd_between falls after fine-tuning",
                    after < before, f"{before} -> {after}")
        target_mape = _mape_or_inf(tuned.params, pre.normalizer, st["pool"])
        tally.check("finetune_cmd: target_mape finite",
                    math.isfinite(target_mape), str(target_mape))
        return {"target_mape": (target_mape, "ratio"),
                "cmd_before": (before, "ratio"), "cmd_after": (after, "ratio"),
                "params_checksum": (outs[0]["checksum"][:16], "sha256")}


# ---------------------------------------------------------------------------
# serve_replay
# ---------------------------------------------------------------------------

def write_graph(workdir: Path, seed: int, sizes: Sizes) -> tuple[Path, Path]:
    """A seeded model graph: a chain of `graph_nodes` operators plus short
    skip edges, on two pipeline devices, over `kernels` distinct kernels that
    exist only as IR text. Every kernel is used at least once."""
    rng = np.random.default_rng(seed)
    texts, op_class = [], []
    for j in range(sizes.kernels):
        texts.append(ir.print_program(dataset.random_program(rng, f"k{j}")))
        op_class.append(OP_CLASSES[j % len(OP_CLASSES)])
    n = sizes.graph_nodes
    kernel_of = np.concatenate([rng.permutation(sizes.kernels),
                                rng.integers(0, sizes.kernels,
                                             n - sizes.kernels)])
    nodes = []
    for i, j in enumerate(kernel_of.tolist()):
        nodes.append({"id": f"n{i}", "tir_key": f"{op_class[j]}:k{j}",
                      "program_ref": f"k{j}", "device": (2 * i) // n,
                      "gap_s": 2e-6 if rng.random() < 0.25 else 0.0})
    edges = {(i - 1, i) for i in range(1, n)}
    while len(edges) < n - 1 + sizes.graph_extra_edges:
        dst = int(rng.integers(2, n))
        edges.add((dst - int(rng.integers(2, min(64, dst) + 1)), dst))
    graph_path = workdir / "graph.json"
    programs_path = workdir / "programs.ir"
    graph_path.write_text(json.dumps(
        {"nodes": nodes,
         "edges": [[f"n{a}", f"n{b}"] for a, b in sorted(edges)]}))
    programs_path.write_text("".join(texts))
    return graph_path, programs_path


class ServeReplay:
    """Forward-only serving: batched and single predictions, then a replay."""

    name = "serve_replay"

    def setup(self, seed: int, sizes: Sizes, workdir: Path) -> dict:
        ds = _labelled_set(seed, sizes)
        ckpt = costmodel.train(costmodel.desk_config(epochs=sizes.ckpt_epochs,
                                                     seed=seed), ds, DEVICES)
        graph_path, programs_path = write_graph(workdir, seed, sizes)
        return {"samples": ds.samples, "ckpt": ckpt, "sizes": sizes,
                "inputs": costmodel.encode_dataset(ds.samples, DEVICES),
                "graph": graph_path, "programs": programs_path}

    def run_job(self, st: dict, meas: Measurements) -> None:
        params, norm = st["ckpt"].params, st["ckpt"].normalizer
        t0 = time.perf_counter()
        batch = costmodel.predict_batch(params, st["inputs"], norm)
        meas.samples_per_s.append(len(st["inputs"]) / (time.perf_counter() - t0))
        singles = _query(params, norm, st["samples"], len(st["samples"]),
                         meas)
        t0 = time.perf_counter()
        sim = replayer.replay_model(st["graph"], st["programs"], params,
                                    DEFAULT_SYNTH_DEVICE, norm,
                                    rules=SPLIT_RULES)
        meas.job_s.append(time.perf_counter() - t0)
        out = {"batch": batch, "iteration_time": sim.iteration_time}
        if not meas.outputs:
            # later repetitions keep no schedule: a growing heap would slow
            # the garbage collector and so the repetitions after it
            out.update(singles=np.array(singles), sim=sim)
        meas.outputs.append(out)

    def extra_queries(self, st: dict, meas: Measurements, n: int) -> None:
        ckpt = st["ckpt"]
        _query(ckpt.params, ckpt.normalizer, st["samples"], n, meas)

    def check(self, st: dict, meas: Measurements, tally: Tally) -> dict:
        outs = meas.outputs
        first = outs[0]
        rel = np.abs(first["batch"] - first["singles"]) / np.abs(first["singles"])
        tally.check("serve_replay: predict_batch equals per-sample predict",
                    bool(np.all(rel <= BATCH_REL_TOL)),
                    f"max relative difference {rel.max()}")
        _same(tally, "serve_replay: predictions repeat",
              [o["batch"].tobytes() for o in outs])
        _same(tally, "serve_replay: iteration_time repeats",
              [o["iteration_time"] for o in outs])
        self._check_schedule(st, first["sim"], tally)
        sim = first["sim"]
        return {"iteration_time": (sim.iteration_time, "s"),
                "scheduled_nodes": (len(sim.schedule), "count")}

    def _check_schedule(self, st: dict, sim, tally: Tally) -> None:
        """The simulator's schedule against the expanded graph: dependencies,
        one node at a time per device, and the iteration time."""
        dfg, _ = replayer.load_graph(st["graph"])
        expanded = replayer.expand_device_parallel(dfg, SPLIT_RULES)
        nodes = {n.id: n for n in expanded.nodes}
        sched = sim.schedule
        tally.check("serve_replay: every node scheduled once",
                    set(sched) == set(nodes),
                    f"{len(sched)} scheduled, {len(nodes)} nodes")
        if set(sched) != set(nodes):
            return
        late = sum(1 for a, b in expanded.edges
                   if sched[b][0] < sched[a][1] + nodes[a].gap)
        tally.check("serve_replay: nodes start after predecessors end + gap",
                    late == 0, f"{late} of {len(expanded.edges)} edges violated")
        by_device: dict[int, list[tuple[float, float]]] = {}
        clock: dict[int, float] = {}
        for node_id, (start, end) in sched.items():
            dev = nodes[node_id].device
            by_device.setdefault(dev, []).append((start, end))
            clock[dev] = max(clock.get(dev, 0.0), end + nodes[node_id].gap)
        overlaps = 0
        for intervals in by_device.values():
            intervals.sort()
            overlaps += sum(1 for (_, e0), (s1, _) in zip(intervals, intervals[1:])
                            if s1 < e0)
        tally.check("serve_replay: no device runs two nodes at once",
                    overlaps == 0, f"{overlaps} overlaps")
        tally.check("serve_replay: iteration_time equals largest device clock",
                    math.isclose(sim.iteration_time, max(clock.values()),
                                 rel_tol=1e-12),
                    f"{sim.iteration_time} vs {max(clock.values())}")


WORKLOADS = {w.name: w for w in (Pretrain(), FinetuneCmd(), ServeReplay())}
