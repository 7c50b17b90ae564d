"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The learning-based criteria (6, 7, 9) run deterministic seeded experiments
at the scale needed for their effects to clear run-to-run noise; smaller
instantiations of the same protocols are statistically underpowered.
Expect roughly ten minutes of wall time for the whole module.
"""

import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from oracle_sim import oracle_simulate
from oracles import (cmd_bruteforce, grid_mle_lambda, quantile_reference,
                     yeojohnson_reference)
from tpcost import costmodel as cm
from tpcost.dataset import (DEFAULT_SYNTH_DEVICE, SynthOracleConfig,
                            fit_boxcox, generate_synthetic, skewness,
                            split_dataset, synth_latency)
from tpcost.features import (N_ENTRY, CompactAst, EncodedInput, encode_input,
                             positional_encoding)
from tpcost.replayer import Dfg, DfgNode, simulate
from tpcost.sampling import TaskFeatureSet, select_tasks

pytestmark = pytest.mark.acceptance

DEVICES = {DEFAULT_SYNTH_DEVICE.name: DEFAULT_SYNTH_DEVICE}


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


# ---------------------------------------------------------------------------
# 1. Gradient oracle
# ---------------------------------------------------------------------------

GRAD_CONFIG = cm.CostModelConfig(d_model=8, n_layers=1, n_heads=2, d_ff=8,
                                 d_embed=6, d_device=3, decoder_dims=(6,),
                                 n_leaf_max=2, batch_size=4, epochs=1,
                                 seed=20)


def _grad_inputs(seed):
    rng = np.random.default_rng(seed)
    params = cm.init_params(GRAD_CONFIG)
    batch = []
    for _ in range(4):
        n_leaf = int(rng.integers(1, 3))
        batch.append(EncodedInput(matrix=rng.normal(size=(n_leaf, N_ENTRY)),
                                  device_vector=rng.normal(size=6)))
    targets = rng.uniform(1.0, 3.0, size=4)
    target_batch = [
        EncodedInput(matrix=rng.normal(size=(int(rng.integers(1, 3)), N_ENTRY)),
                     device_vector=rng.normal(size=6)) for _ in range(5)]
    return params, batch, targets, target_batch


def _max_grad_error(params, batch, targets, spec, target_batch):
    _, grads, _ = cm.backward(params, batch, targets, spec,
                              target_batch=target_batch)
    step = 1e-4
    worst = 0.0
    for name, tensor in params.tensors.items():
        analytic = grads[name]
        it = np.nditer(tensor, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = tensor[ix]
            tensor[ix] = orig + step
            up, _, _ = cm.backward(params, batch, targets, spec,
                                   target_batch=target_batch)
            tensor[ix] = orig - step
            down, _, _ = cm.backward(params, batch, targets, spec,
                                     target_batch=target_batch)
            tensor[ix] = orig
            fd = (up - down) / (2.0 * step)
            rel = abs(analytic[ix] - fd) / max(abs(analytic[ix]), abs(fd),
                                               1e-6)
            worst = max(worst, rel)
    return worst


def test_criterion_1_gradient_oracle():
    with criterion(1, "analytic gradients match finite differences (1e-5)"):
        start = time.monotonic()
        params, batch, targets, target_batch = _grad_inputs(seed=20)
        pre = replace(GRAD_CONFIG, loss_mode="hybrid", lambda_hybrid=1e-3)
        err_pre = _max_grad_error(params, batch, targets, pre, None)
        fin = replace(GRAD_CONFIG, loss_mode="hybrid", lambda_hybrid=1e-3,
                      alpha_cmd=1.0, cmd_order=5)
        err_fin = _max_grad_error(params, batch, targets, fin, target_batch)
        elapsed = time.monotonic() - start
        print(f"  pretrain max rel err {err_pre:.2e}, "
              f"finetune {err_fin:.2e}, {elapsed:.1f}s")
        assert err_pre <= 1e-5
        assert err_fin <= 1e-5
        assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 2. CMD oracle
# ---------------------------------------------------------------------------

def test_criterion_2_cmd_oracle():
    with criterion(2, "CMD matches the brute-force moment formula (1e-9)"):
        rng = np.random.default_rng(2)
        for _ in range(200):
            ns, nt = int(rng.integers(2, 33)), int(rng.integers(2, 33))
            dims = int(rng.integers(1, 4))
            zs = rng.normal(scale=rng.uniform(0.5, 2.0), size=(ns, dims))
            zt = rng.normal(loc=rng.uniform(-1, 1), size=(nt, dims))
            assert abs(cm.cmd(zs, zt, 5) - cmd_bruteforce(zs, zt, 5)) <= 1e-9
            assert cm.cmd(zs, zs.copy(), 5) == 0.0
            assert cm.cmd(zs, zt, 5) == cm.cmd(zt, zs, 5)
        # translation invariance, exact: dyadic grid keeps arithmetic exact
        for _ in range(50):
            s1 = rng.integers(-64, 65, size=(8, 3)).astype(np.float64) / 8.0
            s2 = rng.integers(-64, 65, size=(16, 3)).astype(np.float64) / 8.0
            shift = rng.integers(-8, 9, size=3).astype(np.float64) / 4.0
            assert cm.cmd(s1 + shift, s2 + shift, 5) == cm.cmd(s1, s2, 5)


# ---------------------------------------------------------------------------
# 3. Algorithm-1 conformance and coverage reduction
# ---------------------------------------------------------------------------

def test_criterion_3_sampling_conformance():
    with criterion(3, "task sampling: hand example exact, eps <= random"):
        # hand-executed 5-point / 3-task example
        x = np.array([0.0, 0.1, 5.0, 10.0, 10.1])
        tasks = [TaskFeatureSet("A", np.array([[0.0], [0.1]])),
                 TaskFeatureSet("B", np.array([[10.0], [10.1]])),
                 TaskFeatureSet("C", np.array([[5.0]]))]
        selected = select_tasks(x, 2, tasks, seed=0,
                                init_centers=np.array([[0.05], [10.05]]))
        assert selected == ["A", "B"]

        # 4 Gaussian blobs, 20 tasks, kappa=4: the cluster-guided choice
        # covers the space at least as well as random choice, on average
        data_rng = np.random.default_rng(33)
        centers = data_rng.normal(scale=8.0, size=(4, 3))
        tasks = []
        rows = []
        for t in range(20):
            blob = centers[t % 4]
            feats = blob + data_rng.normal(scale=0.6, size=(8, 3))
            tasks.append(TaskFeatureSet(f"t{t}", feats))
            rows.append(feats)
        x = np.concatenate(rows, axis=0)
        features_by_id = {t.task_id: t.features for t in tasks}

        def coverage_eps(ids):
            sel = np.concatenate([features_by_id[i] for i in ids], axis=0)
            return cm.latent_epsilon(x, sel)

        algo_eps, random_eps = [], []
        for seed in range(10):
            chosen = select_tasks(x, 4, tasks, seed=seed)
            assert len(set(chosen)) == 4
            algo_eps.append(coverage_eps(chosen))
            pick_rng = np.random.default_rng(1000 + seed)
            random_ids = pick_rng.choice([t.task_id for t in tasks], size=4,
                                         replace=False)
            random_eps.append(coverage_eps(list(random_ids)))
        print(f"  mean eps: algorithm {np.mean(algo_eps):.3f}, "
              f"random {np.mean(random_eps):.3f}")
        assert np.mean(algo_eps) <= np.mean(random_eps)


# ---------------------------------------------------------------------------
# 4. Box-Cox fitting and skewness
# ---------------------------------------------------------------------------

def test_criterion_4_boxcox():
    with criterion(4, "Box-Cox MLE matches grid oracle; best skew reduction"):
        rng = np.random.default_rng(4)
        labels = np.exp(rng.normal(0.0, 1.0, size=10000))
        norm = fit_boxcox(labels)
        grid = grid_mle_lambda(labels, step=0.01)
        print(f"  lambda fitted {norm.lambda_bc:.4f}, grid {grid:.4f}")
        assert abs(norm.lambda_bc - grid) <= 0.02
        assert -0.1 <= norm.lambda_bc <= 0.1
        skew_raw = abs(skewness(labels))
        skew_bc = abs(skewness(norm.transform(labels)))
        skew_yj = abs(skewness(yeojohnson_reference(labels)))
        skew_q = abs(skewness(quantile_reference(labels)))
        print(f"  |skew| raw {skew_raw:.3f}, boxcox {skew_bc:.5f}, "
              f"yeo-johnson {skew_yj:.5f}, quantile {skew_q:.1e}")
        assert skew_bc < skew_raw
        assert skew_bc < skew_yj
        assert skew_q < 1e-6  # rank-based reference is symmetric by design


# ---------------------------------------------------------------------------
# 5. Positional encoding
# ---------------------------------------------------------------------------

def test_criterion_5_positional_encoding():
    with criterion(5, "positional encoding matches high-precision reference"):
        import mpmath
        mpmath.mp.dps = 40
        positions = (0, 1, 7, 42, 311)
        compact = CompactAst(leaf_vectors=np.zeros((len(positions), N_ENTRY)),
                             ordering=positions,
                             serialized=tuple(range(400)),
                             n_leaf=len(positions))
        pe = positional_encoding(compact)
        assert np.all(pe >= -1.0) and np.all(pe <= 1.0)
        assert np.array_equal(pe[0], np.tile([0.0, 1.0], N_ENTRY // 2))
        for row, pos in enumerate(positions):
            for delta in range(N_ENTRY // 2):
                angle = mpmath.mpf(pos) / mpmath.mpf(10000.0) ** (
                    mpmath.mpf(2 * delta) / N_ENTRY)
                assert abs(pe[row, 2 * delta] - float(mpmath.sin(angle))) \
                    <= 1e-9
                assert abs(pe[row, 2 * delta + 1] - float(mpmath.cos(angle))) \
                    <= 1e-9


# ---------------------------------------------------------------------------
# 6. Desk-scale end-to-end learning
# ---------------------------------------------------------------------------

def test_criterion_6_desk_scale_learning():
    with criterion(6, "desk-scale training reaches test MAPE <= 20%"):
        start_wall = time.monotonic()
        start_cpu = time.process_time()
        ds = generate_synthetic(2000, [DEFAULT_SYNTH_DEVICE],
                                SynthOracleConfig(noise_sigma=0.0), seed=11)
        ds = split_dataset(ds, seed=1)
        config = cm.desk_config(epochs=300, seed=0)
        result = cm.train(config, ds, DEVICES)
        test = ds.subset("test")
        inputs = cm.encode_dataset(test, DEVICES)
        pred = cm.predict_batch(result.params, inputs, result.normalizer)
        actual = np.array([s.latency_s for s in test])
        mape = cm.metrics(pred, actual)["mape"]
        rel = np.abs(pred - actual) / actual
        p90 = float(np.quantile(rel, 0.9))
        cpu_minutes = (time.process_time() - start_cpu) / 60.0
        wall = time.monotonic() - start_wall
        print(f"  test MAPE {mape:.4f}, p90 rel err {p90:.3f}, "
              f"best val {result.best_val_mape:.4f} at epoch "
              f"{result.best_epoch}, {wall:.0f}s wall / "
              f"{cpu_minutes:.1f} CPU-min")
        assert mape <= 0.20
        assert cpu_minutes <= 10.0
        # per-sample relative error <= 35% for at least 90% of test samples
        assert p90 <= 0.35


# ---------------------------------------------------------------------------
# 7. Cross-domain fine-tuning with the CMD regularizer
# ---------------------------------------------------------------------------

def _shift_compact(compact, delta=2.0, lo=10, hi=15):
    vecs = compact.leaf_vectors.copy()
    vecs[:, lo:hi + 1] += delta
    return CompactAst(leaf_vectors=vecs, ordering=compact.ordering,
                      serialized=compact.serialized, n_leaf=compact.n_leaf)


def test_criterion_7_cmd_finetuning():
    with criterion(7, "CMD fine-tuning cuts latent gap >= 30% and beats "
                      "the alpha=0 control on target MAPE"):
        oracle = SynthOracleConfig(noise_sigma=0.0)
        reductions = []
        mape_cmd, mape_ctrl = [], []
        for seed in (0, 1, 2):
            ds = generate_synthetic(800, [DEFAULT_SYNTH_DEVICE], oracle,
                                    seed=100 + seed)
            ds = split_dataset(ds, seed=seed)
            pre = cm.train(cm.desk_config(epochs=120, seed=seed), ds, DEVICES)
            target_pairs = []
            for s in ds.subset("test") + ds.subset("valid"):
                shifted = _shift_compact(s.compact)
                target_pairs.append(
                    (shifted,
                     synth_latency(shifted, DEFAULT_SYNTH_DEVICE, oracle)))
            target_inputs = [encode_input(c, DEFAULT_SYNTH_DEVICE)
                             for c, _ in target_pairs]
            target_labels = np.array([y for _, y in target_pairs])
            source_inputs = cm.encode_dataset(ds.subset("train"), DEVICES)
            cmd_before = cm.cmd_between(pre.params, source_inputs,
                                        target_inputs)
            for alpha, sink in ((1.0, mape_cmd), (0.0, mape_ctrl)):
                config = cm.desk_config(epochs=40, seed=seed, lr=3e-4,
                                        alpha_cmd=alpha)
                tuned = cm.finetune(pre.params, ds, target_inputs, config,
                                    DEVICES, pre.normalizer)
                pred = cm.predict_batch(tuned.params, target_inputs,
                                        pre.normalizer)
                sink.append(cm.metrics(pred, target_labels)["mape"])
                if alpha == 1.0:
                    cmd_after = cm.cmd_between(tuned.params, source_inputs,
                                               target_inputs)
                    reductions.append(1.0 - cmd_after / cmd_before)
        print(f"  cmd reductions {['%.0f%%' % (100 * r) for r in reductions]}, "
              f"target MAPE alpha=1 {np.mean(mape_cmd):.3f} vs "
              f"alpha=0 {np.mean(mape_ctrl):.3f}")
        assert np.mean(reductions) >= 0.30
        assert np.mean(mape_cmd) < np.mean(mape_ctrl)


# ---------------------------------------------------------------------------
# 8. Replayer vs brute-force oracle
# ---------------------------------------------------------------------------

def test_criterion_8_replayer_oracle():
    with criterion(8, "simulator matches brute-force oracle on 1000 DAGs"):
        start = time.monotonic()
        rng = np.random.default_rng(8)
        for case in range(1000):
            n = int(rng.integers(1, 13))
            n_devices = int(rng.integers(1, 4))
            nodes = [DfgNode(id=f"n{i:02d}", tir_key=f"k{i}",
                             duration=float(rng.uniform(0.1, 5.0)),
                             gap=float(rng.choice([0.0, 0.0, 0.25])),
                             device=int(rng.integers(0, n_devices)))
                     for i in range(n)]
            edges = [(f"n{i:02d}", f"n{j:02d}")
                     for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.25]
            dfg = Dfg(nodes=nodes, edges=edges)
            result = simulate(dfg, n_devices)
            expected_time, expected_schedule = oracle_simulate(
                [(d.id, d.duration, d.gap, d.device) for d in nodes],
                edges, n_devices)
            assert result.iteration_time == expected_time
            assert result.schedule == expected_schedule
            # dependency feasibility and per-device non-overlap
            by_id = {d.id: d for d in nodes}
            for src, dst in edges:
                assert result.schedule[dst][0] >= \
                    result.schedule[src][1] + by_id[src].gap - 1e-12
            for d in range(n_devices):
                spans = sorted((result.schedule[x.id][0],
                                result.schedule[x.id][1] + x.gap)
                               for x in nodes if x.device == d)
                for (_, e1), (s2, _) in zip(spans, spans[1:]):
                    assert s2 >= e1 - 1e-12
            if n_devices == 1:
                total = sum(x.duration + x.gap for x in nodes)
                assert result.iteration_time == pytest.approx(total,
                                                              rel=1e-12)
        elapsed = time.monotonic() - start
        print(f"  1000 DAGs checked in {elapsed:.1f}s")
        assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 9. Loss-function ablation direction
# ---------------------------------------------------------------------------

def test_criterion_9_loss_ablation():
    with criterion(9, "hybrid loss: MAPE <= MSE-only, RMSE <= MAPE-only"):
        oracle = SynthOracleConfig(noise_sigma=0.05)
        results = {mode: [] for mode in ("hybrid", "mse", "mape")}
        for seed in (0, 1, 2):
            ds = generate_synthetic(1200, [DEFAULT_SYNTH_DEVICE], oracle,
                                    seed=200 + seed)
            ds = split_dataset(ds, seed=seed)
            test = ds.subset("test")
            actual = np.array([s.latency_s for s in test])
            inputs = cm.encode_dataset(test, DEVICES)
            for mode in results:
                config = cm.desk_config(epochs=150, seed=seed,
                                        loss_mode=mode)
                trained = cm.train(config, ds, DEVICES)
                pred = cm.predict_batch(trained.params, inputs,
                                        trained.normalizer)
                m = cm.metrics(pred, actual)
                results[mode].append((m["mape"], m["rmse"]))
        mean_mape = {m: float(np.mean([v[0] for v in results[m]]))
                     for m in results}
        mean_rmse = {m: float(np.mean([v[1] for v in results[m]]))
                     for m in results}
        print(f"  mean MAPE: hybrid {mean_mape['hybrid']:.4f}, "
              f"mse {mean_mape['mse']:.4f}, mape {mean_mape['mape']:.4f}")
        print(f"  mean RMSE: hybrid {mean_rmse['hybrid']:.3e}, "
              f"mse {mean_rmse['mse']:.3e}, mape {mean_rmse['mape']:.3e}")
        assert mean_mape["hybrid"] <= mean_mape["mse"]
        assert mean_rmse["hybrid"] <= mean_rmse["mape"]


# ---------------------------------------------------------------------------
# 10. Determinism
# ---------------------------------------------------------------------------

def test_criterion_10_determinism():
    with criterion(10, "identical seeds give identical artifacts"):
        ds = generate_synthetic(128, [DEFAULT_SYNTH_DEVICE],
                                SynthOracleConfig(noise_sigma=0.02), seed=10)
        ds = split_dataset(ds, seed=10)
        config = cm.desk_config(epochs=5, seed=10, d_model=16, d_ff=32,
                                d_embed=8, d_device=4, decoder_dims=(8,),
                                batch_size=32)
        runs = [cm.train(config, ds, DEVICES) for _ in range(2)]
        assert [r.__dict__ for r in runs[0].log] == \
            [r.__dict__ for r in runs[1].log]
        for name in runs[0].params.tensors:
            assert np.array_equal(runs[0].params.tensors[name],
                                  runs[1].params.tensors[name])

        target_inputs = cm.encode_dataset(ds.subset("test"), DEVICES)
        ft_config = cm.desk_config(epochs=3, seed=10, d_model=16, d_ff=32,
                                   d_embed=8, d_device=4, decoder_dims=(8,),
                                   batch_size=32, alpha_cmd=1.0)
        fts = [cm.finetune(runs[0].params, ds, target_inputs, ft_config,
                           DEVICES, runs[0].normalizer) for _ in range(2)]
        assert [r.__dict__ for r in fts[0].log] == \
            [r.__dict__ for r in fts[1].log]
        for name in fts[0].params.tensors:
            assert np.array_equal(fts[0].params.tensors[name],
                                  fts[1].params.tensors[name])

        by_task = {}
        for s in ds.samples:
            by_task.setdefault(s.task_id, []).append(
                s.compact.leaf_vectors.mean(axis=0))
        tasks = [TaskFeatureSet(t, np.stack(v)) for t, v in
                 sorted(by_task.items())]
        x = np.concatenate([t.features for t in tasks], axis=0)
        assert select_tasks(x, 3, tasks, seed=10) == \
            select_tasks(x, 3, tasks, seed=10)

        rng = np.random.default_rng(10)
        nodes = [DfgNode(id=f"n{i}", tir_key=f"k{i}",
                         duration=float(rng.uniform(0.1, 2.0)),
                         device=int(rng.integers(0, 2)))
                 for i in range(10)]
        edges = [(f"n{i}", f"n{j}") for i in range(10) for j in range(i + 1, 10)
                 if rng.random() < 0.3]
        dfg = Dfg(nodes=nodes, edges=edges)
        a = simulate(dfg, 2)
        b = simulate(dfg, 2)
        assert a.iteration_time == b.iteration_time
        assert a.schedule == b.schedule
