import hashlib
import math
import os
import signal
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from checkpoint_meta import npy_bytes, rewrite_meta
from oracles import cmd_bruteforce

from tpcost import costmodel as cm
from tpcost import nn, sampling
from tpcost.dataset import (DEFAULT_SYNTH_DEVICE, BoxCoxNormalizer, Dataset,
                            SynthOracleConfig,
                            generate_synthetic, split_dataset)
from tpcost.errors import (CheckpointError, EmptyBatch, EmptySelection,
                           EmptySet, LeafCountExceeded, NonFiniteLoss,
                           ValidationError)
from tpcost.features import N_ENTRY, DeviceSpec, EncodedInput

DEVICES = {DEFAULT_SYNTH_DEVICE.name: DEFAULT_SYNTH_DEVICE}

TINY = cm.CostModelConfig(d_model=8, n_layers=1, n_heads=2, d_ff=8,
                          d_embed=6, d_device=3, decoder_dims=(6,),
                          n_leaf_max=3, batch_size=4, epochs=1, seed=0)

FITTED = BoxCoxNormalizer(lambda_bc=0.25, fitted=True, t_mean=1.5, t_std=2.0,
                          loss_offset=3.0)


def rand_inputs(rng, n, leaf_range=(1, 4)):
    out = []
    for _ in range(n):
        n_leaf = int(rng.integers(*leaf_range))
        out.append(EncodedInput(matrix=rng.normal(size=(n_leaf, N_ENTRY)),
                                device_vector=rng.normal(size=6)))
    return out


# ---------------------------------------------------------------------------
# Forward
# ---------------------------------------------------------------------------

def test_zero_decoder_predicts_zero(rng):
    params = cm.init_params(TINY)
    params.tensors["dec.out.W"][:] = 0.0
    params.tensors["dec.out.b"][:] = 0.0
    pred, _ = cm.forward(params, rand_inputs(rng, 6))
    assert np.array_equal(pred, np.zeros(6))


def test_device_changes_z_not_zx(rng):
    params = cm.init_params(TINY)
    matrix = rng.normal(size=(2, N_ENTRY))
    a = EncodedInput(matrix=matrix, device_vector=np.ones(6))
    b = EncodedInput(matrix=matrix, device_vector=2.0 * np.ones(6))
    _, latents = cm.forward(params, [a, b])
    assert np.array_equal(latents.z_x[0], latents.z_x[1])
    assert not np.array_equal(latents.z[0], latents.z[1])


def test_leaf_count_routing(rng):
    params = cm.init_params(TINY)
    two = rand_inputs(rng, 1, (2, 3))[0]
    three = rand_inputs(rng, 1, (3, 4))[0]
    base, _ = cm.forward(params, [two, three])
    params.tensors["leaf_embed.3.b"] += 0.25
    bumped, _ = cm.forward(params, [two, three])
    assert bumped[0] == base[0]  # 2-leaf input untouched
    assert bumped[1] != base[1]  # 3-leaf input routed through the bumped layer


def test_equal_leaf_count_shares_embedding(rng):
    params = cm.init_params(TINY)
    pair = rand_inputs(rng, 2, (2, 3))
    base, _ = cm.forward(params, pair)
    params.tensors["leaf_embed.2.b"] += 0.25
    bumped, _ = cm.forward(params, pair)
    assert bumped[0] != base[0] and bumped[1] != base[1]


def test_batch_equivariance(rng):
    params = cm.init_params(TINY)
    inputs = rand_inputs(rng, 7)
    pred, latents = cm.forward(params, inputs)
    perm = rng.permutation(7)
    pred_p, latents_p = cm.forward(params, [inputs[i] for i in perm])
    assert np.array_equal(pred_p, pred[perm])
    assert np.array_equal(latents_p.z, latents.z[perm])


def test_forward_errors(rng):
    params = cm.init_params(TINY)
    with pytest.raises(EmptyBatch):
        cm.forward(params, [])
    too_big = EncodedInput(matrix=rng.normal(size=(4, N_ENTRY)),
                           device_vector=np.zeros(6))
    with pytest.raises(LeafCountExceeded):
        cm.forward(params, [too_big])


def test_inference_matches_the_cached_training_pass(rng):
    # one forward path: keeping the activations changes no bit of the output
    params = cm.init_params(replace(TINY, n_layers=2))
    inputs = [rand_inputs(rng, 1, (n, n + 1))[0] for n in (2, 3, 1, 3, 2, 2)]
    pred, latents = cm.forward(params, inputs)
    y = rng.uniform(1.0, 2.0, size=len(inputs))
    _, _, aux = cm.backward(params, inputs, y, cm.CostModelConfig())
    assert pred.tobytes() == aux["pred"].tobytes()
    caches = []
    pred_c, latents_c = cm._forward(params, inputs, caches=caches)
    assert pred_c.tobytes() == pred.tobytes()
    assert latents_c.z.tobytes() == latents.z.tobytes()
    assert latents_c.z_x.tobytes() == latents.z_x.tobytes()
    assert [c.n_leaf for c in caches] == [1, 2, 3]
    assert [c.indices for c in caches] == [[2], [0, 4, 5], [1, 3]]
    for c in caches:
        assert c.z_x.tobytes() == latents.z_x[c.indices].tobytes()


def test_inference_holds_one_leaf_count_group_at_a_time(monkeypatch):
    params = cm.init_params(cm.desk_config())

    def traced_peak(batch):
        tracemalloc.start()
        try:
            cm.forward(params, batch)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for sizes, cpus in [
            ({n: 50 for n in range(1, 7)}, 1),
            # groups of 1,024 leaf rows, each split with the worker
            ({n: 1024 // n for n in (1, 2, 4, 8, 16)}, 2)]:
        monkeypatch.setattr(cm, "_usable_cpus", lambda: cpus)
        rng = np.random.default_rng(0)
        inputs = [EncodedInput(matrix=rng.normal(size=(n, N_ENTRY)),
                               device_vector=rng.normal(size=6))
                  for i in range(max(sizes.values()))
                  for n, count in sizes.items() if i < count]
        largest_group = max(traced_peak([e for e in inputs if e.n_leaf == n])
                            for n in sizes)
        # a pass that kept every group's activations would peak near 3x
        # this, and one that kept every split group's encoder output, 1.4x
        assert traced_peak(inputs) <= 1.25 * largest_group, sizes


DESK = cm.desk_config()


def leaf_group(rng, n_leaf, n, scale=1.0):
    return [EncodedInput(matrix=scale * rng.normal(size=(n_leaf, N_ENTRY)),
                         device_vector=rng.normal(size=6)) for _ in range(n)]


@pytest.fixture
def split_calls(monkeypatch):
    """Two usable CPUs whatever the host has; records the batch size of
    every group encoded on two threads, from what the worker runs for it."""
    monkeypatch.setattr(cm, "_usable_cpus", lambda: 2)
    calls = []
    encode_chunks = cm._encode_chunks

    def spy(t, config, mats, out):
        # the worker fills the leading rows of its group's output array
        if threading.current_thread().name.startswith("ThreadPoolExecutor"):
            calls.append(out.base.shape[0])
        return encode_chunks(t, config, mats, out)

    monkeypatch.setattr(cm, "_encode_chunks", spy)
    return calls


def assert_same_as_cached_pass(params, inputs, normalizer):
    pred_c, latents_c = cm._forward(params, inputs, caches=[])
    pred, latents = cm.forward(params, inputs)
    assert pred.tobytes() == pred_c.tobytes()
    assert latents.z.tobytes() == latents_c.z.tobytes()
    assert latents.z_x.tobytes() == latents_c.z_x.tobytes()
    assert (cm.predict_batch(params, inputs, normalizer).tobytes()
            == normalizer.decode(pred_c).tobytes())


def test_split_inference_matches_the_cached_pass(split_calls):
    # the cached pass is always encoded on one thread, so it is the oracle
    rng = np.random.default_rng(3)
    params = cm.init_params(DESK)
    normalizer = cm.fit_boxcox(rng.lognormal(-9.0, 1.0, size=50))
    expected = []  # forward's split groups, then predict_batch's
    for n_leaf in range(1, DESK.n_leaf_max + 1):
        for n in (2, 3, 5, 64, 129):
            assert_same_as_cached_pass(params, leaf_group(rng, n_leaf, n),
                                       normalizer)
            if n * n_leaf >= cm._SPLIT_ROWS:
                expected += [n, n]
    mixed = [leaf_group(rng, int(rng.integers(1, 17)), 1)[0]
             for _ in range(2000)]
    assert_same_as_cached_pass(params, mixed, normalizer)
    sizes = np.bincount([e.n_leaf for e in mixed]).tolist()
    mixed_splits = [n for n_leaf, n in enumerate(sizes)
                    if n * n_leaf >= cm._SPLIT_ROWS]
    assert len(mixed_splits) >= 10
    assert split_calls == expected + 2 * mixed_splits


@pytest.mark.parametrize("n_leaf, n, splits", [(7, 73, False), (8, 64, True),
                                               (9, 57, True)])
def test_split_starts_at_the_row_floor(split_calls, n_leaf, n, splits):
    # 511, 512 and 513 leaf rows
    rng = np.random.default_rng(n)
    params = cm.init_params(DESK)
    normalizer = cm.fit_boxcox(rng.lognormal(-9.0, 1.0, size=50))
    assert_same_as_cached_pass(params, leaf_group(rng, n_leaf, n), normalizer)
    # forward and predict_batch split; the cached pass never does
    assert split_calls == ([n, n] if splits else [])


@pytest.mark.parametrize("n_leaf, n, chunk_rows", [
    (5, 51, None), (8, 32, None), (1, 257, [256, 1]),
    # the last chunk holds one sample: alone, and on the caller's half
    (8, 33, [256, 8]), (8, 65, [256, 256, 8])])
def test_chunked_inference_matches_the_cached_pass(split_calls, monkeypatch,
                                                   n_leaf, n, chunk_rows):
    # 255, 256 and 257 leaf rows: up to 256, one `_encode` call as before
    rows = []  # the leaf rows of each inference `_encode` call
    chunked = []  # the samples of each `_encode_chunks` call
    encode, encode_chunks = cm._encode, cm._encode_chunks

    def encode_spy(t, config, x, layer_caches=None):
        if layer_caches is None:
            rows.append(x.shape[0] * x.shape[1])
        return encode(t, config, x, layer_caches)

    def chunks_spy(t, config, mats, out):
        chunked.append(len(mats))
        return encode_chunks(t, config, mats, out)

    monkeypatch.setattr(cm, "_encode", encode_spy)
    monkeypatch.setattr(cm, "_encode_chunks", chunks_spy)
    rng = np.random.default_rng(n)
    params = cm.init_params(DESK)
    normalizer = cm.fit_boxcox(rng.lognormal(-9.0, 1.0, size=50))
    assert_same_as_cached_pass(params, leaf_group(rng, n_leaf, n), normalizer)
    # forward's calls, then predict_batch's; two threads may interleave
    assert sorted(rows) == sorted(2 * (chunk_rows or [n * n_leaf]))
    assert sum(chunked) == (2 * n if chunk_rows else 0)
    assert split_calls == ([n, n] if n * n_leaf >= cm._SPLIT_ROWS else [])


def test_several_split_groups_start_one_thread(split_calls, monkeypatch):
    started = []
    start = threading.Thread.start

    def counting_start(self):
        started.append(self.name)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    rng = np.random.default_rng(4)
    inputs = (leaf_group(rng, 4, 130) + leaf_group(rng, 1, 7)
              + leaf_group(rng, 8, 70) + leaf_group(rng, 16, 40))
    pred, _ = cm.forward(cm.init_params(DESK), inputs)
    assert len(started) == 1
    assert split_calls == [130, 70, 40]
    assert pred.tobytes() == cm._forward(cm.init_params(DESK), inputs,
                                         caches=[])[0].tobytes()


def test_caller_exception_cancels_and_joins_the_worker(split_calls,
                                                       monkeypatch):
    caller = threading.get_ident()
    layernorm_fwd = nn.layernorm_fwd
    raised = threading.Event()
    encode_chunks = cm._encode_chunks  # split_calls' spy

    class Boom(Exception):
        pass

    def failing_in_caller(x, g, b):
        if threading.get_ident() == caller:
            raised.set()
            raise Boom
        return layernorm_fwd(x, g, b)

    def worker_waits_for_the_caller(t, config, mats, out):
        if threading.get_ident() != caller:
            assert raised.wait(timeout=60)
        return encode_chunks(t, config, mats, out)

    monkeypatch.setattr(nn, "layernorm_fwd", failing_in_caller)
    monkeypatch.setattr(cm, "_encode_chunks", worker_waits_for_the_caller)
    rng = np.random.default_rng(0)
    threads = threading.active_count()
    with pytest.raises(Boom):
        cm.forward(cm.init_params(DESK),
                   leaf_group(rng, 16, 64) + leaf_group(rng, 8, 64))
    # the worker finished the half it had started; the next never ran
    assert split_calls == [64]
    assert threading.active_count() == threads  # the worker was joined


def test_inference_peak_memory_is_bounded(split_calls):
    # a mixed batch of 2,000 inputs; whole-group encoding peaked at 22-26 MB,
    # chunks one group at a time at about 8 MB
    rng = np.random.default_rng(6)
    params = cm.init_params(cm.desk_config())
    inputs = [leaf_group(rng, int(rng.integers(1, 7)), 1)[0]
              for _ in range(2000)]
    tracemalloc.start()
    try:
        cm.forward(params, inputs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert split_calls  # the worker's half is traced too
    assert peak <= 12 * 2 ** 20


def test_one_usable_cpu_encodes_on_one_thread(split_calls, monkeypatch):
    monkeypatch.setattr(cm, "_usable_cpus", lambda: 1)
    cm.forward(cm.init_params(DESK),
               leaf_group(np.random.default_rng(0), 16, 64))
    assert split_calls == []


def overflowing_group():
    """A group above the floor whose first half, the worker's, overflows
    in the attention scores; the caller's half is finite throughout."""
    rng = np.random.default_rng(5)
    return leaf_group(rng, 8, 32, scale=1e300) + leaf_group(rng, 8, 32)


def test_split_worker_runs_under_the_callers_error_state(split_calls):
    params = cm.init_params(DESK)
    inputs = overflowing_group()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="ignore"):  # the worker warns unless it has it
            pred, _ = cm.forward(params, inputs)
            pred_c, _ = cm._forward(params, inputs, caches=[])
    assert pred.tobytes() == pred_c.tobytes()
    assert np.all(np.isfinite(pred[32:]))
    with pytest.raises(FloatingPointError):
        with np.errstate(over="raise"):
            cm.forward(params, inputs)
    assert split_calls == [64, 64]


def test_split_worker_exception_reaches_the_caller(split_calls, monkeypatch):
    caller = threading.get_ident()
    layernorm_fwd = nn.layernorm_fwd

    class Boom(Exception):
        pass

    def failing_in_worker(x, g, b):
        if threading.get_ident() != caller:
            raise Boom
        return layernorm_fwd(x, g, b)

    monkeypatch.setattr(nn, "layernorm_fwd", failing_in_worker)
    threads = threading.active_count()
    with pytest.raises(Boom):
        cm.forward(cm.init_params(DESK),
                   leaf_group(np.random.default_rng(0), 16, 64))
    assert split_calls == [64]
    assert threading.active_count() == threads  # the worker was joined


def test_concurrent_split_callers_get_their_own_results(split_calls):
    # four callers, each splitting its group: eight threads on the CPUs,
    # switching often, and every caller gets the bits of the serial pass
    params = cm.init_params(DESK)
    rng = np.random.default_rng(2)
    batches = [leaf_group(rng, 16, 40 + 8 * i) for i in range(4)]
    expected = [cm._forward(params, b, caches=[])[0].tobytes()
                for b in batches]
    results = [None] * len(batches)

    def caller(i):
        for _ in range(5):
            pred = cm.forward(params, batches[i])[0].tobytes()
            if results[i] is None or pred != expected[i]:
                results[i] = pred

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller, args=(i,))
                   for i in range(len(batches))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert results == expected
    assert len(split_calls) == 5 * len(batches)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_split_inference_works_after_fork(split_calls):
    params = cm.init_params(DESK)
    inputs = leaf_group(np.random.default_rng(0), 16, 64)
    pred, _ = cm.forward(params, inputs)
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: one more split pass, its bytes to the parent
        code = 1
        try:
            os.close(read_end)
            with os.fdopen(write_end, "wb") as out:
                out.write(cm.forward(params, inputs)[0].tobytes())
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as child_out:
        child_pred = child_out.read()  # until the child exits
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            pytest.fail("the forked child did not exit")
        time.sleep(0.01)
    assert done[1] == 0
    assert child_pred == pred.tobytes()
    assert split_calls == [64]


def test_config_validation():
    with pytest.raises(ValidationError):
        cm.CostModelConfig(d_model=10, n_heads=3).validate()
    with pytest.raises(ValidationError):
        cm.CostModelConfig(optimizer="lbfgs").validate()
    with pytest.raises(ValidationError, match="n_heads"):
        cm.CostModelConfig(n_heads=0).validate()  # not a ZeroDivisionError


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def test_loss_pretrain_examples():
    assert cm.loss_pretrain([2.0], [1.0], 1e-3) == pytest.approx(1.001)
    assert cm.loss_pretrain([1.5, 2.5], [1.5, 2.5], 1e-3) == 0.0
    assert cm.loss_pretrain([1.0, 3.0], [2.0, 2.0], 0.0) == pytest.approx(1.0)
    with pytest.raises(EmptyBatch):
        cm.loss_pretrain([], [], 1e-3)


def test_cmd_identical_sets_zero(rng):
    s = rng.normal(size=(10, 4))
    assert cm.cmd(s, s.copy(), 5) == 0.0


def test_cmd_hand_computed_example():
    s1 = np.array([[0.0], [1.0]])
    s2 = np.array([[0.5], [0.5]])
    assert cm.cmd(s1, s2, 5) == pytest.approx(0.3125, abs=1e-12)


def test_cmd_translation_invariance_exact(rng):
    # dyadic-grid data keeps every intermediate exactly representable
    s1 = rng.integers(-64, 65, size=(8, 3)).astype(np.float64) / 8.0
    s2 = rng.integers(-64, 65, size=(16, 3)).astype(np.float64) / 8.0
    shift = np.array([1.0, -2.0, 0.5])
    assert cm.cmd(s1 + shift, s2 + shift, 5) == cm.cmd(s1, s2, 5)


def test_cmd_symmetry_exact(rng):
    s1 = rng.normal(size=(9, 3))
    s2 = rng.normal(size=(14, 3))
    assert cm.cmd(s1, s2, 5) == cm.cmd(s2, s1, 5)


def test_cmd_matches_bruteforce(rng):
    for _ in range(50):
        ns, nt = int(rng.integers(2, 33)), int(rng.integers(2, 33))
        d = int(rng.integers(1, 4))
        zs = rng.normal(size=(ns, d))
        zt = rng.normal(loc=0.5, size=(nt, d))
        assert cm.cmd(zs, zt, 5) == pytest.approx(
            cmd_bruteforce(zs, zt, 5), abs=1e-9)


def test_cmd_empty_set():
    with pytest.raises(EmptySet):
        cm.cmd(np.empty((0, 2)), np.ones((3, 2)), 5)


def test_cmd_two_point_example():
    # unit support; only the even central moments differ: 1/4 + 1/16
    s1 = np.array([[0.0], [1.0]])
    s2 = np.array([[0.5], [0.5]])
    assert cm.cmd(s1, s2, 5) == pytest.approx(0.3125)
    same = np.array([[1.0], [2.0]])
    assert cm.cmd(same, same.copy(), 5) == 0.0


# ---------------------------------------------------------------------------
# Backward
# ---------------------------------------------------------------------------

def test_final_bias_gradient_closed_form(rng):
    params = cm.init_params(TINY)
    params.tensors["dec.out.W"][:] = 0.0
    params.tensors["dec.out.b"][:] = 0.0
    batch = rand_inputs(rng, 5)
    y = rng.uniform(1.0, 2.0, size=5)
    spec = cm.CostModelConfig(loss_mode="mse")
    _, grads, aux = cm.backward(params, batch, y, spec)
    # constant zero output: d/d b = (2/n) * sum(pred - y)
    expected = 2.0 / 5 * np.sum(aux["pred"] - y)
    assert grads["dec.out.b"][0] == pytest.approx(expected, rel=1e-12)


def test_duplicated_batch_same_gradients(rng):
    params = cm.init_params(TINY)
    batch = rand_inputs(rng, 4)
    y = rng.uniform(1.0, 3.0, size=4)
    spec = cm.CostModelConfig(loss_mode="hybrid", lambda_hybrid=1e-3)
    loss1, grads1, _ = cm.backward(params, batch, y, spec)
    loss2, grads2, _ = cm.backward(params, batch + batch,
                                   np.concatenate([y, y]), spec)
    assert loss2 == pytest.approx(loss1, rel=1e-12)
    for name in grads1:
        assert np.allclose(grads1[name], grads2[name], rtol=1e-9, atol=1e-12)
    # every call returns a fresh flat vector laid out like the parameters
    assert grads1.layout == params.tensors.layout
    assert not np.shares_memory(grads1.flat, grads2.flat)


@pytest.mark.parametrize("optimizer, weight_decay", [
    ("adam", 0.0), ("adam", 0.01), ("sgd", 0.0), ("sgd", 0.01)])
def test_reused_gradient_vector_matches_fresh_one(rng, optimizer,
                                                  weight_decay):
    # source buckets change from step to step, so leaf_embed tensors join
    # the live set late; the CMD target batches mix leaf counts
    config = replace(TINY, alpha_cmd=1.0, optimizer=optimizer,
                     weight_decay=weight_decay)
    params = cm.init_params(config)
    opt = (nn.Adam if optimizer == "adam" else nn.Sgd)(
        weight_decay=weight_decay)
    grads = params.tensors.zeros_like()
    for n_leaf in (1, 1, 3, 1, 2, 3, 2):
        batch = rand_inputs(rng, 4, (n_leaf, n_leaf + 1))
        target = rand_inputs(rng, 5)
        y = rng.uniform(1.0, 2.0, size=4)
        _, fresh, _ = cm.backward(params, batch, y, config,
                                  target_batch=target)
        _, reused, _ = cm.backward(params, batch, y, config,
                                   target_batch=target, grads=grads)
        assert reused is grads
        assert not np.shares_memory(fresh.flat, grads.flat)
        assert fresh.flat.tobytes() == grads.flat.tobytes()
        opt.step(params.tensors, grads, 0.01)
        opt.zero_grad(grads)
        assert grads.flat.tobytes() == bytes(grads.flat.nbytes)  # all +0.0


def test_params_are_views_into_one_vector():
    params = cm.init_params(TINY)
    flat = params.tensors.flat
    assert flat.size == params.n_params()
    for tensor in params.tensors.values():
        assert np.shares_memory(tensor, flat)
    params.tensors["dec.out.b"] = np.array([0.5])
    assert flat[-1] == 0.5  # dec.out.b is the last tensor
    twin = params.copy()
    assert not np.shares_memory(twin.tensors.flat, flat)
    twin.tensors["dec.out.b"] += 1.0
    assert flat[-1] == 0.5 and twin.tensors.flat[-1] == 1.5


def test_backward_length_mismatch(rng):
    params = cm.init_params(TINY)
    with pytest.raises(ValidationError):
        cm.backward(params, rand_inputs(rng, 3), np.ones(2), TINY)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def test_metrics_examples():
    zero = cm.metrics([1.0, 2.0], [1.0, 2.0])
    assert zero == {"mape": 0.0, "rmse": 0.0, "mspe": 0.0}
    one = cm.metrics([2.0], [1.0])
    assert one["mape"] == one["rmse"] == one["mspe"] == pytest.approx(1.0)
    m = cm.metrics([1.0, 4.0], [2.0, 2.0])
    assert m["mape"] == pytest.approx(0.75)
    assert m["rmse"] == pytest.approx(math.sqrt(2.5))
    assert m["mspe"] == pytest.approx((0.25 + 1.0) / 2)
    with pytest.raises(EmptyBatch):
        cm.metrics([], [])


# ---------------------------------------------------------------------------
# Training machinery
# ---------------------------------------------------------------------------

def _tiny_split_dataset(n=96, seed=0, sigma=0.0):
    ds = generate_synthetic(n, [DEFAULT_SYNTH_DEVICE],
                            SynthOracleConfig(noise_sigma=sigma), seed=seed)
    return split_dataset(ds, seed=seed)


def test_train_bitwise_deterministic():
    ds = _tiny_split_dataset()
    config = cm.desk_config(epochs=4, seed=11, d_model=16, d_ff=32,
                            d_embed=8, batch_size=16)
    a = cm.train(config, ds, DEVICES)
    b = cm.train(config, ds, DEVICES)
    assert [r.__dict__ for r in a.log] == [r.__dict__ for r in b.log]
    for name in a.params.tensors:
        assert np.array_equal(a.params.tensors[name], b.params.tensors[name])


def test_train_zero_epochs_returns_initial_params():
    ds = _tiny_split_dataset()
    config = cm.desk_config(epochs=0, seed=3)
    result = cm.train(config, ds, DEVICES)
    fresh = cm.init_params(config)
    assert result.log == []
    for name in fresh.tensors:
        assert np.array_equal(result.params.tensors[name],
                              fresh.tensors[name])


def test_lr_schedule_shapes():
    const = cm.desk_config(lr=1e-3, lr_schedule="constant")
    assert cm._lr_at(const, 0) == cm._lr_at(const, 57) == 1e-3
    cyc = cm.desk_config(lr=1e-3, lr_schedule="cyclic")
    assert cm._lr_at(cyc, 0) == pytest.approx(1e-4)
    assert cm._lr_at(cyc, 10) == pytest.approx(1e-3)
    assert cm._lr_at(cyc, 20) == pytest.approx(1e-4)
    assert cm._lr_at(cyc, 5) == pytest.approx((1e-4 + 1e-3) / 2)


def test_predict_inverts_normalizer(rng):
    ds = _tiny_split_dataset()
    norm = cm.fit_boxcox(ds.labels("train"))
    params = cm.init_params(cm.desk_config(d_model=16, d_ff=16, d_embed=8,
                                           n_layers=1))
    params.tensors["dec.out.W"][:] = 0.0
    params.tensors["dec.out.b"][:] = 0.0
    compact = ds.samples[0].compact
    # network output is exactly 0 in normalized space
    expected = float(norm.decode(0.0))
    got = cm.predict(params, compact, DEFAULT_SYNTH_DEVICE, norm)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got > 0
    again = cm.predict(params, compact, DEFAULT_SYNTH_DEVICE, norm)
    assert got == again


def test_finetune_alpha_zero_without_target_continues_training():
    ds = _tiny_split_dataset(n=128, seed=2)
    config = cm.desk_config(epochs=3, seed=2, d_model=16, d_ff=16, d_embed=8,
                            d_device=4, decoder_dims=(8,), batch_size=32)
    pre = cm.train(config, ds, DEVICES)
    tuned = cm.finetune(pre.params, ds, [], config, DEVICES, pre.normalizer)
    changed = any(not np.array_equal(tuned.params.tensors[k],
                                     pre.params.tensors[k])
                  for k in pre.params.tensors)
    assert changed
    with pytest.raises(cm.EmptyDataset):
        cm.finetune(pre.params, ds, [],
                    cm.desk_config(epochs=1, alpha_cmd=1.0), DEVICES,
                    pre.normalizer)


def test_finetune_on_identical_domain_does_not_regress():
    ds = generate_synthetic(400, [DEFAULT_SYNTH_DEVICE], SynthOracleConfig(),
                            seed=41)
    ds = split_dataset(ds, seed=4)
    devices = DEVICES
    pre = cm.train(cm.desk_config(epochs=60, seed=4), ds, devices)
    source_inputs = cm.encode_dataset(ds.subset("train"), devices)
    tuned = cm.finetune(pre.params, ds, source_inputs,
                        cm.desk_config(epochs=15, seed=4, lr=3e-4,
                                       alpha_cmd=1.0),
                        devices, pre.normalizer)
    # target features identical to source: validation MAPE stays within
    # 2 points of the pre-fine-tune value
    assert tuned.log[-1].val_mape <= pre.best_val_mape + 0.02


PIN_CONFIG = cm.desk_config(epochs=6, seed=5, d_model=16, d_ff=16, d_embed=8,
                           d_device=4, decoder_dims=(8,), batch_size=32)
PIN_TARGET = DeviceSpec(name="synth1", clock_mhz=1400.0, mem_gb=24.0,
                        bandwidth_gbps=1536.0, cores=24,
                        peak_fp32_gflops=4096.0, l2_cache_mb=6.0)
# Outputs of the separate train and finetune epoch loops this loop replaced:
# sha256 prefix of the parameter bytes, best_epoch, best_val_mape, log length
# and the last EpochLog (epoch, train_loss, val_mape, val_rmse, lr, cmd).
PINNED = {
    "train": ("ac1862ae7c271224", 4, "0x1.47479074f8bbep-1", 6,
              (5, "0x1.30b78ea24ceb8p-2", "0x1.841a96f807ddbp-1",
               "0x1.ca0eca67600a1p-13", "0x1.0624dd2f1a9fcp-10", "0x0.0p+0")),
    "train_e0": ("89180952d358cc8d", -1, "inf", 0, None),
    "finetune0": ("ee71760db0f25179", 2, "0x1.b570dda180a67p-1", 3,
                  (2, "0x1.1d12f401a471cp-2", "0x1.b570dda180a67p-1",
                   "0x1.72446177303dcp-13", "0x1.3a92a30553261p-12",
                   "0x0.0p+0")),
    "finetune1": ("463491c459a93a27", 2, "0x1.a285d3991de39p-1", 3,
                  (2, "0x1.d58cd4f110316p+0", "0x1.a285d3991de39p-1",
                   "0x1.a766fec0fa486p-13", "0x1.3a92a30553261p-12",
                   "0x1.84e0ab47a6052p+0")),
    "finetune_e0": ("ac1862ae7c271224", -1, "inf", 0, None),
}


@pytest.mark.parametrize("kind, overrides", [
    ("train", {"alpha_cmd": 0.0}),
    ("train", {"alpha_cmd": 1.0}),  # train has no target pool: no CMD term
    ("train_e0", {"epochs": 0}),
    ("finetune0", {"alpha_cmd": 0.0}),
    ("finetune1", {"alpha_cmd": 1.0}),
    ("finetune_e0", {"alpha_cmd": 1.0, "epochs": 0}),
])
def test_training_loop_pinned_bit_for_bit(kind, overrides):
    devices = {d.name: d for d in (DEFAULT_SYNTH_DEVICE, PIN_TARGET)}
    ds = split_dataset(generate_synthetic(128, [DEFAULT_SYNTH_DEVICE],
                                          SynthOracleConfig(), seed=5), seed=5)
    if kind.startswith("train"):
        result = cm.train(replace(PIN_CONFIG, **overrides), ds, devices)
    else:
        pre = cm.train(PIN_CONFIG, ds, devices)
        pool = generate_synthetic(48, [PIN_TARGET], SynthOracleConfig(), seed=6)
        config = replace(PIN_CONFIG, lr=3e-4, **{"epochs": 3, **overrides})
        result = cm.finetune(pre.params, ds,
                             cm.encode_dataset(pool.samples, devices), config,
                             devices, pre.normalizer)
    last = result.log[-1] if result.log else None
    got = (hashlib.sha256(result.params.tensors.flat.tobytes()).hexdigest()[:16],
           result.best_epoch, float(result.best_val_mape).hex(),
           len(result.log),
           None if last is None else (
               last.epoch, last.train_loss.hex(), last.val_mape.hex(),
               last.val_rmse.hex(), last.lr.hex(), last.cmd.hex()))
    assert got == PINNED[kind]


@pytest.mark.parametrize("alpha_cmd", [0.0, 1.0])
def test_diverging_run_reports_its_epoch(alpha_cmd):
    ds = _tiny_split_dataset(n=128, seed=2)
    config = cm.desk_config(optimizer="sgd", lr=1e3, epochs=5, seed=2,
                            d_model=16, d_ff=16, d_embed=8, d_device=4,
                            decoder_dims=(8,), batch_size=32)
    stable = cm.desk_config(epochs=1, seed=2, d_model=16, d_ff=16, d_embed=8,
                            d_device=4, decoder_dims=(8,), batch_size=32)
    with np.errstate(all="ignore"):
        with pytest.raises(NonFiniteLoss) as info:
            cm.train(config, ds, DEVICES)
        assert info.value.epoch >= 0
        pre = cm.train(stable, ds, DEVICES)
        targets = cm.encode_dataset(ds.subset("train"), DEVICES)
        with pytest.raises(NonFiniteLoss) as info:
            cm.finetune(pre.params, ds, targets,
                        replace(config, alpha_cmd=alpha_cmd), DEVICES,
                        pre.normalizer)
        assert info.value.epoch >= 0


def _one_batch_dataset():
    """Eight one-leaf training samples (one minibatch of 8) and eight
    validation samples."""
    ds = generate_synthetic(64, [DEFAULT_SYNTH_DEVICE], SynthOracleConfig(),
                            seed=3)
    train = [s for s in ds.samples if s.compact.n_leaf == 1][:8]
    valid = ds.samples[40:48]
    assert len(train) == 8 and not {s.id for s in train} & {s.id for s in valid}
    return Dataset(samples=train + valid,
                   splits={**{s.id: "train" for s in train},
                           **{s.id: "valid" for s in valid}})


@pytest.mark.parametrize("kind", ["train", "finetune"])
def test_step_to_non_finite_parameters_raises(kind):
    # the loss before the one step is finite; the step overflows
    ds = _one_batch_dataset()
    config = cm.desk_config(optimizer="sgd", lr=1e308, epochs=1, seed=1,
                            batch_size=8, d_model=16, d_ff=16, d_embed=8,
                            d_device=4, decoder_dims=(8,))
    with np.errstate(all="ignore"), pytest.raises(NonFiniteLoss) as info:
        if kind == "train":
            cm.train(config, ds, DEVICES)
        else:
            norm = cm.fit_boxcox(ds.labels("train"))
            cm.finetune(cm.init_params(config), ds, [], config, DEVICES, norm)
    assert info.value.epoch == 0


# ---------------------------------------------------------------------------
# Tuner
# ---------------------------------------------------------------------------

def test_tune_budget_one_and_determinism():
    ds = _tiny_split_dataset()
    space = {"d_model": [8, 16], "lr": ("loguniform", 1e-4, 1e-2),
             "n_layers": [1]}
    base = cm.desk_config(epochs=2, batch_size=16, d_ff=16, d_embed=8,
                          n_heads=2)
    best1, trials1 = cm.tune(space, 1, ds, DEVICES, seed=5, base=base)
    assert len(trials1) == 1 and best1 == trials1[0].config
    best2, trials2 = cm.tune(space, 3, ds, DEVICES, seed=5, base=base)
    best3, trials3 = cm.tune(space, 3, ds, DEVICES, seed=5, base=base)
    assert [t.config for t in trials2] == [t.config for t in trials3]
    assert min(t.val_mape for t in trials2) == \
        next(t.val_mape for t in trials2 if t.config == best2)


# ---------------------------------------------------------------------------
# Coverage diagnostic
# ---------------------------------------------------------------------------

def test_latent_epsilon_examples():
    z = np.array([[0.0], [1.0], [2.0]])
    assert sampling.latent_epsilon(z, z) == 0.0
    assert sampling.latent_epsilon(z, np.array([[0.0], [2.0]])) == 1.0
    with pytest.raises(EmptySelection):
        sampling.latent_epsilon(z, np.empty((0, 1)))


def test_latent_epsilon_monotone_in_selection(rng):
    z_all = rng.normal(size=(30, 4))
    chosen = [z_all[:3]]
    eps = [sampling.latent_epsilon(z_all, chosen[0])]
    for k in range(4, 12):
        bigger = z_all[:k]
        eps.append(sampling.latent_epsilon(z_all, bigger))
    assert all(b <= a + 1e-12 for a, b in zip(eps, eps[1:]))


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip(tmp_path):
    ds = _tiny_split_dataset()
    norm = cm.fit_boxcox(ds.labels("train"))
    params = cm.init_params(TINY)
    path = tmp_path / "model.npz"
    cm.save_checkpoint(path, params, norm)
    loaded, norm2 = cm.load_checkpoint(path)
    assert loaded.config == params.config
    assert norm2 == norm
    for name in params.tensors:
        assert np.array_equal(loaded.tensors[name], params.tensors[name])
    assert loaded.n_params() == params.n_params()
    assert loaded.tensors.layout == params.tensors.layout
    assert loaded.tensors.flat.tobytes() == params.tensors.flat.tobytes()
    for tensor in loaded.tensors.values():
        assert np.shares_memory(tensor, loaded.tensors.flat)


def test_checkpoint_checksum_detects_corruption(tmp_path):
    params = cm.init_params(TINY)
    path = tmp_path / "model.npz"
    cm.save_checkpoint(path, params, FITTED)
    blob = bytearray(path.read_bytes())
    for i in range(len(blob) // 4, 3 * len(blob) // 4, 97):
        blob[i] ^= 0xFF  # guaranteed to hit tensor payload somewhere
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        cm.load_checkpoint(path)


def test_checkpoint_with_mape_space_key_still_loads(tmp_path, rng):
    # checkpoints written while the config still had `mape_space` (it only
    # chose the training objective) load and predict the same values
    ds = _tiny_split_dataset()
    norm = cm.fit_boxcox(ds.labels("train"))
    params = cm.init_params(TINY)
    cm.save_checkpoint(tmp_path / "new.npz", params, norm)

    def old_layout(meta):
        meta["config"]["mape_space"] = "transformed"
        return meta

    rewrite_meta(tmp_path / "new.npz", tmp_path / "old.npz", old_layout)
    loaded, norm2 = cm.load_checkpoint(tmp_path / "old.npz")
    assert loaded.config == TINY and norm2 == norm
    inputs = rand_inputs(rng, 6)
    assert np.array_equal(cm.forward(loaded, inputs)[0],
                          cm.forward(params, inputs)[0])


@pytest.mark.parametrize("edit", [
    lambda m: {**m, "config": {**m["config"], "d_model": 16, "d_ff": 16}},
    lambda m: {**m, "config": {**m["config"], "n_leaf_max": 2}},
    lambda m: {**m, "config": {**m["config"], "decoder_dims": [6, 6]}},
    lambda m: {**m, "config": {**m["config"], "n_layers": 10 ** 12}},
    lambda m: {**m, "config": {**m["config"], "d_model": 8.0}},
    lambda m: {**m, "config": {**m["config"], "lr": "x"}},
    lambda m: {**m, "config": {**m["config"], "lr": 10 ** 400}},
    lambda m: {**m, "normalizer": {**m["normalizer"], "lambda_bc": "x"}},
    lambda m: {**m, "normalizer": {**m["normalizer"], "fitted": 1}},
    # the version is the JSON integer 1, and true == 1.0 == 1 in Python
    lambda m: {**m, "version": True},
    lambda m: {**m, "version": 1.0},
])
def test_checkpoint_meta_that_does_not_fit_is_rejected(tmp_path, edit):
    # the tensor checksum cannot see the metadata: a config that passes
    # validate() but does not describe the tensors, or a value of the wrong
    # type, must fail at load and not in the first forward pass
    ds = _tiny_split_dataset()
    cm.save_checkpoint(tmp_path / "ok.npz", cm.init_params(TINY),
                       cm.fit_boxcox(ds.labels("train")))
    rewrite_meta(tmp_path / "ok.npz", tmp_path / "bad.npz", edit)
    with pytest.raises(CheckpointError):
        cm.load_checkpoint(tmp_path / "bad.npz")


@pytest.mark.parametrize("field, value", [
    ("lambda_bc", math.nan), ("lambda_bc", math.inf), ("t_mean", math.nan),
    ("t_mean", -math.inf), ("loss_offset", math.nan), ("t_std", math.nan),
    ("t_std", math.inf), ("t_std", 0.0), ("t_std", -1.0), ("shift", math.nan),
    ("shift", math.inf), ("shift", -0.5),
])
def test_checkpoint_normalizer_out_of_range_is_rejected(tmp_path, field,
                                                        value):
    ds = _tiny_split_dataset()
    cm.save_checkpoint(tmp_path / "ok.npz", cm.init_params(TINY),
                       cm.fit_boxcox(ds.labels("train")))
    rewrite_meta(tmp_path / "ok.npz", tmp_path / "bad.npz",
                 lambda m: {**m, "normalizer": {**m["normalizer"],
                                                field: value}})
    with pytest.raises(CheckpointError, match=field):
        cm.load_checkpoint(tmp_path / "bad.npz")


def _checkpoint_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.npz")
        cm.save_checkpoint(path, cm.init_params(TINY), FITTED)
        with open(path, "rb") as f:
            return f.read()


CHECKPOINT = _checkpoint_bytes()
CENTRAL_DIR = CHECKPOINT.index(b"PK\x01\x02")  # the first member's entry


def _with_byte(blob: bytes, at: int, value: int) -> bytes:
    return blob[:at] + bytes([value]) + blob[at + 1:]


@settings(max_examples=150, deadline=None)
@given(blob=st.binary(max_size=64)
       | st.integers(0, len(CHECKPOINT)).map(lambda n: CHECKPOINT[:n])
       | st.builds(_with_byte, st.just(CHECKPOINT),
                   st.integers(0, len(CHECKPOINT) - 1), st.integers(0, 255)))
@example(blob=b"")
@example(blob=npy_bytes(np.linspace(0.0, 1.0, 5)))
@example(blob=b"dataset = runs/synth/dataset.jsonl\n")
@example(blob=CHECKPOINT[:30])
@example(blob=CHECKPOINT[:len(CHECKPOINT) // 2])
@example(blob=CHECKPOINT[:-1])
# zipfile raises EOFError for a first member whose local extra field runs
# past the end of the file, NotImplementedError for an unknown compression
# method and RuntimeError for a member flagged as encrypted
@example(blob=_with_byte(CHECKPOINT, 29, 0xFF))
@example(blob=_with_byte(CHECKPOINT, CENTRAL_DIR + 10, 0x7F))
@example(blob=_with_byte(CHECKPOINT, CENTRAL_DIR + 8, 0x01))
@example(blob=CHECKPOINT)
def test_any_bytes_load_or_raise_checkpoint_error(tmp_path_factory, blob):
    path = tmp_path_factory.getbasetemp() / "any_bytes.npz"
    path.write_bytes(blob)
    try:
        params, norm = cm.load_checkpoint(path)
    except CheckpointError:
        return
    assert isinstance(params, cm.CostModelParams)
    assert isinstance(norm, BoxCoxNormalizer)
