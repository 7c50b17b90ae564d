"""Flat optimizers against the per-tensor reference loops, bit for bit."""

import numpy as np
import pytest

from tpcost import nn


class RefAdam:
    """Per-tensor Adam: the textbook loop the flat optimizer must match."""

    def __init__(self, param_names, beta1=0.9, beta2=0.999, eps=1e-8,
                 weight_decay=0.0):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {name: None for name in param_names}
        self.v = {name: None for name in param_names}

    def step(self, params, grads, lr):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, p in params.items():
            g = grads[name]
            if self.weight_decay:
                g = g + self.weight_decay * p
            if self.m[name] is None:
                self.m[name] = np.zeros_like(p)
                self.v[name] = np.zeros_like(p)
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


class RefSgd:
    def __init__(self, param_names, weight_decay=0.0):
        self.weight_decay = weight_decay

    def step(self, params, grads, lr):
        for name, p in params.items():
            g = grads[name]
            if self.weight_decay:
                g = g + self.weight_decay * p
            p -= lr * g


# name -> (shape, first step with a gradient or None for never); dormant
# tensors sit at both ends and between live ones, so live slices merge and
# split as tensors join
SHAPES = {
    "dormant_head": ((3, 2), None),
    "dense": ((4, 5), 1),
    "late": ((6,), 9),
    "sparse": ((2, 3, 2), 1),
    "dormant_mid": ((7,), None),
    "intermittent": ((5, 2), 4),
    "dormant_tail": ((4,), None),
}
STEPS = 20


def _gradients(rng, step):
    grads = {}
    for name, (shape, first) in SHAPES.items():
        g = np.zeros(shape)
        if first is not None and step >= first:
            if name == "intermittent" and step % 3 == 0:
                pass  # live but idle on this step
            else:
                g = rng.normal(size=shape)
                if name == "sparse":
                    g *= rng.random(shape) < 0.3
        grads[name] = g
    return grads


@pytest.mark.parametrize("kind", ["adam", "sgd"])
@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_flat_optimizer_matches_reference(kind, weight_decay):
    rng = np.random.default_rng(7)
    init = {name: rng.normal(size=shape) for name, (shape, _) in SHAPES.items()}
    ref_params = {name: arr.copy() for name, arr in init.items()}
    params = nn.FlatTensors.pack(init)
    if kind == "adam":
        ref = RefAdam(SHAPES, weight_decay=weight_decay)
        opt = nn.Adam(weight_decay=weight_decay)
    else:
        ref = RefSgd(SHAPES, weight_decay=weight_decay)
        opt = nn.Sgd(weight_decay=weight_decay)
    dormant = [n for n, (_, first) in SHAPES.items() if first is None]
    before = {name: params[name].tobytes() for name in dormant}
    for step in range(1, STEPS + 1):
        grads = _gradients(rng, step)
        lr = 1e-2 * (1.0 + 0.5 * np.sin(step))
        ref.step(ref_params, grads, lr)
        opt.step(params, nn.FlatTensors.pack(grads), lr)
        for name in SHAPES:
            assert np.array_equal(params[name], ref_params[name]), (step, name)
        if not weight_decay:
            for name in dormant:
                assert params[name].tobytes() == before[name]
    if weight_decay:  # decay moves every tensor, dormant ones included
        assert all(params[n].tobytes() != before[n] for n in dormant)
    if kind == "adam":
        for name, start, stop, shape in params.layout:
            for ref_state, flat_state in ((ref.m, opt.m), (ref.v, opt.v)):
                assert np.array_equal(flat_state[start:stop].reshape(shape),
                                      ref_state[name])


def test_live_slices_merge_and_split():
    live = nn._LiveSet(all_live=False)
    init = {name: np.zeros(shape) for name, (shape, _) in SHAPES.items()}
    grads = nn.FlatTensors.pack(init)
    assert live.update(grads) == []
    grads["late"][0] = 1.0
    grads["intermittent"][1, 1] = -2.0
    layout = {name: (start, stop) for name, start, stop, _ in grads.layout}
    assert live.update(grads) == [
        slice(*layout["late"]), slice(*layout["intermittent"])]
    grads.flat[:] = 0.0  # live tensors stay live without a gradient
    grads["sparse"][0, 0, 1] = 3.0
    assert live.update(grads) == [
        slice(layout["late"][0], layout["sparse"][1]),
        slice(*layout["intermittent"])]
    assert live.width == layout["sparse"][1] - layout["late"][0]


def test_flat_tensors_views_and_assignment():
    tensors = nn.FlatTensors.pack({"w": np.arange(6.0).reshape(2, 3),
                                   "b": np.ones(3)})
    assert list(tensors) == ["w", "b"]
    assert tensors.flat.tolist() == [0, 1, 2, 3, 4, 5, 1, 1, 1]
    for arr in tensors.values():
        assert np.shares_memory(arr, tensors.flat)

    tensors["b"] = np.array([7.0, 8.0, 9.0])
    tensors["w"] += 1.0
    assert tensors.flat.tolist() == [1, 2, 3, 4, 5, 6, 7, 8, 9]
    with pytest.raises(ValueError):
        tensors["b"] = np.zeros(4)
    with pytest.raises(KeyError):
        tensors["new"] = np.zeros(3)
    assert np.shares_memory(tensors["b"], tensors.flat)

    twin = tensors.copy()
    assert not np.shares_memory(twin.flat, tensors.flat)
    assert twin.flat.tobytes() == tensors.flat.tobytes()
    assert twin.layout == tensors.layout

    zeros = tensors.zeros_like()
    assert not zeros.flat.any() and zeros.layout is tensors.layout


def test_optimizer_rejects_other_layout():
    opt = nn.Adam()
    params = nn.FlatTensors.pack({"w": np.ones(3)})
    opt.step(params, params.zeros_like(), 0.1)
    other = nn.FlatTensors.pack({"w": np.ones(2), "b": np.ones(1)})
    with pytest.raises(ValueError):
        opt.step(other, other.zeros_like(), 0.1)
