"""Minimal float64 neural-net primitives with hand-written backward passes.

Every *_fwd returns (output, cache); the matching *_bwd consumes the cache
and the upstream gradient. Shapes use the convention (..., features) with
reductions over all leading axes. Everything is pure numpy so training is
bitwise deterministic for a fixed seed.

Parameters and gradients live in `FlatTensors`: one contiguous float64
vector per set, with a named view per tensor. The optimizers update those
vectors in place with whole-slice numpy operations into preallocated
scratch buffers. They skip dormant tensors: a tensor whose gradient has been
all zero on every step so far, with weight decay 0, keeps its exact bytes,
because its optimizer state is still zero and its update subtracts 0.0. A
tensor becomes live at its first nonzero gradient and stays live; with
weight decay > 0 every tensor is live from the first step.

A training loop keeps one gradient vector: the backward pass accumulates
into it, the optimizer steps with it, and `zero_grad` then clears only the
live spans, the only places a gradient can be nonzero. The vector is all
zero again, bit for bit as a fresh one, without a 2.8 MB allocation per
step at the desk-scale config.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

import numpy as np

_LAYERNORM_EPS = 1e-5
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


def xavier_uniform(rng: np.random.Generator, fan_in: int,
                   fan_out: int) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------

def linear_fwd(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    return x @ w + b, x


def linear_param_grads(dy: np.ndarray, x: np.ndarray):
    """The weight and bias gradients of `linear_fwd`, for a layer whose
    input gradient nobody reads."""
    x2 = x.reshape(-1, x.shape[-1])
    dy2 = dy.reshape(-1, dy.shape[-1])
    return x2.T @ dy2, dy2.sum(axis=0)


def linear_bwd(dy: np.ndarray, x: np.ndarray, w: np.ndarray):
    dw, db = linear_param_grads(dy, x)
    return dy @ w.T, dw, db


def relu_fwd(x: np.ndarray):
    mask = x > 0
    return x * mask, mask


def relu_bwd(dy: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return dy * mask


def layernorm_fwd(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    # x.mean and x.var in one pass over x - mu: the same reductions in the
    # same order, so bit-identical, without numpy's Python-level wrappers
    n = x.shape[-1]
    d = x - np.add.reduce(x, -1, keepdims=True) / n
    var = np.add.reduce(d * d, -1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + _LAYERNORM_EPS)
    xhat = np.multiply(d, inv, out=d)  # in place: one array fewer at peak
    return g * xhat + b, (xhat, inv)


def layernorm_bwd(dy: np.ndarray, cache, g: np.ndarray):
    xhat, inv = cache
    n = xhat.shape[-1]
    dxhat = dy * g
    mean_dxhat = np.add.reduce(dxhat, -1, keepdims=True) / n
    mean_dxhat_xhat = np.add.reduce(dxhat * xhat, -1, keepdims=True) / n
    dx = inv * (dxhat - mean_dxhat - xhat * mean_dxhat_xhat)
    axes = tuple(range(dy.ndim - 1))
    dg = np.add.reduce(dy * xhat, axes)
    db = np.add.reduce(dy, axes)
    return dx, dg, db


def softmax_fwd(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_bwd(dy: np.ndarray, y: np.ndarray) -> np.ndarray:
    return y * (dy - (dy * y).sum(axis=-1, keepdims=True))


def _heads(t: np.ndarray, n_heads: int) -> np.ndarray:
    """(B, L, D) -> a (B, H, L, dh) view of the same memory."""
    bsz, length, dim = t.shape
    return t.reshape(bsz, length, n_heads, dim // n_heads).transpose(0, 2, 1, 3)


def attention_fwd(x: np.ndarray, wq, bq, wk, bk, wv, bv, wo, bo,
                  n_heads: int):
    """Multi-head self-attention over x of shape (B, L, D)."""
    scale = 1.0 / math.sqrt(x.shape[-1] // n_heads)
    q = _heads(x @ wq + bq, n_heads)
    k = _heads(x @ wk + bk, n_heads)
    v = _heads(x @ wv + bv, n_heads)
    scores = (q @ k.transpose(0, 1, 3, 2)) * scale  # (B, H, L, L)
    attn = softmax_fwd(scores)
    merged = np.empty(x.shape)  # attn @ v, each head into its columns
    np.matmul(attn, v, out=_heads(merged, n_heads))
    out = merged @ wo + bo
    cache = (x, q, k, v, attn, merged, scale)
    return out, cache


def attention_bwd(dy: np.ndarray, cache, wq, wk, wv, wo, n_heads: int):
    x, q, k, v, attn, merged, scale = cache
    dmerged, dwo, dbo = linear_bwd(dy, merged, wo)
    dctx = _heads(dmerged, n_heads)
    dattn = dctx @ v.transpose(0, 1, 3, 2)
    dscores = softmax_bwd(dattn, attn) * scale
    # dq, dk and dv written per head straight into (B, L, D) arrays
    dq, dk, dv = np.empty(x.shape), np.empty(x.shape), np.empty(x.shape)
    np.matmul(attn.transpose(0, 1, 3, 2), dctx, out=_heads(dv, n_heads))
    np.matmul(dscores, k, out=_heads(dq, n_heads))
    np.matmul(dscores.transpose(0, 1, 3, 2), q, out=_heads(dk, n_heads))
    dxq, dwq, dbq = linear_bwd(dq, x, wq)
    dxk, dwk, dbk = linear_bwd(dk, x, wk)
    dxv, dwv, dbv = linear_bwd(dv, x, wv)
    dx = dxq + dxk + dxv
    return dx, {"Wq": dwq, "bq": dbq, "Wk": dwk, "bk": dbk,
                "Wv": dwv, "bv": dbv, "Wo": dwo, "bo": dbo}


# ---------------------------------------------------------------------------
# Flat parameter storage
# ---------------------------------------------------------------------------

class FlatTensors(Mapping):
    """Named float64 tensors stored as views into one contiguous vector.

    `flat` holds every tensor back to back in `layout` order; `layout` is a
    tuple of (name, start, stop, shape). Reading a name returns a view, so an
    in-place write lands in `flat`. Assigning a name copies the value into
    its view; a value of another shape raises, and unknown names raise
    KeyError, so no tensor can become detached from the vector. Hot loops
    read the plain dict `views` to skip the Python-level lookup; they write
    into a view in place and never rebind a name in it."""

    def __init__(self, layout: tuple, flat: np.ndarray | None = None):
        self.layout = layout
        size = layout[-1][2] if layout else 0
        self.flat = np.zeros(size) if flat is None else flat
        self.views = {name: self.flat[start:stop].reshape(shape)
                      for name, start, stop, shape in layout}

    @classmethod
    def pack(cls, tensors: Mapping[str, np.ndarray]) -> "FlatTensors":
        """Copy a name -> array mapping into a new vector, in its order."""
        layout = []
        start = 0
        for name, arr in tensors.items():
            shape = np.shape(arr)
            stop = start + math.prod(shape)
            layout.append((name, start, stop, shape))
            start = stop
        out = cls(tuple(layout))
        for name, arr in tensors.items():
            out.views[name][...] = arr
        return out

    def zeros_like(self) -> "FlatTensors":
        return FlatTensors(self.layout)

    def copy(self) -> "FlatTensors":
        return FlatTensors(self.layout, self.flat.copy())

    def __getitem__(self, name: str) -> np.ndarray:
        return self.views[name]

    def __setitem__(self, name: str, value) -> None:
        view = self.views[name]
        if value is view:  # `tensors[name] += x` already wrote in place
            return
        if np.shape(value) != view.shape:
            raise ValueError(f"tensor '{name}' has shape {view.shape}, "
                             f"got {np.shape(value)}")
        view[...] = value

    def __iter__(self):
        return iter(self.views)

    def __len__(self) -> int:
        return len(self.views)


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------

class _LiveSet:
    """The tensors an optimizer updates: monotone, kept as merged slices of
    the flat vector. A tensor joins at its first nonzero gradient; with
    weight decay every tensor is live from the first step."""

    def __init__(self, all_live: bool):
        self.all_live = all_live
        self.layout: tuple | None = None
        self.live: list[bool] = []
        self.spans: list[slice] = []  # merged live runs
        self.dormant: list[tuple[slice, int, int]] = []  # (run, first, end)
        self.width = 0  # longest live span, the scratch size needed

    def update(self, grads: FlatTensors) -> list[slice]:
        """Admit the dormant tensors whose gradient is nonzero; returns the
        live spans."""
        if self.layout is None:
            self.layout = grads.layout
            self.live = [self.all_live] * len(grads.layout)
            self._merge()
        elif grads.layout is not self.layout and grads.layout != self.layout:
            raise ValueError("gradient layout differs from the first step's")
        joined = False
        for run, first, end in self.dormant:
            if not grads.flat[run].any():
                continue
            for i in range(first, end):
                _, start, stop, _ = self.layout[i]
                if grads.flat[start:stop].any():
                    self.live[i] = True
                    joined = True
        if joined:
            self._merge()
        return self.spans

    def _merge(self) -> None:
        self.spans, self.dormant = [], []
        first = 0
        for i in range(1, len(self.live) + 1):
            if i < len(self.live) and self.live[i] == self.live[first]:
                continue
            run = slice(self.layout[first][1], self.layout[i - 1][2])
            if self.live[first]:
                self.spans.append(run)
            else:
                self.dormant.append((run, first, i))
            first = i
        self.width = max((s.stop - s.start for s in self.spans), default=0)


def _scratch(buf: np.ndarray, width: int) -> np.ndarray:
    return buf if buf.size >= width else np.empty(width)


class _Optimizer:
    """What Adam and Sgd share: the live set each keeps in `_live`."""

    _live: _LiveSet

    def zero_grad(self, grads: FlatTensors) -> None:
        """Re-zero `grads` after a step with them, for the next backward
        pass to accumulate into. Only the live spans are cleared: a tensor
        with any nonzero gradient joined them in that step."""
        for span in self._live.spans:
            grads.flat[span] = 0.0


class Adam(_Optimizer):
    """Adam over flat vectors. Only live tensors are updated: a dormant
    tensor has m = v = 0 and g = 0, so its update p - lr*0/(0+eps) is
    exactly p. The per-element operation order is that of the textbook
    per-tensor loop, so results are bit-identical to it."""

    def __init__(self, weight_decay: float = 0.0):
        self.weight_decay = weight_decay
        self.t = 0
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None
        self._live = _LiveSet(all_live=weight_decay > 0)
        self._a = self._b = np.empty(0)

    def step(self, params: FlatTensors, grads: FlatTensors,
             lr: float) -> None:
        self.t += 1
        bc1 = 1.0 - _ADAM_BETA1 ** self.t
        bc2 = 1.0 - _ADAM_BETA2 ** self.t
        if self.m is None:
            self.m = np.zeros_like(params.flat)
            self.v = np.zeros_like(params.flat)
        spans = self._live.update(grads)
        self._a = _scratch(self._a, self._live.width)
        self._b = _scratch(self._b, self._live.width)
        for span in spans:
            p, g = params.flat[span], grads.flat[span]
            m, v = self.m[span], self.v[span]
            a, b = self._a[:p.size], self._b[:p.size]
            if self.weight_decay:
                g = np.add(g, np.multiply(p, self.weight_decay, out=a), out=a)
            m *= _ADAM_BETA1
            m += np.multiply(g, 1.0 - _ADAM_BETA1, out=b)
            v *= _ADAM_BETA2
            np.multiply(g, 1.0 - _ADAM_BETA2, out=b)
            v += np.multiply(b, g, out=b)
            # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
            np.sqrt(np.divide(v, bc2, out=a), out=a)
            a += _ADAM_EPS
            np.divide(m, bc1, out=b)
            b *= lr
            b /= a
            p -= b


class Sgd(_Optimizer):
    """Plain SGD over flat vectors, skipping dormant tensors like Adam (a
    zero gradient without weight decay leaves p exactly as it is)."""

    def __init__(self, weight_decay: float = 0.0):
        self.weight_decay = weight_decay
        self._live = _LiveSet(all_live=weight_decay > 0)
        self._b = np.empty(0)

    def step(self, params: FlatTensors, grads: FlatTensors,
             lr: float) -> None:
        spans = self._live.update(grads)
        self._b = _scratch(self._b, self._live.width)
        for span in spans:
            p, g = params.flat[span], grads.flat[span]
            b = self._b[:p.size]
            if self.weight_decay:
                g = np.add(g, np.multiply(p, self.weight_decay, out=b), out=b)
            p -= np.multiply(g, lr, out=b)
