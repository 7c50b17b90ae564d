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
"""

from __future__ import annotations

import math
from collections.abc import Mapping

import numpy as np


def xavier_uniform(rng: np.random.Generator, fan_in: int,
                   fan_out: int) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------

def linear_fwd(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    return x @ w + b, x


def linear_bwd(dy: np.ndarray, x: np.ndarray, w: np.ndarray):
    x2 = x.reshape(-1, x.shape[-1])
    dy2 = dy.reshape(-1, dy.shape[-1])
    dw = x2.T @ dy2
    db = dy2.sum(axis=0)
    dx = dy @ w.T
    return dx, dw, db


def relu_fwd(x: np.ndarray):
    mask = x > 0
    return x * mask, mask


def relu_bwd(dy: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return dy * mask


def layernorm_fwd(x: np.ndarray, g: np.ndarray, b: np.ndarray,
                  eps: float = 1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    return g * xhat + b, (xhat, inv)


def layernorm_bwd(dy: np.ndarray, cache, g: np.ndarray):
    xhat, inv = cache
    dxhat = dy * g
    mean_dxhat = dxhat.mean(axis=-1, keepdims=True)
    mean_dxhat_xhat = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = inv * (dxhat - mean_dxhat - xhat * mean_dxhat_xhat)
    axes = tuple(range(dy.ndim - 1))
    dg = (dy * xhat).sum(axis=axes)
    db = dy.sum(axis=axes)
    return dx, dg, db


def softmax_fwd(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_bwd(dy: np.ndarray, y: np.ndarray) -> np.ndarray:
    return y * (dy - (dy * y).sum(axis=-1, keepdims=True))


def attention_fwd(x: np.ndarray, wq, bq, wk, bk, wv, bv, wo, bo,
                  n_heads: int):
    """Multi-head self-attention over x of shape (B, L, D)."""
    bsz, length, dim = x.shape
    dh = dim // n_heads
    scale = 1.0 / math.sqrt(dh)

    def split(t):  # (B, L, D) -> (B, H, L, dh)
        return t.reshape(bsz, length, n_heads, dh).transpose(0, 2, 1, 3)

    q, k, v = split(x @ wq + bq), split(x @ wk + bk), split(x @ wv + bv)
    scores = (q @ k.transpose(0, 1, 3, 2)) * scale  # (B, H, L, L)
    attn = softmax_fwd(scores)
    ctx = attn @ v  # (B, H, L, dh)
    merged = ctx.transpose(0, 2, 1, 3).reshape(bsz, length, dim)
    out = merged @ wo + bo
    cache = (x, q, k, v, attn, merged, scale)
    return out, cache


def attention_bwd(dy: np.ndarray, cache, wq, wk, wv, wo, n_heads: int):
    x, q, k, v, attn, merged, scale = cache
    bsz, length, dim = x.shape
    dh = dim // n_heads

    dmerged, dwo, dbo = linear_bwd(dy, merged, wo)
    dctx = dmerged.reshape(bsz, length, n_heads, dh).transpose(0, 2, 1, 3)
    dattn = dctx @ v.transpose(0, 1, 3, 2)
    dv = attn.transpose(0, 1, 3, 2) @ dctx
    dscores = softmax_bwd(dattn, attn) * scale
    dq = dscores @ k
    dk = dscores.transpose(0, 1, 3, 2) @ q

    def merge(t):  # (B, H, L, dh) -> (B, L, D)
        return t.transpose(0, 2, 1, 3).reshape(bsz, length, dim)

    dxq, dwq, dbq = linear_bwd(merge(dq), x, wq)
    dxk, dwk, dbk = linear_bwd(merge(dk), x, wk)
    dxv, dwv, dbv = linear_bwd(merge(dv), x, wv)
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
    KeyError, so no tensor can become detached from the vector."""

    def __init__(self, layout: tuple, flat: np.ndarray | None = None):
        self.layout = layout
        size = layout[-1][2] if layout else 0
        self.flat = np.zeros(size) if flat is None else flat
        self._views = {name: self.flat[start:stop].reshape(shape)
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
            out._views[name][...] = arr
        return out

    def zeros_like(self) -> "FlatTensors":
        return FlatTensors(self.layout)

    def copy(self) -> "FlatTensors":
        return FlatTensors(self.layout, self.flat.copy())

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def __setitem__(self, name: str, value) -> None:
        view = self._views[name]
        if value is view:  # `tensors[name] += x` already wrote in place
            return
        if np.shape(value) != view.shape:
            raise ValueError(f"tensor '{name}' has shape {view.shape}, "
                             f"got {np.shape(value)}")
        view[...] = value

    def __iter__(self):
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)


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


class Adam:
    """Adam over flat vectors. Only live tensors are updated: a dormant
    tensor has m = v = 0 and g = 0, so its update p - lr*0/(0+eps) is
    exactly p. The per-element operation order is that of the textbook
    per-tensor loop, so results are bit-identical to it."""

    def __init__(self, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 0.0):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None
        self._live = _LiveSet(all_live=weight_decay > 0)
        self._a = self._b = np.empty(0)

    def step(self, params: FlatTensors, grads: FlatTensors,
             lr: float) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
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
            m *= self.beta1
            m += np.multiply(g, 1.0 - self.beta1, out=b)
            v *= self.beta2
            np.multiply(g, 1.0 - self.beta2, out=b)
            v += np.multiply(b, g, out=b)
            # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
            np.sqrt(np.divide(v, bc2, out=a), out=a)
            a += self.eps
            np.divide(m, bc1, out=b)
            b *= lr
            b /= a
            p -= b


class Sgd:
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
