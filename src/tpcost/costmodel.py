"""Latency predictor: transformer encoder over encoded compact ASTs with
leaf-count-routed embedding layers, a device-feature MLP, and an MLP decoder.

The network is trained with a hybrid objective (MSE plus a scaled relative
error) and fine-tuned across domains with a central-moment-discrepancy
regularizer on the latent representations. All gradients are hand-derived
and checked against finite differences in the test suite.
"""

from __future__ import annotations

import contextvars
import functools
import hashlib
import io
import itertools
import json
import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import nn
from .dataset import BoxCoxNormalizer, Dataset, fit_boxcox
from .errors import (CheckpointError, DimensionMismatch, EmptyBatch,
                     EmptyDataset, EmptySet,
                     LeafCountExceeded, NonFiniteLoss, ValidationError,
                     json_bool, json_int, json_list, json_number, json_str)
from .features import (DEVICE_FEATURES, N_ENTRY, CompactAst, DeviceSpec,
                       EncodedInput, encode_input)
from .ir import MAX_LEAVES_DEFAULT

_CMD_SUPPORT_FLOOR = 1e-6


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CostModelConfig:
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 2
    d_ff: int = 128
    d_embed: int = 32
    d_device: int = 16
    decoder_dims: tuple[int, ...] = (64, 64)
    n_leaf_max: int = MAX_LEAVES_DEFAULT
    lambda_hybrid: float = 1e-3
    alpha_cmd: float = 0.0
    cmd_order: int = 5
    lr: float = 1e-3
    weight_decay: float = 0.0
    optimizer: str = "adam"  # adam | sgd
    lr_schedule: str = "constant"  # constant | cyclic
    batch_size: int = 64
    epochs: int = 300
    seed: int = 0
    loss_mode: str = "hybrid"  # hybrid | mse | mape

    def validate(self) -> None:
        for attr in ("d_model", "n_layers", "n_heads", "d_ff", "d_embed",
                     "d_device", "n_leaf_max", "batch_size"):
            if getattr(self, attr) < 1:
                raise ValidationError(f"{attr} must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ValidationError("d_model must be divisible by n_heads")
        if self.epochs < 0:
            raise ValidationError("epochs must be >= 0")
        if any(w < 1 for w in self.decoder_dims):
            raise ValidationError("decoder widths must be >= 1")
        if not (0.0 < self.lr < math.inf):
            raise ValidationError("lr must be finite and > 0")
        for attr in ("lambda_hybrid", "alpha_cmd", "weight_decay"):
            if not (0.0 <= getattr(self, attr) < math.inf):
                raise ValidationError(f"{attr} must be finite and >= 0")
        if self.cmd_order < 1:
            raise ValidationError("cmd_order must be >= 1")
        if self.optimizer not in ("adam", "sgd"):
            raise ValidationError(f"unknown optimizer '{self.optimizer}'")
        if self.lr_schedule not in ("constant", "cyclic"):
            raise ValidationError(f"unknown lr_schedule '{self.lr_schedule}'")
        if self.loss_mode not in ("hybrid", "mse", "mape"):
            raise ValidationError(f"unknown loss_mode '{self.loss_mode}'")


def desk_config(**overrides) -> CostModelConfig:
    """Default desk-scale configuration; small enough to train in minutes."""
    return replace(CostModelConfig(), **overrides)


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

@dataclass
class CostModelParams:
    """Config plus named tensors, all stored in one flat vector; a plain
    name -> array mapping is copied into one."""

    config: CostModelConfig
    tensors: nn.FlatTensors

    def __post_init__(self) -> None:
        if not isinstance(self.tensors, nn.FlatTensors):
            self.tensors = nn.FlatTensors.pack(self.tensors)

    def n_params(self) -> int:
        return self.tensors.flat.size

    def copy(self) -> "CostModelParams":
        return CostModelParams(self.config, self.tensors.copy())


def _tensor_shapes(config: CostModelConfig):
    """Yields (name, shape) of every parameter tensor, in creation order."""
    def lin(name: str, fan_in: int, fan_out: int):
        yield f"{name}.W", (fan_in, fan_out)
        yield f"{name}.b", (fan_out,)

    d = config.d_model
    yield from lin("input", N_ENTRY, d)
    for i in range(config.n_layers):
        pre = f"enc{i}"
        yield from ((f"{pre}.attn.W{p}", (d, d)) for p in "qkvo")
        yield from ((f"{pre}.attn.b{p}", (d,)) for p in "qkvo")
        yield f"{pre}.ln1.g", (d,)
        yield f"{pre}.ln1.b", (d,)
        yield from lin(f"{pre}.ffn.h", d, config.d_ff)
        yield from lin(f"{pre}.ffn.o", config.d_ff, d)
        yield f"{pre}.ln2.g", (d,)
        yield f"{pre}.ln2.b", (d,)
    for n_leaf in range(1, config.n_leaf_max + 1):
        yield from lin(f"leaf_embed.{n_leaf}", n_leaf * d, config.d_embed)
    yield from lin("dev.hidden", DEVICE_FEATURES, config.d_device)
    yield from lin("dev.proj", config.d_device, config.d_embed)
    width = config.d_embed
    for i, hidden in enumerate(config.decoder_dims):
        yield from lin(f"dec.{i}", width, hidden)
        width = hidden
    yield from lin("dec.out", width, 1)


def init_params(config: CostModelConfig) -> CostModelParams:
    """Seeded fan-based uniform init of the weight matrices, drawn in
    creation order so init is reproducible; layer-norm gains 1, biases 0."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    t: dict[str, np.ndarray] = {}
    for name, shape in _tensor_shapes(config):
        kind = name.rsplit(".", 1)[1]
        if kind.startswith("W"):
            t[name] = nn.xavier_uniform(rng, *shape)
        else:
            t[name] = np.ones(shape) if kind == "g" else np.zeros(shape)
    return CostModelParams(config=config, tensors=t)


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

@dataclass
class LatentBatch:
    z_x: np.ndarray  # (batch, d_embed) device-independent embedding
    z: np.ndarray  # (batch, d_embed) aggregated embedding


@dataclass
class _GroupCache:
    indices: list[int]
    x: np.ndarray
    v: np.ndarray
    layers: list[tuple]
    flat: np.ndarray
    z_x: np.ndarray
    dev_mask: np.ndarray
    z_v: np.ndarray
    zp: np.ndarray
    dec: list[tuple[np.ndarray, np.ndarray]]
    u_last: np.ndarray

    @property
    def n_leaf(self) -> int:
        return self.x.shape[1]


# attention_fwd's parameter order, and attention_bwd's gradient keys
_ATTN = ("Wq", "bq", "Wk", "bk", "Wv", "bv", "Wo", "bo")
_NORM = ("g", "b")


@functools.cache
def _layer(prefix: str, parts: tuple[str, ...] = ("W", "b")):
    """Reads the tensors `prefix.part` of one layer from a name -> view dict
    in one call. Cached per layer, so a pass builds no tensor names."""
    return operator.itemgetter(*(f"{prefix}.{part}" for part in parts))


def _encode(t: dict[str, np.ndarray], config: CostModelConfig,
            x: np.ndarray, layer_caches: list[tuple] | None = None
            ) -> np.ndarray:
    """The encoder stack over x of shape (B, L, N_ENTRY): the input
    projection, then each layer's attention, layer norms and FFN. Returns
    (B, L, d_model). Every operation is per sample (a stacked
    `(B, L, D) @ W` is one BLAS call per sample; layer norm, softmax and
    ReLU work row by row), so encoding part of a batch gives that part's
    rows bit for bit. Each layer's activations are appended to
    `layer_caches` when it is a list."""
    h, _ = nn.linear_fwd(x, *_layer("input")(t))
    for i in range(config.n_layers):
        pre = f"enc{i}"
        attn_out, c_attn = nn.attention_fwd(
            h, *_layer(f"{pre}.attn", _ATTN)(t), config.n_heads)
        r1 = h + attn_out
        h1, c_ln1 = nn.layernorm_fwd(r1, *_layer(f"{pre}.ln1", _NORM)(t))
        f_pre, _ = nn.linear_fwd(h1, *_layer(f"{pre}.ffn.h")(t))
        f_act, ffn_mask = nn.relu_fwd(f_pre)
        f_out, _ = nn.linear_fwd(f_act, *_layer(f"{pre}.ffn.o")(t))
        r2 = h1 + f_out
        h, c_ln2 = nn.layernorm_fwd(r2, *_layer(f"{pre}.ln2", _NORM)(t))
        if layer_caches is not None:
            layer_caches.append((c_attn, c_ln1, h1, ffn_mask, f_act, c_ln2))
    return h


# Leaf rows (samples x leaves) from which an inference pass encodes a group
# on two threads. Measured on 2 CPUs at the desk config, leaf counts 4, 8
# and 16, with a thread started for each group (since replaced by one worker
# per call): the split ran at 0.3-1.0x the serial speed up to 192 rows, where
# starting the thread and sharing the interpreter lock cost more than the
# second CPU gains, 0.9-1.2x at 256 rows and 1.15-2.2x from 384 rows up
# (1.4-2.2x at 512).
_SPLIT_ROWS = 512

# Leaf rows per `_encode` call of an inference pass over a larger group: on
# 2 CPUs at the desk config 128 rows ran at 0.84-1.01x the whole-group time,
# 256 at 0.72-0.84x, and 512 at 0.78-0.85x, its temporaries mapped afresh.
_CHUNK_ROWS = 256


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _encode_chunks(t: dict[str, np.ndarray], config: CostModelConfig,
                   mats: list[np.ndarray], out: np.ndarray) -> None:
    """`_encode` of the leaf matrices `mats` into `out`, stacked at most
    _CHUNK_ROWS leaf rows per call, with the bits of one call."""
    step = max(1, _CHUNK_ROWS // out.shape[1])
    for s in range(0, len(mats), step):
        out[s:s + step] = _encode(t, config, np.stack(mats[s:s + step]))


def _forward_group(t: dict[str, np.ndarray], config: CostModelConfig,
                   indices: list[int], encs: list[EncodedInput],
                   caches: list[_GroupCache] | None, h: np.ndarray | None):
    """One leaf-count group `encs` through the network; `t` maps tensor
    names to the parameter views. `h` is the group's encoder output, or None
    to encode the group here in one call. Returns (predictions, z_x, z).
    Only when `caches` is a list are the activations kept, in a _GroupCache
    appended to it."""
    keep = caches is not None
    layer_caches = [] if keep else None
    bsz, length = len(encs), encs[0].n_leaf
    # one input is a view, not a copy
    stack = (lambda a: a[0][None]) if bsz == 1 else np.stack
    v = stack([e.device_vector for e in encs])
    if h is None:
        x = stack([e.matrix for e in encs])
        h = _encode(t, config, x, layer_caches)
    flat = h.reshape(bsz, length * config.d_model)
    z_x, _ = nn.linear_fwd(flat, *_layer(f"leaf_embed.{length}")(t))
    dev_pre, _ = nn.linear_fwd(v, *_layer("dev.hidden")(t))
    z_v, dev_mask = nn.relu_fwd(dev_pre)
    zp, _ = nn.linear_fwd(z_v, *_layer("dev.proj")(t))
    z = z_x * zp
    u = z
    dec_caches = []
    for i in range(len(config.decoder_dims)):
        lin, _ = nn.linear_fwd(u, *_layer(f"dec.{i}")(t))
        act, mask = nn.relu_fwd(lin)
        if keep:
            dec_caches.append((u, mask))
        u = act
    out, _ = nn.linear_fwd(u, *_layer("dec.out")(t))
    if keep:
        caches.append(_GroupCache(
            indices=indices, x=x, v=v, layers=layer_caches, flat=flat,
            z_x=z_x, dev_mask=dev_mask, z_v=z_v, zp=zp, dec=dec_caches,
            u_last=u))
    return out[:, 0], z_x, z


def _forward(params: CostModelParams, inputs: list[EncodedInput], *,
             caches: list[_GroupCache] | None = None
             ) -> tuple[np.ndarray, LatentBatch]:
    """Returns (predictions, LatentBatch). Inputs may mix leaf counts; they
    are grouped so that every sample is encoded over exactly its own n_leaf
    rows, one group at a time. Only `backward` passes `caches`, a list that
    receives one _GroupCache per group. Without it, one worker thread,
    started and joined here, encodes the first half of the chunks of each
    group of at least _SPLIT_ROWS rows in a copy of the caller's context;
    an error on either thread cancels its queued half and joins it."""
    if not inputs:
        raise EmptyBatch("forward needs at least one input")
    config = params.config
    groups: dict[int, list[int]] = {}
    for i, enc in enumerate(inputs):
        if not 1 <= enc.n_leaf <= config.n_leaf_max:
            raise LeafCountExceeded(
                f"input {i} has {enc.n_leaf} leaves, supported range is "
                f"1..{config.n_leaf_max}")
        groups.setdefault(enc.n_leaf, []).append(i)
    n = len(inputs)
    pred = np.empty(n)
    z_x_all = np.empty((n, config.d_embed))
    z_all = np.empty((n, config.d_embed))
    t = params.tensors.views
    split = {k for k, idx in groups.items() if caches is None
             and len(idx) > 1 and k * len(idx) >= _SPLIT_ROWS}
    worker = ThreadPoolExecutor(1) if split and _usable_cpus() > 1 else None
    try:
        for n_leaf in sorted(groups):
            idx, h = groups[n_leaf], None
            if caches is None and len(idx) * n_leaf > _CHUNK_ROWS:
                mats = [inputs[i].matrix for i in idx]
                h = np.empty((len(idx), n_leaf, config.d_model))
                step = max(1, _CHUNK_ROWS // n_leaf)
                half = (-(-len(idx) // step) // 2 * step
                        if worker and n_leaf in split else 0)
                first = worker.submit(
                    contextvars.copy_context().run, _encode_chunks, t,
                    config, mats[:half], h[:half]) if half else None
                _encode_chunks(t, config, mats[half:], h[half:])
                if first is not None:
                    first.result()
            pred[idx], z_x_all[idx], z_all[idx] = _forward_group(
                t, config, idx, [inputs[i] for i in idx], caches, h)
    finally:
        if worker is not None:
            worker.shutdown(cancel_futures=True)
    return pred, LatentBatch(z_x=z_x_all, z=z_all)


def forward(params: CostModelParams,
            inputs: list[EncodedInput]) -> tuple[np.ndarray, LatentBatch]:
    """Predictions (in normalized label space) and latent embeddings. No
    activations are retained (only `backward` keeps them): groups are
    encoded one at a time, in chunks of at most _CHUNK_ROWS leaf rows, so
    the pass holds one group's encoder output and one chunk's activations
    per thread. One worker thread per call, given two usable CPUs, encodes
    the first half of the chunks of each group of at least _SPLIT_ROWS rows.
    No result bit depends on chunks or threads."""
    return _forward(params, inputs)


def _linear_grad(t: dict[str, np.ndarray], grads: dict[str, np.ndarray],
                 name: str, dy: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Backward through linear layer `name`: adds its weight and bias
    gradients to their views in `grads` and returns the input gradient."""
    get = _layer(name)
    (w, _), (gw, gb) = get(t), get(grads)
    dx, dw, db = nn.linear_bwd(dy, x, w)
    gw += dw
    gb += db
    return dx


def _linear_param_grad(grads: dict[str, np.ndarray], name: str,
                       dy: np.ndarray, x: np.ndarray) -> None:
    """`_linear_grad` for a layer whose input gradient nobody reads."""
    gw, gb = _layer(name)(grads)
    dw, db = nn.linear_param_grads(dy, x)
    gw += dw
    gb += db


def _layernorm_grad(t: dict[str, np.ndarray], grads: dict[str, np.ndarray],
                    name: str, dy: np.ndarray, cache) -> np.ndarray:
    get = _layer(name, _NORM)
    (g, _), (gg, gb) = get(t), get(grads)
    dx, dg, db = nn.layernorm_bwd(dy, cache, g)
    gg += dg
    gb += db
    return dx


def _backward_group(t: dict[str, np.ndarray], config: CostModelConfig,
                    cache: _GroupCache, dpred: np.ndarray,
                    dz_extra: np.ndarray | None,
                    grads: dict[str, np.ndarray]) -> None:
    """Adds one group's gradients to the views `grads`; `t` maps tensor
    names to the parameter views."""
    du = _linear_grad(t, grads, "dec.out", dpred[:, None], cache.u_last)
    for i in reversed(range(len(config.decoder_dims))):
        u_in, mask = cache.dec[i]
        du = _linear_grad(t, grads, f"dec.{i}", nn.relu_bwd(du, mask), u_in)
    dz = du if dz_extra is None else du + dz_extra
    dz_v = _linear_grad(t, grads, "dev.proj", dz * cache.z_x, cache.z_v)
    _linear_param_grad(grads, "dev.hidden",
                       nn.relu_bwd(dz_v, cache.dev_mask), cache.v)
    length = cache.n_leaf
    dflat = _linear_grad(t, grads, f"leaf_embed.{length}", dz * cache.zp,
                         cache.flat)
    dh = dflat.reshape(cache.x.shape[0], length, config.d_model)
    for i in reversed(range(config.n_layers)):
        pre = f"enc{i}"
        c_attn, c_ln1, h1, ffn_mask, f_act, c_ln2 = cache.layers[i]
        dr2 = _layernorm_grad(t, grads, f"{pre}.ln2", dh, c_ln2)
        dfact = _linear_grad(t, grads, f"{pre}.ffn.o", dr2, f_act)
        dh1 = dr2 + _linear_grad(t, grads, f"{pre}.ffn.h",
                                 nn.relu_bwd(dfact, ffn_mask), h1)
        dr1 = _layernorm_grad(t, grads, f"{pre}.ln1", dh1, c_ln1)
        attn = _layer(f"{pre}.attn", _ATTN)
        wq, _, wk, _, wv, _, wo, _ = attn(t)
        dh_attn, attn_grads = nn.attention_bwd(dr1, c_attn, wq, wk, wv, wo,
                                               config.n_heads)
        for key, g in zip(_ATTN, attn(grads)):
            g += attn_grads[key]
        dh = dr1 + dh_attn
    _linear_param_grad(grads, "input", dh, cache.x)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def loss_pretrain(pred, y,
                  lambda_hybrid: float = CostModelConfig.lambda_hybrid) -> float:
    """Hybrid objective: mean squared error plus lambda * mean relative
    error, both averaged over the batch."""
    pred = np.asarray(pred, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if pred.shape != y.shape:
        raise ValidationError("pred and y must have equal length")
    if np.any(y <= 0):
        raise ValidationError("labels must be positive for the relative term")
    value, _ = _supervised_loss_grad(pred, y, "hybrid", lambda_hybrid, 0.0)
    return value


def _supervised_loss_grad(pred: np.ndarray, y: np.ndarray, mode: str,
                          lambda_hybrid: float, offset: float):
    """Loss and d(loss)/d(pred), all in model space. The relative term
    divides by the targets shifted by `offset`, which must make them
    positive (the squared term is shift-invariant)."""
    n = pred.size
    if n == 0:
        raise EmptyBatch("loss needs at least one sample")
    diff = pred - y
    if mode == "mse":
        return float(np.mean(diff ** 2)), 2.0 * diff / n
    denom = y + offset
    if np.any(denom <= 0):
        raise ValidationError("shifted labels must be positive")
    rel_value = float(np.mean(np.abs(diff) / denom))
    rel_grad = np.sign(diff) / (denom * n)
    if mode == "mape":
        return rel_value, rel_grad
    if mode == "hybrid":
        loss = float(np.mean(diff ** 2)) + lambda_hybrid * rel_value
        return loss, 2.0 * diff / n + lambda_hybrid * rel_grad
    raise ValidationError(f"unknown loss mode '{mode}'")


def _cmd_forward_backward(zs: np.ndarray, zt: np.ndarray, k: int):
    """CMD value plus gradients w.r.t. both sets, including the dependence
    of the empirical support width on the extreme elements."""
    ns, nt = zs.shape[0], zt.shape[0]
    concat = np.concatenate([zs, zt], axis=0)
    lo = concat.min(axis=0)
    hi = concat.max(axis=0)
    s_raw = hi - lo
    clamped = s_raw < _CMD_SUPPORT_FLOOR
    s = np.where(clamped, _CMD_SUPPORT_FLOOR, s_raw)

    mus = zs.mean(axis=0)
    mut = zt.mean(axis=0)
    cs = zs - mus
    ct = zt - mut

    dzs = np.zeros_like(zs)
    dzt = np.zeros_like(zt)
    ds = np.zeros_like(s)

    u = (mus - mut) / s
    n1 = float(np.linalg.norm(u))
    total = n1
    if n1 > 0.0:
        gu = u / n1
        dzs += gu / (s * ns)
        dzt -= gu / (s * nt)
        ds -= gu * u / s

    cs_prev = cs.copy()  # cs ** (j-1)
    ct_prev = ct.copy()
    for j in range(2, k + 1):
        ms_prev = cs_prev.mean(axis=0)
        mt_prev = ct_prev.mean(axis=0)
        cs_pow = cs_prev * cs  # cs ** j
        ct_pow = ct_prev * ct
        msj = cs_pow.mean(axis=0)
        mtj = ct_pow.mean(axis=0)
        sj = s ** j
        vj = (msj - mtj) / sj
        njv = float(np.linalg.norm(vj))
        total += njv
        if njv > 0.0:
            gv = vj / njv
            coeff = gv / sj
            dzs += (j / ns) * coeff * (cs_prev - ms_prev)
            dzt -= (j / nt) * coeff * (ct_prev - mt_prev)
            ds -= j * gv * vj / s
        cs_prev = cs_pow
        ct_prev = ct_pow
    ds = np.where(clamped, 0.0, ds)
    if np.any(ds != 0.0):
        cols = np.arange(concat.shape[1])
        amax = concat.argmax(axis=0)
        amin = concat.argmin(axis=0)
        dconcat = np.zeros_like(concat)
        np.add.at(dconcat, (amax, cols), ds)
        np.add.at(dconcat, (amin, cols), -ds)
        dzs += dconcat[:ns]
        dzt += dconcat[ns:]
    return total, dzs, dzt


def cmd(zs, zt, k: int = CostModelConfig.cmd_order) -> float:
    """Central moment discrepancy between two sample sets (rows = samples).

    Mean difference plus central moments up to order k, each column scaled
    by the empirical support width (clamped to a small floor) raised to the
    moment order."""
    zs = np.atleast_2d(np.asarray(zs, dtype=np.float64))
    zt = np.atleast_2d(np.asarray(zt, dtype=np.float64))
    if zs.shape[0] == 0 or zt.shape[0] == 0:
        raise EmptySet("cmd needs non-empty sets")
    if zs.shape[1] != zt.shape[1]:
        raise DimensionMismatch(
            f"column mismatch: {zs.shape[1]} vs {zt.shape[1]}")
    total, _, _ = _cmd_forward_backward(zs, zt, k)
    return total


def backward(params: CostModelParams, batch: list[EncodedInput],
             targets, config: CostModelConfig, offset: float = 0.0,
             target_batch: list[EncodedInput] | None = None,
             grads: nn.FlatTensors | None = None):
    """Loss value and the gradient of the training objective w.r.t. every
    parameter tensor, as a FlatTensors laid out like params.tensors (zero
    where the batch does not reach). The gradient is accumulated into
    `grads` when one is given, which must be all zero (a training loop
    reuses one vector and re-zeroes it after each optimizer step, see
    `nn.Adam.zero_grad`); otherwise into a fresh vector. `config` sets the
    objective (loss_mode, lambda_hybrid, alpha_cmd, cmd_order); the
    architecture is always params.config's. `offset` shifts predictions and
    targets together so that the relative term's denominators are positive.
    With alpha_cmd > 0 and a target batch, the CMD term couples the two
    forward passes through the shared encoder. This is the only caller that
    has `_forward` retain every group's activations for the backward pass."""
    targets = np.asarray(targets, dtype=np.float64)
    caches: list[_GroupCache] = []
    pred, latents = _forward(params, batch, caches=caches)
    if pred.shape != targets.shape:
        raise ValidationError("batch and targets must have equal length")
    value, dpred = _supervised_loss_grad(pred, targets, config.loss_mode,
                                         config.lambda_hybrid, offset)
    # (caches, gradient w.r.t. their predictions, extra gradient w.r.t. z)
    passes = [(caches, dpred, None)]
    cmd_value = 0.0
    if config.alpha_cmd > 0.0 and target_batch is not None:
        caches_t: list[_GroupCache] = []
        pred_t, latents_t = _forward(params, target_batch, caches=caches_t)
        cmd_value, dzs, dzt = _cmd_forward_backward(latents.z, latents_t.z,
                                                    config.cmd_order)
        value += config.alpha_cmd * cmd_value
        passes = [(caches, dpred, config.alpha_cmd * dzs),
                  (caches_t, np.zeros(pred_t.shape[0]),
                   config.alpha_cmd * dzt)]
    if grads is None:
        grads = params.tensors.zeros_like()
    for pass_caches, dp, dz in passes:
        for cache in pass_caches:
            _backward_group(params.tensors.views, params.config, cache,
                            dp[cache.indices],
                            None if dz is None else dz[cache.indices],
                            grads.views)
    return value, grads, {"pred": pred, "cmd": cmd_value}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def metrics(pred, y) -> dict[str, float]:
    """MAPE, RMSE and MSPE of predictions against positive ground truth."""
    pred = np.asarray(pred, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if pred.size == 0:
        raise EmptyBatch("metrics need at least one sample")
    if pred.shape != y.shape:
        raise ValidationError("pred and y must have equal length")
    if np.any(y <= 0):
        raise ValidationError("labels must be positive")
    diff = pred - y
    rel = diff / y
    return {"mape": float(np.mean(np.abs(rel))),
            "rmse": float(math.sqrt(np.mean(diff ** 2))),
            "mspe": float(np.mean(rel ** 2))}


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass
class EpochLog:
    epoch: int
    train_loss: float
    val_mape: float
    val_rmse: float
    lr: float
    cmd: float = 0.0


@dataclass
class TrainResult:
    params: CostModelParams
    normalizer: BoxCoxNormalizer
    log: list[EpochLog]
    best_epoch: int
    best_val_mape: float


def _lr_at(config: CostModelConfig, epoch: int) -> float:
    if config.lr_schedule == "constant":
        return config.lr
    # triangular wave between lr/10 and lr, period 20 epochs
    floor = config.lr / 10.0
    tri = 1.0 - abs((epoch % 20) / 10.0 - 1.0)
    return floor + (config.lr - floor) * tri


def _epoch_batches(rng: np.random.Generator, n_leaves: list[int],
                   batch_size: int) -> list[np.ndarray]:
    """Shuffled minibatches, each drawn from a single n_leaf bucket."""
    buckets: dict[int, list[int]] = {}
    for i, n in enumerate(n_leaves):
        buckets.setdefault(n, []).append(i)
    batches: list[np.ndarray] = []
    for n in sorted(buckets):
        idx = np.array(buckets[n])
        idx = idx[rng.permutation(len(idx))]
        for start in range(0, len(idx), batch_size):
            batches.append(idx[start:start + batch_size])
    order = rng.permutation(len(batches))
    return [batches[i] for i in order]


def encode_dataset(samples, devices: dict[str, DeviceSpec]
                   ) -> list[EncodedInput]:
    encoded = []
    for s in samples:
        if s.device_id not in devices:
            raise ValidationError(f"unknown device '{s.device_id}'")
        encoded.append(encode_input(s.compact, devices[s.device_id]))
    return encoded


def _train_valid(ds: Dataset, caller: str):
    train_samples = ds.subset("train")
    valid_samples = ds.subset("valid")
    if not train_samples or not valid_samples:
        raise EmptyDataset(f"{caller}() needs non-empty train and valid splits")
    return train_samples, valid_samples


def _fit(params: CostModelParams, config: CostModelConfig, train_samples,
         valid_samples, devices: dict[str, DeviceSpec],
         normalizer: BoxCoxNormalizer,
         target_inputs: list[EncodedInput] | None,
         keep_best: bool) -> TrainResult:
    """The epoch loop shared by `train` and `finetune`. Updates `params` in
    place. With a target pool, every step adds the CMD term against target
    samples drawn from it. `keep_best` returns the parameters of the epoch
    with the lowest validation MAPE; otherwise the last epoch's."""
    train_inputs = encode_dataset(train_samples, devices)
    valid_inputs = encode_dataset(valid_samples, devices)
    targets = normalizer.encode(np.array([s.latency_s for s in train_samples]))
    valid_latency = np.array([s.latency_s for s in valid_samples])
    n_leaves = [enc.n_leaf for enc in train_inputs]

    opt = (nn.Adam if config.optimizer == "adam" else nn.Sgd)(
        weight_decay=config.weight_decay)
    grads = params.tensors.zeros_like()  # one vector, re-zeroed every step
    rng = np.random.default_rng(config.seed)
    # source batches are bucketed by n_leaf, so pair each with target samples
    # of the same leaf count where possible; the CMD term then aligns the
    # distributions conditioned on the routing variable
    target_buckets: dict[int, list[EncodedInput]] = {}
    for enc in target_inputs or ():
        target_buckets.setdefault(enc.n_leaf, []).append(enc)
    log: list[EpochLog] = []
    best, best_epoch, best_mape = params, -1, math.inf
    for epoch in range(config.epochs):
        lr = _lr_at(config, epoch)
        losses = []
        cmd_values = []
        for batch_idx in _epoch_batches(rng, n_leaves, config.batch_size):
            batch = [train_inputs[i] for i in batch_idx]
            target_batch = None
            if target_inputs:
                pool = target_buckets.get(batch[0].n_leaf) or target_inputs
                take = min(config.batch_size, len(pool))
                picked_idx = rng.choice(len(pool), size=take, replace=False)
                target_batch = [pool[j] for j in np.sort(picked_idx)]
            value, _, aux = backward(params, batch, targets[batch_idx],
                                     config, normalizer.loss_offset,
                                     target_batch=target_batch, grads=grads)
            if not math.isfinite(value):
                raise NonFiniteLoss(epoch)
            losses.append(value)
            cmd_values.append(aux["cmd"])
            opt.step(params.tensors, grads, lr)
            opt.zero_grad(grads)
        # one check per epoch: a step can overflow with a finite loss
        if not np.isfinite(params.tensors.flat).all():
            raise NonFiniteLoss(epoch)
        val = metrics(predict_batch(params, valid_inputs, normalizer),
                      valid_latency)
        log.append(EpochLog(epoch=epoch, train_loss=float(np.mean(losses)),
                            val_mape=val["mape"], val_rmse=val["rmse"],
                            lr=lr, cmd=float(np.mean(cmd_values))))
        if not keep_best or val["mape"] < best_mape:
            best_epoch, best_mape = epoch, val["mape"]
            best = params.copy() if keep_best else params
    return TrainResult(params=best, normalizer=normalizer, log=log,
                       best_epoch=best_epoch, best_val_mape=best_mape)


def train(config: CostModelConfig, ds: Dataset,
          devices: dict[str, DeviceSpec]) -> TrainResult:
    """Seeded minibatch training on the train split, Box-Cox fitted to it,
    from fresh parameters. Returns the parameters of the epoch with the best
    validation MAPE (in the original label space), or the last ones if no
    epoch had a finite one. There is no target pool: `alpha_cmd` is unused."""
    config.validate()
    train_samples, valid_samples = _train_valid(ds, "train")
    normalizer = fit_boxcox([s.latency_s for s in train_samples])
    return _fit(init_params(config), config, train_samples, valid_samples,
                devices, normalizer, None, keep_best=True)


def finetune(params: CostModelParams, source: Dataset,
             target_inputs: list[EncodedInput], config: CostModelConfig,
             devices: dict[str, DeviceSpec],
             normalizer: BoxCoxNormalizer) -> TrainResult:
    """Continue training a copy of `params` on labeled source data while
    pulling source and target latent distributions together (CMD on the
    aggregated embedding z, weight alpha_cmd). Target samples need features
    only, no labels. Returns the last epoch, whatever its validation MAPE."""
    config.validate()
    train_samples, valid_samples = _train_valid(source, "finetune")
    if config.alpha_cmd > 0 and not target_inputs:
        raise EmptyDataset("finetune() with alpha_cmd > 0 needs target inputs")
    return _fit(params.copy(), config, train_samples, valid_samples, devices,
                normalizer, target_inputs if config.alpha_cmd > 0 else None,
                keep_best=False)


def cmd_between(params: CostModelParams, source_inputs: list[EncodedInput],
                target_inputs: list[EncodedInput],
                k: int = CostModelConfig.cmd_order) -> float:
    """CMD between the aggregated latents of two full input sets."""
    _, latents_s = forward(params, source_inputs)
    _, latents_t = forward(params, target_inputs)
    return cmd(latents_s.z, latents_t.z, k)


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------

def predict(params: CostModelParams, compact: CompactAst, device: DeviceSpec,
            normalizer: BoxCoxNormalizer) -> float:
    """Latency in seconds for one program on one device."""
    enc = encode_input(compact, device)
    pred_enc, _ = forward(params, [enc])
    return normalizer.decode(pred_enc[0])


def predict_batch(params: CostModelParams, inputs: list[EncodedInput],
                  normalizer: BoxCoxNormalizer) -> np.ndarray:
    """Latencies in seconds for a batch that may mix leaf counts: one
    `forward` pass over the whole batch, which holds one leaf-count group's
    encoder output and at most one chunk of _CHUNK_ROWS leaf rows'
    activations per thread, and uses one worker thread per call. No result
    bit depends on chunks or threads."""
    pred_enc, _ = forward(params, inputs)
    return normalizer.decode(pred_enc)


# ---------------------------------------------------------------------------
# Hyper-parameter search
# ---------------------------------------------------------------------------

@dataclass
class Trial:
    index: int
    config: CostModelConfig
    val_mape: float


def _sample_space(space: dict, rng: np.random.Generator) -> dict:
    sampled = {}
    for key, choices in space.items():
        if isinstance(choices, list):
            sampled[key] = choices[int(rng.integers(0, len(choices)))]
        elif isinstance(choices, tuple) and choices[0] == "loguniform":
            sampled[key] = float(math.exp(
                rng.uniform(math.log(choices[1]), math.log(choices[2]))))
        else:
            raise ValidationError(f"bad search space entry for '{key}'")
    return sampled


def tune(space: dict, budget: int, ds: Dataset,
         devices: dict[str, DeviceSpec], seed: int,
         base: CostModelConfig) -> tuple[CostModelConfig, list[Trial]]:
    """Seeded random search: samples `budget` configs from `space` over
    `base`, trains each for `base.epochs` epochs, returns the config with the
    lowest validation MAPE (ties go to the earlier trial)."""
    if budget < 1:
        raise ValidationError("budget must be >= 1")
    rng = np.random.default_rng(seed)
    candidates = [replace(base, **_sample_space(space, rng))
                  for _ in range(budget)]
    trials = [Trial(index=i, config=config,
                    val_mape=train(config, ds, devices).best_val_mape)
              for i, config in enumerate(candidates)]
    return min(trials, key=lambda trial: trial.val_mape).config, trials


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

_CHECKPOINT_VERSION = 1


def _tensor_checksum(tensors: dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name], dtype=np.float64)
        h.update(name.encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def save_checkpoint(path, params: CostModelParams,
                    normalizer: BoxCoxNormalizer) -> None:
    """Single-file checkpoint: config + normalizer as JSON metadata, tensors
    as float64 arrays, with a content checksum verified on load."""
    meta = {
        "version": _CHECKPOINT_VERSION,
        "config": asdict(params.config),
        "normalizer": asdict(normalizer),
        "checksum": _tensor_checksum(params.tensors),
    }
    meta_bytes = np.frombuffer(json.dumps(meta, sort_keys=True).encode(),
                               dtype=np.uint8)
    buf = io.BytesIO()
    np.savez(buf, __meta__=meta_bytes, **params.tensors)
    with open(path, "wb") as f:
        f.write(buf.getvalue())


_FIELD_CHECKS = {int: json_int, float: json_number, str: json_str,
                 bool: json_bool,
                 tuple: lambda v, what: tuple(json_list(v, what, json_int))}


def _from_json(cls, raw, what: str, ignore: tuple[str, ...] = (), **low):
    """Dataclass `cls` from a JSON object with exactly its fields (`ignore`
    keys dropped), each typed as its default; `low` bounds float fields."""
    names = sorted(f.name for f in fields(cls))
    if not isinstance(raw, dict) or sorted(set(raw) - set(ignore)) != names:
        raise ValidationError(
            f"{what} must be a JSON object with the keys {names}")
    return cls(**{f.name: _FIELD_CHECKS[type(f.default)](
        raw[f.name], f"{what}: {f.name}", *low.get(f.name, ()))
        for f in fields(cls)})


def load_checkpoint(path) -> tuple[CostModelParams, BoxCoxNormalizer]:
    """Inverse of `save_checkpoint`: the parameters and the fitted
    normalizer. A file that is not such an npz archive, a malformed
    metadata block, config or normalizer (a normalizer field out of range
    too: a non-finite one, `t_std <= 0`, `shift < 0`), and tensors that do
    not fit the config or hold a non-finite value raise CheckpointError.
    Checkpoints written before the objective lost its `mape_space` option
    carry that config key; it is dropped."""
    try:
        # NpzFile opens only a zip archive, where np.load would guess the
        # format; zipfile and numpy raise no closed set of exceptions on
        # arbitrary bytes, so any failure while reading is the file's
        with open(path, "rb") as f, np.lib.npyio.NpzFile(f) as data:
            meta = json.loads(bytes(data["__meta__"]).decode())
            tensors = {name: np.asarray(data[name], dtype=np.float64)
                       for name in data.files if name != "__meta__"}
    except Exception as e:
        raise CheckpointError(f"cannot read checkpoint: {e}") from e
    keys = ("version", "config", "normalizer", "checksum")
    if not isinstance(meta, dict) or not all(k in meta for k in keys):
        raise CheckpointError(f"metadata must be a JSON object with {keys}")
    try:
        if json_int(meta["version"], "version") != _CHECKPOINT_VERSION:
            raise ValidationError(f"unsupported version {meta['version']!r}")
        if _tensor_checksum(tensors) != meta["checksum"]:
            raise CheckpointError("checksum mismatch: corrupt checkpoint")
        config = _from_json(CostModelConfig, meta["config"], "config",
                            ignore=("mape_space",))
        config.validate()
        # bounded, so a corrupt size in the config cannot run away
        expected = itertools.islice(_tensor_shapes(config), len(tensors) + 1)
        if dict(expected) != {name: a.shape for name, a in tensors.items()}:
            raise CheckpointError("tensors do not match the config")
        if bad := [n for n, a in tensors.items() if not np.isfinite(a).all()]:
            raise CheckpointError(
                f"tensor '{bad[0]}' holds a non-finite value")
        norm = _from_json(BoxCoxNormalizer, meta["normalizer"], "normalizer",
                          t_std=(0.0, False), shift=(0.0,))
    except ValidationError as e:  # the metadata's, named by its file
        raise CheckpointError(f"{path}: {e}") from e
    return CostModelParams(config=config, tensors=tensors), norm
