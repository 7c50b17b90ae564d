"""Latency predictor: transformer encoder over encoded compact ASTs with
leaf-count-routed embedding layers, a device-feature MLP, and an MLP decoder.

The network is trained with a hybrid objective (MSE plus a scaled relative
error) and fine-tuned across domains with a central-moment-discrepancy
regularizer on the latent representations. All gradients are hand-derived
and checked against finite differences in the test suite.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import zipfile
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import nn
from .dataset import BoxCoxNormalizer, Dataset, fit_boxcox
from .errors import (CheckpointError, DimensionMismatch, DomainError,
                     EmptyBatch, EmptyDataset, EmptySelection, EmptySet,
                     LeafCountExceeded, NonFiniteLoss, ValidationError)
from .features import N_ENTRY, CompactAst, DeviceSpec, EncodedInput, encode_input

DEVICE_FEATURES = 6
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
    n_leaf_max: int = 16
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
    mape_space: str = "transformed"  # transformed | original

    def validate(self) -> None:
        if self.d_model % self.n_heads != 0:
            raise ValidationError("d_model must be divisible by n_heads")
        for attr in ("d_model", "n_layers", "n_heads", "d_ff", "d_embed",
                     "d_device", "n_leaf_max", "batch_size"):
            if getattr(self, attr) < 1:
                raise ValidationError(f"{attr} must be >= 1")
        if self.epochs < 0:
            raise ValidationError("epochs must be >= 0")
        if any(w < 1 for w in self.decoder_dims):
            raise ValidationError("decoder widths must be >= 1")
        if self.lr <= 0 or self.lambda_hybrid < 0 or self.alpha_cmd < 0:
            raise ValidationError("lr must be > 0; loss coefficients >= 0")
        if self.cmd_order < 1:
            raise ValidationError("cmd_order must be >= 1")
        if self.optimizer not in ("adam", "sgd"):
            raise ValidationError(f"unknown optimizer '{self.optimizer}'")
        if self.lr_schedule not in ("constant", "cyclic"):
            raise ValidationError(f"unknown lr_schedule '{self.lr_schedule}'")
        if self.loss_mode not in ("hybrid", "mse", "mape"):
            raise ValidationError(f"unknown loss_mode '{self.loss_mode}'")
        if self.mape_space not in ("original", "transformed"):
            raise ValidationError(f"unknown mape_space '{self.mape_space}'")


def desk_config(**overrides) -> CostModelConfig:
    """Default desk-scale configuration; small enough to train in minutes."""
    return replace(CostModelConfig(), **overrides)


def full_reference_config() -> CostModelConfig:
    """Large preset mirroring the full-scale reference runs (not a default:
    ~14M parameters, meant for big corpora)."""
    return CostModelConfig(
        d_model=716, n_layers=11, n_heads=4, d_ff=985, d_embed=69,
        d_device=64, decoder_dims=(930, 930, 930), n_leaf_max=16,
        lambda_hybrid=1e-3, alpha_cmd=1.0, lr=1.68e-5, weight_decay=0.0013,
        optimizer="adam", lr_schedule="cyclic", batch_size=600)


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


def init_params(config: CostModelConfig) -> CostModelParams:
    """Seeded fan-based uniform init; layer-norm gains 1, all biases 0.
    Tensor creation order is fixed, so init is reproducible."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    t: dict[str, np.ndarray] = {}

    def lin(name: str, fan_in: int, fan_out: int) -> None:
        t[f"{name}.W"] = nn.xavier_uniform(rng, fan_in, fan_out)
        t[f"{name}.b"] = np.zeros(fan_out)

    d = config.d_model
    lin("input", N_ENTRY, d)
    for i in range(config.n_layers):
        pre = f"enc{i}"
        for proj in ("Wq", "Wk", "Wv", "Wo"):
            t[f"{pre}.attn.{proj}"] = nn.xavier_uniform(rng, d, d)
        for bias in ("bq", "bk", "bv", "bo"):
            t[f"{pre}.attn.{bias}"] = np.zeros(d)
        t[f"{pre}.ln1.g"] = np.ones(d)
        t[f"{pre}.ln1.b"] = np.zeros(d)
        lin(f"{pre}.ffn.h", d, config.d_ff)
        lin(f"{pre}.ffn.o", config.d_ff, d)
        t[f"{pre}.ln2.g"] = np.ones(d)
        t[f"{pre}.ln2.b"] = np.zeros(d)
    for n_leaf in range(1, config.n_leaf_max + 1):
        lin(f"leaf_embed.{n_leaf}", n_leaf * d, config.d_embed)
    lin("dev.hidden", DEVICE_FEATURES, config.d_device)
    lin("dev.proj", config.d_device, config.d_embed)
    width = config.d_embed
    for i, hidden in enumerate(config.decoder_dims):
        lin(f"dec.{i}", width, hidden)
        width = hidden
    lin("dec.out", width, 1)
    return CostModelParams(config=config, tensors=t)


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

@dataclass
class LatentBatch:
    z_x: np.ndarray  # (batch, d_embed) device-independent embedding
    z_v: np.ndarray  # (batch, d_device) device MLP output
    z: np.ndarray  # (batch, d_embed) aggregated embedding


@dataclass
class _GroupCache:
    indices: list[int]
    n_leaf: int
    x: np.ndarray
    v: np.ndarray
    layers: list[tuple]
    flat: np.ndarray
    z_x: np.ndarray
    dev_mask: np.ndarray
    z_v: np.ndarray
    zp: np.ndarray
    z: np.ndarray
    dec: list[tuple[np.ndarray, np.ndarray]]
    u_last: np.ndarray


def _group_by_leaf(inputs: list[EncodedInput],
                   n_leaf_max: int) -> dict[int, list[int]]:
    groups: dict[int, list[int]] = {}
    for i, enc in enumerate(inputs):
        n = enc.n_leaf
        if n < 1 or n > n_leaf_max:
            raise LeafCountExceeded(
                f"input {i} has {n} leaves, supported range is 1..{n_leaf_max}")
        groups.setdefault(n, []).append(i)
    return groups


def _forward_group(t: dict[str, np.ndarray], config: CostModelConfig,
                   x: np.ndarray, v: np.ndarray):
    h, _ = nn.linear_fwd(x, t["input.W"], t["input.b"])
    layer_caches = []
    for i in range(config.n_layers):
        pre = f"enc{i}"
        attn_out, c_attn = nn.attention_fwd(
            h, t[f"{pre}.attn.Wq"], t[f"{pre}.attn.bq"],
            t[f"{pre}.attn.Wk"], t[f"{pre}.attn.bk"],
            t[f"{pre}.attn.Wv"], t[f"{pre}.attn.bv"],
            t[f"{pre}.attn.Wo"], t[f"{pre}.attn.bo"], config.n_heads)
        r1 = h + attn_out
        h1, c_ln1 = nn.layernorm_fwd(r1, t[f"{pre}.ln1.g"], t[f"{pre}.ln1.b"])
        f_pre, _ = nn.linear_fwd(h1, t[f"{pre}.ffn.h.W"], t[f"{pre}.ffn.h.b"])
        f_act, ffn_mask = nn.relu_fwd(f_pre)
        f_out, _ = nn.linear_fwd(f_act, t[f"{pre}.ffn.o.W"], t[f"{pre}.ffn.o.b"])
        r2 = h1 + f_out
        h2, c_ln2 = nn.layernorm_fwd(r2, t[f"{pre}.ln2.g"], t[f"{pre}.ln2.b"])
        layer_caches.append((c_attn, c_ln1, h1, ffn_mask, f_act, c_ln2))
        h = h2
    bsz, length, dim = h.shape
    flat = h.reshape(bsz, length * dim)
    z_x, _ = nn.linear_fwd(flat, t[f"leaf_embed.{length}.W"],
                           t[f"leaf_embed.{length}.b"])
    dev_pre, _ = nn.linear_fwd(v, t["dev.hidden.W"], t["dev.hidden.b"])
    z_v, dev_mask = nn.relu_fwd(dev_pre)
    zp, _ = nn.linear_fwd(z_v, t["dev.proj.W"], t["dev.proj.b"])
    z = z_x * zp
    u = z
    dec_caches = []
    for i in range(len(config.decoder_dims)):
        lin, _ = nn.linear_fwd(u, t[f"dec.{i}.W"], t[f"dec.{i}.b"])
        act, mask = nn.relu_fwd(lin)
        dec_caches.append((u, mask))
        u = act
    out, _ = nn.linear_fwd(u, t["dec.out.W"], t["dec.out.b"])
    pred = out[:, 0]
    return pred, z_x, z_v, z, layer_caches, flat, dev_mask, zp, dec_caches, u


def _forward(params: CostModelParams, inputs: list[EncodedInput]):
    """Returns (predictions, LatentBatch, caches). Inputs may mix leaf
    counts; they are grouped so that every sample is encoded over exactly
    its own n_leaf rows."""
    if not inputs:
        raise EmptyBatch("forward needs at least one input")
    config = params.config
    t = params.tensors
    groups = _group_by_leaf(inputs, config.n_leaf_max)
    n = len(inputs)
    pred = np.empty(n)
    z_x_all = np.empty((n, config.d_embed))
    z_v_all = np.empty((n, config.d_device))
    z_all = np.empty((n, config.d_embed))
    caches: list[_GroupCache] = []
    for n_leaf in sorted(groups):
        idx = groups[n_leaf]
        x = np.stack([inputs[i].matrix for i in idx])
        v = np.stack([inputs[i].device_vector for i in idx])
        (p, z_x, z_v, z, layer_caches, flat, dev_mask, zp,
         dec_caches, u_last) = _forward_group(t, config, x, v)
        pred[idx] = p
        z_x_all[idx] = z_x
        z_v_all[idx] = z_v
        z_all[idx] = z
        caches.append(_GroupCache(indices=idx, n_leaf=n_leaf, x=x, v=v,
                                  layers=layer_caches, flat=flat, z_x=z_x,
                                  dev_mask=dev_mask, z_v=z_v, zp=zp, z=z,
                                  dec=dec_caches, u_last=u_last))
    return pred, LatentBatch(z_x=z_x_all, z_v=z_v_all, z=z_all), caches


def forward(params: CostModelParams,
            inputs: list[EncodedInput]) -> tuple[np.ndarray, LatentBatch]:
    """Predictions (in normalized label space) and latent embeddings."""
    pred, latents, _ = _forward(params, inputs)
    return pred, latents


def _accumulate(grads: nn.FlatTensors, name: str, value: np.ndarray) -> None:
    view = grads[name]
    view += value


def _backward_group(t: nn.FlatTensors, config: CostModelConfig,
                    cache: _GroupCache, dpred: np.ndarray,
                    dz_extra: np.ndarray | None,
                    grads: nn.FlatTensors) -> None:
    du = dpred[:, None]
    du, dw, db = nn.linear_bwd(du, cache.u_last, t["dec.out.W"])
    _accumulate(grads, "dec.out.W", dw)
    _accumulate(grads, "dec.out.b", db)
    for i in reversed(range(len(config.decoder_dims))):
        u_in, mask = cache.dec[i]
        du = nn.relu_bwd(du, mask)
        du, dw, db = nn.linear_bwd(du, u_in, t[f"dec.{i}.W"])
        _accumulate(grads, f"dec.{i}.W", dw)
        _accumulate(grads, f"dec.{i}.b", db)
    dz = du
    if dz_extra is not None:
        dz = dz + dz_extra
    dz_x = dz * cache.zp
    dzp = dz * cache.z_x
    dz_v, dw, db = nn.linear_bwd(dzp, cache.z_v, t["dev.proj.W"])
    _accumulate(grads, "dev.proj.W", dw)
    _accumulate(grads, "dev.proj.b", db)
    ddev_pre = nn.relu_bwd(dz_v, cache.dev_mask)
    _, dw, db = nn.linear_bwd(ddev_pre, cache.v, t["dev.hidden.W"])
    _accumulate(grads, "dev.hidden.W", dw)
    _accumulate(grads, "dev.hidden.b", db)
    length = cache.n_leaf
    dflat, dw, db = nn.linear_bwd(dz_x, cache.flat, t[f"leaf_embed.{length}.W"])
    _accumulate(grads, f"leaf_embed.{length}.W", dw)
    _accumulate(grads, f"leaf_embed.{length}.b", db)
    dh = dflat.reshape(cache.x.shape[0], length, config.d_model)
    for i in reversed(range(config.n_layers)):
        pre = f"enc{i}"
        c_attn, c_ln1, h1, ffn_mask, f_act, c_ln2 = cache.layers[i]
        dr2, dg, db = nn.layernorm_bwd(dh, c_ln2, t[f"{pre}.ln2.g"])
        _accumulate(grads, f"{pre}.ln2.g", dg)
        _accumulate(grads, f"{pre}.ln2.b", db)
        dfact, dw, db = nn.linear_bwd(dr2, f_act, t[f"{pre}.ffn.o.W"])
        _accumulate(grads, f"{pre}.ffn.o.W", dw)
        _accumulate(grads, f"{pre}.ffn.o.b", db)
        dfpre = nn.relu_bwd(dfact, ffn_mask)
        dh1_ffn, dw, db = nn.linear_bwd(dfpre, h1, t[f"{pre}.ffn.h.W"])
        _accumulate(grads, f"{pre}.ffn.h.W", dw)
        _accumulate(grads, f"{pre}.ffn.h.b", db)
        dh1 = dr2 + dh1_ffn
        dr1, dg, db = nn.layernorm_bwd(dh1, c_ln1, t[f"{pre}.ln1.g"])
        _accumulate(grads, f"{pre}.ln1.g", dg)
        _accumulate(grads, f"{pre}.ln1.b", db)
        dh_attn, attn_grads = nn.attention_bwd(
            dr1, c_attn, t[f"{pre}.attn.Wq"], t[f"{pre}.attn.Wk"],
            t[f"{pre}.attn.Wv"], t[f"{pre}.attn.Wo"], config.n_heads)
        for key, value in attn_grads.items():
            _accumulate(grads, f"{pre}.attn.{key}", value)
        dh = dr1 + dh_attn
    _, dw, db = nn.linear_bwd(dh, cache.x, t["input.W"])
    _accumulate(grads, "input.W", dw)
    _accumulate(grads, "input.b", db)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def loss_pretrain(pred, y, lambda_hybrid: float = 1e-3) -> float:
    """Hybrid objective: mean squared error plus lambda * mean relative
    error, both averaged over the batch."""
    pred = np.asarray(pred, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if pred.size == 0:
        raise EmptyBatch("loss needs at least one sample")
    if pred.shape != y.shape:
        raise ValidationError("pred and y must have equal length")
    if np.any(y <= 0):
        raise ValidationError("labels must be positive for the relative term")
    value, _ = _supervised_loss_grad(pred, y, "hybrid", lambda_hybrid, 0.0)
    return value


def _decode_with_grad(norm: BoxCoxNormalizer, e: np.ndarray):
    """Original-scale prediction and its derivative w.r.t. the model-space
    value. The power-transform argument is clamped at the domain edge (zero
    derivative beyond) so early wild predictions cannot produce NaNs."""
    t = e * norm.t_std + norm.t_mean
    lam = norm.lambda_bc
    if abs(lam) < 1e-9:
        y = np.exp(t) - norm.shift
        dy = norm.t_std * np.exp(t)
        return y, dy
    base = lam * t + 1.0
    ok = base > 1e-12
    base = np.where(ok, base, 1e-12)
    y = np.power(base, 1.0 / lam) - norm.shift
    dy = np.where(ok, norm.t_std * np.power(base, 1.0 / lam - 1.0), 0.0)
    return y, dy


def _relative_term(pred: np.ndarray, y: np.ndarray, mape_space: str,
                   offset: float, normalizer: BoxCoxNormalizer | None):
    """Mean relative error and its gradient w.r.t. model-space predictions.

    In "original" space the term is |decode(pred) - y_orig| / y_orig, the
    quantity the evaluation metric uses; "transformed" keeps everything in
    model space, shifted to positivity by `offset`."""
    n = pred.size
    if mape_space == "original":
        if normalizer is None:
            raise ValidationError(
                "original-space relative loss needs a fitted normalizer")
        y_orig = np.asarray(normalizer.decode(y))
        pred_orig, dpred_orig = _decode_with_grad(normalizer, pred)
        diff = pred_orig - y_orig
        value = float(np.mean(np.abs(diff) / y_orig))
        grad = np.sign(diff) * dpred_orig / (y_orig * n)
        return value, grad
    denom = y + offset
    if np.any(denom <= 0):
        raise ValidationError("shifted labels must be positive")
    diff = pred - y
    value = float(np.mean(np.abs(diff) / denom))
    grad = np.sign(diff) / (denom * n)
    return value, grad


def _supervised_loss_grad(pred: np.ndarray, y: np.ndarray, mode: str,
                          lambda_hybrid: float, offset: float,
                          mape_space: str = "transformed",
                          normalizer: BoxCoxNormalizer | None = None):
    """Loss and d(loss)/d(pred), with pred and y in model space. The squared
    term always lives in model space; the relative term lives in
    `mape_space`."""
    n = pred.size
    if n == 0:
        raise EmptyBatch("loss needs at least one sample")
    diff = pred - y
    if mode == "mse":
        return float(np.mean(diff ** 2)), 2.0 * diff / n
    rel_value, rel_grad = _relative_term(pred, y, mape_space, offset,
                                         normalizer)
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


def cmd(zs, zt, k: int = 5) -> float:
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


def loss_finetune(pred, y, zs, zt, lambda_hybrid: float = 1e-3,
                  alpha_cmd: float = 1.0, k: int = 5) -> float:
    return loss_pretrain(pred, y, lambda_hybrid) + alpha_cmd * cmd(zs, zt, k)


@dataclass(frozen=True)
class LossSpec:
    """What objective `backward` differentiates.

    mape_space picks where the relative-error term lives: "original" decodes
    predictions through the normalizer (required then); "transformed" stays
    in model space, with `offset` shifting predictions and targets together
    so denominators are positive (the squared term is shift-invariant)."""

    mode: str = "hybrid"
    lambda_hybrid: float = 1e-3
    alpha_cmd: float = 0.0
    cmd_order: int = 5
    offset: float = 0.0
    mape_space: str = "transformed"
    normalizer: BoxCoxNormalizer | None = None


def backward(params: CostModelParams, batch: list[EncodedInput],
             targets, loss: LossSpec,
             target_batch: list[EncodedInput] | None = None):
    """Loss value and the gradient of the configured objective w.r.t. every
    parameter tensor, as a fresh FlatTensors laid out like params.tensors
    (zero where the batch does not reach). With alpha_cmd > 0 and a target
    batch, the CMD term couples the two forward passes through the shared
    encoder."""
    targets = np.asarray(targets, dtype=np.float64)
    pred, latents, caches = _forward(params, batch)
    if pred.shape != targets.shape:
        raise ValidationError("batch and targets must have equal length")
    value, dpred = _supervised_loss_grad(pred, targets, loss.mode,
                                         loss.lambda_hybrid, loss.offset,
                                         mape_space=loss.mape_space,
                                         normalizer=loss.normalizer)
    grads = params.tensors.zeros_like()
    use_cmd = loss.alpha_cmd > 0.0 and target_batch is not None
    cmd_value = 0.0
    if use_cmd:
        pred_t, latents_t, caches_t = _forward(params, target_batch)
        cmd_value, dzs, dzt = _cmd_forward_backward(latents.z, latents_t.z,
                                                    loss.cmd_order)
        value += loss.alpha_cmd * cmd_value
        dzs = loss.alpha_cmd * dzs
        dzt = loss.alpha_cmd * dzt
        for cache in caches:
            _backward_group(params.tensors, params.config, cache,
                            dpred[cache.indices], dzs[cache.indices], grads)
        zero_pred = np.zeros(pred_t.shape[0])
        for cache in caches_t:
            _backward_group(params.tensors, params.config, cache,
                            zero_pred[cache.indices], dzt[cache.indices],
                            grads)
    else:
        for cache in caches:
            _backward_group(params.tensors, params.config, cache,
                            dpred[cache.indices], None, grads)
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


def _make_optimizer(config: CostModelConfig):
    if config.optimizer == "adam":
        return nn.Adam(weight_decay=config.weight_decay)
    return nn.Sgd(weight_decay=config.weight_decay)


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


def _evaluate(params: CostModelParams, inputs: list[EncodedInput],
              latencies: np.ndarray,
              normalizer: BoxCoxNormalizer) -> dict[str, float]:
    pred_enc, _ = forward(params, inputs)
    try:
        pred = normalizer.decode(pred_enc)
    except DomainError:
        return {"mape": math.inf, "rmse": math.inf, "mspe": math.inf}
    return metrics(pred, latencies)


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

    opt = _make_optimizer(config)
    rng = np.random.default_rng(config.seed)
    spec = LossSpec(mode=config.loss_mode, lambda_hybrid=config.lambda_hybrid,
                    alpha_cmd=config.alpha_cmd, cmd_order=config.cmd_order,
                    offset=normalizer.loss_offset,
                    mape_space=config.mape_space, normalizer=normalizer)
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
            value, grads, aux = backward(params, batch, targets[batch_idx],
                                         spec, target_batch=target_batch)
            if not math.isfinite(value):
                raise NonFiniteLoss(epoch)
            losses.append(value)
            cmd_values.append(aux["cmd"])
            opt.step(params.tensors, grads, lr)
        val = _evaluate(params, valid_inputs, valid_latency, normalizer)
        log.append(EpochLog(epoch=epoch, train_loss=float(np.mean(losses)),
                            val_mape=val["mape"], val_rmse=val["rmse"],
                            lr=lr, cmd=float(np.mean(cmd_values))))
        if not keep_best or val["mape"] < best_mape:
            best_epoch, best_mape = epoch, val["mape"]
            best = params.copy() if keep_best else params
    return TrainResult(params=best, normalizer=normalizer, log=log,
                       best_epoch=best_epoch, best_val_mape=best_mape)


def train(config: CostModelConfig, ds: Dataset,
          devices: dict[str, DeviceSpec],
          normalizer: BoxCoxNormalizer | None = None) -> TrainResult:
    """Seeded minibatch training on the train split from fresh parameters.
    Returns the parameters of the epoch with the best validation MAPE
    (measured in the original label space), or the last ones if no epoch
    had a finite one. There is no target pool, so `alpha_cmd` is ignored."""
    config.validate()
    train_samples, valid_samples = _train_valid(ds, "train")
    if normalizer is None:
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
                target_inputs: list[EncodedInput], k: int = 5) -> float:
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
    return float(normalizer.decode(pred_enc[0]))


def predict_batch(params: CostModelParams, inputs: list[EncodedInput],
                  normalizer: BoxCoxNormalizer) -> np.ndarray:
    pred_enc, _ = forward(params, inputs)
    return np.asarray(normalizer.decode(pred_enc))


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
        elif isinstance(choices, tuple) and choices[0] == "uniform":
            sampled[key] = float(rng.uniform(choices[1], choices[2]))
        elif isinstance(choices, tuple) and choices[0] == "loguniform":
            sampled[key] = float(math.exp(
                rng.uniform(math.log(choices[1]), math.log(choices[2]))))
        elif isinstance(choices, tuple) and choices[0] == "int":
            sampled[key] = int(rng.integers(choices[1], choices[2] + 1))
        else:
            raise ValidationError(f"bad search space entry for '{key}'")
    return sampled


def tune(space: dict, budget: int, ds: Dataset,
         devices: dict[str, DeviceSpec], seed: int = 0,
         base: CostModelConfig | None = None,
         epochs_cap: int = 30) -> tuple[CostModelConfig, list[Trial]]:
    """Seeded random search: samples `budget` configs from `space`, trains
    each for at most epochs_cap epochs, returns the config with the lowest
    validation MAPE (ties go to the earlier trial)."""
    if budget < 1:
        raise ValidationError("budget must be >= 1")
    base = base or desk_config()
    rng = np.random.default_rng(seed)
    candidates = []
    for i in range(budget):
        sampled = _sample_space(space, rng)
        candidates.append(replace(base, epochs=min(epochs_cap, base.epochs),
                                  **sampled))
    trials: list[Trial] = []
    best_idx = 0
    for i, config in enumerate(candidates):
        result = train(config, ds, devices)
        trials.append(Trial(index=i, config=config,
                            val_mape=result.best_val_mape))
        if trials[i].val_mape < trials[best_idx].val_mape:
            best_idx = i
    return candidates[best_idx], trials


# ---------------------------------------------------------------------------
# Coverage diagnostic
# ---------------------------------------------------------------------------

def latent_epsilon(z_all: np.ndarray, z_selected: np.ndarray) -> float:
    """max over all points of the distance to the nearest selected point."""
    z_all = np.atleast_2d(np.asarray(z_all, dtype=np.float64))
    z_selected = np.atleast_2d(np.asarray(z_selected, dtype=np.float64))
    if z_selected.shape[0] == 0:
        raise EmptySelection("need at least one selected point")
    diff = z_all[:, None, :] - z_selected[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))
    return float(dist.min(axis=1).max())


def encode_latents(params: CostModelParams, compacts: list[CompactAst],
                   device: DeviceSpec) -> np.ndarray:
    inputs = [encode_input(c, device) for c in compacts]
    _, latents = forward(params, inputs)
    return latents.z_x


def epsilon_diag(all_features: list[CompactAst],
                 selected: list[CompactAst], params: CostModelParams,
                 device: DeviceSpec) -> float:
    """Worst-case latent-space distance from any program to its nearest
    selected program (device-independent embeddings)."""
    if not selected:
        raise EmptySelection("need at least one selected program")
    z_all = encode_latents(params, all_features, device)
    z_sel = encode_latents(params, selected, device)
    return latent_epsilon(z_all, z_sel)


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
                    normalizer: BoxCoxNormalizer | None = None) -> None:
    """Single-file checkpoint: config + normalizer as JSON metadata, tensors
    as float64 arrays, with a content checksum verified on load."""
    meta = {
        "version": _CHECKPOINT_VERSION,
        "config": asdict(params.config),
        "normalizer": asdict(normalizer) if normalizer is not None else None,
        "checksum": _tensor_checksum(params.tensors),
    }
    meta_bytes = np.frombuffer(json.dumps(meta, sort_keys=True).encode(),
                               dtype=np.uint8)
    buf = io.BytesIO()
    np.savez(buf, __meta__=meta_bytes, **params.tensors)
    with open(path, "wb") as f:
        f.write(buf.getvalue())


def load_checkpoint(path) -> tuple[CostModelParams, BoxCoxNormalizer | None]:
    try:
        with np.load(path) as data:
            if "__meta__" not in data:
                raise CheckpointError("missing metadata block")
            meta = json.loads(bytes(data["__meta__"]).decode())
            if meta.get("version") != _CHECKPOINT_VERSION:
                raise CheckpointError(
                    f"unsupported version {meta.get('version')}")
            tensors = {name: np.asarray(data[name], dtype=np.float64)
                       for name in data.files if name != "__meta__"}
    except (ValueError, KeyError, OSError, json.JSONDecodeError,
            zipfile.BadZipFile) as e:
        raise CheckpointError(f"cannot read checkpoint: {e}") from e
    if _tensor_checksum(tensors) != meta["checksum"]:
        raise CheckpointError("checksum mismatch: corrupt checkpoint")
    cfg_dict = dict(meta["config"])
    cfg_dict["decoder_dims"] = tuple(cfg_dict["decoder_dims"])
    config = CostModelConfig(**cfg_dict)
    params = CostModelParams(config=config, tensors=tensors)
    norm = None
    if meta["normalizer"] is not None:
        norm = BoxCoxNormalizer(**meta["normalizer"])
    return params, norm
