"""Sample persistence, Box-Cox label normalization, dataset splitting, and a
synthetic latency oracle for desk-scale experiments.

The oracle prices each leaf at the larger of its compute time and its memory
time (classic roofline shape) so that a smooth, learnable ground truth exists
without hardware.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (DegenerateLabels, DomainError, EmptyDataset,
                     MissingPeakFlops, NotFitted, ValidationError, json_int,
                     json_list, json_number, json_object, json_str,
                     read_text)
from .features import (IDX_LOG_PARALLEL_EXTENT, IDX_LOG_TOTAL_BYTES_READ,
                       IDX_LOG_TOTAL_BYTES_WRITTEN, IDX_LOG_TOTAL_FLOPS,
                       IDX_PARALLEL_COUNT, N_ENTRY, CompactAst, DeviceSpec,
                       build_compact_ast)
from .ir import (AstNode, ComputeStats, LoopInfo, ProgramAst, leaf, loop,
                 make_program)

SPLITS = ("train", "valid", "test", "holdout")
SPLIT_RATIOS = (8, 1, 1)  # default train:valid:test weights

# Stand-in accelerator for synthetic datasets and desk-scale experiments.
# Balance point ~14 flops/byte so both roofline regimes occur.
DEFAULT_SYNTH_DEVICE = DeviceSpec(name="synth0", clock_mhz=1000.0,
                                  mem_gb=16.0, bandwidth_gbps=1024.0,
                                  cores=16, peak_fp32_gflops=2048.0,
                                  l2_cache_mb=4.0)


@dataclass
class Sample:
    id: str
    task_id: str
    model_id: str
    device_id: str
    compact: CompactAst
    latency_s: float


@dataclass
class Dataset:
    samples: list[Sample] = field(default_factory=list)
    splits: dict[str, str] = field(default_factory=dict)

    def subset(self, split: str) -> list[Sample]:
        return [s for s in self.samples if self.splits.get(s.id) == split]

    def labels(self, split: str | None = None) -> np.ndarray:
        samples = self.samples if split is None else self.subset(split)
        return np.array([s.latency_s for s in samples], dtype=np.float64)


# ---------------------------------------------------------------------------
# Box-Cox normalization
# ---------------------------------------------------------------------------

_LAMBDA_ZERO_EPS = 1e-9
_LAMBDA_RANGE = (-2.0, 2.0)  # fit_boxcox's search interval for lambda
_LAMBDA_TOL = 1e-5


@dataclass
class BoxCoxNormalizer:
    """Power transform ((y+shift)^lambda - 1)/lambda, log at lambda ~ 0,
    plus standardization statistics of the transformed training labels."""

    lambda_bc: float = 0.0
    shift: float = 0.0
    fitted: bool = False
    t_mean: float = 0.0
    t_std: float = 1.0
    loss_offset: float = 0.0  # makes standardized training labels positive

    def _check(self) -> None:
        if not self.fitted:
            raise NotFitted("normalizer used before fit")

    def transform(self, y):
        self._check()
        arr = np.asarray(y, dtype=np.float64)
        shifted = arr + self.shift
        if np.any(shifted <= 0):
            raise DomainError("transform input must be > -shift")
        if abs(self.lambda_bc) < _LAMBDA_ZERO_EPS:
            out = np.log(shifted)
        else:
            out = (np.power(shifted, self.lambda_bc) - 1.0) / self.lambda_bc
        return float(out) if np.isscalar(y) else out

    def encode(self, y):
        """Original scale -> standardized transformed scale (model space)."""
        return (self.transform(y) - self.t_mean) / self.t_std

    def decode(self, e):
        """Model space -> original scale; the normalizer's only inverse. An
        output with no positive preimage (lambda*t + 1 <= 0) decodes to +inf
        and a NaN stays NaN; a scalar gives a float."""
        self._check()
        if isinstance(e, float):  # one prediction: the same ufuncs, no arrays
            t = e * self.t_std + self.t_mean
            if abs(self.lambda_bc) < _LAMBDA_ZERO_EPS:
                return float(np.exp(t) - self.shift)
            base = self.lambda_bc * t + 1.0
            if base <= 0:
                return math.inf
            return float(np.power(base, 1.0 / self.lambda_bc) - self.shift)
        t = np.asarray(e, dtype=np.float64) * self.t_std + self.t_mean
        if abs(self.lambda_bc) < _LAMBDA_ZERO_EPS:
            out = np.exp(t) - self.shift
        else:
            base = self.lambda_bc * t + 1.0
            bad = base <= 0  # not ~(base > 0): a NaN stays NaN
            power = np.power(np.where(bad, 1.0, base), 1.0 / self.lambda_bc)
            out = np.where(bad, np.inf, power - self.shift)
        return float(out) if np.isscalar(e) else out


def _golden_section_max(f, lo: float, hi: float, tol: float) -> float:
    """Golden-section search for the maximizer of a unimodal f on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def _log_sum_exp(a: np.ndarray) -> np.float64:
    """log(sum(exp(a))), shifted by the maximum of a; the terms at the
    maximum are counted rather than summed."""
    a_max = np.max(a)
    if a_max == -np.inf:  # every term is exp(-inf) = 0
        return a_max
    top = a == a_max
    m = np.sum(top, dtype=np.float64)
    s = np.sum(np.exp(np.where(top, -np.inf, a) - a_max))
    return np.log1p(s / m) + np.log(m) + a_max


def _boxcox_llf(lam: float, y: np.ndarray) -> float:
    """Box-Cox profile log-likelihood (lam - 1) sum(log y) - n/2 log(var),
    with the variance of (y^lam - 1)/lam taken in the log domain: for lam
    != 0 it is the log of the variance of y^lam = exp(lam log y) less
    2 log|lam|, so labels up to the largest float do not overflow."""
    logy = np.log(y)
    n = y.size
    if lam == 0:
        logvar = np.log(np.var(logy))
    else:
        logx = lam * logy
        logmean = _log_sum_exp(logx) - math.log(n)
        hi, lo = np.maximum(logx, logmean), np.minimum(logx, logmean)
        with np.errstate(divide="ignore"):  # log|x - mean| is -inf at a tie
            log_dev = hi + np.log1p(-np.exp(lo - hi))
        logvar = (_log_sum_exp(2 * log_dev) - math.log(n)
                  - 2 * math.log(abs(lam)))
    return float((lam - 1) * np.sum(logy) - n / 2 * logvar)


def fit_boxcox(train_labels) -> BoxCoxNormalizer:
    """Maximum-likelihood Box-Cox fit via golden-section search on the
    profile log-likelihood, computed in the log domain, followed by
    standardization of the transformed labels. DegenerateLabels when the
    transformed labels are constant or their statistics are not finite."""
    y = np.asarray(train_labels, dtype=np.float64)
    if y.size < 2 or np.unique(y).size < 2:
        raise DegenerateLabels("need at least 2 distinct labels")
    if np.any(y < 0):
        raise ValidationError("labels must be positive")
    shift = 1e-12 if np.any(y == 0) else 0.0
    shifted = y + shift

    lam = _golden_section_max(lambda l: _boxcox_llf(l, shifted),
                              *_LAMBDA_RANGE, _LAMBDA_TOL)
    norm = BoxCoxNormalizer(lambda_bc=lam, shift=shift, fitted=True)
    with np.errstate(over="ignore", invalid="ignore"):
        t = norm.transform(y)
        t_mean, t_std = float(np.mean(t)), float(np.std(t))
    if not (math.isfinite(t_mean) and math.isfinite(t_std)):
        raise DegenerateLabels(
            f"labels transformed at lambda {lam} overflow the float range")
    # not t_std == 0.0: the std of equal values is nonzero when the mean rounds
    if t.max() == t.min():
        raise DegenerateLabels("transformed labels are constant")
    norm.t_mean = t_mean
    norm.t_std = t_std
    standardized = (t - norm.t_mean) / t_std
    norm.loss_offset = 1.0 - float(np.min(standardized))
    return norm


def skewness(values) -> float:
    """Fisher-Pearson sample skewness; NaN for values that are all equal.
    It does not change when the values are scaled, so they are first divided
    by a power of two near their largest magnitude: other finite values give
    a finite result."""
    x = np.asarray(values, dtype=np.float64)
    _, exponent = np.frexp(np.max(np.abs(x), initial=0.0))
    x = np.ldexp(x, -exponent)
    mean = np.mean(x)
    d = x - mean
    m2 = np.mean(d**2)
    if m2 <= (np.finfo(np.float64).eps * mean)**2:
        return math.nan
    return float(np.mean(d**2 * d) / m2**1.5)


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

def split_dataset(ds: Dataset, ratios: tuple[int, int, int] = SPLIT_RATIOS,
                  seed: int = 0,
                  holdout_models: frozenset[str] | set[str] = frozenset()
                  ) -> Dataset:
    """Assign every sample to train/valid/test (ratios, seeded shuffle) or to
    holdout when its model_id is held out."""
    if not ds.samples:
        raise EmptyDataset("cannot split an empty dataset")
    if min(ratios) < 0 or sum(ratios) <= 0:
        raise ValidationError("ratios must be non-negative with positive sum")
    splits: dict[str, str] = {}
    rest: list[Sample] = []
    for s in ds.samples:
        if s.model_id in holdout_models:
            splits[s.id] = "holdout"
        else:
            rest.append(s)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(rest))
    total = sum(ratios)
    n = len(rest)
    n_valid = round(n * ratios[1] / total)
    n_test = round(n * ratios[2] / total)
    n_train = n - n_valid - n_test
    for pos, idx in enumerate(order):
        if pos < n_train:
            name = "train"
        elif pos < n_train + n_valid:
            name = "valid"
        else:
            name = "test"
        splits[rest[idx].id] = name
    return Dataset(samples=ds.samples, splits=splits)


# ---------------------------------------------------------------------------
# Synthetic latency oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthOracleConfig:
    flops_efficiency: float = 0.6
    mem_efficiency: float = 0.7
    per_leaf_overhead_s: float = 2e-6
    noise_sigma: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        if not (0.0 < self.flops_efficiency <= 1.0):
            raise ValidationError("flops_efficiency must be in (0, 1]")
        if not (0.0 < self.mem_efficiency <= 1.0):
            raise ValidationError("mem_efficiency must be in (0, 1]")
        for attr in ("per_leaf_overhead_s", "noise_sigma"):
            if not (0.0 <= getattr(self, attr) < math.inf):
                raise ValidationError(f"{attr} must be finite and >= 0")


def _noise_seed(compact: CompactAst, device_name: str, seed: int) -> int:
    h = hashlib.blake2b(digest_size=8)
    h.update(repr((compact.serialized, compact.ordering, seed,
                   device_name)).encode())
    h.update(np.ascontiguousarray(compact.leaf_vectors).tobytes())
    return int.from_bytes(h.digest(), "little")


def synth_latency(compact: CompactAst, device: DeviceSpec,
                  cfg: SynthOracleConfig) -> float:
    """Roofline-style latency: per leaf the max of compute and memory time,
    plus a fixed per-leaf overhead, with optional log-normal noise. A noise
    factor that takes a positive latency to 0 or past the largest float
    raises ValidationError."""
    cfg.validate()
    if device.peak_fp32_gflops <= 0:
        raise MissingPeakFlops(
            f"device '{device.name}' has no peak_fp32_gflops")
    flops_rate = device.peak_fp32_gflops * 1e9 * cfg.flops_efficiency
    bytes_rate = device.bandwidth_gbps * 1e9 / 8.0 * cfg.mem_efficiency
    total = cfg.per_leaf_overhead_s * compact.n_leaf
    for row in compact.leaf_vectors:
        flops = 2.0 ** row[IDX_LOG_TOTAL_FLOPS] - 1.0
        nbytes = (2.0 ** row[IDX_LOG_TOTAL_BYTES_READ] - 1.0
                  + 2.0 ** row[IDX_LOG_TOTAL_BYTES_WRITTEN] - 1.0)
        if row[IDX_PARALLEL_COUNT] > 0:
            p = min(float(device.cores),
                    2.0 ** row[IDX_LOG_PARALLEL_EXTENT] - 1.0)
            p = max(p, 1.0)
        else:
            p = 1.0
        total += max(flops / (flops_rate * p), nbytes / bytes_rate)
    if cfg.noise_sigma > 0 and total > 0:
        rng = np.random.default_rng(_noise_seed(compact, device.name, cfg.seed))
        exponent = cfg.noise_sigma * rng.standard_normal()
        try:
            total *= math.exp(exponent)
        except OverflowError:
            total = math.inf
        if not 0.0 < total < math.inf:
            raise ValidationError(
                f"noise_sigma = {cfg.noise_sigma!r} takes the latency out of "
                f"the float range (noise factor exp({exponent:.6g}))")
    return float(total)


# ---------------------------------------------------------------------------
# Random program generation
# ---------------------------------------------------------------------------

_MAX_EXTENT_BITS = 9.0  # extents stay in 1..512


def _rand_annotations(rng: np.random.Generator,
                      parallel_p: float = 0.15) -> frozenset[str]:
    annots = set()
    if rng.random() < parallel_p:
        annots.add("parallel")
    if rng.random() < 0.25:
        annots.add("vectorize")
    if rng.random() < 0.15:
        annots.add("unroll")
    return frozenset(annots)


def _rand_stats(rng: np.random.Generator) -> ComputeStats:
    # op counts log-uniform up to 512/iteration so both roofline regimes
    # (compute-bound and memory-bound) occur
    def log_count(bits: float) -> int:
        return int(round(2.0 ** rng.uniform(0.0, bits)))

    return ComputeStats(
        fma_count=log_count(9.0),
        add_count=log_count(5.0),
        mul_count=log_count(5.0),
        div_count=int(rng.integers(0, 3)),
        special_count=int(rng.integers(0, 3)),
        bytes_read=4 * log_count(5.0),
        bytes_written=4 * log_count(3.0),
        buffers_read=int(rng.integers(1, 5)),
        buffers_written=int(rng.integers(1, 3)),
    )


@dataclass
class _TaskTemplate:
    """Shared structure of one task: per-leaf loop chains under a common
    root loop, fixed annotations/stats, and a target iteration scale."""

    root_annots: frozenset[str]
    chain_annots: list[list[frozenset[str]]]  # per leaf, per chain loop
    stats: list[ComputeStats]
    e_center: float  # per-leaf log2 iteration target


def _random_template(rng: np.random.Generator) -> _TaskTemplate:
    n_leaves = int(rng.integers(1, 7))  # 1..6
    chain_annots = []
    stats = []
    for _ in range(n_leaves):
        chain_len = int(rng.integers(1, 4))  # depth 2..4 incl. the root
        chain_annots.append([_rand_annotations(rng) for _ in range(chain_len)])
        stats.append(_rand_stats(rng))
    return _TaskTemplate(root_annots=_rand_annotations(rng, parallel_p=0.4),
                         chain_annots=chain_annots, stats=stats,
                         e_center=float(rng.uniform(10.0, 20.0)))


def _split_exponent(rng: np.random.Generator, total: float,
                    parts: int) -> list[float]:
    """Split `total` bits across `parts` loops, each within [0, 9]."""
    out = []
    remaining = min(total, _MAX_EXTENT_BITS * parts)
    for i in range(parts):
        left = parts - i - 1
        lo = max(0.0, remaining - _MAX_EXTENT_BITS * left)
        hi = min(_MAX_EXTENT_BITS, remaining)
        e = float(rng.uniform(lo, hi)) if hi > lo else hi
        out.append(e)
        remaining -= e
    return out


def _extent_from_bits(e: float) -> int:
    return max(1, min(512, int(round(2.0 ** e))))


def _instantiate(template: _TaskTemplate, rng: np.random.Generator,
                 name: str) -> ProgramAst:
    counter = [0]

    def fresh(extent_bits: float, annots: frozenset[str]) -> LoopInfo:
        counter[0] += 1
        return LoopInfo(f"v{counter[0]}", _extent_from_bits(extent_bits),
                        annots)

    e_root = float(rng.uniform(2.0, 6.0))
    children: list[AstNode] = []
    for i, chain in enumerate(template.chain_annots):
        e_target = template.e_center + float(rng.uniform(-1.5, 1.5))
        bits = _split_exponent(rng, e_target - e_root, len(chain))
        node: AstNode = leaf(f"c{i}", template.stats[i])
        for loop_bits, loop_annots in zip(reversed(bits), reversed(chain)):
            node = loop(fresh(loop_bits, loop_annots), (node,))
        children.append(node)
    root = loop(fresh(e_root, template.root_annots), children)
    return make_program(name, root)


def random_program(rng: np.random.Generator, name: str) -> ProgramAst:
    """Random loop nest: a root loop over per-leaf chains, depth <= 4,
    1..6 leaves, extents in 1..512."""
    return _instantiate(_random_template(rng), rng, name)


def generate_synthetic(n: int, devices: list[DeviceSpec],
                       cfg: SynthOracleConfig, seed: int = 0,
                       task_size: int = 32, tasks_per_model: int = 4
                       ) -> Dataset:
    """Random programs grouped into tasks that share a base loop structure
    and iteration scale; labels come from the synthetic oracle."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    if not devices:
        raise ValidationError("need at least one device")
    cfg.validate()  # so that a ValidationError in the loop is a sample's
    rng = np.random.default_rng(seed)
    samples: list[Sample] = []
    task_idx = 0
    while len(samples) < n:
        template = _random_template(rng)
        model_id = f"m{task_idx // tasks_per_model}"
        for j in range(task_size):
            if len(samples) >= n:
                break
            i = len(samples)
            program = _instantiate(template, rng, f"t{task_idx}_p{j}")
            compact = build_compact_ast(program)
            device = devices[i % len(devices)]
            try:
                latency = synth_latency(compact, device, cfg)
            except ValidationError as e:
                raise ValidationError(f"sample s{i}: {e}") from e
            samples.append(Sample(id=f"s{i}", task_id=f"t{task_idx}",
                                  model_id=model_id, device_id=device.name,
                                  compact=compact, latency_s=latency))
        task_idx += 1
    return Dataset(samples=samples)


# ---------------------------------------------------------------------------
# JSONL persistence (floats written as their shortest exact repr)
# ---------------------------------------------------------------------------

def json_line(obj: dict) -> str:
    """One compact JSON line; ValidationError for a non-finite float."""
    try:
        return json.dumps(obj, separators=(",", ":"), allow_nan=False)
    except ValueError as e:
        raise ValidationError("cannot serialize non-finite float") from e


def compact_to_dict(compact: CompactAst) -> dict:
    """The n_leaf/vectors/ordering/serialized fields shared by a dataset line
    and an extracted program."""
    return {"n_leaf": compact.n_leaf, "vectors": compact.leaf_vectors.tolist(),
            "ordering": compact.ordering, "serialized": compact.serialized}


def sample_to_line(s: Sample) -> str:
    return json_line({"id": s.id, "task_id": s.task_id, "model_id": s.model_id,
                      "device_id": s.device_id, **compact_to_dict(s.compact),
                      "latency_s": s.latency_s})


def sample_from_dict(d) -> Sample:
    """A sample from a parsed dataset line, an object typed by the errors.py
    checkers: `vectors` holds n_leaf rows of N_ENTRY JSON numbers (older
    files wrote 0.0 as 0), `latency_s` is a number > 0, ids are strings."""
    d = json_object(d, "dataset line")
    n_leaf = json_int(d["n_leaf"], "n_leaf", 1)
    rows = json_list(d["vectors"], "vectors", lambda row, what: json_list(
        row, what, json_number, N_ENTRY), n_leaf)
    serialized = tuple(json_list(d["serialized"], "serialized", json_int))
    # each ordering entry is a leaf's position in `serialized`
    ordering = json_list(d["ordering"], "ordering", lambda o, what: json_int(
        o, what, 0, len(serialized) - 1), n_leaf)
    compact = CompactAst(leaf_vectors=np.array(rows), n_leaf=n_leaf,
                         ordering=tuple(ordering), serialized=serialized)
    return Sample(**{key: json_str(d[key], key)
                     for key in ("id", "task_id", "model_id", "device_id")},
                  compact=compact, latency_s=json_number(
                      d["latency_s"], "latency_s", 0.0, inclusive=False))


def save_dataset(ds: Dataset, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(sample_to_line(s) + "\n" for s in ds.samples)


def load_dataset(path: str | Path) -> Dataset:
    samples = []
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            samples.append(sample_from_dict(json.loads(line)))
        except json.JSONDecodeError as e:
            raise ValidationError(f"{path}:{lineno}: bad JSON: {e}") from e
        except (KeyError, ValidationError) as e:
            what = f"missing field {e}" if isinstance(e, KeyError) else e
            raise ValidationError(f"{path}:{lineno}: {what}") from e
    return Dataset(samples=samples)
