"""Device-independent and device-dependent feature extraction.

A program AST is flattened into a *compact* form: one fixed-width
computation vector per compute leaf plus an ordering vector derived from a
marker-annotated pre-order serialization (marker -1 emitted after every
leaf id). A sinusoidal positional encoding of each leaf's serialized
position, with base theta fixed at 10000, is added to its computation vector
to form the model input.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from math import log2
from pathlib import Path

import numpy as np

from .errors import (ValidationError, json_int, json_number, json_object,
                     json_str, read_json)
from .ir import AstNode, ComputeStats, LoopInfo, ProgramAst

N_ENTRY = 24  # computation-vector width; must stay even for the PE formulas
DEVICE_FEATURES = 6  # width of device_vector
THETA = 10000.0
MARKER = -1
_EXTENT_PRODUCT_LIMIT = 2 ** 62

# Computation-vector schema (fixed order, length N_ENTRY):
#   0  loop depth
#   1  log2(1 + product of enclosing extents)          (0 if no loops)
#   2  log2(1 + innermost extent)                      (0 if no loops)
#   3  log2(1 + outermost extent)                      (0 if no loops)
#   4  number of vectorized enclosing loops
#   5  number of unrolled enclosing loops
#   6  number of parallel enclosing loops
#   7  log2(1 + extent product of vectorized loops)    (0 if none)
#   8  log2(1 + extent product of unrolled loops)      (0 if none)
#   9  log2(1 + extent product of parallel loops)      (0 if none)
#   10 log2(1 + fma per iteration)
#   11 log2(1 + add per iteration)
#   12 log2(1 + mul per iteration)
#   13 log2(1 + div per iteration)
#   14 log2(1 + special per iteration)
#   15 log2(1 + total flops over all iterations), fma counted as 2 flops
#   16 log2(1 + bytes read per iteration)
#   17 log2(1 + bytes written per iteration)
#   18 log2(1 + total bytes read)
#   19 log2(1 + total bytes written)
#   20 distinct buffers read
#   21 distinct buffers written
#   22 arithmetic intensity: total flops / (total bytes + 1), raw
#   23 leaf position fraction: leaf_index / n_leaf, raw

IDX_LOG_TOTAL_FLOPS = 15
IDX_LOG_TOTAL_BYTES_READ = 18
IDX_LOG_TOTAL_BYTES_WRITTEN = 19
IDX_PARALLEL_COUNT = 6
IDX_LOG_PARALLEL_EXTENT = 9


@dataclass(frozen=True)
class CompactAst:
    """Per-leaf computation vectors plus the serialized-position ordering."""

    leaf_vectors: np.ndarray  # (n_leaf, N_ENTRY) float64
    ordering: tuple[int, ...]  # position of each leaf id in `serialized`
    serialized: tuple[int, ...]  # pre-order node ids with MARKER after leaves
    n_leaf: int

    def __eq__(self, other) -> bool:
        if not isinstance(other, CompactAst):
            return NotImplemented
        return (self.n_leaf == other.n_leaf
                and self.ordering == other.ordering
                and self.serialized == other.serialized
                and np.array_equal(self.leaf_vectors, other.leaf_vectors))


@dataclass(frozen=True)
class DeviceSpec:
    """Hardware descriptor used for the device-dependent feature vector.

    peak_fp32_gflops and l2_cache_mb use 0 to mean "unknown"."""

    name: str
    clock_mhz: float
    mem_gb: float
    bandwidth_gbps: float
    cores: int
    peak_fp32_gflops: float = 0.0
    l2_cache_mb: float = 0.0

    @classmethod
    def from_dict(cls, d: dict) -> "DeviceSpec":
        """A spec from a catalog entry; KeyError for a missing field."""
        return cls(name=json_str(d["name"], "name"),
                   cores=json_int(d["cores"], "cores", 1),
                   **{key: json_number(d[key], key, 0.0, inclusive=False)
                      for key in ("clock_mhz", "mem_gb", "bandwidth_gbps")},
                   **{key: json_number(d.get(key, 0.0), key, 0.0)
                      for key in ("peak_fp32_gflops", "l2_cache_mb")})


def load_device_catalog(path: str | Path) -> dict[str, DeviceSpec]:
    """Load a JSON list of device specs, keyed by device name. A malformed
    file raises ValidationError naming the file and the entry index."""
    entries = read_json(path)
    if not isinstance(entries, list):
        raise ValidationError(f"{path}: device catalog must be a JSON list")
    catalog = {}
    for i, entry in enumerate(entries):
        try:
            spec = DeviceSpec.from_dict(json_object(entry, "device spec"))
        except (KeyError, ValidationError) as e:
            what = f"missing field {e}" if isinstance(e, KeyError) else e
            raise ValidationError(f"{path}: entry {i}: {what}") from e
        if spec.name in catalog:
            raise ValidationError(
                f"{path}: entry {i}: duplicate device name '{spec.name}'")
        catalog[spec.name] = spec
    return catalog


def save_device_catalog(catalog: dict[str, DeviceSpec],
                        path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump([asdict(s) for s in catalog.values()], f, indent=2)
        f.write("\n")


@dataclass(frozen=True)
class EncodedInput:
    """Model-ready input: PE-augmented leaf vectors plus device features."""

    matrix: np.ndarray  # (n_leaf, N_ENTRY)
    device_vector: np.ndarray  # (DEVICE_FEATURES,)

    @property
    def n_leaf(self) -> int:
        return self.matrix.shape[0]


def _log_extent_product(loops: list[LoopInfo]) -> tuple[float, int]:
    """(log2(1 + product of extents), product); empty list maps to (0, 0)."""
    if not loops:
        return 0.0, 0
    product = 1
    for lp in loops:
        product *= lp.extent
    if product > _EXTENT_PRODUCT_LIMIT:
        raise ValidationError(f"extent product {product} exceeds 2^62")
    return log2(1 + product), product


def compute_vector(leaf: ComputeStats, enclosing: list[LoopInfo],
                   leaf_index: int, n_leaf: int) -> np.ndarray:
    """Fill the 24-entry schema for one leaf under its enclosing loops
    (outermost first), as Python floats made into one array at the end."""
    log_prod, iters = _log_extent_product(enclosing)
    if enclosing:
        v = [float(len(enclosing)), log_prod, log2(1 + enclosing[-1].extent),
             log2(1 + enclosing[0].extent)]
    else:
        v = [0.0, 0.0, 0.0, 0.0]
        iters = 1  # a loop-free leaf body executes once
    tagged = [[lp for lp in enclosing if annot in lp.annotations]
              for annot in ("vectorize", "unroll", "parallel")]
    v += [float(len(loops)) for loops in tagged]
    v += [_log_extent_product(loops)[0] for loops in tagged]
    per_iter_flops = (2 * leaf.fma_count + leaf.add_count + leaf.mul_count
                      + leaf.div_count + leaf.special_count)
    v += [log2(1 + count) for count in (leaf.fma_count, leaf.add_count,
                                        leaf.mul_count, leaf.div_count,
                                        leaf.special_count)]
    total_flops = per_iter_flops * iters
    total_read = leaf.bytes_read * iters
    total_written = leaf.bytes_written * iters
    try:
        v += [log2(1 + total_flops), log2(1 + leaf.bytes_read),
              log2(1 + leaf.bytes_written), log2(1 + total_read),
              log2(1 + total_written), float(leaf.buffers_read),
              float(leaf.buffers_written),
              total_flops / (total_read + total_written + 1),
              leaf_index / n_leaf]
    except OverflowError as e:  # a count past the float range
        raise ValidationError(f"leaf {leaf_index}: {e}") from e
    return np.array(v, dtype=np.float64)


def build_compact_ast(ast: ProgramAst) -> CompactAst:
    """Serialize the tree pre-order (marker after each leaf) and extract one
    computation vector per leaf."""
    serialized: list[int] = []
    ordering: list[int] = []
    leaves: list[tuple[ComputeStats, list[LoopInfo]]] = []
    next_id = 0

    def visit(node: AstNode, ctx: list[LoopInfo]) -> None:
        nonlocal next_id
        node_id = next_id
        next_id += 1
        if node.is_leaf:
            ordering.append(len(serialized))
            serialized.append(node_id)
            serialized.append(MARKER)
            leaves.append((node.stats, list(ctx)))
            return
        serialized.append(node_id)
        ctx.append(node.loop)
        for child in node.children:
            visit(child, ctx)
        ctx.pop()

    visit(ast.root, [])
    n_leaf = len(leaves)
    vectors = np.stack([
        compute_vector(stats, ctx, idx, n_leaf)
        for idx, (stats, ctx) in enumerate(leaves)
    ])
    return CompactAst(leaf_vectors=vectors, ordering=tuple(ordering),
                      serialized=tuple(serialized), n_leaf=n_leaf)


_PE_DIVISOR = THETA ** (2.0 * np.arange(N_ENTRY // 2, dtype=np.float64)
                        / N_ENTRY)


def positional_encoding(compact: CompactAst) -> np.ndarray:
    """Sinusoidal encoding of each leaf's serialized position.

    Row xi: column 2d holds sin(V[xi] / theta^(2d/N_ENTRY)) and column
    2d+1 the matching cos, with theta fixed at 10000. All entries lie in
    [-1, 1].
    """
    positions = np.asarray(compact.ordering, dtype=np.float64)[:, None]
    angles = positions / _PE_DIVISOR  # (n_leaf, N_ENTRY/2)
    pe = np.empty((compact.n_leaf, N_ENTRY), dtype=np.float64)
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles)
    return pe


def device_vector(device: DeviceSpec) -> np.ndarray:
    """6-entry log-compressed hardware feature vector."""
    raw = np.array([device.clock_mhz, device.mem_gb, device.bandwidth_gbps,
                    float(device.cores), device.peak_fp32_gflops,
                    device.l2_cache_mb], dtype=np.float64)
    return np.log2(1.0 + raw)


def encode_input(compact: CompactAst, device: DeviceSpec) -> EncodedInput:
    """Add the positional encoding to the leaf vectors and attach device
    features."""
    matrix = compact.leaf_vectors + positional_encoding(compact)
    return EncodedInput(matrix=matrix, device_vector=device_vector(device))
