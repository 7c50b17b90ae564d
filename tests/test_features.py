import json
import math

import mpmath
import numpy as np
import pytest

from conftest import rand_program
from tpcost.errors import ValidationError
from tpcost.features import (MARKER, N_ENTRY, CompactAst, DeviceSpec,
                             build_compact_ast, compute_vector, device_vector,
                             encode_input, load_device_catalog,
                             positional_encoding)
from tpcost.ir import ComputeStats, LoopInfo, parse_program

T4 = DeviceSpec(name="t4", clock_mhz=1590, mem_gb=16, bandwidth_gbps=320,
                cores=40, peak_fp32_gflops=8100, l2_cache_mb=4)


def _compact(vectors, ordering, serialized):
    return CompactAst(leaf_vectors=np.asarray(vectors, dtype=np.float64),
                      ordering=tuple(ordering), serialized=tuple(serialized),
                      n_leaf=len(ordering))


# ---------------------------------------------------------------------------
# Serialization / ordering
# ---------------------------------------------------------------------------

def test_serialized_and_ordering_two_leaf_tree():
    ast = parse_program("""
    program q {
      for i in 0..2 { for j in 0..3 { compute a { fma=1 } } compute b { add=1 } }
    }""")
    compact = build_compact_ast(ast)
    assert compact.serialized == (0, 1, 2, -1, 3, -1)
    assert compact.ordering == (2, 4)
    assert compact.n_leaf == 2
    assert compact.leaf_vectors.shape == (2, N_ENTRY)


def test_serialized_single_leaf():
    ast = parse_program("program s { compute only { fma=1 } }")
    compact = build_compact_ast(ast)
    assert compact.serialized == (0, -1)
    assert compact.ordering == (0,)


def test_conv_relu_two_distinct_positions():
    ast = parse_program("""
    program cr {
      for n in 0..8 {
        for c in 0..16 { compute conv { fma=9 bytes_read=72 bytes_written=4 } }
        for c2 in 0..16 { compute relu { special=1 bytes_read=4 bytes_written=4 } }
      }
    }""")
    compact = build_compact_ast(ast)
    assert compact.n_leaf == 2
    assert len(set(compact.ordering)) == 2


def _count_nodes(node):
    return 1 + sum(_count_nodes(c) for c in node.children)


def test_serialization_invariants_on_random_trees(rng):
    for _ in range(60):
        ast = rand_program(rng)
        compact = build_compact_ast(ast)
        n_nodes = _count_nodes(ast.root)
        assert len(compact.serialized) == n_nodes + ast.n_leaf
        assert compact.serialized.count(MARKER) == ast.n_leaf
        assert list(compact.ordering) == sorted(compact.ordering)
        assert len(set(compact.ordering)) == ast.n_leaf
        for pos in compact.ordering:
            assert compact.serialized[pos] != MARKER
            assert compact.serialized[pos + 1] == MARKER


# ---------------------------------------------------------------------------
# Computation vector schema
# ---------------------------------------------------------------------------

def test_compute_vector_single_loop_example():
    stats = ComputeStats(fma_count=2, bytes_read=16, bytes_written=8)
    v = compute_vector(stats, [LoopInfo("i", 4)], 0, 1)
    assert v[0] == 1.0  # depth
    assert v[1] == pytest.approx(math.log2(5), abs=1e-12)
    assert v[2] == pytest.approx(math.log2(5), abs=1e-12)
    assert v[3] == pytest.approx(math.log2(5), abs=1e-12)
    assert v[15] == pytest.approx(math.log2(1 + 2 * 2 * 4), abs=1e-12)
    assert v[18] == pytest.approx(math.log2(1 + 16 * 4), abs=1e-12)
    assert v[19] == pytest.approx(math.log2(1 + 8 * 4), abs=1e-12)


def test_compute_vector_zero_stats_no_loops():
    v = compute_vector(ComputeStats(), [], 1, 2)
    expected = np.zeros(N_ENTRY)
    expected[23] = 0.5  # leaf fraction
    assert np.array_equal(v, expected)


def test_compute_vector_parallel_locality():
    stats = ComputeStats(fma_count=3, bytes_read=32)
    base = compute_vector(stats, [LoopInfo("i", 8)], 0, 1)
    para = compute_vector(stats, [LoopInfo("i", 8, frozenset({"parallel"}))],
                          0, 1)
    diff = np.flatnonzero(base != para)
    assert set(diff) == {6, 9}
    assert para[6] == 1.0
    assert para[9] == pytest.approx(math.log2(9), abs=1e-12)


def test_compute_vector_leaf_fraction_only_difference():
    stats = ComputeStats(mul_count=5, bytes_read=64)
    loops = [LoopInfo("i", 16), LoopInfo("j", 4, frozenset({"vectorize"}))]
    a = compute_vector(stats, loops, 0, 4)
    b = compute_vector(stats, loops, 3, 4)
    diff = np.flatnonzero(a != b)
    assert set(diff) == {23}


def test_compute_vector_overflow():
    loops = [LoopInfo("a", 2 ** 32), LoopInfo("b", 2 ** 31)]
    with pytest.raises(ValidationError):
        compute_vector(ComputeStats(fma_count=1), loops, 0, 1)


@pytest.mark.parametrize("stats", [
    ComputeStats(fma_count=10 ** 400),  # flops per byte past the float range
    ComputeStats(fma_count=1, buffers_read=10 ** 400),
])
def test_compute_vector_count_too_large_for_a_float(stats):
    with pytest.raises(ValidationError, match="^leaf 2: "):
        compute_vector(stats, [LoopInfo("i", 4)], 2, 3)


# ---------------------------------------------------------------------------
# Positional encoding
# ---------------------------------------------------------------------------

def test_pe_zero_position_row():
    compact = _compact(np.zeros((1, N_ENTRY)), [0], [0, -1])
    pe = positional_encoding(compact)
    expected = np.tile([0.0, 1.0], N_ENTRY // 2)
    assert np.array_equal(pe[0], expected)


def test_pe_matches_high_precision_reference():
    mpmath.mp.dps = 50
    compact = _compact(np.zeros((3, N_ENTRY)), [1, 7, 42],
                       list(range(45)))
    pe = positional_encoding(compact)
    for row, pos in enumerate((1, 7, 42)):
        for delta in range(N_ENTRY // 2):
            angle = mpmath.mpf(pos) / mpmath.mpf(10000.0) ** (
                mpmath.mpf(2 * delta) / N_ENTRY)
            assert pe[row, 2 * delta] == pytest.approx(
                float(mpmath.sin(angle)), abs=1e-9)
            assert pe[row, 2 * delta + 1] == pytest.approx(
                float(mpmath.cos(angle)), abs=1e-9)


def test_pe_known_values_four_entry_slice():
    # hand-checked values for V=1 at the first two frequencies of a
    # 4-entry encoding: sin(1), cos(1), sin(0.01), cos(0.01)
    angle0 = 1.0
    angle1 = 1.0 / 10000.0 ** 0.5
    assert math.sin(angle0) == pytest.approx(0.841471, abs=1e-6)
    assert math.cos(angle0) == pytest.approx(0.540302, abs=1e-6)
    assert math.sin(angle1) == pytest.approx(0.010000, abs=1e-6)
    assert math.cos(angle1) == pytest.approx(0.999950, abs=1e-6)


def test_pe_bounds_and_injectivity(rng):
    positions = sorted(rng.choice(9000, size=12, replace=False))
    compact = _compact(np.zeros((12, N_ENTRY)), positions, range(9001))
    pe = positional_encoding(compact)
    assert np.all(pe <= 1.0) and np.all(pe >= -1.0)
    for i in range(12):
        for j in range(i + 1, 12):
            assert not np.array_equal(pe[i], pe[j])


# ---------------------------------------------------------------------------
# Encoded input
# ---------------------------------------------------------------------------

def test_encode_zero_vectors_equals_pe():
    compact = _compact(np.zeros((2, N_ENTRY)), [1, 3], [0, 1, -1, 3, -1])
    enc = encode_input(compact, T4)
    assert np.array_equal(enc.matrix, positional_encoding(compact))


def test_device_vector_t4():
    v = device_vector(T4)
    assert v[0] == pytest.approx(math.log2(1591), abs=1e-12)
    assert v[1] == pytest.approx(math.log2(17), abs=1e-12)
    assert v[2] == pytest.approx(math.log2(321), abs=1e-12)
    assert v[3] == pytest.approx(math.log2(41), abs=1e-12)
    assert v[4] == pytest.approx(math.log2(8101), abs=1e-12)
    assert v[5] == pytest.approx(math.log2(5), abs=1e-12)


def test_encode_device_independence(rng):
    ast = rand_program(rng)
    compact = build_compact_ast(ast)
    other = DeviceSpec(name="x", clock_mhz=824, mem_gb=12,
                       bandwidth_gbps=240.6, cores=26)
    a = encode_input(compact, T4)
    b = encode_input(compact, other)
    assert np.array_equal(a.matrix, b.matrix)
    assert not np.array_equal(a.device_vector, b.device_vector)


def test_catalog_entry_without_a_field_names_entry_and_field(tmp_path):
    path = tmp_path / "devices.json"
    path.write_text(json.dumps([{"name": "d", "mem_gb": 1,
                                 "bandwidth_gbps": 1, "cores": 1}]),
                    encoding="utf-8")
    with pytest.raises(ValidationError) as info:
        load_device_catalog(path)
    assert str(info.value) == f"{path}: entry 0: missing field 'clock_mhz'"
