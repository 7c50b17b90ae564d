import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from oracles import grid_mle_lambda

from tpcost.dataset import (_LAMBDA_RANGE, _LAMBDA_TOL, DEFAULT_SYNTH_DEVICE,
                            BoxCoxNormalizer, Dataset, SynthOracleConfig,
                            _boxcox_llf, _golden_section_max, fit_boxcox,
                            generate_synthetic, load_dataset, random_program,
                            sample_to_line, save_dataset, skewness,
                            split_dataset, synth_latency)
from tpcost.errors import (DegenerateLabels, DomainError, EmptyDataset,
                           MissingPeakFlops, NotFitted, ValidationError)
from tpcost.features import N_ENTRY, DeviceSpec, build_compact_ast
from tpcost.ir import parse_program


# ---------------------------------------------------------------------------
# Box-Cox
# ---------------------------------------------------------------------------

def test_lambda_one_is_pure_shift():
    norm = BoxCoxNormalizer(lambda_bc=1.0, shift=0.0, fitted=True)
    for y in (0.5, 1.0, 7.25):
        assert norm.transform(y) == pytest.approx(y - 1.0, abs=1e-12)


def test_lambda_zero_is_log():
    norm = BoxCoxNormalizer(lambda_bc=0.0, shift=0.0, fitted=True)
    assert norm.transform(math.e) == pytest.approx(1.0, abs=1e-12)


def test_lambda_half_example():
    norm = BoxCoxNormalizer(lambda_bc=0.5, shift=0.0, fitted=True)
    assert norm.transform(4.0) == pytest.approx(2.0, abs=1e-12)


def test_roundtrip_random_values(rng):
    # t_mean 0 and t_std 1 make decode's standardization exact: e*1 + 0 == e
    norm = BoxCoxNormalizer(lambda_bc=-0.37, shift=0.0, fitted=True,
                            t_mean=0.0, t_std=1.0)
    y = rng.uniform(1e-6, 10.0, size=1000)
    back = norm.decode(norm.transform(y))
    assert np.allclose(back, y, rtol=1e-6, atol=0)
    tight = norm.decode(norm.transform(0.003))
    assert tight == pytest.approx(0.003, abs=1e-9)


def test_not_fitted_and_domain_errors():
    with pytest.raises(NotFitted):
        BoxCoxNormalizer().transform(1.0)
    with pytest.raises(NotFitted):
        BoxCoxNormalizer().decode(np.array([1.0]))
    norm = BoxCoxNormalizer(lambda_bc=0.5, shift=0.0, fitted=True,
                            t_mean=0.0, t_std=1.0)
    with pytest.raises(DomainError):
        norm.transform(-1.0)  # -1 + shift <= 0
    assert norm.decode(-3.0) == math.inf  # 0.5*(-3)+1 <= 0: no preimage


LAMBDAS = (st.floats(-1e-9, 1e-9) | st.floats(-2.0, -1e-3)
           | st.floats(1e-3, 2.0))


@settings(max_examples=200, deadline=None)
@given(lam=LAMBDAS, t_mean=st.floats(-20.0, 20.0),
       t_std=st.floats(1e-3, 10.0),
       e=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8))
# outputs whose np.exp / np.power overflows to +inf, next to finite ones
@example(lam=0.0, t_mean=0.0, t_std=1.0, e=[800.0, -800.0, 0.5])
@example(lam=1e-3, t_mean=0.0, t_std=10.0, e=[1e3, -1e3, -200.0])
# non-finite outputs: NaN stays NaN; the log branch forms no lambda * t
@example(lam=0.0, t_mean=0.0, t_std=1.0, e=[math.nan, math.inf, -math.inf])
@example(lam=0.5, t_mean=0.0, t_std=1.0, e=[math.nan, math.inf, -math.inf])
@example(lam=-0.37, t_mean=0.0, t_std=1.0, e=[math.nan, math.inf, -math.inf])
def test_decode_is_inf_exactly_without_preimage(lam, t_mean, t_std, e):
    norm = BoxCoxNormalizer(lambda_bc=lam, shift=0.0, fitted=True,
                            t_mean=t_mean, t_std=t_std)
    e = np.array(e)
    t = e * t_std + t_mean
    if abs(lam) < 1e-9:
        no_preimage = np.zeros(t.shape, dtype=bool)  # log branch
    else:
        no_preimage = lam * t + 1.0 <= 0
    with np.errstate(over="ignore"):
        out = norm.decode(e)
        kept = t[~no_preimage]  # the closed-form inverse, where it exists
        in_range = (np.exp(kept) if abs(lam) < 1e-9
                    else np.power(lam * kept + 1.0, 1.0 / lam))
        # one prediction, as a numpy scalar (what `predict` passes) or float
        scalars = [norm.decode(v) for v in e] + [norm.decode(float(v))
                                                 for v in e]
    assert out.shape == e.shape
    assert np.all(out[no_preimage] == np.inf)
    assert out[~no_preimage].tobytes() == in_range.tobytes()
    assert all(type(scalar) is float for scalar in scalars)
    assert np.array(scalars).tobytes() == np.tile(out, 2).tobytes()


def test_fit_matches_grid_oracle_on_lognormal(rng):
    y = np.exp(rng.normal(0.0, 1.0, size=10000))
    norm = fit_boxcox(y)
    grid = grid_mle_lambda(y)
    assert abs(norm.lambda_bc - grid) <= 0.02
    assert -0.1 <= norm.lambda_bc <= 0.1


def _lognormal_labels(n, log_mean, log_sigma, seed, zero):
    """n labels exp(N(log_mean, log_sigma)), clipped to the finite floats;
    with `zero`, the first label is 0."""
    log_y = np.random.default_rng(seed).normal(log_mean, log_sigma, n)
    y = np.exp(np.clip(log_y, -745.0, 709.0))
    if zero:
        y[0] = 0.0
    return y


_LABEL_SETS = dict(n=st.integers(2, 300), log_mean=st.floats(-600.0, 600.0),
                   log_sigma=st.floats(0.01, 30.0),
                   seed=st.integers(0, 2**32 - 1), zero=st.booleans())


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(**_LABEL_SETS)
@example(n=40, log_mean=400.0, log_sigma=20.0, seed=1, zero=False)
@example(n=40, log_mean=400.0, log_sigma=20.0, seed=2, zero=True)
@example(n=5, log_mean=-230.0, log_sigma=0.5, seed=3, zero=True)
@example(n=34, log_mean=math.log(2.4e192), log_sigma=0.01, seed=0,
         zero=False)
def test_fit_lambda_matches_scipy_search(n, log_mean, log_sigma, seed, zero):
    # labels above 1e154 overflow y**lambda / lambda; the log domain does not
    y = _lognormal_labels(n, log_mean, log_sigma, seed, zero)
    assume(np.unique(y).size >= 2)
    shift = 1e-12 if zero else 0.0  # fit_boxcox's shift for a 0 label
    shifted = y + shift
    reference = _golden_section_max(
        lambda l: float(stats.boxcox_llf(l, shifted)), *_LAMBDA_RANGE,
        _LAMBDA_TOL)
    assert _golden_section_max(lambda l: _boxcox_llf(l, shifted),
                               *_LAMBDA_RANGE, _LAMBDA_TOL) == reference
    # labels far below the shift transform to constants, and huge narrow
    # ones past the float range at that lambda
    try:
        norm = fit_boxcox(y)
    except DegenerateLabels:
        return
    assert norm.lambda_bc == reference
    assert all(math.isfinite(v)
               for v in (norm.t_mean, norm.t_std, norm.loss_offset))


@pytest.mark.filterwarnings("ignore:Precision loss:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(**_LABEL_SETS, equal=st.booleans())
def test_skewness_matches_scipy_bit_for_bit(n, log_mean, log_sigma, seed,
                                            zero, equal):
    y = _lognormal_labels(n, log_mean, log_sigma, seed, zero)
    if equal:
        y[:] = y[-1]
    _, exponent = np.frexp(np.max(y))
    expected = float(stats.skew(np.ldexp(y, -exponent)))
    got = skewness(y)
    if math.isnan(expected):
        assert math.isnan(got)
    else:
        assert got == expected


def test_cli_import_leaves_scipy_out():
    # a fresh interpreter: this one has scipy loaded through oracles.py
    src = Path(__file__).resolve().parent.parent / "src"
    probe = ("import sys, tpcost.cli; print(sorted(m for m in sys.modules "
             "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"


def test_fit_rejects_degenerate_labels():
    with pytest.raises(DegenerateLabels):
        fit_boxcox([2.0] * 50)
    with pytest.raises(DegenerateLabels):
        fit_boxcox([1.0])


def test_fit_rejects_equal_transformed_labels_with_rounded_std():
    # lambda ~ -2 sends every y**lambda to 0, so the transformed labels are
    # all equal, yet their mean rounds and np.std gives 1.1e-16, not 0.0
    y = np.exp(np.random.default_rng(4).normal(math.log(2.4e192), 0.01, 34))
    with pytest.raises(DegenerateLabels, match="constant"):
        fit_boxcox(y)


def test_transform_strictly_monotone(rng):
    y = np.exp(rng.normal(0.0, 1.5, size=4000))
    norm = fit_boxcox(y)
    a = rng.uniform(1e-6, 50.0, size=10000)
    b = a + rng.uniform(1e-9, 5.0, size=10000)
    ta, tb = norm.transform(a), norm.transform(b)
    assert np.all(tb > ta)


def test_skewness_reduction_on_lognormal(rng):
    y = np.exp(rng.normal(0.0, 1.0, size=8000))
    norm = fit_boxcox(y)
    assert abs(skewness(norm.transform(y))) < abs(skewness(y))


def test_encode_decode_roundtrip(rng):
    y = np.exp(rng.normal(-6.0, 1.2, size=3000))
    norm = fit_boxcox(y)
    enc = norm.encode(y)
    assert abs(float(np.mean(enc))) < 1e-9
    assert float(np.std(enc)) == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(norm.decode(enc), y, rtol=1e-9)
    # loss offset makes every encoded training label strictly positive
    assert np.all(enc + norm.loss_offset >= 1.0 - 1e-12)


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

def _tiny_dataset(n, model_ids=None):
    rng = np.random.default_rng(0)
    ds = generate_synthetic(n, [DEFAULT_SYNTH_DEVICE], SynthOracleConfig(),
                            seed=7, task_size=4, tasks_per_model=2)
    if model_ids:
        for i, s in enumerate(ds.samples):
            s.model_id = model_ids[i % len(model_ids)]
    return ds


def test_split_exact_ratio_on_ten():
    ds = _tiny_dataset(10)
    ds = split_dataset(ds, seed=3)
    counts = {}
    for v in ds.splits.values():
        counts[v] = counts.get(v, 0) + 1
    assert counts == {"train": 8, "valid": 1, "test": 1}


def test_split_holdout_models():
    ds = _tiny_dataset(40, model_ids=["bert_tiny", "resnet", "mobilenet"])
    out = split_dataset(ds, seed=9, holdout_models={"bert_tiny"})
    for s in out.samples:
        if s.model_id == "bert_tiny":
            assert out.splits[s.id] == "holdout"
        else:
            assert out.splits[s.id] != "holdout"


def test_split_deterministic_and_partition():
    ds = _tiny_dataset(101)
    a = split_dataset(ds, seed=5)
    b = split_dataset(ds, seed=5)
    assert a.splits == b.splits
    assert set(a.splits) == {s.id for s in ds.samples}


def test_split_empty_dataset():
    with pytest.raises(EmptyDataset):
        split_dataset(Dataset(), seed=0)


# ---------------------------------------------------------------------------
# Synthetic oracle
# ---------------------------------------------------------------------------

def _compact_from(text):
    return build_compact_ast(parse_program(text))


def test_synth_latency_memory_bound_example():
    # 8e9 bytes read, zero flops, 320 Gbps at full efficiency -> 0.2 s
    compact = _compact_from("""
    program mem { for a in 0..1000 { for b in 0..1000 { for c in 0..1000 {
      compute move { bytes_read=8 }
    } } } }""")
    device = DeviceSpec(name="d", clock_mhz=1000, mem_gb=8,
                        bandwidth_gbps=320, cores=4, peak_fp32_gflops=100)
    cfg = SynthOracleConfig(flops_efficiency=1.0, mem_efficiency=1.0,
                            per_leaf_overhead_s=0.0, noise_sigma=0.0)
    assert synth_latency(compact, device, cfg) == pytest.approx(0.2, rel=1e-9)


def test_synth_latency_doubles_with_extent():
    base = ("program f {{ for i in 0..{n} {{ "
            "compute k {{ fma=512 bytes_read=4 }} }} }}")
    cfg = SynthOracleConfig(per_leaf_overhead_s=0.0, noise_sigma=0.0)
    t1 = synth_latency(_compact_from(base.format(n=64)),
                       DEFAULT_SYNTH_DEVICE, cfg)
    t2 = synth_latency(_compact_from(base.format(n=128)),
                       DEFAULT_SYNTH_DEVICE, cfg)
    assert t2 / t1 == pytest.approx(2.0, rel=1e-6)


def test_synth_latency_noise_deterministic():
    compact = _compact_from(
        "program p { for i in 0..32 { compute k { fma=8 bytes_read=64 } } }")
    cfg = SynthOracleConfig(noise_sigma=0.05, seed=42)
    a = synth_latency(compact, DEFAULT_SYNTH_DEVICE, cfg)
    b = synth_latency(compact, DEFAULT_SYNTH_DEVICE, cfg)
    assert a == b
    noiseless = synth_latency(compact, DEFAULT_SYNTH_DEVICE,
                              SynthOracleConfig(noise_sigma=0.0, seed=42))
    assert a != noiseless


def test_synth_latency_requires_peak_flops():
    compact = _compact_from(
        "program p { for i in 0..4 { compute k { fma=1 bytes_read=4 } } }")
    device = DeviceSpec(name="x", clock_mhz=1000, mem_gb=4,
                        bandwidth_gbps=100, cores=2, peak_fp32_gflops=0.0)
    with pytest.raises(MissingPeakFlops):
        synth_latency(compact, device, SynthOracleConfig())


def test_parallel_annotation_speeds_up_flop_bound_leaf():
    serial = _compact_from(
        "program s { for i in 0..256 { compute k { fma=512 bytes_read=4 } } }")
    parallel = _compact_from(
        "program p { for i in 0..256 @parallel "
        "{ compute k { fma=512 bytes_read=4 } } }")
    cfg = SynthOracleConfig(per_leaf_overhead_s=0.0, noise_sigma=0.0)
    t_serial = synth_latency(serial, DEFAULT_SYNTH_DEVICE, cfg)
    t_parallel = synth_latency(parallel, DEFAULT_SYNTH_DEVICE, cfg)
    assert t_parallel < t_serial


# ---------------------------------------------------------------------------
# Generation + persistence
# ---------------------------------------------------------------------------

def test_generate_positive_and_sized():
    ds = generate_synthetic(100, [DEFAULT_SYNTH_DEVICE], SynthOracleConfig(),
                            seed=3)
    assert len(ds.samples) == 100
    assert all(s.latency_s > 0 for s in ds.samples)
    assert all(1 <= s.compact.n_leaf <= 16 for s in ds.samples)


def test_generate_byte_identical_for_seed(tmp_path):
    cfg = SynthOracleConfig(noise_sigma=0.02)
    a = generate_synthetic(64, [DEFAULT_SYNTH_DEVICE], cfg, seed=17)
    b = generate_synthetic(64, [DEFAULT_SYNTH_DEVICE], cfg, seed=17)
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_dataset(a, pa)
    save_dataset(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_generated_labels_right_skewed():
    ds = generate_synthetic(1000, [DEFAULT_SYNTH_DEVICE], SynthOracleConfig(),
                            seed=23)
    assert skewness(ds.labels()) > 0.5


def test_random_program_respects_bounds(rng):
    for i in range(40):
        ast = random_program(rng, f"p{i}")
        assert 1 <= ast.n_leaf <= 16

        def max_depth(node):
            if node.is_leaf:
                return 0
            return 1 + max(max_depth(c) for c in node.children)

        assert max_depth(ast.root) <= 4

        def extents(node):
            if node.is_leaf:
                return
            assert 1 <= node.loop.extent <= 512
            for c in node.children:
                extents(c)

        extents(ast.root)


def test_jsonl_roundtrip(tmp_path):
    ds = generate_synthetic(50, [DEFAULT_SYNTH_DEVICE], SynthOracleConfig(),
                            seed=31)
    path = tmp_path / "ds.jsonl"
    save_dataset(ds, path)
    loaded = load_dataset(path)
    assert loaded.samples == ds.samples


def test_jsonl_float_precision(tmp_path):
    ds = generate_synthetic(5, [DEFAULT_SYNTH_DEVICE], SynthOracleConfig(),
                            seed=1)
    line = sample_to_line(ds.samples[0])
    d = json.loads(line)
    assert d["latency_s"] == ds.samples[0].latency_s  # lossless round-trip
    rendered = line.split("\"latency_s\":")[1].rstrip("}")
    assert rendered == repr(ds.samples[0].latency_s)  # shortest exact repr
    assert float(rendered) == ds.samples[0].latency_s


_NOT_A_LATENCY = "latency_s must be a finite JSON number > 0"


@pytest.mark.parametrize("field, value, message", [
    ("latency_s", None, "missing field 'latency_s'"),
    # the id predates the JSON type check, when float() rejected "fast"
    pytest.param("latency_s", "fast", _NOT_A_LATENCY,
                 id="latency_s-fast-could not convert"),
    ("vectors", [["x"]], "could not convert"),
    # bool is an int subclass, int() truncates 3.5, float() parses "1e-3"
    *(pytest.param(field, value, message, id=name)
      for name, field, value, message in [
          ("latency-true", "latency_s", True, _NOT_A_LATENCY),
          ("latency-string", "latency_s", "1e-3", _NOT_A_LATENCY),
          ("latency-zero", "latency_s", 0, _NOT_A_LATENCY),
          ("latency-negative", "latency_s", -1.0, _NOT_A_LATENCY),
          ("latency-huge-int", "latency_s", 10 ** 400, "too large"),
          ("n_leaf-true", "n_leaf", True, "n_leaf must be a JSON integer"),
          ("n_leaf-float", "n_leaf", 1.0, "n_leaf must be a JSON integer"),
          ("ordering-float", "ordering", [3.5], "ordering must be a list"),
          ("ordering-string", "ordering", ["0"], "ordering must be a list"),
          ("serialized-true", "serialized", [0, True],
           "serialized must be a list"),
          ("serialized-string", "serialized", "0",
           "serialized must be a list"),
          # a vectors entry is a finite JSON number, as any number is
          ("vectors-string", "vectors", [["7.5"]], "could not convert '7.5'"),
          ("vectors-true", "vectors", [[True]], "could not convert True"),
          ("vectors-nan", "vectors", [[math.nan]], "got nan"),
          ("vectors-inf", "vectors", [[math.inf]], "got inf"),
          ("vectors-short-row", "vectors", [[0.0] * (N_ENTRY - 1)],
           f"vectors must be a list: entry 0 must be a list of {N_ENTRY} "
           "entries"),
          ("vectors-short", "vectors", [], "vectors must be a list of")]),
])
def test_jsonl_bad_sample_names_line(tmp_path, field, value, message):
    ds = generate_synthetic(3, [DEFAULT_SYNTH_DEVICE], SynthOracleConfig(),
                            seed=2)
    lines = [json.loads(sample_to_line(s)) for s in ds.samples]
    if value is None:
        del lines[1][field]
    else:
        lines[1][field] = value
    path = tmp_path / "ds.jsonl"
    path.write_text("".join(json.dumps(d) + "\n" for d in lines),
                    encoding="utf-8")
    with pytest.raises(ValidationError) as info:
        load_dataset(path)
    assert f"{path}:2:" in str(info.value) and message in str(info.value)


@pytest.mark.parametrize("field", ["id", "task_id", "model_id", "device_id"])
@pytest.mark.parametrize("value", [None, [1], 7, True])
def test_jsonl_identifier_must_be_string(tmp_path, field, value):
    ds = generate_synthetic(2, [DEFAULT_SYNTH_DEVICE], SynthOracleConfig(),
                            seed=2)
    lines = [json.loads(sample_to_line(s)) for s in ds.samples]
    lines[1][field] = value
    path = tmp_path / "ds.jsonl"
    path.write_text("".join(json.dumps(d) + "\n" for d in lines),
                    encoding="utf-8")
    with pytest.raises(ValidationError,
                       match=f":2: {field} must be a JSON string, got "):
        load_dataset(path)


@pytest.mark.parametrize("text", ["NaN", "Infinity", "1e400"])
def test_jsonl_non_finite_latency_names_line(tmp_path, text):
    ds = generate_synthetic(1, [DEFAULT_SYNTH_DEVICE], SynthOracleConfig(),
                            seed=2)
    line = sample_to_line(ds.samples[0])
    head = line[:line.index("\"latency_s\":")]
    path = tmp_path / "ds.jsonl"
    path.write_text(f"{head}\"latency_s\":{text}}}\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=f":1: {_NOT_A_LATENCY}"):
        load_dataset(path)


def test_jsonl_integral_latency_loads(tmp_path):
    # older files wrote a whole-number latency without a decimal point
    ds = generate_synthetic(1, [DEFAULT_SYNTH_DEVICE], SynthOracleConfig(),
                            seed=2)
    ds.samples[0].latency_s = 1.0
    line = sample_to_line(ds.samples[0])
    head = line[:line.index("\"latency_s\":")]
    path = tmp_path / "ds.jsonl"
    path.write_text(f"{head}\"latency_s\":1}}\n", encoding="utf-8")
    assert load_dataset(path).samples == ds.samples


def test_jsonl_non_object_line(tmp_path):
    path = tmp_path / "ds.jsonl"
    path.write_text("[1, 2]\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=":1:"):
        load_dataset(path)


def test_jsonl_round_trip_is_exact(tmp_path):
    ds = generate_synthetic(3, [DEFAULT_SYNTH_DEVICE], SynthOracleConfig(),
                            seed=2)
    for s, latency in zip(ds.samples, (1.0, 5e-324, 0.1)):
        s.latency_s = latency
    path = tmp_path / "ds.jsonl"
    save_dataset(ds, path)
    loaded = load_dataset(path).samples
    assert loaded == ds.samples
    assert [s.latency_s.hex() for s in loaded] == [
        "0x1.0000000000000p+0", "0x0.0000000000001p-1022",
        "0x1.999999999999ap-4"]


@pytest.mark.parametrize("latency", [math.nan, math.inf])
def test_jsonl_non_finite_latency_is_not_written(tmp_path, latency):
    ds = generate_synthetic(1, [DEFAULT_SYNTH_DEVICE], SynthOracleConfig(),
                            seed=2)
    ds.samples[0].latency_s = latency
    with pytest.raises(ValidationError, match="non-finite"):
        save_dataset(ds, tmp_path / "ds.jsonl")


def test_jsonl_17_digit_file_loads(tmp_path):
    # the format older versions wrote: 17 significant digits, 0.0 as 0
    ds = generate_synthetic(20, [DEFAULT_SYNTH_DEVICE], SynthOracleConfig(),
                            seed=4)

    def old_line(s):
        def numbers(values):
            return "[" + ",".join(format(v, ".17g") for v in values) + "]"
        vectors = "[" + ",".join(numbers(row)
                                 for row in s.compact.leaf_vectors) + "]"
        assert ",0," in vectors or ",0]" in vectors
        return (f'{{"id":"{s.id}","task_id":"{s.task_id}",'
                f'"model_id":"{s.model_id}","device_id":"{s.device_id}",'
                f'"n_leaf":{s.compact.n_leaf},"vectors":{vectors},'
                f'"ordering":{list(s.compact.ordering)},'
                f'"serialized":{list(s.compact.serialized)},'
                f'"latency_s":{format(s.latency_s, ".17g")}}}')
    path = tmp_path / "ds.jsonl"
    path.write_text("".join(old_line(s) + "\n" for s in ds.samples),
                    encoding="utf-8")
    assert load_dataset(path).samples == ds.samples
