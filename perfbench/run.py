"""Benchmark of tpcost: pretrain, CMD fine-tune and serve/replay workloads.

    python3 perfbench/run.py --workload pretrain --seed 1 --seconds 10 --trace 0

Run from the root of a tpcost checkout; the package is imported from its
`src/`. With --trace 0 the last line of output is a JSON object with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
traced run instead. Lines before it report the environment, each metric under
the name the workload gives it, and every failed check. The exit code is 0
when every operation and output check passed, 1 when one failed, and 2 when
the command is not run inside a tpcost checkout.

The BLAS thread count is pinned to BLAS_THREADS before numpy is imported, so
that every commit is measured with the same setting.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path.cwd()
STATE_DIR = ROOT / ".perfbench"
SETUPS_PER_RUN = 5   # setup_s is the median of this many set-ups
MIN_REPETITIONS = 3  # of the timed job, whatever --seconds says

# Metric names in the final JSON line -> what each workload calls them.
REPORT_NAMES = {
    "pretrain": {"job_s": "train_s", "samples_per_s": "train_samples_per_s",
                 "predict_ms": "predict_single_ms"},
    "finetune_cmd": {"job_s": "adapt_s", "samples_per_s": "train_samples_per_s",
                     "predict_ms": "predict_single_ms"},
    "serve_replay": {"job_s": "replay_s",
                     "samples_per_s": "predict_batch_samples_per_s",
                     "predict_ms": "predict_single_ms"},
}
E2E_UNITS = {"setup_s": "s", "job_s": "s", "samples_per_s": "1/s",
             "predict_ms.mean": "ms",
             "peak_rss_mb": "MB"}


def _import_tpcost():
    src = ROOT / "src"
    if not (src / "tpcost" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no tpcost package under {src}; run "
                         "from the root of a tpcost checkout\n")
        sys.exit(2)
    sys.path.insert(0, str(src))
    import tpcost  # noqa: F401
    if Path(tpcost.__file__).resolve().parent != (src / "tpcost").resolve():
        sys.stderr.write(f"perfbench: imported tpcost from {tpcost.__file__}, "
                         f"not from {src}\n")
        sys.exit(2)


def _environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_threads": BLAS_THREADS,
            "blas_threads_reported": _blas_threads_reported()}


def _blas_threads_reported():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps
                   if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def _timed_setups(workload, seed, sizes, workdir, n, speed):
    """Set up `n` times. Returns the last state, each set-up's wall time and
    each one's factor to reference speed."""
    walls, scales, state = [], [], None
    for _ in range(n):
        state = None  # let the previous set-up's data go before the next
        t0 = time.perf_counter()
        state = workload.setup(seed, sizes, workdir)
        walls.append(time.perf_counter() - t0)
        scales.append(speed.scale())
    return state, walls, scales


@dataclass
class Scales:
    """Factors to reference speed, one per entry of `meas.job_s` and one per
    entry of `meas.predict_ms`."""

    jobs: list[float] = field(default_factory=list)
    calls: list[float] = field(default_factory=list)

    def add(self, scale: float, meas, n_jobs: int, n_calls: int) -> None:
        """Assign `scale` to the entries added since there were `n_jobs`
        jobs and `n_calls` calls."""
        self.jobs += [scale] * (len(meas.job_s) - n_jobs)
        self.calls += [scale] * (len(meas.predict_ms) - n_calls)


def _repeat(workload, state, meas, seconds, tally, around_each=None,
            min_repetitions=MIN_REPETITIONS, speed=None, scales=None):
    """Repeat the timed job until `seconds` have passed (and at least
    `min_repetitions` times). Returns the wall time of each repetition. With
    `speed`, the reference work runs after each repetition and `scales`
    gets the repetition's factor to reference speed."""
    walls = []
    start = time.perf_counter()
    while (len(walls) < min_repetitions
           or time.perf_counter() - start < seconds):
        gc.collect()  # every repetition starts from a similar heap
        n_jobs, n_calls = len(meas.job_s), len(meas.predict_ms)
        t0 = time.perf_counter()
        tally.attempted += 1
        try:
            if around_each is None:
                workload.run_job(state, meas)
            else:
                with around_each(len(walls)):
                    workload.run_job(state, meas)
        except Exception as e:  # one failed repetition must not end the run
            tally.failed += 1
            tally.failures.append(f"{workload.name}: job raised {e!r}")
            if not meas.outputs:
                raise
        walls.append(time.perf_counter() - t0)
        if speed is not None:
            scales.add(speed.scale(), meas, n_jobs, n_calls)
    return walls


def _top_up_queries(workload, state, meas, sizes, speed, scales):
    missing = sizes.min_predict_calls - len(meas.predict_ms)
    if missing > 0:
        n_calls = len(meas.predict_ms)
        workload.extra_queries(state, meas, missing)
        scales.add(speed.scale(), meas, len(meas.job_s), n_calls)


def _count_predict_calls(meas, tally) -> None:
    tally.attempted += len(meas.predict_ms)
    tally.failed += len(meas.predict_failures)
    tally.failures.extend(meas.predict_failures[:10])


def run(workload, seed: int, seconds: float, trace: bool, sizes,
        workdir: Path) -> tuple[dict, dict, object]:
    """One benchmark run. Returns (json metrics, report metrics, tally)."""
    import hostspeed
    from workloads import Measurements, Tally

    tally = Tally()
    meas = Measurements()
    if not trace:
        speed = hostspeed.HostSpeed()
        scales = Scales()
        state, setup_walls, setup_scales = _timed_setups(
            workload, seed, sizes, workdir, SETUPS_PER_RUN, speed)
        _repeat(workload, state, meas, seconds, tally, speed=speed,
                scales=scales)
        _top_up_queries(workload, state, meas, sizes, speed, scales)
        _count_predict_calls(meas, tally)
        checked = workload.check(state, meas, tally)
        # times at reference speed (hostspeed.py); wall times are printed too
        predict_ms = [t * s for t, s in zip(meas.predict_ms, scales.calls)]
        metrics = {
            "setup_s": statistics.median(
                t * s for t, s in zip(setup_walls, setup_scales)),
            "job_s": statistics.median(
                t * s for t, s in zip(meas.job_s, scales.jobs)),
            "samples_per_s": statistics.median(
                r / s for r, s in zip(meas.samples_per_s, scales.jobs)),
            # the mean, not a percentile: a percentile picks calls from the
            # contended or the uncontended stretches of a repetition, which
            # its factor to reference speed, a mean over the repetition, does
            # not follow
            "predict_ms.mean": statistics.fmean(predict_ms),
            "peak_rss_mb": _peak_rss_mb(),
        }
        names = REPORT_NAMES[workload.name]
        report = {}
        for key, value in metrics.items():
            base, _, tail = key.partition(".")
            label = names.get(base, base) + (f".{tail}" if tail else "")
            report[label] = (value, E2E_UNITS[key])
        report["host_slowdown"] = (speed.slowdown(), "ratio")
        walls = {"setup_s": setup_walls, "job_s": meas.job_s,
                 "samples_per_s": meas.samples_per_s}
        for key, values in walls.items():
            label = names.get(key, key)
            report[f"{label}.wall"] = (statistics.median(values), E2E_UNITS[key])
        # percentiles and wall times are printed, not gated: between runs on
        # a shared host they follow the other tenants' load
        report["predict_single_ms.mean.wall"] = (
            statistics.fmean(meas.predict_ms), "ms")
        for q in (50, 99):
            report[f"predict_single_ms.p{q}"] = (
                _percentile(predict_ms, q), "ms")
            report[f"predict_single_ms.p{q}.wall"] = (
                _percentile(meas.predict_ms, q), "ms")
        report["predict_calls"] = (len(meas.predict_ms), "count")
        report["job_repetitions"] = (len(meas.job_s), "count")
        report.update(checked)
        json_metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                        for k, v in metrics.items()}
        return json_metrics, report, tally
    return _traced_run(workload, seed, seconds, sizes, workdir, tally, meas)


def _traced_run(workload, seed, seconds, sizes, workdir, tally, meas):
    """Per-layer metrics. One traced set-up, then job repetitions for
    `seconds` that alternate between untraced and traced, so that the
    overhead ratio compares repetitions from the same stretch of time.
    Per-layer values cover one set-up plus one job repetition: times are the
    set-up's plus the median traced repetition's, counts the set-up's plus
    the first traced repetition's, which every other one must match."""
    import tracing

    tracer = tracing.Tracer()
    tracing.install_tpcost(tracer)
    try:
        with tracer.record("setup") as setup_seg:
            state = workload.setup(seed, sizes, workdir)
    finally:
        tracer.uninstall()
    reps = []

    @contextmanager
    def every_other_traced(i):
        if i % 2 == 0:
            yield
            return
        tracing.install_tpcost(tracer)
        try:
            with tracer.record(f"job{i}") as seg:
                reps.append(seg)
                yield
        finally:
            tracer.uninstall()

    walls = _repeat(workload, state, meas, seconds, tally,
                    around_each=every_other_traced,
                    min_repetitions=2 * MIN_REPETITIONS)
    untraced, traced = walls[0::2], walls[1::2]
    _count_predict_calls(meas, tally)
    checked = workload.check(state, meas, tally)

    counts = [tracing.exact_counts([setup_seg, rep]) for rep in reps]
    differing = sorted(k for k in counts[0]
                       if any(c[k] != counts[0][k] for c in counts[1:]))
    tally.check(f"{workload.name}: exact counters repeat between repetitions",
                not differing, ", ".join(differing))
    times = [tracing.self_seconds([setup_seg, rep]) for rep in reps]
    layer = {k: statistics.median(t[k] for t in times) for k in times[0]}
    layer.update(counts[0])
    layer["trace.overhead_ratio"] = (statistics.median(traced)
                                     / statistics.median(untraced))
    layer["trace.unattributed_s"] = (
        setup_seg.unattributed_s()
        + statistics.median(r.unattributed_s() for r in reps))
    _compare_with_earlier_runs(workload.name, seed, sizes, counts[0], tally)
    _write_trace(workload.name, seed, setup_seg, reps[0], layer)

    units = tracing.layer_metric_units()
    json_metrics = {k: {"value": layer[k], "unit": units[k]} for k in units}
    report = {k: (layer[k], units[k]) for k in units}
    report.update(checked)
    return json_metrics, report, tally


def _compare_with_earlier_runs(name, seed, sizes, counts, tally) -> None:
    """Exact counters of a traced run are kept per (workload, seed, sizes,
    source digest); a later run of the same code must repeat them."""
    path = STATE_DIR / "counters.json"
    key = f"{name}/{seed}/{sizes!r}/{_src_digest()[:16]}"
    try:
        known = json.loads(path.read_text())
    except (OSError, ValueError):
        known = {}
    if key in known:
        differing = sorted(k for k, v in counts.items()
                           if known[key].get(k) != v)
        tally.check(f"{name}: exact counters repeat between runs",
                    not differing, ", ".join(differing))
    known[key] = counts
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, sort_keys=True))
    os.replace(tmp, path)


def _write_trace(name, seed, setup_seg, rep_seg, layer) -> None:
    """Spans of the traced set-up and first repetition, for reading by hand."""
    spans = []
    for seg in (setup_seg, rep_seg):
        spans.extend({"segment": seg.label, "name": s.name,
                      "start": s.start - seg.start, "end": s.end - seg.start,
                      "parent": s.parent} for s in seg.spans)
    path = STATE_DIR / f"trace-{name}-{seed}.json"
    path.write_text(json.dumps({"layers": layer, "spans": spans}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("pretrain", "finetune_cmd", "serve_replay"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes; not for measurement")
    args = parser.parse_args(argv)

    _import_tpcost()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import FULL, TINY, WORKLOADS

    sizes = TINY if args.tiny else FULL
    workload = WORKLOADS[args.workload]
    print("env " + json.dumps(_environment(), sort_keys=True))
    STATE_DIR.mkdir(exist_ok=True)
    workdir = STATE_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        json_metrics, report, tally = run(workload, args.seed, args.seconds,
                                          bool(args.trace), sizes, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    error_rate = tally.failed / tally.attempted if tally.attempted else 1.0
    report["error_rate"] = (error_rate, "ratio")
    for name, (value, unit) in report.items():
        print(f"metric {args.workload} {name} = {value} {unit}")
    for failure in tally.failures:
        print(f"FAILED {failure}")
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": json_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
