"""Span and counter tracing of tpcost from outside the package.

The tracer replaces a module attribute (or a class attribute, for methods)
with a wrapper that records a span around every call: name, start, end and
the span that was open when it started. Callers inside tpcost look those
attributes up at call time, so every layer is seen without editing `src/`.
A function imported by name (``from .ir import parse_program``) is a separate
attribute of the importing module and is wrapped there too, under the same
span name.

Counters are computed from a call's arguments and result by small hooks that
run outside the timed span; their cost is recorded as a ``trace.hooks`` span
so that it is not charged to any layer's self time.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

HOOK_SPAN = "trace.hooks"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index into the segment's span list, -1 for a root


@dataclass
class Segment:
    """Spans and counters of one traced phase (one set-up, or one repetition
    of the timed job)."""

    label: str
    start: float = 0.0
    end: float = 0.0
    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=lambda: defaultdict(float))

    def self_times(self) -> dict[str, float]:
        """Span duration minus the durations of its direct children, summed
        per span name. Calls on one thread nest, so children never overlap."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        out: dict[str, float] = defaultdict(float)
        for i, span in enumerate(self.spans):
            out[span.name] += (span.end - span.start) - child_time[i]
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span.name] += 1
        return out

    def unattributed_s(self) -> float:
        """Wall time of the segment that no root span covers."""
        covered = sum(s.end - s.start for s in self.spans if s.parent < 0)
        return (self.end - self.start) - covered


# A hook receives (counters, args, kwargs, result) after a call returns.
Hook = Callable[[dict, tuple, dict, object], None]


class Tracer:
    def __init__(self) -> None:
        self._installed: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.segment: Segment | None = None

    # -- installation ----------------------------------------------------

    def wrap(self, owner: object, attr: str, name: str,
             hook: Hook | None = None) -> None:
        """Replace `owner.attr` by a span-recording wrapper named `name`."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            seg = tracer.segment
            if seg is None:
                return original(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(seg.spans)
            span = Span(name=name, start=time.perf_counter(), parent=parent)
            seg.spans.append(span)
            tracer._stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if hook is not None:
                hook_span = Span(name=HOOK_SPAN, start=time.perf_counter(),
                                 parent=parent)
                hook(seg.counters, args, kwargs, result)
                hook_span.end = time.perf_counter()
                seg.spans.append(hook_span)
            return result

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    @contextmanager
    def record(self, label: str):
        """Collect the spans of one phase into a new Segment."""
        seg = Segment(label=label)
        self.segment = seg
        self._stack.clear()
        seg.start = time.perf_counter()
        try:
            yield seg
        finally:
            seg.end = time.perf_counter()
            self.segment = None


# ---------------------------------------------------------------------------
# The layers of tpcost and their counters
# ---------------------------------------------------------------------------

def _linear_flops(m_rows: int, k: int, n: int) -> float:
    return 2.0 * m_rows * k * n


def _hook_linear_fwd(counters, args, kwargs, result):
    x, w = args[0], args[1]
    counters["nn.linear.flops"] += _linear_flops(x.size // x.shape[-1],
                                                 w.shape[0], w.shape[1])


def _hook_linear_bwd(counters, args, kwargs, result):
    dy, x, w = args[0], args[1], args[2]
    # dW = x^T dy and dx = dy W^T: two matmuls of the forward's size
    counters["nn.linear.flops"] += 2.0 * _linear_flops(
        dy.size // dy.shape[-1], w.shape[0], w.shape[1])


def _hook_adam_step(counters, args, kwargs, result):
    grads = args[2] if len(args) > 2 else kwargs["grads"]
    for g in grads.values():
        counters["nn.Adam.step.grad_elements"] += g.size
        counters["nn.Adam.step.nonzero_grad_elements"] += np.count_nonzero(g)


def _hook_backward(counters, args, kwargs, result):
    grads = result[1]
    counters["costmodel.backward.zero_grad_tensors"] += sum(
        1 for g in grads.values() if not g.any())


def _hook_dedup_predict(counters, args, kwargs, result):
    counters["replayer.dedup_predict.nodes"] += len(args[0].nodes)
    counters["replayer.dedup_predict.distinct_kernels"] += len(result)


def _hook_expand(counters, args, kwargs, result):
    counters["replayer.expand_device_parallel.edges_in"] += len(args[0].edges)
    counters["replayer.expand_device_parallel.edges_out"] += len(result.edges)


def _hook_simulate(counters, args, kwargs, result):
    counters["replayer.simulate.nodes"] += len(args[0].nodes)


def install_tpcost(tracer: Tracer) -> None:
    """Wrap every traced layer of tpcost. Span names are `<module>.<function>`
    of the defining module, whichever module the call goes through."""
    from tpcost import (costmodel, dataset, features, ir, nn, replayer,
                        sampling)

    for fn in ("linear_fwd", "linear_bwd", "attention_fwd", "attention_bwd",
               "layernorm_fwd", "layernorm_bwd"):
        hook = {"linear_fwd": _hook_linear_fwd,
                "linear_bwd": _hook_linear_bwd}.get(fn)
        tracer.wrap(nn, fn, f"nn.{fn}", hook)
    tracer.wrap(nn.Adam, "step", "nn.Adam.step", _hook_adam_step)

    tracer.wrap(costmodel, "train", "costmodel.train")
    tracer.wrap(costmodel, "finetune", "costmodel.finetune")
    tracer.wrap(costmodel, "backward", "costmodel.backward", _hook_backward)
    # forward() and backward() both go through _forward; _cmd_forward_backward
    # is the CMD term's value and gradient
    tracer.wrap(costmodel, "_forward", "costmodel.forward")
    tracer.wrap(costmodel, "_cmd_forward_backward", "costmodel.cmd")
    tracer.wrap(costmodel, "cmd_between", "costmodel.cmd_between")
    tracer.wrap(costmodel, "predict", "costmodel.predict")
    tracer.wrap(costmodel, "predict_batch", "costmodel.predict_batch")

    for fn in ("kmeans", "build_distance_table", "select_tasks"):
        tracer.wrap(sampling, fn, f"sampling.{fn}")

    for owner in (ir, replayer):
        tracer.wrap(owner, "parse_program", "ir.parse_program")
    for owner in (features, dataset, replayer):
        tracer.wrap(owner, "build_compact_ast", "features.build_compact_ast")
    for owner in (features, costmodel):
        tracer.wrap(owner, "encode_input", "features.encode_input")

    tracer.wrap(replayer, "replay_model", "replayer.replay_model")
    tracer.wrap(replayer, "load_graph", "replayer.load_graph")
    tracer.wrap(replayer, "load_programs", "replayer.load_programs")
    tracer.wrap(replayer, "dedup_predict", "replayer.dedup_predict",
                _hook_dedup_predict)
    tracer.wrap(replayer, "expand_device_parallel",
                "replayer.expand_device_parallel", _hook_expand)
    tracer.wrap(replayer, "simulate", "replayer.simulate", _hook_simulate)
    tracer.wrap(replayer.Dfg, "validate", "replayer.Dfg.validate")

    tracer.wrap(dataset, "generate_synthetic", "dataset.generate_synthetic")
    tracer.wrap(dataset, "split_dataset", "dataset.split_dataset")
    for owner in (dataset, costmodel):
        tracer.wrap(owner, "fit_boxcox", "dataset.fit_boxcox")


# Span names reported with `.self_s` only, and with `.self_s` and `.calls`;
# the counters come from hooks. `nn.Adam.step.useful_ratio` is derived.
SELF_ONLY = (
    "costmodel.cmd", "costmodel.forward",
    "sampling.kmeans", "sampling.build_distance_table", "sampling.select_tasks",
    "replayer.load_graph", "replayer.load_programs", "replayer.dedup_predict",
    "replayer.expand_device_parallel", "replayer.simulate",
    "replayer.Dfg.validate",
    "dataset.generate_synthetic", "dataset.fit_boxcox",
)
SELF_AND_CALLS = (
    "nn.linear_fwd", "nn.linear_bwd", "nn.attention_fwd", "nn.attention_bwd",
    "nn.layernorm_fwd", "nn.layernorm_bwd",
    "nn.Adam.step", "costmodel.backward", "costmodel.predict",
    "ir.parse_program", "features.build_compact_ast", "features.encode_input",
)
COUNTERS = (
    ("nn.linear.flops", "flop"),
    ("costmodel.backward.zero_grad_tensors", "count"),
    ("replayer.dedup_predict.nodes", "count"),
    ("replayer.dedup_predict.distinct_kernels", "count"),
    ("replayer.expand_device_parallel.edges_in", "count"),
    ("replayer.expand_device_parallel.edges_out", "count"),
    ("replayer.simulate.nodes", "count"),
)


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for name in SELF_AND_CALLS + SELF_ONLY:
        units[f"{name}.self_s"] = "s"
    for name in SELF_AND_CALLS:
        units[f"{name}.calls"] = "count"
    for name, unit in COUNTERS:
        units[name] = unit
    units["nn.Adam.step.useful_ratio"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    units["trace.unattributed_s"] = "s"
    return units


def exact_counts(segs: list[Segment]) -> dict[str, float]:
    """Counts over `segs` that must repeat bit for bit between repetitions
    and between runs."""
    calls: dict[str, int] = defaultdict(int)
    counters: dict[str, float] = defaultdict(float)
    for seg in segs:
        for name, n in seg.calls().items():
            calls[name] += n
        for name, value in seg.counters.items():
            counters[name] += value
    out = {f"{name}.calls": float(calls[name]) for name in SELF_AND_CALLS}
    for name, _ in COUNTERS:
        out[name] = counters[name]
    total = counters["nn.Adam.step.grad_elements"]
    nonzero = counters["nn.Adam.step.nonzero_grad_elements"]
    out["nn.Adam.step.useful_ratio"] = nonzero / total if total else 0.0
    return out


def self_seconds(segs: list[Segment]) -> dict[str, float]:
    out = {f"{name}.self_s": 0.0 for name in SELF_AND_CALLS + SELF_ONLY}
    for seg in segs:
        for name, t in seg.self_times().items():
            key = f"{name}.self_s"
            if key in out:
                out[key] += t
    return out
