"""The benchmark's tracer (perfbench/tracing.py) wraps tpcost's layers by
module and class attribute and reads `.nodes`/`.edges` in its hooks. This
checks that contract on a small replay; the tracer is read, not imported as
a package, so nothing is written under perfbench/."""

import sys
import types
from pathlib import Path

import model_graph
from tpcost import replayer

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    name = "_perfbench_tracing"
    module = types.ModuleType(name)
    module.__file__ = str(TRACING)
    sys.modules[name] = module  # dataclasses look their module up
    try:
        exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING),
                     "exec"), module.__dict__)
    finally:
        del sys.modules[name]
    return module


def test_tracer_sees_every_replay_layer(tmp_path):
    graph, programs = model_graph.write_model_graph(tmp_path)
    tracing = _load_tracing()
    originals = (replayer.simulate, replayer.parse_program,
                 replayer.Dfg.validate)
    tracer = tracing.Tracer()
    tracing.install_tpcost(tracer)
    try:
        with tracer.record("replay") as seg:
            result = replayer.replay_model(
                graph, programs, None, None, None,
                rules=model_graph.SPLIT_RULES,
                predictor=model_graph.kernel_latency)
    finally:
        tracer.uninstall()
    calls, counters = seg.calls(), seg.counters
    assert calls["ir.parse_program"] == 60  # one per kernel
    assert calls["features.build_compact_ast"] == 60
    for name in ("replayer.replay_model", "replayer.load_graph",
                 "replayer.load_programs", "replayer.dedup_predict",
                 "replayer.expand_device_parallel", "replayer.simulate"):
        assert calls[name] == 1, name
    assert calls["replayer.Dfg.validate"] >= 1
    assert counters["replayer.dedup_predict.nodes"] == 2000
    assert counters["replayer.dedup_predict.distinct_kernels"] == 60
    assert counters["replayer.expand_device_parallel.edges_in"] == 2999
    assert counters["replayer.simulate.nodes"] == len(result.schedule)
    assert (replayer.simulate, replayer.parse_program,
            replayer.Dfg.validate) == originals
