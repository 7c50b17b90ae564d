import hashlib
import heapq
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import model_graph
from oracle_sim import oracle_simulate
from tpcost import costmodel
from tpcost.dataset import (DEFAULT_SYNTH_DEVICE, BoxCoxNormalizer,
                            random_program)
from tpcost.errors import CycleDetected, InvalidDevice, ValidationError
from tpcost.features import build_compact_ast
from tpcost.ir import parse_program
from tpcost.replayer import (Dfg, DfgNode, _split_programs, dedup_predict,
                             expand_device_parallel, load_graph,
                             load_programs, replay_model, simulate)


def _dfg(nodes, edges):
    return Dfg(nodes=[DfgNode(id=i, tir_key=k, duration=d, gap=g, device=dev)
                      for i, k, d, g, dev in nodes],
               edges=list(edges))


def rand_dag(rng, max_nodes=12, max_devices=3):
    n = int(rng.integers(1, max_nodes + 1))
    n_devices = int(rng.integers(1, max_devices + 1))
    nodes = []
    for i in range(n):
        nodes.append((f"n{i:02d}", f"k{i}", float(rng.uniform(0.1, 5.0)),
                      float(rng.choice([0.0, 0.0, 0.25])),
                      int(rng.integers(0, n_devices))))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.25:
                edges.append((f"n{i:02d}", f"n{j:02d}"))
    return _dfg(nodes, edges), n_devices


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_single_node():
    dfg = _dfg([("a", "k", 5.0, 0.0, 0)], [])
    result = simulate(dfg, 1)
    assert result.iteration_time == 5.0
    assert result.schedule["a"] == (0.0, 5.0)


def test_serial_chain():
    dfg = _dfg([("a", "k1", 2.0, 0.0, 0), ("b", "k2", 3.0, 0.0, 0)],
               [("a", "b")])
    result = simulate(dfg, 1)
    assert result.iteration_time == 5.0
    assert result.schedule == {"a": (0.0, 2.0), "b": (2.0, 5.0)}


def test_diamond_two_devices():
    dfg = _dfg([("a", "ka", 1.0, 0.0, 0), ("b", "kb", 2.0, 0.0, 0),
                ("c", "kc", 3.0, 0.0, 1), ("d", "kd", 1.0, 0.0, 0)],
               [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    result = simulate(dfg, 2)
    assert result.schedule["a"] == (0.0, 1.0)
    assert result.schedule["b"] == (1.0, 3.0)
    assert result.schedule["c"] == (1.0, 4.0)
    assert result.schedule["d"] == (4.0, 5.0)
    assert result.iteration_time == 5.0


def test_cycle_detected():
    dfg = _dfg([("a", "k", 1.0, 0.0, 0), ("b", "k", 1.0, 0.0, 0)],
               [("a", "b"), ("b", "a")])
    with pytest.raises(CycleDetected):
        simulate(dfg, 1)
    with pytest.raises(CycleDetected):
        dfg.validate()


@pytest.mark.parametrize("duration, gap", [(math.nan, 0.0), (1.0, math.nan)])
def test_validate_rejects_nan_times(duration, gap):
    # `nan < 0` is false; a NaN time let through made iteration_time nan
    dfg = _dfg([("a", "k", 1.0, 0.0, 0), ("b", "k", duration, gap, 0)],
               [("a", "b")])
    with pytest.raises(ValidationError, match="node 'b'"):
        dfg.validate()


def test_invalid_device():
    dfg = _dfg([("a", "k", 1.0, 0.0, 3)], [])
    with pytest.raises(InvalidDevice):
        simulate(dfg, 2)
    with pytest.raises(InvalidDevice):
        simulate(dfg, 0)


def test_single_device_work_conservation(rng):
    for _ in range(50):
        dfg, _ = rand_dag(rng, max_devices=1)
        result = simulate(dfg, 1)
        expected = sum(n.duration for n in dfg.nodes) + \
            sum(n.gap for n in dfg.nodes)
        assert result.iteration_time == pytest.approx(expected, rel=1e-12)


def test_invariants_on_random_dags(rng):
    for _ in range(200):
        dfg, n_devices = rand_dag(rng)
        result = simulate(dfg, n_devices)
        nodes = {n.id: n for n in dfg.nodes}
        # dependency feasibility incl. the producer's gap
        for src, dst in dfg.edges:
            assert result.schedule[dst][0] >= \
                result.schedule[src][1] + nodes[src].gap - 1e-12
        # per-device non-overlap
        for d in range(n_devices):
            intervals = sorted((result.schedule[n.id][0],
                                result.schedule[n.id][1] + n.gap)
                               for n in dfg.nodes if n.device == d)
            for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
                assert s2 >= e1 - 1e-12
        # lower bounds: per-device busy time and critical path
        for d in range(n_devices):
            busy = sum(n.duration + n.gap for n in dfg.nodes if n.device == d)
            assert result.iteration_time >= busy - 1e-12
        assert result.iteration_time >= _critical_path(dfg) - 1e-12


def _critical_path(dfg):
    nodes = {n.id: n for n in dfg.nodes}
    succ = {n.id: [] for n in dfg.nodes}
    for src, dst in dfg.edges:
        succ[src].append(dst)
    memo = {}

    def longest(nid):
        if nid not in memo:
            node = nodes[nid]
            tail = max((longest(s) for s in succ[nid]), default=0.0)
            memo[nid] = node.duration + node.gap + tail
        return memo[nid]

    return max(longest(n.id) for n in dfg.nodes)


def test_matches_bruteforce_oracle(rng):
    for _ in range(200):
        dfg, n_devices = rand_dag(rng)
        result = simulate(dfg, n_devices)
        nodes = [(n.id, n.duration, n.gap, n.device) for n in dfg.nodes]
        expected_time, expected_schedule = oracle_simulate(nodes, dfg.edges,
                                                           n_devices)
        assert result.iteration_time == expected_time
        assert result.schedule == expected_schedule


@st.composite
def _tied_cases(draw):
    """Graphs with split nodes over up to 16 devices, whose durations and
    gaps are 0, 0.5 or 1: device clocks and ready times tie often, so the
    device index and the node id decide the dispatch order. Ids are not in
    position order."""
    n_devices = draw(st.integers(1, 16))
    rules = draw(st.dictionaries(st.sampled_from(["conv", "mm"]),
                                 st.integers(1, min(4, n_devices)),
                                 max_size=2))
    n = draw(st.integers(1, 24))
    names = draw(st.permutations(range(n)))
    times = st.sampled_from([0.0, 0.5, 1.0])
    nodes = []
    for i in range(n):
        op_class = draw(st.sampled_from(["conv", "mm", "io"]))
        k = rules.get(op_class, 1)
        nodes.append(DfgNode(f"n{names[i]}", f"{op_class}:x", draw(times),
                             draw(times), draw(st.integers(0, n_devices - k))))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=3 * n))
    edges = [(nodes[min(a, b)].id, nodes[max(a, b)].id)
             for a, b in pairs if a != b]
    return Dfg(nodes, edges), rules, n_devices


@settings(max_examples=300)
@given(_tied_cases())
def test_dispatch_order_matches_oracle_when_times_tie(case):
    dfg, rules, n_devices = case
    out = expand_device_parallel(dfg, rules)
    result = simulate(out, n_devices)
    nodes = [(n.id, n.duration, n.gap, n.device) for n in out.nodes]
    expected_time, expected_schedule = oracle_simulate(nodes, out.edges,
                                                       n_devices)
    assert result.iteration_time == expected_time
    assert list(result.schedule.items()) == list(expected_schedule.items())


# ---------------------------------------------------------------------------
# expand_device_parallel
# ---------------------------------------------------------------------------

def test_expand_conv_example():
    dfg = _dfg([("pre", "io:load", 1.0, 0.0, 0),
                ("conv", "conv:3x3", 9.0, 0.0, 0),
                ("post", "io:store", 1.0, 0.0, 0)],
               [("pre", "conv"), ("conv", "post")])
    out = expand_device_parallel(dfg, {"conv": 3})
    by_id = {n.id: n for n in out.nodes}
    subs = [n for n in out.nodes if n.id.startswith("conv#")]
    assert len(subs) == 3
    assert all(n.duration == pytest.approx(3.0) for n in subs)
    assert sorted(n.device for n in subs) == [0, 1, 2]
    assert ("pre", "conv#2") in out.edges and ("conv#1", "post") in out.edges
    assert by_id["pre"].duration == 1.0
    # parallel sub-operators overlap across the expanded device set
    result = simulate(out, 3)
    assert result.iteration_time == pytest.approx(1.0 + 3.0 + 1.0)


def test_expand_empty_rules_identity():
    dfg = _dfg([("a", "k:x", 2.0, 0.5, 1)], [])
    out = expand_device_parallel(dfg, {})
    assert [(n.id, n.tir_key, n.duration, n.gap, n.device)
            for n in out.nodes] == \
        [(n.id, n.tir_key, n.duration, n.gap, n.device) for n in dfg.nodes]
    assert out.edges == dfg.edges


def test_expand_node_count_and_work(rng):
    dfg, _ = rand_dag(rng, max_nodes=10, max_devices=1)
    rules = {"k1": 3, "k4": 2}
    matched = sum(rules.get(n.op_class, 1) - 1 for n in dfg.nodes)
    out = expand_device_parallel(dfg, rules)
    assert len(out.nodes) == len(dfg.nodes) + matched
    assert sum(n.duration for n in out.nodes) == \
        pytest.approx(sum(n.duration for n in dfg.nodes), rel=1e-12)


def test_expand_id_collision_rejected():
    dfg = _dfg([("a", "conv:x", 2.0, 0.0, 0), ("a#0", "io:y", 1.0, 0.0, 0)],
               [("a", "a#0")])
    with pytest.raises(ValidationError, match="duplicate node ids"):
        expand_device_parallel(dfg, {"conv": 2})


def test_simulate_expanded_matches_bruteforce_oracle(rng):
    for _ in range(200):
        dfg, _ = rand_dag(rng)
        keys = sorted({n.tir_key for n in dfg.nodes})
        rules = {key: int(rng.integers(1, 4)) for key in keys
                 if rng.random() < 0.4}
        out = expand_device_parallel(dfg, rules)
        n_devices = max(n.device for n in out.nodes) + 1
        result = simulate(out, n_devices)
        nodes = [(n.id, n.duration, n.gap, n.device) for n in out.nodes]
        expected_time, expected_schedule = oracle_simulate(nodes, out.edges,
                                                           n_devices)
        assert result.iteration_time == expected_time
        assert result.schedule == expected_schedule


# ---------------------------------------------------------------------------
# The columnar graph against the object graph it replaced
# ---------------------------------------------------------------------------

def _reference_index(nodes, edges):
    """Successor lists and in-degrees of the object graph (DfgNode list and
    id pairs) by node position."""
    index = {n.id: i for i, n in enumerate(nodes)}
    if len(index) != len(nodes):
        raise ValidationError("duplicate node ids")
    succ = [[] for _ in nodes]
    indeg = [0] * len(nodes)
    for src, dst in edges:
        s, t = index.get(src), index.get(dst)
        if s is None or t is None:
            raise ValidationError(f"edge ({src}, {dst}) references unknown node")
        succ[s].append(t)
        indeg[t] += 1
    return succ, indeg


def _reference_validate(nodes, edges):
    succ, indeg = _reference_index(nodes, edges)
    for node in nodes:
        if node.duration < 0 or node.gap < 0:
            raise ValidationError(f"node '{node.id}': negative time")
    frontier = [i for i, d in enumerate(indeg) if d == 0]
    seen = 0
    while frontier:
        node = frontier.pop()
        seen += 1
        for nxt in succ[node]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                frontier.append(nxt)
    if seen != len(nodes):
        raise CycleDetected("graph has a dependency cycle")


def _reference_simulate(nodes, edges, n_devices):
    """The list-based simulator: one ready time and reference count per
    expanded node. Returns (iteration_time, schedule items in dispatch
    order)."""
    if n_devices < 1:
        raise InvalidDevice("need at least one device")
    for node in nodes:
        if not (0 <= node.device < n_devices):
            raise InvalidDevice(f"node '{node.id}' on device {node.device}")
    succ, ref = _reference_index(nodes, edges)
    ready_time = [0.0] * len(nodes)
    device_time = [0.0] * n_devices
    queues = [[] for _ in range(n_devices)]
    for i, node in enumerate(nodes):
        if ref[i] == 0:
            heapq.heappush(queues[node.device], (0.0, node.id, i))
    schedule = {}
    while True:
        pick = -1
        for d in range(n_devices):
            if queues[d] and (pick < 0 or device_time[d] < device_time[pick]):
                pick = d
        if pick < 0:
            break
        _, node_id, i = heapq.heappop(queues[pick])
        start = max(device_time[pick], ready_time[i])
        end = start + nodes[i].duration
        schedule[node_id] = (start, end)
        done = device_time[pick] = end + nodes[i].gap
        for child in succ[i]:
            ref[child] -= 1
            if done > ready_time[child]:
                ready_time[child] = done
            if ref[child] == 0:
                heapq.heappush(queues[nodes[child].device],
                               (ready_time[child], nodes[child].id, child))
    if len(schedule) != len(nodes):
        raise CycleDetected("nodes never became ready")
    return max(device_time, default=0.0), list(schedule.items())


def _reference_expand(nodes, edges, rules):
    """The explicit expansion: k sub-nodes per split node and k_src * k_dst
    edges per edge. It checks its input's index first, as the columnar one
    does; the object-graph expansion let a KeyError escape for an edge to an
    unknown node."""
    for op_class, k in rules.items():
        if k < 1:
            raise ValidationError(f"rule '{op_class}': core count must be >= 1")
    _reference_index(nodes, edges)
    out_nodes, expansion = [], {}
    for node in nodes:
        k = rules.get(node.op_class, 1)
        if k == 1:
            out_nodes.append(DfgNode(node.id, node.tir_key, node.duration,
                                     node.gap, node.device))
            expansion[node.id] = [node.id]
            continue
        sub_ids = [f"{node.id}#{i}" for i in range(k)]
        out_nodes.extend(DfgNode(sub_id, node.tir_key, node.duration / k,
                                 node.gap, node.device + i)
                         for i, sub_id in enumerate(sub_ids))
        expansion[node.id] = sub_ids
    out_edges = [(s, t) for src, dst in edges
                 for s in expansion[src] for t in expansion[dst]]
    _reference_validate(out_nodes, out_edges)
    return out_nodes, out_edges


def _outcome(fn):
    try:
        return fn()
    except (ValidationError, CycleDetected, InvalidDevice) as e:
        return type(e)


@st.composite
def _graph_cases(draw):
    """Small graphs that are mostly valid DAGs; some repeat an id, take a
    sub-node id, name an unknown node, close a cycle, place a node off the
    device range or carry a negative time."""
    n = draw(st.integers(0, 8))
    ids = [f"n{i}" for i in range(n)]
    flaw = draw(st.sampled_from([None] * 6 + ["dup", "sub-id", "unknown",
                                              "cycle", "device", "negative"]))
    if n >= 2 and flaw == "dup":
        ids[-1] = ids[0]
    if n >= 2 and flaw == "sub-id":
        ids[-1] = f"{ids[0]}#{draw(st.integers(0, 1))}"
    times = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                      st.floats(1e-6, 5.0))
    nodes = [DfgNode(ids[i], draw(st.sampled_from(["conv:a", "conv:b", "mm:x",
                                                    "io:y", "k"])),
                     draw(times), draw(st.sampled_from([0.0, 0.0, 0.25])),
                     draw(st.integers(0, 2)))
             for i in range(n)]
    if n >= 2 and flaw == "sub-id":
        nodes[-1].tir_key = "k"  # never split: it keeps the taken id
    if n and flaw == "device":
        nodes[-1].device = draw(st.sampled_from([-1, 9]))
    if n and flaw == "negative":
        nodes[-1].duration = -1.0
    pairs = draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                                    st.integers(0, max(n - 1, 0))),
                          max_size=3 * n)) if n else []
    edges = [(ids[min(i, j)], ids[max(i, j)]) for i, j in pairs if i != j]
    if n >= 2 and flaw == "cycle":
        edges.append((ids[-1], ids[0]))
    if n and flaw == "unknown":
        edges.insert(draw(st.integers(0, len(edges))), (ids[0], "zz"))
    rules = draw(st.dictionaries(st.sampled_from(["conv", "mm", "io"]),
                                 st.integers(1, 4), max_size=3))
    return nodes, edges, rules, draw(st.integers(0, 7))


@settings(max_examples=400)
@given(_graph_cases())
def test_columnar_graph_matches_object_graph_reference(case):
    nodes, edges, rules, n_devices = case
    dfg = Dfg(nodes=nodes, edges=edges)
    assert dfg.nodes == nodes and dfg.edges == edges
    assert _outcome(dfg.validate) == _outcome(
        lambda: _reference_validate(nodes, edges))

    def replay(graph, devices):
        result = simulate(graph, devices)
        return result.iteration_time, list(result.schedule.items())

    assert _outcome(lambda: replay(dfg, n_devices)) == _outcome(
        lambda: _reference_simulate(nodes, edges, n_devices))
    expected = _outcome(lambda: _reference_expand(nodes, edges, rules))
    out = _outcome(lambda: expand_device_parallel(dfg, rules))
    if isinstance(expected, type):
        assert out == expected
        return
    assert (out.nodes, out.edges) == expected
    enough = max((n.device for n in expected[0]), default=0) + 1
    for devices in (n_devices, enough):
        assert _outcome(lambda: replay(out, devices)) == _outcome(
            lambda: _reference_simulate(*expected, devices))
    # splitting an expansion again splits its sub-nodes
    again = _outcome(lambda: expand_device_parallel(out, rules))
    ref_again = _outcome(lambda: _reference_expand(*expected, rules))
    if isinstance(ref_again, type):
        assert again == ref_again
    else:
        assert (again.nodes, again.edges) == ref_again


# ---------------------------------------------------------------------------
# dedup_predict
# ---------------------------------------------------------------------------

def test_dedup_one_call_per_key():
    nodes = [(f"n{i}", "shared", 0.0, 0.0, 0) for i in range(10)]
    dfg = _dfg(nodes, [])
    calls = []

    def fake_predict(compact, device):
        calls.append(compact)
        return 0.125

    durations = dedup_predict(dfg, {"shared": "prog"}, None, None, None,
                              predictor=fake_predict)
    assert len(calls) == 1
    assert durations == {"shared": 0.125}
    assert all(n.duration == 0.125 for n in dfg.nodes)


def test_dedup_distinct_keys():
    nodes = [(f"n{i}", f"k{i}", 0.0, 0.0, 0) for i in range(5)]
    dfg = _dfg(nodes, [])
    calls = []

    def fake_predict(compact, device):
        calls.append(compact)
        return float(len(calls))

    programs = {f"k{i}": f"p{i}" for i in range(5)}
    dedup_predict(dfg, programs, None, None, None, predictor=fake_predict)
    assert len(calls) == 5


def test_dedup_key_hash_plumbing():
    nodes = [("a", "x", 0.0, 0.0, 0), ("b", "y", 0.0, 0.0, 0),
             ("c", "x", 0.0, 0.0, 0)]
    dfg = _dfg(nodes, [])
    table = {"x": 0.25, "y": 4.0}

    def keyed(compact, device):
        return table[compact]  # compact is the "program", here just a tag

    dedup_predict(dfg, {"x": "x", "y": "y"}, None, None, None,
                  predictor=keyed)
    for node in dfg.nodes:
        assert node.duration == table[node.tir_key]


def test_dedup_default_batch_matches_per_key_predict(monkeypatch):
    rng = np.random.default_rng(7)
    params = costmodel.init_params(costmodel.desk_config())
    # log-scale decoding is defined for every model output, trained or not
    norm = BoxCoxNormalizer(lambda_bc=0.0, fitted=True, t_mean=-7.0,
                            t_std=2.0)
    programs = {f"op{j % 3}:k{j}": build_compact_ast(random_program(rng, f"k{j}"))
                for j in range(40)}
    keys = list(programs)
    nodes = [(f"n{i}", keys[int(rng.integers(0, len(keys)))], 0.0, 0.0, 0)
             for i in range(150)]
    dfg = _dfg(nodes, [])
    used = list(dict.fromkeys(n.tir_key for n in dfg.nodes))
    expected = {key: costmodel.predict(params, programs[key],
                                       DEFAULT_SYNTH_DEVICE, norm)
                for key in used}
    forwards = []
    real_forward = costmodel._forward

    def counting_forward(p, inputs):
        forwards.append(len(inputs))
        return real_forward(p, inputs)

    monkeypatch.setattr(costmodel, "_forward", counting_forward)
    durations = dedup_predict(dfg, programs, params, DEFAULT_SYNTH_DEVICE,
                              norm)
    assert forwards == [len(used)]
    assert list(durations) == used
    for key in used:
        assert durations[key] == pytest.approx(expected[key], rel=1e-12)
    assert all(n.duration == durations[n.tir_key] for n in dfg.nodes)


def test_dedup_missing_program():
    dfg = _dfg([("a", "k", 0.0, 0.0, 0)], [])
    with pytest.raises(ValidationError):
        dedup_predict(dfg, {}, None, None, None, predictor=lambda c, d: 1.0)


# ---------------------------------------------------------------------------
# file I/O and replay_model
# ---------------------------------------------------------------------------

PROGRAMS_TEXT = """
program small { for i in 0..8 { compute k { fma=4 bytes_read=16 } } }
program wide {
  for i in 0..32 @parallel { compute k { fma=64 bytes_read=64 bytes_written=16 } }
}
"""


def _write_graph(path, nodes, edges):
    payload = {"nodes": nodes, "edges": edges}
    path.write_text(json.dumps(payload), encoding="utf-8")


def test_load_programs(tmp_path):
    path = tmp_path / "programs.ir"
    path.write_text(PROGRAMS_TEXT, encoding="utf-8")
    programs = load_programs(path)
    assert set(programs) == {"small", "wide"}
    assert programs["small"].n_leaf == 1


@pytest.mark.parametrize("body, message", [
    ("for i in 0..4294967296 { for j in 0..2147483648 { compute c { fma=1 } "
     "} }", "extent product 9223372036854775808 exceeds 2^62"),
    (f"compute c {{ fma=1 buffers_read=1{'0' * 400} }}", "leaf 0: "),
])
def test_load_programs_names_line_of_a_number_past_the_float_range(
        tmp_path, body, message):
    path = tmp_path / "programs.ir"
    path.write_text(f"program a {{ compute c {{ fma=1 }} }}\n\nprogram b "
                    f"{{ {body} }}\n", encoding="utf-8")
    with pytest.raises(ValidationError) as info:
        load_programs(path)
    assert str(info.value).startswith(f"{path}:3: {message}")


def _split_programs_reference(text):
    """The character loop `_split_programs` replaced."""
    boundaries = []
    depth = 0
    in_comment = False
    for i, ch in enumerate(text):
        if in_comment:
            if ch == "\n":
                in_comment = False
            continue
        if ch == "#":
            in_comment = True
        elif ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                boundaries.append(i)
    chunks = []
    prev = 0
    for end in boundaries:
        chunk = text[prev:end + 1]
        if chunk.strip():
            chunks.append(chunk)
        prev = end + 1
    if text[prev:].strip():
        raise ValidationError("trailing text after last program block")
    return chunks


def _split_outcome(split, text):
    try:
        return split(text)
    except ValidationError as e:
        return ("ValidationError", str(e))


@given(st.lists(st.sampled_from(["{", "}", "#", "# c {", "\n", " ", "\t",
                                 "program p", "x", "}}", "{{"]),
                max_size=40).map("".join))
def test_split_programs_matches_reference(text):
    assert _split_outcome(_split_programs, text) == \
        _split_outcome(_split_programs_reference, text)


def test_split_programs_matches_reference_on_sidecar_text():
    text = PROGRAMS_TEXT + "# trailing {comment}\n" + PROGRAMS_TEXT.replace(
        "program small", "program small2").replace("program wide",
                                                   "program wide2")
    assert _split_programs(text) == _split_programs_reference(text)
    assert len(_split_programs(text)) == 4


def test_replay_model_uses_model_leaf_budget(tmp_path):
    body = " ".join(f"compute c{i} {{ fma=1 bytes_read=8 }}" for i in range(17))
    programs = tmp_path / "programs.ir"
    programs.write_text("program big { for i in 0..4 { " + body + " } }\n",
                        encoding="utf-8")
    graph = tmp_path / "g.json"
    _write_graph(graph, [{"id": "n0", "tir_key": "k", "program_ref": "big"}],
                 [])
    params = costmodel.init_params(costmodel.desk_config(
        n_leaf_max=20, d_model=8, d_ff=8, d_embed=4, d_device=4,
        decoder_dims=(4,)))
    norm = BoxCoxNormalizer(lambda_bc=0.0, fitted=True, t_mean=-7.0,
                            t_std=2.0)
    result = replay_model(graph, programs, params, DEFAULT_SYNTH_DEVICE, norm)
    compact = build_compact_ast(parse_program(programs.read_text(),
                                              max_leaves=20))
    assert compact.n_leaf == 17
    expected = costmodel.predict(params, compact, DEFAULT_SYNTH_DEVICE, norm)
    assert result.iteration_time == pytest.approx(expected, rel=1e-12)
    # without a model the parser's default budget of 16 leaves applies
    with pytest.raises(ValidationError, match="17 leaves"):
        replay_model(graph, programs, None, None, None,
                     predictor=lambda c, d: 1.0)


def test_load_graph_and_validation(tmp_path):
    graph = tmp_path / "g.json"
    _write_graph(graph,
                 [{"id": "a", "tir_key": "k1", "program_ref": "small"},
                  {"id": "b", "tir_key": "k2", "program_ref": "wide",
                   "gap_s": 0.5, "device": 1}],
                 [["a", "b"]])
    dfg, key_to_ref = load_graph(graph)
    assert key_to_ref == {"k1": "small", "k2": "wide"}
    assert dfg.nodes[1].gap == 0.5
    assert dfg.nodes[1].device == 1

    bad = tmp_path / "bad.json"
    _write_graph(bad, [{"id": "a", "tir_key": "k"}], [["a", "missing"]])
    with pytest.raises(ValidationError):
        load_graph(bad)


@pytest.mark.parametrize("payload, message", [
    ({"nodes": [], "edges": []}, "no nodes"),
    ({"nodes": [{"id": "a", "tir_key": "k"}, {"tir_key": "k"}]},
     "node 1: missing field 'id'"),
    ({"nodes": [{"id": "a"}]}, "node 0: missing field 'tir_key'"),
    ({"nodes": [{"id": "a", "tir_key": "k", "gap_s": "soon"}]}, "node 0"),
    ({"nodes": ["a"]}, "node 0"),
    ({"nodes": [{"id": "a", "tir_key": "k"}], "edges": [["a"]]}, "edges"),
    ([{"id": "a", "tir_key": "k"}], "JSON object"),
    ({"nodes": 5}, "list of nodes"),
    # identifiers are JSON strings, not str() of any value
    *(pytest.param({"nodes": [{"id": "a", "tir_key": "k"},
                              {"id": "b", "tir_key": "k", **node}]},
                   f"node 1: {field} must be a JSON string", id=name)
      for name, field, node in [
          ("id-null", "id", {"id": None}),
          ("id-int", "id", {"id": 1}),
          ("tir_key-list", "tir_key", {"tir_key": ["k"]}),
          ("program_ref-int", "program_ref", {"program_ref": 3})]),
    # a device is a non-negative index, on every node or on some
    pytest.param({"nodes": [{"id": "a", "tir_key": "k", "device": -1}]},
                 "node 0: device must be a JSON integer >= 0",
                 id="device-negative"),
    pytest.param({"nodes": [{"id": "a", "tir_key": "k", "device": 1},
                            {"id": "b", "tir_key": "k", "device": -2}]},
                 "node 1: device must be a JSON integer >= 0",
                 id="device-negative-on-one-node"),
])
def test_load_graph_names_file_and_node(tmp_path, payload, message):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValidationError) as info:
        load_graph(path)
    assert str(path) in str(info.value) and message in str(info.value)


def _node(node_id):
    return {"id": node_id, "tir_key": "k"}


# Which error a bad graph reports when it has several faults, with the
# messages load_graph gave when it built (from, to) id pairs first.
@pytest.mark.parametrize("nodes, edges, error, message", [
    (["a", "b", "a"], [["a", "zz"]], ValidationError,
     "duplicate node ids: 'a' (node 0)"),
    (["a", "b", "b", "a"], [], ValidationError,
     "duplicate node ids: 'a' (node 0)"),
    (["a", "b", "b"], [["a", "b"], ["b", "a"]], ValidationError,
     "duplicate node ids: 'b' (node 1)"),
    (["a", "b"], [["a", "zz"], ["a"]], ValidationError,
     "edges[1] must be a [from, to] list, not ['a']"),
    (["a"], [["a", "a"], "ab"], ValidationError,
     "edges[1] must be a [from, to] list, not 'ab'"),
    # node ids are JSON strings; an edge end is matched exactly, so a
    # number or a list is an unknown node (ids kept from when ends were
    # matched by their text)
    pytest.param(["a", "b"], [["a", "b"], [1, "b"], ["b", "q"]],
                 ValidationError, "edge 1 (1, 'b'): unknown node",
                 id="nodes5-edges5-ValidationError-edge 1 ('1', 'b'): "
                    "unknown node"),
    pytest.param(["a"], [[["a"], "a"]], ValidationError,
                 "edge 0 (['a'], 'a'): unknown node",
                 id="nodes6-edges6-ValidationError-edge 0 (\"['a']\", 'a'): "
                    "unknown node"),
    pytest.param(["1", "2"], [[1, 2], [2, "1"]], ValidationError,
                 "edge 0 (1, 2): unknown node",
                 id="nodes7-edges7-CycleDetected-graph has a dependency "
                    "cycle"),
    (["a", "b", "c"], [["a", "b"], ["c", "b"], ["b", "c"]], CycleDetected,
     "graph has a dependency cycle"),
])
def test_load_graph_error_precedence(tmp_path, nodes, edges, error, message):
    path = tmp_path / "g.json"
    _write_graph(path, [_node(i) for i in nodes], edges)
    with pytest.raises(error) as info:
        load_graph(path)
    assert type(info.value) is error
    assert str(info.value) == f"{path}: {message}"


def test_load_graph_keeps_backward_edges_in_input_order(tmp_path):
    path = tmp_path / "g.json"
    _write_graph(path, [_node("a"), _node("b"), _node("c")],
                 [["c", "b"], ["b", "a"], ["c", "a"]])
    dfg, _ = load_graph(path)
    assert dfg.edges == [("c", "b"), ("b", "a"), ("c", "a")]
    assert list(simulate(dfg, 1).schedule) == ["c", "b", "a"]


def test_replay_is_pinned_bit_for_bit(tmp_path):
    """A 2000-node graph over 60 IR-only kernels, split by the benchmark's
    rules: the iteration time, the schedule in dispatch order and every
    compact AST, as recorded before the load path was rewritten."""
    graph, programs = model_graph.write_model_graph(tmp_path)
    for path, digest in ((graph, "4aebbe8c3127a7ef"),
                         (programs, "746be7f6695e4e4f")):  # the inputs
        assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == digest
    result = replay_model(graph, programs, None, None, None,
                          rules=model_graph.SPLIT_RULES,
                          predictor=model_graph.kernel_latency)
    assert result.iteration_time.hex() == "0x1.d5eab47766f69p-8"
    assert len(result.schedule) == 3692
    assert model_graph.schedule_digest(result.schedule) == (
        "e9900eef0311c28411e6f2a1d4a52fc056523b1916ec3a9e53095c78f9fc4d8c")
    assert model_graph.compacts_digest(load_programs(programs)) == (
        "960e755ec9e7bec4a1c37d94b4ef10f1c557d27b51672ea5eef0cb72d431e701")


def test_replay_model_chain_with_injected_oracle(tmp_path):
    programs = tmp_path / "programs.ir"
    programs.write_text(PROGRAMS_TEXT, encoding="utf-8")
    graph = tmp_path / "g.json"
    _write_graph(graph,
                 [{"id": "n0", "tir_key": "a", "program_ref": "small"},
                  {"id": "n1", "tir_key": "b", "program_ref": "small"},
                  {"id": "n2", "tir_key": "c", "program_ref": "wide"}],
                 [["n0", "n1"], ["n1", "n2"]])
    durations = {"a": 0.001, "b": 0.002, "c": 0.003}
    seen = {}

    def fake(compact, device):
        key = [k for k, v in durations.items() if k not in seen]
        # predictor is called once per tir_key in node order
        value = durations[key[0]]
        seen[key[0]] = True
        return value

    result = replay_model(graph, programs, None, None, None, rules={},
                          predictor=fake)
    assert result.iteration_time == pytest.approx(0.006, rel=1e-12)

    seen.clear()

    def doubled(compact, device):
        return 2.0 * fake(compact, device)

    result2 = replay_model(graph, programs, None, None, None, rules={},
                           predictor=doubled)
    assert result2.iteration_time == pytest.approx(0.012, rel=1e-12)


@pytest.mark.parametrize("rules", [None, model_graph.SPLIT_RULES],
                         ids=["no-rules", "rules"])
@pytest.mark.parametrize("value", [-1e-3, math.nan, math.inf])
def test_predicted_duration_must_be_a_time(tmp_path, rules, value):
    """A NaN or negative prediction fails the replay with or without rules,
    naming the first kernel key and the value; +inf, which decode returns
    for an output with no preimage, replays to +inf."""
    graph, programs = model_graph.write_model_graph(
        tmp_path, n_nodes=200, n_kernels=20, extra_edges=50)
    key = json.loads(graph.read_text())["nodes"][0]["tir_key"]

    def replay():
        return replay_model(graph, programs, None, None, None, rules=rules,
                            predictor=lambda compact, device: value)

    if value == math.inf:
        assert replay().iteration_time == math.inf
        return
    with pytest.raises(ValidationError) as info:
        replay()
    assert str(info.value) == (f"tir_key '{key}': predicted duration "
                               f"{value!r} is not a time >= 0")


def test_replay_cost_follows_used_devices_not_the_largest_index(tmp_path):
    """Nodes moved from devices 1.. to 2,000,000.. replay with the same
    schedule: only devices that hold a (sub-)node get a clock and a queue."""
    programs = tmp_path / "programs.ir"
    programs.write_text(PROGRAMS_TEXT, encoding="utf-8")
    results = []
    for far in (1, 2_000_000):
        graph = tmp_path / f"g{far}.json"
        _write_graph(graph,
                     [{"id": "a", "tir_key": "x", "program_ref": "small"},
                      {"id": "b", "tir_key": "conv:y", "program_ref": "wide",
                       "device": far, "gap_s": 0.5},
                      {"id": "c", "tir_key": "x", "program_ref": "small",
                       "device": far + 1},
                      {"id": "d", "tir_key": "z", "program_ref": "wide"}],
                     [["a", "b"], ["a", "c"], ["b", "d"], ["c", "d"]])
        results.append(replay_model(
            graph, programs, None, None, None, rules={"conv": 2},
            predictor=lambda compact, device: float(compact.n_leaf)))
    near, far = results
    assert len(near.schedule) == 5  # b split over two devices
    assert far.schedule == near.schedule
    assert far.iteration_time == near.iteration_time
