"""End-to-end latency replay: predict one duration per distinct kernel key,
optionally split multi-core operators into parallel sub-nodes, and simulate
the dataflow graph with one ready-queue per device.

The load path checks each input once; every error names the file. In one
pass, `load_graph` checks each node and program_ref as it fills the columns,
then each edge's shape; `Dfg.validate` resolves the edges to positions
(duplicate id, unknown end), builds the CSR successor index by counting and
rejects a cycle. `load_programs` splits the sidecar IR into blocks, checked
in one tree walk by `parse_program` (syntax, values, nesting, leaf count)
and then by `build_compact_ast` (extent products, counts past a float).

A `Dfg` holds columns over node positions; a node split k ways stays one
position of width k (sub-nodes `id#0` .. `id#k-1`) that shares the index,
so `simulate` does O(N*k + E*k) work for N nodes and E edges. Batched
`dedup_predict` durations match `costmodel.predict` within 1e-12 relative.

Scheduling policy: of the devices with a non-empty queue, the one with the
smallest (deviceTime, index) dispatches next; within a queue the node with
the smallest (readyTime, id) runs. A node enters its device queue as soon as
all predecessors have been dispatched; its actual start still waits for
max(deviceTime, readyTime).
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import accumulate
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from . import costmodel, features
from .errors import (CycleDetected, InvalidDevice, ParseError, TpcostError,
                     ValidationError, json_int, json_list, json_number,
                     json_object, json_str, read_json, read_text)
from .features import CompactAst, build_compact_ast
from .ir import MAX_LEAVES_DEFAULT, parse_program

OP_CLASS_SEPARATOR = ":"  # op class = tir_key up to the first separator


@dataclass
class DfgNode:
    id: str
    tir_key: str
    duration: float = 0.0  # seconds
    gap: float = 0.0  # post-op gap, seconds
    device: int = 0

    @property
    def op_class(self) -> str:
        return self.tir_key.split(OP_CLASS_SEPARATOR, 1)[0]


class _Index(NamedTuple):
    src: list[int]  # edge endpoints by position, in input order
    dst: list[int]
    start: list[int]  # successors of p: succ[start[p]:start[p + 1]]
    succ: list[int]
    acyclic: bool


class Dfg:
    """Columns over node positions, from DfgNodes and (src, dst) id pairs."""

    def __init__(self, nodes: Sequence[DfgNode] = (),
                 edges: Iterable[tuple[str, str]] = ()) -> None:
        self._fill([n.id for n in nodes], [n.tir_key for n in nodes],
                   [n.duration for n in nodes], [n.gap for n in nodes],
                   [n.device for n in nodes], [(a, b) for a, b in edges])

    def _fill(self, ids, keys, durations, gaps, devices, pairs, width=None,
              index=None) -> Dfg:
        self._ids, self._keys, self._durations = ids, keys, durations
        self._gaps, self._devices, self._pairs = gaps, devices, pairs
        self._width = width or [1] * len(ids)  # sub-nodes per position
        self._index = index
        return self

    def _graph(self) -> _Index:
        """The index, built once; ValidationError for a duplicate id or an
        edge end that is not a node's id string (1 and ["a"] are unknown)."""
        if self._index is not None:
            return self._index
        ids, pairs = self._ids, self._pairs
        position = {node_id: p for p, node_id in enumerate(ids)}
        if len(position) != len(ids):
            p = next(p for p, i in enumerate(ids) if position[i] != p)
            raise ValidationError(f"duplicate node ids: '{ids[p]}' (node {p})")
        src = [position.get(a, -1) if type(a) is str else -1 for a, _ in pairs]
        dst = [position.get(b, -1) if type(b) is str else -1 for _, b in pairs]
        if -1 in src or -1 in dst:
            e = next(e for e, ends in enumerate(zip(src, dst)) if -1 in ends)
            raise ValidationError(f"edge {e} {tuple(pairs[e])}: unknown node")
        # a counting sort by source keeps each node's successors in order
        start, deg = [0] * (len(ids) + 1), [0] * len(ids)
        for s, t in zip(src, dst):
            start[s + 1] += 1
            deg[t] += 1
        start = list(accumulate(start))
        succ, fill = [0] * len(src), start[:-1]
        for s, t in zip(src, dst):
            succ[fill[s]] = t
            fill[s] += 1
        order = [p for p, d in enumerate(deg) if d == 0]
        for p in order:  # Kahn's algorithm: a cycle keeps nodes out of it
            for c in succ[start[p]:start[p + 1]]:
                deg[c] -= 1
                if deg[c] == 0:
                    order.append(c)
        self._index = _Index(src, dst, start, succ, len(order) == len(ids))
        self._pairs = None  # the index holds the edges now
        return self._index

    def _sub_ids(self, p: int) -> list[str]:
        k, node_id = self._width[p], self._ids[p]
        return [node_id] if k == 1 else [f"{node_id}#{i}" for i in range(k)]

    @property
    def nodes(self) -> list[DfgNode]:
        """A snapshot: one new DfgNode per (sub-)node, in position order."""
        return [DfgNode(sub_id, self._keys[p], self._durations[p],
                        self._gaps[p], self._devices[p] + i)
                for p in range(len(self._ids))
                for i, sub_id in enumerate(self._sub_ids(p))]

    @property
    def edges(self) -> list[tuple[str, str]]:
        """A snapshot of the (src, dst) id pairs in input order; an edge
        between split nodes lists every pair of their sub-nodes."""
        if self._index is None:
            return list(self._pairs)
        subs = [self._sub_ids(p) for p in range(len(self._ids))]
        return [(s, t) for a, b in zip(self._index.src, self._index.dst)
                for s in subs[a] for t in subs[b]]

    def validate(self) -> None:
        """ValidationError for a duplicate id, an edge to an unknown node or
        a negative or NaN time; CycleDetected for a dependency cycle."""
        graph = self._graph()
        if bad := [i for i, d, g in zip(self._ids, self._durations, self._gaps)
                   if not d >= 0 or not g >= 0]:
            raise ValidationError(f"node '{bad[0]}': negative or NaN time")
        if not graph.acyclic:
            raise CycleDetected("graph has a dependency cycle")


@dataclass
class SimResult:
    iteration_time: float
    schedule: dict[str, tuple[float, float]]  # node id -> (start, end)


def simulate(dfg: Dfg, n_devices: int) -> SimResult:
    """Discrete-event replay. Iteration time is the largest device clock at
    termination, i.e. the last node's end plus its trailing gap."""
    if n_devices < 1:
        raise InvalidDevice("need at least one device")
    ids, devices, width = dfg._ids, dfg._devices, dfg._width
    durations, gaps = dfg._durations, dfg._gaps
    if bad := [i for i, d, k in zip(ids, devices, width)
               if not 0 <= d <= n_devices - k]:
        raise InvalidDevice(f"node '{bad[0]}' needs a device outside 0.."
                            f"{n_devices - 1}")
    graph = dfg._graph()
    if not graph.acyclic:
        raise CycleDetected("graph has a dependency cycle")
    start, succ, ref = graph.start, graph.succ, [0] * len(devices)
    for s, t in zip(graph.src, graph.dst):  # edges into each sub-node of t
        ref[t] += width[s]
    ready_time = [0.0] * len(devices)
    # per device with a (sub-)node: its clock and a heap of (readyTime, id,
    # position), ids unique so the position never decides. `busy` holds
    # (clock, device) per device with work; a clock changes only outside it.
    clock: defaultdict[int, float] = defaultdict(float)
    queues: defaultdict[int, list[tuple[float, str, int]]] = defaultdict(list)
    busy: list[tuple[float, int]] = []

    def release(p: int) -> None:  # every sub-node of p, with one ready time
        subs = (ids[p],) if width[p] == 1 else dfg._sub_ids(p)
        for d, sub_id in enumerate(subs, devices[p]):
            if not (queue := queues[d]):
                heappush(busy, (clock[d], d))
            heappush(queue, (ready_time[p], sub_id, p))

    for p in [p for p, count in enumerate(ref) if count == 0]:
        release(p)
    schedule: dict[str, tuple[float, float]] = {}
    while busy:  # smallest (deviceTime, index) with work
        now, d = heappop(busy)
        _, sub_id, p = heappop(queue := queues[d])
        begin = max(now, ready_time[p])
        end = begin + durations[p]
        schedule[sub_id] = (begin, end)
        done = clock[d] = end + gaps[p]
        if queue:
            heappush(busy, (done, d))
        for child in succ[start[p]:start[p + 1]]:
            ref[child] -= 1
            if done > ready_time[child]:
                ready_time[child] = done
            if ref[child] == 0:
                release(child)
    # a device that holds no node keeps its clock at 0
    clocks = [*clock.values()] + [0.0] * (len(clock) < n_devices)
    return SimResult(iteration_time=max(clocks), schedule=schedule)


def expand_device_parallel(dfg: Dfg, rules: dict[str, int]) -> Dfg:
    """Split every node whose op class appears in `rules` into k parallel
    sub-nodes `id#0` .. `id#k-1` of duration/k each, inheriting all edges and
    the input's index. Sub-node i runs on device index (node.device + i)."""
    if bad := [op_class for op_class, k in rules.items() if k < 1]:
        raise ValidationError(f"rule '{bad[0]}': core count must be >= 1")
    if max(dfg._width, default=1) > 1:  # split an expansion's sub-nodes
        dfg = Dfg(dfg.nodes, dfg.edges)
    graph, ids = dfg._graph(), dfg._ids
    width_of = {key: rules.get(key.split(OP_CLASS_SEPARATOR, 1)[0], 1)
                for key in set(dfg._keys)}
    width = [width_of[key] for key in dfg._keys]
    # an unsplit id can equal a sub-node id only if it holds a '#'
    if taken := {i for i, k in zip(ids, width) if k == 1 and "#" in i}:
        if clash := taken.intersection(f"{i}#{j}" for i, k in zip(ids, width)
                                       if k > 1 for j in range(k)):
            raise ValidationError(f"duplicate node ids: '{min(clash)}'")
    out = Dfg()._fill(ids, dfg._keys,
                      [d / k for d, k in zip(dfg._durations, width)],
                      dfg._gaps, dfg._devices, None, width, graph)
    out.validate()
    return out


def dedup_predict(dfg: Dfg, programs: dict[str, CompactAst], params,
                  device, normalizer, predictor=None) -> dict[str, float]:
    """Fill the duration column from one prediction per distinct tir_key:
    one cost-model batch, or one `predictor(compact, device)` call per key.
    A NaN or negative duration raises ValidationError; +inf, which decode
    returns for an output with no preimage, is kept."""
    keys = list(dict.fromkeys(dfg._keys))
    if missing := [key for key in keys if key not in programs]:
        raise ValidationError(f"no program for tir_key '{missing[0]}'")
    if predictor is None:
        inputs = [features.encode_input(programs[key], device) for key in keys]
        values = costmodel.predict_batch(params, inputs, normalizer).tolist()
    else:
        values = [float(predictor(programs[key], device)) for key in keys]
    durations = dict(zip(keys, values))
    if bad := [key for key, value in durations.items() if not value >= 0]:
        raise ValidationError(f"tir_key '{bad[0]}': predicted duration "
                              f"{durations[bad[0]]!r} is not a time >= 0")
    dfg._durations = [durations[key] for key in dfg._keys]
    return durations


def load_graph(path: str | Path) -> tuple[Dfg, dict[str, str]]:
    """Graph JSON: node objects carry id/tir_key/device/gap_s/duration_s/
    program_ref (typed by the errors.py checkers, times >= 0); edges are
    [from, to] lists of node-id strings. Returns the validated graph and
    the tir_key -> program_ref map."""
    data = read_json(path)
    entries = data.get("nodes", []) if isinstance(data, dict) else None
    if not isinstance(entries, list):
        raise ValidationError(
            f"{path}: graph must be a JSON object with a list of nodes")
    ids, keys, durations, gaps, devices = ([None] * len(entries)
                                           for _ in range(5))
    key_to_ref: dict[str, str] = {}
    for index, entry in enumerate(entries):
        try:
            entry = json_object(entry, "node")
            ids[index] = json_str(entry["id"], "id")
            keys[index] = key = json_str(entry["tir_key"], "tir_key")
            durations[index] = json_number(entry.get("duration_s", 0.0),
                                           "duration_s", 0.0)
            gaps[index] = json_number(entry.get("gap_s", 0.0), "gap_s", 0.0)
            devices[index] = json_int(entry.get("device", 0), "device", 0)
            ref = entry.get("program_ref")
            if ref is not None and key_to_ref.setdefault(
                    key, json_str(ref, "program_ref")) != ref:
                raise ValidationError(f"tir_key '{key}' maps to multiple "
                                      f"programs")
        except (KeyError, ValidationError) as e:
            what = f"missing field {e}" if isinstance(e, KeyError) else e
            raise ValidationError(f"{path}: node {index}: {what}") from e
    if not entries:
        raise ValidationError(f"{path}: graph has no nodes")
    edges = json_list(data.get("edges", []), f"{path}: edges")
    for index, edge in enumerate(edges):
        if type(edge) is not list or len(edge) != 2:
            raise ValidationError(f"{path}: edges[{index}] must be a "
                                  f"[from, to] list, not {edge!r}")
    dfg = Dfg()._fill(ids, keys, durations, gaps, devices, edges)
    try:
        dfg.validate()
    except (ValidationError, CycleDetected) as e:
        raise type(e)(f"{path}: {e}") from e
    return dfg, key_to_ref


def load_programs(path: str | Path,
                  max_leaves: int = MAX_LEAVES_DEFAULT) -> dict[str, CompactAst]:
    """Sidecar IR file: concatenated `program NAME { ... }` blocks. Returns
    compact ASTs keyed by program name. A bad block raises ValidationError
    naming the file and a line of it: the error's own, or else the line the
    block starts on."""
    text = read_text(path)
    try:
        chunks = _split_programs(text)
    except ValidationError as e:
        raise ValidationError(f"{path}: {e}") from e
    programs, start = {}, 0  # the chunks tile the text: start is an offset
    for chunk in chunks:
        try:
            ast = parse_program(chunk, max_leaves=max_leaves)
            if ast.name in programs:
                raise ValidationError(f"duplicate program '{ast.name}'")
            programs[ast.name] = build_compact_ast(ast)
        except ParseError as e:
            line = text.count("\n", 0, start) + e.line
            col = e.col + (start - text.rfind("\n", 0, start) - 1
                           if e.line == 1 else 0)
            raise ValidationError(f"{path}:{line}:{col}: {e.message}") from e
        except TpcostError as e:
            first = start + len(chunk) - len(chunk.lstrip())
            line = text.count("\n", 0, first) + 1
            raise ValidationError(f"{path}:{line}: {e}") from e
        start += len(chunk)
    return programs


_BLOCK_TOKEN = re.compile(r"#[^\n]*|[{}]")


def _split_programs(text: str) -> list[str]:
    """Split concatenated program blocks at top-level closing braces; braces
    inside `#` comments do not count."""
    chunks, depth, prev = [], 0, 0
    for m in _BLOCK_TOKEN.finditer(text):
        if m.group() == "{":
            depth += 1
        elif m.group() == "}":
            depth -= 1
            if depth == 0:
                if text[prev:m.end()].strip():
                    chunks.append(text[prev:m.end()])
                prev = m.end()
    if text[prev:].strip():
        raise ValidationError("trailing text after last program block")
    return chunks


def replay_model(graph_path: str | Path, programs_path: str | Path, params,
                 device, normalizer, rules: dict[str, int] | None = None,
                 predictor=None) -> SimResult:
    """Load graph + programs, predict per-kernel durations, expand parallel
    operators, and simulate. Programs may have up to the model's
    `n_leaf_max` leaves (the parser's default without a model)."""
    dfg, key_to_ref = load_graph(graph_path)
    compacts = load_programs(programs_path, max_leaves=(
        MAX_LEAVES_DEFAULT if params is None else params.config.n_leaf_max))
    if missing := set(key_to_ref.values()) - set(compacts):
        raise ValidationError(f"{graph_path}: program_ref '{min(missing)}' "
                              f"not found in {programs_path}")
    programs = {key: compacts[ref] for key, ref in key_to_ref.items()}
    dedup_predict(dfg, programs, params, device, normalizer,
                  predictor=predictor)
    if rules:
        dfg = expand_device_parallel(dfg, rules)
    return simulate(dfg, max(d + k for d, k in zip(dfg._devices, dfg._width)))
