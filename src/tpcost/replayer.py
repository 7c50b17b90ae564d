"""End-to-end latency replay: predict one duration per distinct kernel key,
optionally split multi-core operators into parallel sub-nodes, and simulate
the dataflow graph with one ready-queue per device.

`dedup_predict` encodes every distinct kernel and runs the cost model once,
as one batch. The durations match one `costmodel.predict` call per kernel
within 1e-12 relative, not bit for bit: a batched matmul may sum in another
order than a one-row one.

Scheduling policy: devices are scanned in ascending (deviceTime, index)
order and the first one with a non-empty queue dispatches next; within a
queue the node with the smallest (readyTime, id) runs. A node enters its
device queue as soon as all predecessors have been dispatched; its actual
start still waits for max(deviceTime, readyTime).
"""

from __future__ import annotations

import heapq
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

from . import costmodel, features
from .errors import CycleDetected, InvalidDevice, ValidationError
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


@dataclass
class Dfg:
    nodes: list[DfgNode] = field(default_factory=list)
    edges: list[tuple[str, str]] = field(default_factory=list)

    def validate(self) -> None:
        succ, indeg = _index(self)
        for node in self.nodes:
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
        if seen != len(self.nodes):
            raise CycleDetected("graph has a dependency cycle")


def _index(dfg: Dfg) -> tuple[list[list[int]], list[int]]:
    """Successors and in-degrees by node position, through one {id: position}
    map. Raises ValidationError for duplicate ids and for an edge to an
    unknown node."""
    index = {n.id: i for i, n in enumerate(dfg.nodes)}
    if len(index) != len(dfg.nodes):
        raise ValidationError("duplicate node ids")
    succ: list[list[int]] = [[] for _ in dfg.nodes]
    indeg = [0] * len(dfg.nodes)
    for src, dst in dfg.edges:
        s, t = index.get(src), index.get(dst)
        if s is None or t is None:
            raise ValidationError(f"edge ({src}, {dst}) references unknown node")
        succ[s].append(t)
        indeg[t] += 1
    return succ, indeg


@dataclass
class SimResult:
    iteration_time: float
    schedule: dict[str, tuple[float, float]]  # node id -> (start, end)


def simulate(dfg: Dfg, n_devices: int) -> SimResult:
    """Discrete-event replay. Iteration time is the largest device clock at
    termination, i.e. the last node's end plus its trailing gap."""
    if n_devices < 1:
        raise InvalidDevice("need at least one device")
    for node in dfg.nodes:
        if not (0 <= node.device < n_devices):
            raise InvalidDevice(
                f"node '{node.id}' placed on device {node.device}, "
                f"have {n_devices}")
    nodes = dfg.nodes
    succ, ref = _index(dfg)
    ready_time = [0.0] * len(nodes)
    device_time = [0.0] * n_devices
    # heap entries (readyTime, id, index): ids are unique, so the index
    # never decides the order
    queues: list[list[tuple[float, str, int]]] = [[] for _ in range(n_devices)]
    for i, node in enumerate(nodes):
        if ref[i] == 0:
            heapq.heappush(queues[node.device], (0.0, node.id, i))

    schedule: dict[str, tuple[float, float]] = {}
    scheduled = 0
    while True:
        pick = -1
        for d in range(n_devices):  # smallest (deviceTime, index) with work
            if queues[d] and (pick < 0 or device_time[d] < device_time[pick]):
                pick = d
        if pick < 0:
            break
        _, node_id, i = heapq.heappop(queues[pick])
        node = nodes[i]
        start = max(device_time[pick], ready_time[i])
        end = start + node.duration
        schedule[node_id] = (start, end)
        done = device_time[pick] = end + node.gap
        scheduled += 1
        for child in succ[i]:
            ref[child] -= 1
            if done > ready_time[child]:
                ready_time[child] = done
            if ref[child] == 0:
                heapq.heappush(queues[nodes[child].device],
                               (ready_time[child], nodes[child].id, child))
    if scheduled != len(dfg.nodes):
        raise CycleDetected(
            f"{len(dfg.nodes) - scheduled} nodes never became ready")
    return SimResult(iteration_time=max(device_time, default=0.0),
                     schedule=schedule)


def expand_device_parallel(dfg: Dfg, rules: dict[str, int]) -> Dfg:
    """Split every node whose op class appears in `rules` into k parallel
    sub-nodes of duration/k each, inheriting all edges. Sub-node i runs on
    device index (node.device + i); size the simulated device set
    accordingly."""
    for op_class, k in rules.items():
        if k < 1:
            raise ValidationError(f"rule '{op_class}': core count must be >= 1")
    nodes: list[DfgNode] = []
    expansion: dict[str, list[str]] = {}
    for node in dfg.nodes:
        k = rules.get(node.op_class, 1)
        if k == 1:
            nodes.append(DfgNode(node.id, node.tir_key, node.duration,
                                 node.gap, node.device))
            expansion[node.id] = [node.id]
            continue
        sub_ids = [f"{node.id}#{i}" for i in range(k)]
        nodes.extend(DfgNode(sub_id, node.tir_key, node.duration / k,
                             node.gap, node.device + i)
                     for i, sub_id in enumerate(sub_ids))
        expansion[node.id] = sub_ids
    edges = [(s, t) for src, dst in dfg.edges
             for s in expansion[src] for t in expansion[dst]]
    out = Dfg(nodes=nodes, edges=edges)
    out.validate()
    return out


def dedup_predict(dfg: Dfg, programs: dict[str, CompactAst], params,
                  device, normalizer, predictor=None) -> dict[str, float]:
    """Fill every node's duration with one prediction per distinct tir_key,
    taken in order of first appearance.

    `programs` maps tir_key to the program's compact AST. The cost model
    predicts all keys in one batch. A custom `predictor(compact, device)`
    can replace it (used in tests and by oracle replays); it is called once
    per key."""
    keys = list(dict.fromkeys(node.tir_key for node in dfg.nodes))
    for key in keys:
        if key not in programs:
            raise ValidationError(f"no program for tir_key '{key}'")
    if predictor is None:
        inputs = [features.encode_input(programs[key], device) for key in keys]
        values = costmodel.predict_batch(params, inputs, normalizer).tolist()
    else:
        values = [float(predictor(programs[key], device)) for key in keys]
    durations = dict(zip(keys, values))
    for node in dfg.nodes:
        node.duration = durations[node.tir_key]
    return durations


# ---------------------------------------------------------------------------
# Graph + program file I/O
# ---------------------------------------------------------------------------

def load_graph(path: str | Path) -> tuple[Dfg, dict[str, str]]:
    """Graph JSON: nodes carry id/tir_key/device/gap_s/program_ref, edges are
    [from, to] pairs. Returns the graph and the tir_key -> program_ref map.
    A graph without nodes, or a node that lacks a field or has a malformed
    one, or a negative or non-finite gap_s or duration_s, raises
    ValidationError naming the file and the node index."""
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    entries = data.get("nodes", []) if isinstance(data, dict) else None
    if not isinstance(entries, list):
        raise ValidationError(
            f"{path}: graph must be a JSON object with a list of nodes")
    nodes = []
    key_to_ref: dict[str, str] = {}
    for index, entry in enumerate(entries):
        try:
            node = DfgNode(id=str(entry["id"]), tir_key=str(entry["tir_key"]),
                           gap=float(entry.get("gap_s", 0.0)),
                           device=int(entry.get("device", 0)),
                           duration=float(entry.get("duration_s", 0.0)))
        except KeyError as e:
            raise ValidationError(
                f"{path}: node {index}: missing field {e}") from e
        except (TypeError, ValueError) as e:
            raise ValidationError(f"{path}: node {index}: {e}") from e
        if not (0.0 <= node.gap < math.inf and 0.0 <= node.duration < math.inf):
            raise ValidationError(f"{path}: node {index}: gap_s and "
                                  f"duration_s must be finite and >= 0")
        nodes.append(node)
        ref = entry.get("program_ref")
        if ref is not None:
            prev = key_to_ref.setdefault(node.tir_key, str(ref))
            if prev != str(ref):
                raise ValidationError(
                    f"tir_key '{node.tir_key}' maps to multiple programs")
    if not nodes:
        raise ValidationError(f"{path}: graph has no nodes")
    try:
        edges = [(str(a), str(b)) for a, b in data.get("edges", [])]
    except (TypeError, ValueError) as e:
        raise ValidationError(f"{path}: edges must be [from, to] pairs") from e
    dfg = Dfg(nodes=nodes, edges=edges)
    dfg.validate()
    return dfg, key_to_ref


def load_programs(path: str | Path,
                  max_leaves: int = MAX_LEAVES_DEFAULT) -> dict[str, CompactAst]:
    """Sidecar IR file: concatenated `program NAME { ... }` blocks. Returns
    compact ASTs keyed by program name."""
    text = Path(path).read_text(encoding="utf-8")
    programs = {}
    for chunk in _split_programs(text):
        ast = parse_program(chunk, max_leaves=max_leaves)
        if ast.name in programs:
            raise ValidationError(f"duplicate program '{ast.name}'")
        programs[ast.name] = build_compact_ast(ast)
    return programs


_BLOCK_TOKEN = re.compile(r"#[^\n]*|[{}]")


def _split_programs(text: str) -> list[str]:
    """Split concatenated program blocks at top-level closing braces; braces
    inside `#` comments do not count."""
    boundaries = []
    depth = 0
    for m in _BLOCK_TOKEN.finditer(text):
        ch = m.group()
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                boundaries.append(m.start())
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


def replay_model(graph_path: str | Path, programs_path: str | Path, params,
                 device, normalizer, rules: dict[str, int] | None = None,
                 predictor=None) -> SimResult:
    """Load graph + programs, predict per-kernel durations, expand parallel
    operators, and simulate. Programs may have up to the model's
    `n_leaf_max` leaves (the parser's default without a model)."""
    dfg, key_to_ref = load_graph(graph_path)
    compacts = load_programs(programs_path, max_leaves=(
        MAX_LEAVES_DEFAULT if params is None else params.config.n_leaf_max))
    programs = {}
    for key, ref in key_to_ref.items():
        if ref not in compacts:
            raise ValidationError(f"program_ref '{ref}' not found")
        programs[key] = compacts[ref]
    dedup_predict(dfg, programs, params, device, normalizer,
                  predictor=predictor)
    if rules:
        dfg = expand_device_parallel(dfg, rules)
    n_devices = max(n.device for n in dfg.nodes) + 1
    return simulate(dfg, n_devices)
