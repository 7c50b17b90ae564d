"""End-to-end latency replay: predict one duration per distinct kernel key,
optionally split multi-core operators into parallel sub-nodes, and simulate
the dataflow graph with one ready-queue per device.

Scheduling policy: devices are scanned in ascending (deviceTime, index)
order and the first one with a non-empty queue dispatches next; within a
queue the node with the smallest (readyTime, id) runs. A node enters its
device queue as soon as all predecessors have been dispatched; its actual
start still waits for max(deviceTime, readyTime).
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import CycleDetected, InvalidDevice, ValidationError
from .features import CompactAst, build_compact_ast
from .ir import parse_program

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
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate node ids")
        known = set(ids)
        for node in self.nodes:
            if node.duration < 0 or node.gap < 0:
                raise ValidationError(f"node '{node.id}': negative time")
        for src, dst in self.edges:
            if src not in known or dst not in known:
                raise ValidationError(f"edge ({src}, {dst}) references unknown node")
        if _has_cycle(self):
            raise CycleDetected("graph has a dependency cycle")

    def successors(self) -> dict[str, list[str]]:
        succ: dict[str, list[str]] = {n.id: [] for n in self.nodes}
        for src, dst in self.edges:
            succ[src].append(dst)
        return succ

    def indegrees(self) -> dict[str, int]:
        deg = {n.id: 0 for n in self.nodes}
        for _, dst in self.edges:
            deg[dst] += 1
        return deg


def _has_cycle(dfg: Dfg) -> bool:
    deg = dfg.indegrees()
    succ = dfg.successors()
    frontier = [i for i, d in deg.items() if d == 0]
    seen = 0
    while frontier:
        node = frontier.pop()
        seen += 1
        for nxt in succ[node]:
            deg[nxt] -= 1
            if deg[nxt] == 0:
                frontier.append(nxt)
    return seen != len(dfg.nodes)


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
    nodes = {n.id: n for n in dfg.nodes}
    succ = dfg.successors()
    ref = dfg.indegrees()
    ready_time = {n.id: 0.0 for n in dfg.nodes}
    device_time = [0.0] * n_devices
    queues: list[list[tuple[float, str]]] = [[] for _ in range(n_devices)]
    for node in dfg.nodes:
        if ref[node.id] == 0:
            heapq.heappush(queues[node.device], (0.0, node.id))

    schedule: dict[str, tuple[float, float]] = {}
    scheduled = 0
    while True:
        pick = -1
        for d in sorted(range(n_devices), key=lambda d: (device_time[d], d)):
            if queues[d]:
                pick = d
                break
        if pick < 0:
            break
        _, node_id = heapq.heappop(queues[pick])
        node = nodes[node_id]
        start = max(device_time[pick], ready_time[node_id])
        end = start + node.duration
        schedule[node_id] = (start, end)
        device_time[pick] = end + node.gap
        scheduled += 1
        for child in succ[node_id]:
            ref[child] -= 1
            ready_time[child] = max(ready_time[child], end + node.gap)
            if ref[child] == 0:
                heapq.heappush(queues[nodes[child].device],
                               (ready_time[child], child))
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
            nodes.append(replace(node))
            expansion[node.id] = [node.id]
            continue
        sub_ids = []
        for i in range(k):
            sub = replace(node, id=f"{node.id}#{i}", duration=node.duration / k,
                          device=node.device + i)
            nodes.append(sub)
            sub_ids.append(sub.id)
        expansion[node.id] = sub_ids
    edges = []
    for src, dst in dfg.edges:
        for s in expansion[src]:
            for t in expansion[dst]:
                edges.append((s, t))
    out = Dfg(nodes=nodes, edges=edges)
    out.validate()
    return out


def dedup_predict(dfg: Dfg, programs: dict[str, CompactAst], params,
                  device, normalizer, predictor=None) -> dict[str, float]:
    """Fill every node's duration with one prediction per distinct tir_key.

    `programs` maps tir_key to the program's compact AST. A custom
    `predictor(compact, device)` can replace the cost model (used in tests
    and by oracle replays)."""
    if predictor is None:
        from .costmodel import predict as model_predict

        def predictor(compact, dev):
            return model_predict(params, compact, dev, normalizer)

    durations: dict[str, float] = {}
    for node in dfg.nodes:
        if node.tir_key not in durations:
            if node.tir_key not in programs:
                raise ValidationError(
                    f"no program for tir_key '{node.tir_key}'")
            durations[node.tir_key] = float(
                predictor(programs[node.tir_key], device))
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
    one, raises ValidationError naming the file and the node index."""
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
                  max_leaves: int = 16) -> dict[str, CompactAst]:
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


def _split_programs(text: str) -> list[str]:
    """Split concatenated program blocks at top-level closing braces."""
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


def replay_model(graph_path: str | Path, programs_path: str | Path, params,
                 device, normalizer, rules: dict[str, int] | None = None,
                 predictor=None) -> SimResult:
    """Load graph + programs, predict per-kernel durations, expand parallel
    operators, and simulate."""
    dfg, key_to_ref = load_graph(graph_path)
    compacts = load_programs(programs_path)
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
