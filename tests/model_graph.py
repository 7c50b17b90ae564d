"""A seeded model graph for replay tests: a chain of operators plus short
skip edges on two pipeline devices, over kernels given only as IR text, as
the benchmark's serve_replay workload writes it, at a test's size."""

from __future__ import annotations

import hashlib
import json

import numpy as np

from tpcost import ir
from tpcost.dataset import random_program

OP_CLASSES = ("matmul", "conv", "softmax", "layernorm", "elementwise")
SPLIT_RULES = {"matmul": 4, "conv": 2}


def write_model_graph(workdir, seed: int = 11, n_nodes: int = 2000,
                      n_kernels: int = 60, extra_edges: int = 1000):
    """graph.json and programs.ir under `workdir`; every kernel is used."""
    rng = np.random.default_rng(seed)
    texts, op_class = [], []
    for j in range(n_kernels):
        texts.append(ir.print_program(random_program(rng, f"k{j}")))
        op_class.append(OP_CLASSES[j % len(OP_CLASSES)])
    kernel_of = np.concatenate([rng.permutation(n_kernels),
                                rng.integers(0, n_kernels,
                                             n_nodes - n_kernels)])
    nodes = [{"id": f"n{i}", "tir_key": f"{op_class[j]}:k{j}",
              "program_ref": f"k{j}", "device": (2 * i) // n_nodes,
              "gap_s": 2e-6 if rng.random() < 0.25 else 0.0}
             for i, j in enumerate(kernel_of.tolist())]
    edges = {(i - 1, i) for i in range(1, n_nodes)}
    while len(edges) < n_nodes - 1 + extra_edges:
        dst = int(rng.integers(2, n_nodes))
        edges.add((dst - int(rng.integers(2, min(64, dst) + 1)), dst))
    graph_path = workdir / "graph.json"
    programs_path = workdir / "programs.ir"
    graph_path.write_text(json.dumps(
        {"nodes": nodes,
         "edges": [[f"n{a}", f"n{b}"] for a, b in sorted(edges)]}),
        encoding="utf-8")
    programs_path.write_text("".join(texts), encoding="utf-8")
    return graph_path, programs_path


def kernel_latency(compact, device) -> float:
    """A deterministic stand-in for the cost model: a few microseconds that
    depend on every leaf vector."""
    return 1e-6 * (1.0 + float(np.abs(compact.leaf_vectors).sum()) % 7.0)


def schedule_digest(schedule) -> str:
    """sha256 of the schedule in dispatch order, times as exact hex."""
    h = hashlib.sha256()
    for node_id, (start, end) in schedule.items():
        h.update(f"{node_id} {start.hex()} {end.hex()}\n".encode())
    return h.hexdigest()


def compacts_digest(compacts) -> str:
    """sha256 of compact ASTs by name, in the order given."""
    h = hashlib.sha256()
    for name, c in compacts.items():
        h.update(f"{name} {c.n_leaf} {c.ordering} {c.serialized}\n".encode())
        h.update(np.ascontiguousarray(c.leaf_vectors, dtype="<f8").tobytes())
    return h.hexdigest()
