import numpy as np
import pytest
from hypothesis import settings

from tpcost.ir import ComputeStats, LoopInfo, leaf, loop, make_program

# Property tests draw the same examples on every run, so tier-1 stays
# deterministic.
settings.register_profile("tpcost", derandomize=True, database=None)
settings.load_profile("tpcost")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def rand_stats(rng):
    return ComputeStats(
        fma_count=int(rng.integers(0, 16)),
        add_count=int(rng.integers(0, 16)),
        mul_count=int(rng.integers(0, 16)),
        div_count=int(rng.integers(0, 4)),
        special_count=int(rng.integers(0, 4)),
        bytes_read=int(rng.integers(1, 128)),
        bytes_written=int(rng.integers(0, 64)),
        buffers_read=int(rng.integers(1, 4)),
        buffers_written=int(rng.integers(1, 3)),
    )


def rand_tree(rng, max_depth=8, max_leaves=16, _counter=None):
    """Random AST built directly from node constructors (independent of the
    package's own program generator)."""
    counter = _counter if _counter is not None else [0]

    def build(depth, budget):
        if budget <= 1 or depth >= max_depth or rng.random() < 0.3:
            counter[0] += 1
            return leaf(f"c{counter[0]}", rand_stats(rng)), 1
        fanout = int(rng.integers(1, min(3, budget) + 1))
        children = []
        used = 0
        for _ in range(fanout):
            child, n = build(depth + 1, budget - used - (fanout - len(children) - 1))
            children.append(child)
            used += n
        counter[0] += 1
        info = LoopInfo(f"v{counter[0]}", int(rng.integers(1, 64)),
                        frozenset(a for a in ("vectorize", "unroll", "parallel")
                                  if rng.random() < 0.2))
        return loop(info, children), used

    root_children = []
    used = 0
    budget = int(rng.integers(1, max_leaves))
    while used < budget:
        child, n = build(1, budget - used)
        root_children.append(child)
        used += n
    counter[0] += 1
    info = LoopInfo(f"v{counter[0]}", int(rng.integers(1, 64)))
    return loop(info, root_children)


def rand_program(rng, name="p", max_depth=8, max_leaves=16):
    return make_program(name, rand_tree(rng, max_depth, max_leaves),
                        max_leaves=max_leaves)
