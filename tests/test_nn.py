"""nn layers against the textbook forms in oracles.py, bit for bit."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from oracles import layernorm_bwd_textbook, layernorm_textbook

from tpcost import nn

VALUES = st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False)


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data(),
       shape=array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=9))
def test_layernorm_matches_textbook_bit_for_bit(data, shape):
    x = data.draw(arrays(np.float64, shape, elements=VALUES))
    g, b = (data.draw(arrays(np.float64, shape[-1], elements=VALUES))
            for _ in range(2))
    dy = data.draw(arrays(np.float64, shape, elements=VALUES))
    with np.errstate(all="ignore"):  # huge draws may overflow both alike
        y, (xhat, inv) = nn.layernorm_fwd(x, g, b)
        ref_y, ref_xhat, ref_inv = layernorm_textbook(x, g, b)
        grads = nn.layernorm_bwd(dy, (xhat, inv), g)
        ref_grads = layernorm_bwd_textbook(dy, ref_xhat, ref_inv, g)
    assert _same_bits(y, ref_y)
    assert _same_bits(xhat, ref_xhat) and _same_bits(inv, ref_inv)
    for got, ref in zip(grads, ref_grads):
        assert _same_bits(got, ref)
