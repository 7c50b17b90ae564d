"""Files for tests of what `load_checkpoint` accepts: a checkpoint with its
JSON metadata block rewritten, and a `.npy` file, which is no checkpoint."""

import io
import json

import numpy as np


def rewrite_meta(src, dst, edit) -> None:
    """Copy checkpoint `src` to `dst` with its metadata replaced by
    edit(meta), written the way save_checkpoint writes it."""
    with np.load(src) as data:
        meta = json.loads(bytes(data["__meta__"]).decode())
        tensors = {n: data[n] for n in data.files if n != "__meta__"}
    meta_bytes = np.frombuffer(json.dumps(edit(meta), sort_keys=True).encode(),
                               dtype=np.uint8)
    with open(dst, "wb") as f:
        np.savez(f, __meta__=meta_bytes, **tensors)


def npy_bytes(array) -> bytes:
    """The bytes of `np.save(array)`."""
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()
