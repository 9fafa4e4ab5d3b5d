"""THE string routing hash every coarse shuffle shares: zlib.crc32 of the
UTF-8 bytes, computed over Arrow buffer slices — no per-row Python string
materialization.

Every bucketed exchange in the engine (stages/exchange, stages/crawl,
stages/linkgraph, pipelines/analysis) routes string keys by
``crc32(key) % n_coarse``. The reference form — ``np.fromiter(
(zlib.crc32(s.encode()) for s in col.to_pylist()), ...)`` — spends most
of its time materializing Python str objects and re-encoding them back to
UTF-8; the Arrow column already HOLDS the UTF-8 bytes contiguously. This
helper hashes ``memoryview`` slices of the value buffer directly (zlib's
C crc32 accepts any buffer), skipping both conversions: 2-3× faster than
the reference form on a 1M-row batch of ~60-char urls (timed side by side
in one process; the exact ratio varies with the host's load).

Numerical contract: bit-identical to ``zlib.crc32(s.encode())`` for every
string — it IS zlib.crc32 over the same bytes (pinned by
tests/test_kernels.py::TestCrc32SharedHelper against random unicode,
empty, long and null inputs, plus chunked and sliced arrays).
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa


def crc32_of_strings(values, null_value: int = 0) -> np.ndarray:
    """int64 array of ``zlib.crc32(s.encode())`` per element (of the raw
    bytes for a binary array); nulls → ``null_value``. Accepts pa.Array /
    pa.ChunkedArray / pandas Series / list / numpy object array. ``null_value=0`` reproduces the pervasive
    ``(s or '')`` convention (crc32(b'') == 0); joins use ``-1``."""
    if isinstance(values, pa.ChunkedArray):
        values = values.combine_chunks()
    if not isinstance(values, pa.Array):
        values = pa.array(values, type=pa.string(), from_pandas=True)
    binary = pa.types.is_binary(values.type) \
        or pa.types.is_large_binary(values.type)
    arr = values.cast(pa.large_binary() if binary else pa.large_string())
    n = len(arr)
    if n == 0:
        return np.empty(0, np.int64)
    offs = np.frombuffer(arr.buffers()[1], np.int64,
                         count=n + 1, offset=arr.offset * 8)
    mv = memoryview(arr.buffers()[2])
    crc = zlib.crc32
    out = np.fromiter(
        (crc(mv[s:e]) for s, e in zip(offs[:-1].tolist(),
                                      offs[1:].tolist())),
        np.int64, n)
    if arr.null_count:
        out[np.asarray(arr.is_null())] = null_value
    return out


def str_coarse(values, nc: int, null_value: int = 0) -> np.ndarray:
    """int32 coarse-shuffle bucket ``crc32(key) % nc`` per element."""
    return (crc32_of_strings(values, null_value=null_value)
            % np.int64(nc)).astype(np.int32)
