"""Arrow <-> numpy for executor code, through buffers only.

pyarrow 16 imports pandas (~26 MB of a Spark Python worker) on the first
``to_numpy``, ``pa.array``, ``from_pydict``, ``fill_null`` or ``take`` of
a numpy index in a process. ``np.frombuffer``, ``np.unpackbits`` and
``pa.Array.from_buffers`` load none, nor do ``take`` of an Arrow index,
``is_null``, ``cast`` and ``Table.from_arrays``: executor code converts
through these helpers alone.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa


def _values(arr: pa.Array) -> np.ndarray:
    """An integral or boolean array's values (a null's slot: any value)."""
    buf, off, n = arr.buffers()[1], arr.offset, len(arr)
    if pa.types.is_boolean(arr.type):  # a bitmap, little-endian
        raw = np.frombuffer(buf, np.uint8, (off % 8 + n + 7) // 8, off // 8)
        return np.unpackbits(raw, count=off % 8 + n, bitorder="little")[
            off % 8:]
    if not pa.types.is_integer(arr.type):
        raise TypeError(f"not an integral column: {arr.type}")
    dtype = np.dtype(str(arr.type))  # int8 ... uint64 name numpy dtypes
    return np.frombuffer(buf, dtype, n, off * dtype.itemsize)


def int64s(col: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """An integral or boolean column (chunks, offsets) as a new int64
    array; test ``null_count`` first."""
    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    return np.concatenate([_values(c) for c in chunks if len(c)]
                          + [np.empty(0, np.int64)],
                          dtype=np.int64, casting="unsafe")


def exact_numpy(col: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """An integral column as int64, or as object (ints and None) when it
    holds a null, where float64 would round values above 2**53."""
    values = int64s(col)
    if col.null_count:
        values = values.astype(object)
        values[int64s(col.is_null()) == 1] = None
    return values


def int64_array(values: np.ndarray, null: np.ndarray | None = None
                ) -> pa.Array:
    """An int64 Arrow array over ``values``, null where ``null`` is set."""
    values = np.ascontiguousarray(values, dtype=np.int64)
    bitmap = None if null is None or not null.any() else \
        pa.py_buffer(np.packbits(~null, bitorder="little"))
    return pa.Array.from_buffers(pa.int64(), len(values),
                                 [bitmap, pa.py_buffer(values)])
