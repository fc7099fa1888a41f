"""Tensor payloads as bytes: the one place a saved tensor's memory is read.

A payload is what a state's tensor leaf resolves to
(:func:`~repro.tensor.tensor_payload_array`): a NumPy array, a
:class:`~repro.tensor.StridedSlice` (the windows of an elastic rank's slice,
left uncopied in the caller's array), or, for bytes already staged, any byte
buffer.  :func:`tensor_bytes` hands every consumer the payload's bytes in file
order, copying a strided slice exactly once — into the consumer's own
destination when it has one, else piece by piece into one bounded buffer.
"""

from __future__ import annotations

import threading
from typing import Iterable, Iterator, Optional

import numpy as np

from ..tensor import StridedSlice

#: Upper bound of one coalesced extent of the lazy capture, and of the buffer
#: a strided slice is gathered into when its consumer has none.
MAX_EXTENT_BYTES = 4 * 1024 * 1024


def tensor_bytes(payload, out: Optional[np.ndarray] = None) -> Iterable[memoryview]:
    """The bytes of one tensor payload, in file order, as 1-D byte views.

    * ``out`` — a writable ``uint8`` array of exactly the payload's size that
      the caller owns (a pool extent, a staging buffer, a serialized part):
      the payload is copied into it now, once, and the one view is of ``out``.
    * A contiguous array, or a byte buffer, is its own memory: one view of it.
    * A strided slice is gathered into one buffer of at most
      :data:`MAX_EXTENT_BYTES` as the views are pulled, as many whole rows
      of a window per piece as fit; each view is valid only until the next
      one is pulled.  A row as wide as the buffer is its own memory.

    A non-contiguous array is copied to a contiguous one first.
    """
    if isinstance(payload, StridedSlice):
        if out is None:
            return _gathered(payload)
        start = 0
        for window in payload.windows:
            rows = window.view(np.uint8)
            np.copyto(out[start:start + rows.size].reshape(rows.shape), rows)
            start += rows.size
        return (memoryview(out),)
    if isinstance(payload, np.ndarray):
        data = np.ascontiguousarray(payload).reshape(-1).view(np.uint8)
    else:
        data = memoryview(payload)
    if out is None:
        return (memoryview(data),)
    np.copyto(out, data)
    return (memoryview(out),)


#: Each thread's gather buffer while it is not in use: reused for every
#: strided slice the thread reads (a fresh buffer pays a page fault for every
#: page it is written through, more than the gather's copy), freed when the
#: thread ends — a writer thread's with its engine.
_idle = threading.local()


def _gathered(payload: StridedSlice) -> Iterator[memoryview]:
    """:func:`tensor_bytes` of a strided slice with no destination."""
    size = min(payload.nbytes, MAX_EXTENT_BYTES)
    buffer = None
    try:
        for window in payload.windows:
            rows = window.view(np.uint8)
            height, width = rows.shape
            if width >= size:
                yield from map(memoryview, rows)
                continue
            if buffer is None:
                buffer, _idle.buffer = getattr(_idle, "buffer", None), None
                if buffer is None or len(buffer) < size:
                    buffer = np.empty(size, dtype=np.uint8)
                whole = memoryview(buffer)
            step = size // width
            for top in range(0, height, step):
                block = rows[top:top + step]
                np.copyto(buffer[:block.size].reshape(block.shape), block)
                yield whole[:block.size]
    finally:
        if buffer is not None:
            _idle.buffer = buffer
