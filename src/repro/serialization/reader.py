"""Shard deserialization (restart path).

:func:`deserialize_state` accepts any bytes-like buffer — a ``bytes`` object
read the classic way, a ``memoryview``, or an ``mmap.mmap`` of the shard file
— and, with ``copy=False``, rebuilds every array as a zero-copy
``np.frombuffer`` view into that buffer.  The views keep the underlying
buffer alive, so an mmap-backed load never materialises a second full copy of
the shard in heap memory; pages stream in from the page cache on first
touch.  With ``copy=True`` (the default) the set is decoded to views and
each view is copied once, into a writable array of its own — no intermediate
copy of the shard is ever held in heap memory.  A restore copies the same
views on several threads instead (:func:`repro.restart.loader.copy_grouped`).
"""

from __future__ import annotations

import pickle
from typing import Any, List, Sequence, Tuple

import numpy as np

from ..exceptions import SerializationError
from ..tensor import unflatten_state_dict
from .header import decode_preamble


def deserialize_state(raw, copy: bool = True) -> Any:
    """Rebuild the original nested state dict from one shard file's bytes.

    ``copy=False`` returns read-only array views backed by ``raw`` (opt-in
    zero-copy restore); the caller must keep the buffer open for as long as
    the arrays live.  ``copy=True`` returns independent writable arrays.  One
    part of a multi-part set is not a state: it raises
    :class:`~repro.exceptions.SerializationError`.
    """
    return unflatten_state_dict(*decode_rank_state([raw], copy=copy))


def decode_rank_state(raws: Sequence[Any], copy: bool = True) -> Tuple[Any, List[np.ndarray]]:
    """Decode a shard-set (one buffer or many) to ``(skeleton, arrays)`` — the
    state tree with placeholder leaves and the payloads they index — without
    unflattening it.  With ``copy=False`` the arrays are views of ``raws``."""
    skeleton, views = _decode_views(raws)
    return skeleton, [view.copy() for view in views] if copy else views


def _decode_views(raws: Sequence[Any]) -> Tuple[Any, List[np.ndarray]]:
    """``(skeleton, views)`` of a shard-set: every array a view of ``raws``."""
    if not raws:
        raise SerializationError("cannot reassemble a rank from zero shard buffers")
    skeleton: Any = None
    have_skeleton = False
    arrays_by_index: dict = {}
    for raw in raws:
        header, skeleton_bytes, payload_start = decode_preamble(raw)
        expected_end = payload_start + header.payload_bytes
        if len(raw) < expected_end:
            raise SerializationError(
                f"shard file truncated: expected {expected_end} bytes, got {len(raw)}"
            )
        if not have_skeleton:
            try:
                skeleton = pickle.loads(skeleton_bytes)
            except Exception as exc:
                raise SerializationError(f"cannot unpickle shard skeleton: {exc}") from exc
            have_skeleton = True
        for position, entry in enumerate(header.entries):
            global_index = entry.index if entry.index is not None else position
            if global_index in arrays_by_index:
                raise SerializationError(
                    f"tensor #{global_index} ({entry.key!r}) appears in more "
                    f"than one shard of the set"
                )
            start = payload_start + entry.offset
            if start + entry.nbytes > expected_end:
                raise SerializationError(f"payload for {entry.key!r} is truncated")
            dtype = np.dtype(entry.dtype)
            count = entry.nbytes // dtype.itemsize
            arrays_by_index[global_index] = np.frombuffer(
                raw, dtype=dtype, count=count, offset=start).reshape(entry.shape)

    total = (max(arrays_by_index) + 1) if arrays_by_index else 0
    missing = [i for i in range(total) if i not in arrays_by_index]
    if missing:
        raise SerializationError(
            f"shard-set is missing tensors {missing[:4]} of {total}"
        )
    return skeleton, [arrays_by_index[i] for i in range(total)]
