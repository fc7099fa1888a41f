"""Shard serialization: turning a flattened state dict into file bytes.

Two paths are provided:

* :func:`serialize_state` — one-shot serialization to a single ``bytes``
  object (used by tests and the synchronous baseline engine).

* :func:`iter_shard_chunks` — a streaming generator that yields the shard
  file as a sequence of chunks whose payload portions are read *directly from
  the staging buffer views* handed in by the caller, so the flush worker can
  write to disk while later tensors are still being copied device-to-host —
  the real-mode realisation of "streamlined multi-level flushing".
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Union

import numpy as np

from ..exceptions import SerializationError
from ..tensor import flatten_state_dict, tensor_payload_array
from .header import ShardHeader, build_header, encode_preamble


def serialize_state(state: object, chunk_size: int = 8 * 1024 * 1024) -> bytes:
    """Serialize an arbitrary nested state dict into shard-file bytes."""
    flattened = flatten_state_dict(state)
    header = build_header(flattened)
    skeleton = flattened.skeleton_bytes()
    parts: List[bytes] = [encode_preamble(header, skeleton)]
    for ref in flattened.tensors:
        array = np.ascontiguousarray(tensor_payload_array(ref))
        parts.append(array.tobytes())
    return b"".join(parts)


def iter_shard_chunks(
    header: ShardHeader,
    skeleton: bytes,
    payload_views: Sequence[memoryview],
    chunk_size: int = 8 * 1024 * 1024,
) -> Iterator[Union[bytes, memoryview]]:
    """Yield the shard file as byte chunks from pre-staged payload views.

    ``payload_views[i]`` must hold exactly the bytes of the i-th tensor entry
    of ``header`` (typically a slice of the pinned staging pool that a
    background copy has already filled).  Payload chunks are yielded as
    zero-copy ``memoryview`` slices of the staging buffer — the bytes go from
    pinned pool to kernel without an intermediate heap copy; consumers must
    finish with each chunk before requesting the next (file writes do).
    """
    if len(payload_views) != len(header.entries):
        raise SerializationError(
            f"{len(header.entries)} tensors in header but {len(payload_views)} payload views"
        )
    if chunk_size <= 0:
        raise SerializationError("chunk_size must be positive")
    yield encode_preamble(header, skeleton)
    for entry, view in zip(header.entries, payload_views):
        if len(view) != entry.nbytes:
            raise SerializationError(
                f"payload view for {entry.key!r} has {len(view)} bytes, expected {entry.nbytes}"
            )
        for start in range(0, entry.nbytes, chunk_size):
            stop = min(start + chunk_size, entry.nbytes)
            yield view[start:stop]
