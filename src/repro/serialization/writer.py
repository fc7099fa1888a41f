"""Shard serialization: turning a flattened state dict into file bytes.

Two paths are provided:

* :func:`serialize_state` — one-shot serialization to a single buffer (used
  by tests; the synchronous baseline engine serializes each part the same
  way, :func:`~repro.serialization.serialize_part`).

* :func:`iter_shard_chunks` — a streaming generator that yields the shard
  file as a sequence of chunks whose payload portions are read *directly from
  the payloads* handed in by the caller (staging buffer views, or the state's
  own arrays), so the flush worker can write to disk while later tensors are
  still being copied device-to-host — the real-mode realisation of
  "streamlined multi-level flushing".
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence, Union

from ..exceptions import SerializationError
from ..tensor import flatten_state_dict
from .header import ShardHeader, encode_preamble
from .payload import tensor_bytes
from .shard_plan import plan_shards, serialize_part


def serialize_state(state: object, chunk_size: int = 8 * 1024 * 1024) -> bytearray:
    """Serialize an arbitrary nested state dict into shard-file bytes."""
    plan = plan_shards(flatten_state_dict(state), "state")
    return serialize_part(plan.parts[0], plan.skeleton)


def iter_shard_chunks(
    header: ShardHeader,
    skeleton: bytes,
    payloads: Sequence[Any],
    chunk_size: int = 8 * 1024 * 1024,
) -> Iterator[Union[bytes, memoryview]]:
    """Yield the shard file as byte chunks, none longer than ``chunk_size``.

    ``payloads[i]`` holds exactly the bytes of the i-th tensor entry of
    ``header``: a slice of the pinned staging pool that a background copy has
    already filled, or the state's own array or strided slice.  Chunks are
    zero-copy views (:func:`~repro.serialization.tensor_bytes`: a strided
    slice is gathered into a reused buffer) — consumers must finish with each
    chunk before requesting the next (file writes do).
    """
    if len(payloads) != len(header.entries):
        raise SerializationError(
            f"{len(header.entries)} tensors in header but {len(payloads)} payloads"
        )
    if chunk_size <= 0:
        raise SerializationError("chunk_size must be positive")
    yield encode_preamble(header, skeleton)
    for entry, payload in zip(header.entries, payloads):
        if payload.nbytes != entry.nbytes:
            raise SerializationError(
                f"payload for {entry.key!r} has {payload.nbytes} bytes, expected {entry.nbytes}"
            )
        for data in tensor_bytes(payload):
            for start in range(0, len(data), chunk_size):
                yield data[start:start + chunk_size]
