"""Shard file layout and header construction (phase 2 of §5.3).

A shard file produced by the real-mode engine has the layout::

    +--------------------+  offset 0
    | magic  (8 bytes)   |
    | header length (u64)|
    | header JSON        |   tensor table: key, dtype, shape, offset, nbytes
    | skeleton length u64|
    | skeleton pickle    |   the state dict with tensors replaced by indices
    | tensor payload 0   |   raw little-endian buffers, contiguous
    | tensor payload 1   |
    | ...                |
    +--------------------+

Offsets in the tensor table are relative to the start of the payload region,
so the header can be computed *before* any payload is copied — exactly what
lets the engine enqueue device-to-host transfers and file writes for all
tensors up front ("create a header by computing the file offsets for each
tensor/object marked for asynchronous transfer").
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import SerializationError
from ..tensor import FlattenedState

MAGIC = b"DSLLMCK1"
_U64 = struct.Struct("<Q")


@dataclass(frozen=True)
class TensorEntry:
    """One row of the shard header's tensor table."""

    key: str
    dtype: str
    shape: Tuple[int, ...]
    offset: int
    nbytes: int
    #: Global tensor index within the rank's flattened state.  Only written in
    #: multi-shard-per-rank layouts, where each shard file of the set holds a
    #: subset of the rank's tensors and the restore path must map payloads
    #: back to their skeleton placeholders.  ``None`` (the single-shard
    #: layout) keeps the header JSON byte-identical to the v1 layout.
    index: Optional[int] = None

    def to_json(self) -> Dict:
        """JSON-serialisable form."""
        payload = {
            "key": self.key,
            "dtype": self.dtype,
            "shape": list(self.shape),
            "offset": self.offset,
            "nbytes": self.nbytes,
        }
        if self.index is not None:
            payload["index"] = self.index
        return payload

    @staticmethod
    def from_json(data: Dict) -> "TensorEntry":
        """Inverse of :meth:`to_json`."""
        return TensorEntry(
            key=str(data["key"]),
            dtype=str(data["dtype"]),
            shape=tuple(int(x) for x in data["shape"]),
            offset=int(data["offset"]),
            nbytes=int(data["nbytes"]),
            index=None if data.get("index") is None else int(data["index"]),
        )


@dataclass(frozen=True)
class ShardHeader:
    """Header of one shard file."""

    entries: Tuple[TensorEntry, ...]
    payload_bytes: int

    def to_bytes(self) -> bytes:
        """Serialize the header table to JSON bytes."""
        return self._encoded

    @cached_property
    def _encoded(self) -> bytes:
        # A header is immutable and the engines reuse it from save to save
        # while the state's structure holds, so it is encoded once.
        payload = {
            "version": 1,
            "payload_bytes": self.payload_bytes,
            "tensors": [entry.to_json() for entry in self.entries],
        }
        return json.dumps(payload, sort_keys=True).encode("utf-8")

    @staticmethod
    def from_bytes(raw: bytes) -> "ShardHeader":
        """Parse a header table from JSON bytes."""
        try:
            data = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SerializationError(f"corrupt shard header: {exc}") from exc
        entries = tuple(TensorEntry.from_json(item) for item in data.get("tensors", []))
        return ShardHeader(entries=entries, payload_bytes=int(data.get("payload_bytes", 0)))


def build_header(flattened: FlattenedState) -> ShardHeader:
    """Compute payload offsets for every tensor of a flattened state dict."""
    entries: List[TensorEntry] = []
    offset = 0
    for ref in flattened.tensors:
        entries.append(
            TensorEntry(
                key=ref.key or f"tensor_{len(entries)}",
                dtype=ref.dtype,
                shape=ref.shape,
                offset=offset,
                nbytes=ref.nbytes,
            )
        )
        offset += ref.nbytes
    return ShardHeader(entries=tuple(entries), payload_bytes=offset)


def plan_extents(entries: Sequence[TensorEntry], limit: int) -> List[Tuple[int, int]]:
    """Split header entries into *extents*: ``(start, stop)`` index runs.

    A run's entries are adjacent in the payload region (each starts where the
    previous one ends) and their bytes sum to at most ``limit``, so the run
    can be staged in one buffer at its final relative offsets and written
    with one ``pwrite`` at ``entries[start].offset``.  An entry larger than
    ``limit`` is a run of its own; zero-length entries ride inside whatever
    run they fall in; no entries, no runs.
    """
    extents: List[Tuple[int, int]] = []
    start = 0
    size = 0
    end = 0
    for index, entry in enumerate(entries):
        if index > start and (size + entry.nbytes > limit or entry.offset != end):
            extents.append((start, index))
            start, size = index, 0
        size += entry.nbytes
        end = entry.offset + entry.nbytes
    if entries:
        extents.append((start, len(entries)))
    return extents


def encode_preamble(header: ShardHeader, skeleton: bytes) -> bytes:
    """Magic + lengths + header JSON + skeleton, i.e. everything before payloads."""
    header_bytes = header.to_bytes()
    return b"".join(
        [MAGIC, _U64.pack(len(header_bytes)), header_bytes, _U64.pack(len(skeleton)), skeleton]
    )


def decode_preamble(raw) -> Tuple[ShardHeader, bytes, int]:
    """Parse the preamble; returns (header, skeleton bytes, payload start offset).

    ``raw`` may be any bytes-like object — ``bytes``, ``memoryview``, or an
    ``mmap.mmap`` of the shard file.  Only the (small) header and skeleton
    regions are ever copied out of the buffer; the tensor payload region is
    untouched, which is what keeps the mmap restore path zero-copy.
    """
    if len(raw) < len(MAGIC) + _U64.size:
        raise SerializationError("shard file too small to contain a header")
    if bytes(raw[: len(MAGIC)]) != MAGIC:
        raise SerializationError("bad magic: not a DataStates shard file")
    cursor = len(MAGIC)
    (header_len,) = _U64.unpack_from(raw, cursor)
    cursor += _U64.size
    if cursor + header_len > len(raw):
        raise SerializationError("truncated shard header")
    header = ShardHeader.from_bytes(bytes(raw[cursor : cursor + header_len]))
    cursor += header_len
    if cursor + _U64.size > len(raw):
        raise SerializationError("truncated shard skeleton length")
    (skeleton_len,) = _U64.unpack_from(raw, cursor)
    cursor += _U64.size
    if cursor + skeleton_len > len(raw):
        raise SerializationError("truncated shard skeleton")
    skeleton = bytes(raw[cursor : cursor + skeleton_len])
    cursor += skeleton_len
    return header, skeleton, cursor


def preamble_size(header: ShardHeader, skeleton: bytes) -> int:
    """Size in bytes of the preamble produced by :func:`encode_preamble`."""
    return len(MAGIC) + 2 * _U64.size + len(header.to_bytes()) + len(skeleton)
