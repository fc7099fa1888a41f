"""Multi-shard-per-rank checkpoint layout planning.

One rank's flattened state can be spread over several shard files instead of
the single ``rank{r}.shard`` of the original layout.  Spreading the state has
two payoffs, both measured by the I/O fast-path benchmark: the flush side
drives several file streams (and therefore several OSTs of a striped PFS)
concurrently, and the capture side can run one device-to-host copy stream per
shard so capture and flush overlap *per shard* rather than per rank.

:func:`plan_shards` partitions the tensors of a
:class:`~repro.tensor.FlattenedState` across ``shards_per_rank`` bins with a
greedy size-balanced binning (largest tensor first, always into the currently
lightest bin — the classic LPT rule, which bounds the spread between the
heaviest and lightest bin by the largest single tensor).  Each resulting
:class:`ShardPart` is a fully self-contained shard file: it keeps the
existing offset-addressed header (its entries additionally carry the tensor's
*global* index within the rank) and the complete skeleton, so the restore
path can rebuild the rank's state from the shard-set no matter which part it
reads first.

``shards_per_rank=1`` degenerates to exactly the original layout — same file
name, same header JSON (no ``index`` fields), same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, List, Sequence, Tuple

import numpy as np

from ..tensor import FlattenedState, TensorRef, tensor_payload_array
from .header import ShardHeader, TensorEntry, build_header, encode_preamble
from .payload import tensor_bytes


def part_shard_name(base_name: str, part_index: int, num_parts: int) -> str:
    """File shard name of one part of a rank's shard-set.

    The single-part layout keeps the bare ``base_name`` so existing
    checkpoints, tooling, and tests see unchanged file names.
    """
    if num_parts == 1:
        return base_name
    return f"{base_name}-s{part_index:02d}"


@dataclass(frozen=True)
class ShardPart:
    """One shard file of a rank's shard-set: a subset of the rank's tensors."""

    name: str
    part_index: int
    num_parts: int
    header: ShardHeader
    #: Tensor references in header-entry order.
    tensors: Tuple[TensorRef, ...]
    #: Global index (within the rank's flattened state) of each tensor.
    global_indices: Tuple[int, ...]

    @property
    def payload_bytes(self) -> int:
        """Payload bytes this part stores."""
        return self.header.payload_bytes


@dataclass(frozen=True)
class ShardPlan:
    """How one rank's flattened state maps onto its shard files."""

    base_name: str
    skeleton: bytes
    num_tensors: int
    parts: Tuple[ShardPart, ...]

    @property
    def num_parts(self) -> int:
        """Number of shard files in the set."""
        return len(self.parts)

    @property
    def is_single(self) -> bool:
        """True for the backwards-compatible one-shard-per-rank layout."""
        return len(self.parts) == 1


def _binned_indices(sizes: Sequence[int], bins: int) -> List[List[int]]:
    """Greedy LPT binning: global tensor indices per bin, balanced by bytes."""
    order = sorted(range(len(sizes)), key=lambda i: (-sizes[i], i))
    loads = [0] * bins
    assignment: List[List[int]] = [[] for _ in range(bins)]
    for index in order:
        target = min(range(bins), key=lambda b: (loads[b], b))
        assignment[target].append(index)
        loads[target] += sizes[index]
    # Within each bin, keep tensors in global order so offsets (and the file
    # bytes) are deterministic regardless of the size-sorted assignment order.
    for bin_indices in assignment:
        bin_indices.sort()
    return assignment


def plan_shards(flattened: FlattenedState, base_name: str,
                shards_per_rank: int = 1) -> ShardPlan:
    """Partition a flattened state across ``shards_per_rank`` shard files.

    The effective part count is clamped to the number of tensors (an empty
    state still produces one part so the skeleton is persisted), and
    ``shards_per_rank=1`` reproduces the original single-shard layout
    byte-for-byte: same name, same header (no ``index`` fields), same offsets.
    """
    if shards_per_rank < 1:
        shards_per_rank = 1
    skeleton = flattened.skeleton_bytes()
    num_tensors = len(flattened.tensors)
    effective = max(1, min(shards_per_rank, num_tensors))

    if effective == 1:
        header = build_header(flattened)
        part = ShardPart(
            name=part_shard_name(base_name, 0, 1),
            part_index=0,
            num_parts=1,
            header=header,
            tensors=tuple(flattened.tensors),
            global_indices=tuple(range(num_tensors)),
        )
        return ShardPlan(base_name=base_name, skeleton=skeleton,
                         num_tensors=num_tensors, parts=(part,))

    sizes = [ref.nbytes for ref in flattened.tensors]
    parts: List[ShardPart] = []
    for part_index, indices in enumerate(_binned_indices(sizes, effective)):
        entries: List[TensorEntry] = []
        offset = 0
        refs: List[TensorRef] = []
        for global_index in indices:
            ref = flattened.tensors[global_index]
            entries.append(
                TensorEntry(
                    key=ref.key or f"tensor_{global_index}",
                    dtype=ref.dtype,
                    shape=ref.shape,
                    offset=offset,
                    nbytes=ref.nbytes,
                    index=global_index,
                )
            )
            offset += ref.nbytes
            refs.append(ref)
        parts.append(
            ShardPart(
                name=part_shard_name(base_name, part_index, effective),
                part_index=part_index,
                num_parts=effective,
                header=ShardHeader(entries=tuple(entries), payload_bytes=offset),
                tensors=tuple(refs),
                global_indices=tuple(indices),
            )
        )
    return ShardPlan(base_name=base_name, skeleton=skeleton,
                     num_tensors=num_tensors, parts=tuple(parts))


def serialize_part(part: ShardPart, skeleton: bytes) -> bytearray:
    """One-shot serialization of one shard-set part (blocking engines): the
    preamble and every payload, each copied once into one buffer.

    For a single-part plan this produces exactly the bytes of
    :func:`~repro.serialization.serialize_state` on the whole state.
    """
    preamble = encode_preamble(part.header, skeleton)
    out = bytearray(len(preamble) + part.payload_bytes)
    out[:len(preamble)] = preamble
    payload = np.frombuffer(out, dtype=np.uint8)[len(preamble):]
    for entry, ref in zip(part.header.entries, part.tensors):
        tensor_bytes(tensor_payload_array(ref),
                     payload[entry.offset:entry.offset + entry.nbytes])
    return out


def iter_part_payloads(part: ShardPart) -> Iterator[Tuple[TensorEntry, Any]]:
    """Yield ``(entry, payload)`` pairs of one part, each payload as the state
    holds it: an array or a strided slice, for
    :func:`~repro.serialization.tensor_bytes`."""
    for entry, ref in zip(part.header.entries, part.tensors):
        yield entry, tensor_payload_array(ref)
