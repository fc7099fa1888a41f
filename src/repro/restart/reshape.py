"""Elastic restart: reshape a checkpoint between parallel topologies.

The paper's checkpoint layout (§2.5, Fig. 2(d)) ties every shard to the
(DP, PP, TP, ZeRO) grid that wrote it: each data-parallel rank persists
``1/DP`` of the model weights *and* ``1/DP`` of the partitioned optimizer
state of its (PP, TP) model shard.  This module makes that layout
*re-mappable*: a checkpoint saved at one ``(dp, pp, tp, shards_per_rank)``
topology restores into any other by copying every source slice straight into
the target rank's array — one geometric primitive, :class:`Remap`, and no
merged model in between.

A tensor is a row-major ``(rows, cols)`` matrix, ``rows`` the product of the
dims before its ``partition_axis`` (the Megatron concat-dim table carried by
:class:`~repro.serialization.TensorLayout`; one row when it is replicated or
split along axis 0).  A TP rank's part is a band of columns, a DP rank keeps
a flat range of that band (:func:`repro.parallelism.zero.partition_elements`,
the ZeRO-1 table), which tiles into at most three row-aligned blocks: partial
head row, whole rows, partial tail row.  What a target slice takes from a
source slice is the pairwise block intersections, each one (strided) NumPy
assignment from a view of the source buffer into a freshly allocated, owned
target array; pipeline stages hold contiguous key ranges
(:func:`repro.parallelism.partition.balanced_contiguous_partition`).
Splitting a full state is the remap from the 1x1x1 grid, merging the remap
onto it, and an identity reshape reproduces every rank's arrays bit-for-bit.

The format is carried in-band: each rank's state dict is

.. code-block:: python

    {"elastic": {"format": 1, "coord": [d, p, t]},
     "model":   {key: 1-D slice of the flattened TP-slice},
     "zero":    {key: {buf_name: 1-D slice, ...}},   # e.g. Adam exp_avg/...
     "extra":   {...}}                               # replicated, picklable

and the manifest's topology block (schema v4) records the grid plus the
per-tensor partition table, so a restore is planned before a byte is read: one
target rank fetches only the source ranks its slices come from (replicated
tensors from TP rank 0 of their stage, cross-checked among the ranks fetched);
the whole grid fetches, and cross-checks, every rank.

Entry points: :func:`save_elastic_checkpoint` writes a full state through the
real engines at some topology (handing them views wherever a slice is one
contiguous run of the caller's array); :func:`reshape_state_dicts` remaps
in-memory states; :func:`reshape_checkpoint` is the offline converter behind
``repro reshape`` — source tag in, reshaped committed checkpoint out, on any
:class:`~repro.io.ShardStore`.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from ..config import CheckpointPolicy
from ..exceptions import CheckpointError, RestartError
from ..io import ShardStore
from ..logging_utils import get_logger
from ..parallelism.partition import balanced_contiguous_partition
from ..parallelism.topology3d import ParallelTopology
from ..parallelism.zero import partition_elements
from ..serialization import CheckpointTopology, TensorLayout
from .loader import CheckpointLoader
from .spec import RestoreSpec

logger = get_logger(__name__)

#: In-band marker of the per-rank elastic state layout.
ELASTIC_FORMAT = 1

#: Host staging budget of the short-lived per-rank engines used by the
#: offline converter (the slices it writes are far smaller than a training
#: engine's working set).
_CONVERTER_HOST_BUFFER = 64 * 1024 * 1024


# ---------------------------------------------------------------------- table
def elastic_topology(model: Mapping[str, np.ndarray], data_parallel: int,
                     pipeline_parallel: int = 1, tensor_parallel: int = 1,
                     axes: Optional[Mapping[str, Optional[int]]] = None,
                     shards_per_rank: int = 1) -> CheckpointTopology:
    """Build the v4 topology block for a full model state.

    ``axes`` maps tensor keys to their TP partition axis (the Megatron
    concat-dim table: 0 for column-parallel, 1 for row-parallel); keys absent
    from ``axes`` (or mapped to ``None``) are replicated across the TP group.
    The canonical tensor order — which pipeline-stage rebalancing partitions
    contiguously — is the sorted key order.
    """
    axes = dict(axes or {})
    unknown = sorted(set(axes) - set(model))
    if unknown:
        raise RestartError(f"axes name tensors not in the model: {unknown[:4]}")
    layouts: List[TensorLayout] = []
    for key in sorted(model):
        array = np.asarray(model[key])
        axis = axes.get(key)
        if axis is not None and not (0 <= axis < array.ndim):
            raise RestartError(
                f"partition axis {axis} out of range for tensor {key!r} "
                f"of shape {array.shape}")
        layouts.append(TensorLayout(key=key, partition_axis=axis,
                                    shape=tuple(array.shape)))
    return CheckpointTopology(
        data_parallel=data_parallel,
        pipeline_parallel=pipeline_parallel,
        tensor_parallel=tensor_parallel,
        shards_per_rank=shards_per_rank,
        tensors=tuple(layouts),
    )


def _stage_assignment(topology: CheckpointTopology) -> Dict[str, int]:
    """Pipeline stage of every tensor key, from the canonical table order.

    Stages get contiguous key ranges balanced by element count — the
    DeepSpeed "uniform trainable parameters per stage" scheme (§6.3) — so
    save-time and restore-time assignments agree by construction.
    """
    layouts = topology.tensors or ()
    weights = [int(np.prod(layout.shape, dtype=np.int64)) if layout.shape else 1
               for layout in layouts]
    groups = balanced_contiguous_partition(weights, topology.pipeline_parallel)
    stage_of: Dict[str, int] = {}
    for stage, group in enumerate(groups):
        for index in group:
            stage_of[layouts[index].key] = stage
    return stage_of


def _elastic_coord(state: Any, rank: int) -> Tuple[int, int, int]:
    """The (d, p, t) coordinate recorded in one rank's elastic state."""
    if not isinstance(state, Mapping) or "elastic" not in state:
        raise RestartError(
            f"rank {rank}'s state is not an elastic checkpoint state (no "
            "'elastic' block); only checkpoints saved through the elastic "
            "format can be reshaped")
    block = state["elastic"]
    if int(block.get("format", -1)) != ELASTIC_FORMAT:
        raise RestartError(
            f"rank {rank} uses elastic format {block.get('format')!r}; "
            f"this build understands format {ELASTIC_FORMAT}")
    d, p, t = (int(value) for value in block["coord"])
    return d, p, t


def _grid_coords(topology: CheckpointTopology) -> List[Tuple[int, int, int]]:
    """``(d, p, t)`` of every global rank of ``topology``'s grid."""
    return [(coord.data, coord.pipeline, coord.tensor)
            for coord in ParallelTopology(*topology.grid).all_coordinates()]


# ------------------------------------------------------------------- geometry
class _Block(NamedTuple):
    """A contiguous row-major ``(nrows, ncols)`` run of a rank's 1-D slice, ``offset``
    elements into it, placed at ``(row, col)`` of the tensor's global matrix."""

    row: int
    col: int
    nrows: int
    ncols: int
    offset: int

    def overlap(self, other: "_Block") -> Optional[Tuple[int, int, int, int]]:
        """Global ``(row_lo, row_hi, col_lo, col_hi)`` both blocks cover."""
        rows = max(self.row, other.row), min(self.row + self.nrows, other.row + other.nrows)
        cols = max(self.col, other.col), min(self.col + self.ncols, other.col + other.ncols)
        return (*rows, *cols) if rows[0] < rows[1] and cols[0] < cols[1] else None

    def window(self, flat: np.ndarray, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
        """The view of ``flat`` (the slice) over global rows [r0, r1), columns [c0, c1)."""
        run = flat[self.offset:self.offset + self.nrows * self.ncols]
        return run.reshape(self.nrows, self.ncols)[r0 - self.row:r1 - self.row,
                                                   c0 - self.col:c1 - self.col]


def _tile(width: int, col: int, lo: int, hi: int) -> List[_Block]:
    """Tile the flat range ``[lo, hi)`` of a row-major ``(rows, width)`` part
    whose first column is global column ``col`` into at most three blocks:
    partial head row, whole rows, partial tail row."""
    if lo >= hi:
        return []
    (r0, c0), (r1, c1) = divmod(lo, width), divmod(hi, width)
    body = r0 + (c0 > 0)
    spans = ([(r0, r0 + 1, c0, c1)] if r0 == r1 else
             [(r0, body, c0, width), (body, r1, 0, width), (r1, r1 + 1, 0, c1)])
    return [_Block(top, col + left, bottom - top, right - left, top * width + left - lo)
            for top, bottom, left, right in spans if top < bottom and left < right]


def _rank_slice(matrix: Tuple[int, int, int], split: bool, topology: CheckpointTopology,
                d: int, t: int) -> Tuple[int, Optional[int], List[_Block]]:
    """``(numel, run, blocks)`` of DP rank ``d``, TP rank ``t``'s slice of a tensor's
    global ``(rows, extent * inner)`` matrix: the columns of its TP part (all, when
    this grid does not split the tensor), of which it keeps its ZeRO-1 flat range.
    ``run`` is where the slice starts in the flattened tensor if it is one
    contiguous run of it (a full-width part, or within one row), else ``None``."""
    rows, extent, inner = matrix
    start, stop = 0, extent
    if split:
        part = partition_elements(extent, topology.tensor_parallel)[t]
        start, stop = part.start, part.stop
    width = (stop - start) * inner
    own = partition_elements(rows * width, topology.data_parallel)[d]
    run = None
    if own.numel and (stop - start == extent or own.start // width == (own.stop - 1) // width):
        run = own.start // width * extent * inner + start * inner + own.start % width
    return own.numel, run, _tile(width, start * inner, own.start, own.stop)


def _slice_of(state: Mapping[str, Any], rank: int, key: str,
              name: Optional[str], numel: int) -> np.ndarray:
    """Rank ``rank``'s flat slice of tensor ``key`` (``name``: one of its
    optimizer buffers), checked against the element count its grid implies."""
    held = state.get("model") if name is None else (state.get("zero") or {}).get(key)
    piece = (held or {}).get(key if name is None else name)
    if piece is None:
        what = "slice" if name is None else f"optimizer buffer {name!r}"
        raise RestartError(f"rank {rank} holds no {what} of tensor {key!r}")
    piece = np.asarray(piece).reshape(-1)
    if piece.size != numel:
        raise RestartError(f"rank {rank}'s slice of tensor {key!r} has "
                           f"{piece.size} elements, its topology says {numel}")
    return piece


# ---------------------------------------------------------------------- remap
class Remap:
    """The copy plan of one reshape: for each requested target rank and tensor of
    its stage, which blocks of which source ranks' slices its slice is made of.
    It takes the two topologies alone: :attr:`source_ranks` is known before a read."""

    def __init__(self, source: CheckpointTopology, target: CheckpointTopology,
                 rank: Optional[int] = None) -> None:
        if target.tensors is None:
            target = replace(target, tensors=source.tensors)
        table = source.layout_table()
        if ({layout.key: layout.shape for layout in target.tensors}
                != {key: layout.shape for key, layout in table.items()}):
            raise RestartError(
                "the target's partition table names other tensors or shapes "
                f"than the one checkpoint topology {source.describe()} carries")
        if rank is not None and not 0 <= rank < target.world_size:
            raise RestartError(
                f"rank {rank} outside the target topology {target.describe()}")
        self.source = source
        self.ranks = range(target.world_size) if rank is None else [rank]
        self._coords, self._target_coords = _grid_coords(source), _grid_coords(target)
        stage_of, target_stage_of = _stage_assignment(source), _stage_assignment(target)
        #: ``(target_rank, key, numel, run, [(source_rank, numel, moves, twin)])``: ``run``
        #: as in :func:`_rank_slice`, a move is ``(source_block, target_block, *overlap)``,
        #: twins (TP ranks > 0 of a replicated tensor) come last: compared, never copied.
        self.entries: List[tuple] = []
        for layout in target.tensors:
            key, shape = layout.key, layout.shape
            axis = table[key].partition_axis if source.tensor_parallel > 1 else None
            target_axis = layout.partition_axis if target.tensor_parallel > 1 else None
            if None not in (axis, target_axis) and axis != target_axis:
                raise RestartError(
                    f"tensor {key!r} is split along axis {axis} in the checkpoint "
                    f"and along {target_axis} in the target; go through a tp=1 grid")
            cut = target_axis if axis is None else axis
            matrix = ((1, 1, math.prod(shape)) if cut is None else
                      (math.prod(shape[:cut]), shape[cut], math.prod(shape[cut + 1:])))
            held = sorted(
                (t > 0 and axis is None, source_rank,
                 *_rank_slice(matrix, axis is not None, source, d, t))
                for source_rank, (d, p, t) in enumerate(self._coords)
                if p == stage_of[key])
            for target_rank in self.ranks:
                d, p, t = self._target_coords[target_rank]
                if p != target_stage_of[key]:
                    continue
                numel, run, mine = _rank_slice(matrix, target_axis is not None, target, d, t)
                sources = []
                for twin, source_rank, count, _run, blocks in held:
                    moves = [(src, dst, *overlap) for dst in mine for src in blocks
                             for overlap in [src.overlap(dst)] if overlap]
                    if moves:
                        sources.append((source_rank, count, moves, twin))
                if len(sources) != 1 or sources[0][1] != math.prod(shape):
                    run = None  # only a source holding the whole tensor can lend a view
                # An empty slice copies nothing but still takes its dtype.
                self.entries.append((target_rank, key, numel, run,
                                     sources or [(held[0][1], held[0][2], [], False)]))
        #: What a run reads: every rank for the whole target grid (so each TP
        #: group's replicas can be cross-checked), else only the sources of ``rank``
        #: (rank 0, for the replicated ``extra``, when its stage holds no tensor).
        self.source_ranks = set(range(source.world_size)) if rank is None else {
            item[0] for entry in self.entries for item in entry[4] if not item[3]} or {0}

    def run(self, states: Mapping[int, Any], validate: bool = True,
            views: bool = False) -> Dict[int, Dict[str, Any]]:
        """Build the target ranks' elastic states from the source ranks'.

        Every returned array is freshly allocated and owned — except with
        ``views``, where a slice that is one contiguous run of a source holding
        the whole tensor is that run.  ``validate`` cross-checks the recorded
        coordinates, and every replicated tensor's copies on the TP ranks in
        ``states`` bit for bit: a shard swapped with another rank's fails here.
        """
        if not self.source_ranks <= set(states) <= set(range(len(self._coords))):
            raise RestartError(
                f"reshaping from {self.source.describe()} needs ranks "
                f"{sorted(self.source_ranks)[:8]}; got {sorted(states)[:8]}")
        for rank, state in states.items():
            recorded = _elastic_coord(state, rank)
            if validate and recorded != self._coords[rank]:
                raise RestartError(
                    f"rank {rank} records coordinate {recorded}, topology "
                    f"{self.source.describe()} places it at {self._coords[rank]}")
        out: Dict[int, Dict[str, Any]] = {
            rank: {"elastic": {"format": ELASTIC_FORMAT,
                               "coord": list(self._target_coords[rank])},
                   "model": {}}
            for rank in self.ranks}
        for target_rank, key, numel, run, sources in self.entries:
            bufs = (states[sources[0][0]].get("zero") or {}).get(key)
            if bufs is not None:
                out[target_rank].setdefault("zero", {})[key] = {}
            for name in (None, *(bufs or ())):
                made = None
                for rank, count, moves, twin in sources:
                    if twin and not (validate and rank in states):
                        continue
                    piece = _slice_of(states[rank], rank, key, name, count)
                    if views and run is not None:
                        made = piece[run:run + numel]
                        break
                    if made is None:
                        made = np.empty(numel, dtype=piece.dtype)
                    for src, dst, *overlap in moves:
                        ours, theirs = dst.window(made, *overlap), src.window(piece, *overlap)
                        if not twin:
                            ours[...] = theirs
                        # NaN-safe: a twin must match in raw bytes, not in value.
                        elif ours.dtype != theirs.dtype or not np.array_equal(
                                np.ascontiguousarray(ours).view(np.uint8),
                                np.ascontiguousarray(theirs).view(np.uint8)):
                            raise RestartError(f"replicated tensor {key!r} differs "
                                               f"between TP rank 0 and rank {rank}")
                if name is None:
                    out[target_rank]["model"][key] = made
                else:
                    out[target_rank]["zero"][key][name] = made
        extra = next((states[rank]["extra"] for rank in sorted(states)
                      if states[rank].get("extra") is not None), None)
        if extra is not None:
            for state in out.values():
                state["extra"] = extra
        return out


# ------------------------------------------------------ split, merge, reshape
def _single(topology: CheckpointTopology) -> CheckpointTopology:
    """The 1x1x1 grid over ``topology``'s partition table: rank 0 holds it all."""
    return replace(topology, data_parallel=1, pipeline_parallel=1, tensor_parallel=1)


def _shard(full_state: Mapping[str, Any], topology: CheckpointTopology,
           views: bool) -> Dict[int, Dict[str, Any]]:
    """:func:`shard_full_state`; with ``views``, see :meth:`Remap.run`."""
    table = topology.layout_table()
    model, zero = full_state.get("model") or {}, full_state.get("zero") or {}
    if set(model) != set(table) or not set(zero) <= set(table):
        raise RestartError(
            "the state and the topology's partition table name different tensors: "
            f"{sorted(set(model) ^ set(table) | set(zero) - set(table))[:4]}")

    def flat(key: str, array: Any) -> np.ndarray:
        if np.shape(array) != table[key].shape:
            raise RestartError(
                f"tensor {key!r} (or an optimizer buffer of it) has shape "
                f"{np.shape(array)}, partition table says {table[key].shape}")
        return np.asarray(array).reshape(-1)

    whole = {"elastic": {"format": ELASTIC_FORMAT, "coord": [0, 0, 0]},
             "model": {key: flat(key, array) for key, array in model.items()},
             "zero": {key: {name: flat(key, buf) for name, buf in bufs.items()}
                      for key, bufs in zero.items()},
             "extra": full_state.get("extra")}
    return Remap(_single(topology), topology).run({0: whole}, views=views)


def shard_full_state(full_state: Mapping[str, Any],
                     topology: CheckpointTopology) -> Dict[int, Dict[str, Any]]:
    """Split a global state into the per-rank elastic states of ``topology``.

    ``full_state`` holds ``model`` (``{key: global ndarray}``), optionally
    ``zero`` (``{key: {buf_name: ndarray}}``, each buffer shaped like its
    model tensor — Adam moments under ZeRO-1) and ``extra`` (replicated
    picklables).  Every model key must appear in the topology's partition
    table.  Returns ``{global_rank: state}`` covering the whole grid, every
    slice an owned copy (the remap from the 1x1x1 grid).
    """
    return _shard(full_state, topology, views=False)


def merge_full_state(states: Mapping[int, Any], topology: CheckpointTopology,
                     validate: bool = True) -> Dict[str, Any]:
    """Reassemble the global state from every rank's elastic slices.

    The inverse of :func:`shard_full_state`: the remap onto the 1x1x1 grid,
    each tensor then reshaped to its table shape.  ``validate`` as in
    :meth:`Remap.run`.
    """
    state = Remap(topology, _single(topology)).run(states, validate=validate)[0]
    del state["elastic"]
    for key, layout in topology.layout_table().items():
        state["model"][key] = state["model"][key].reshape(layout.shape)
        for name, buf in state.get("zero", {}).get(key, {}).items():
            state["zero"][key][name] = buf.reshape(layout.shape)
    return state


def reshape_state_dicts(states: Mapping[int, Any], source: CheckpointTopology,
                        target: CheckpointTopology,
                        validate: bool = True) -> Dict[int, Dict[str, Any]]:
    """Remap every rank's in-memory state from ``source`` onto ``target`` (which,
    without a partition table of its own, inherits the source's — the common
    case: same tensors, different grid)."""
    return Remap(source, target).run(states, validate=validate)


# ----------------------------------------------------------------- converting
@dataclass(frozen=True)
class ReshapeReport:
    """What one offline reshape did (printed by ``repro reshape``)."""

    source_tag: str
    target_tag: str
    source_topology: CheckpointTopology
    target_topology: CheckpointTopology
    tensors: int
    total_bytes: int
    elapsed_seconds: float

    def summary(self) -> str:
        return (f"{self.source_tag} [{self.source_topology.describe()}] -> "
                f"{self.target_tag} [{self.target_topology.describe()}]: "
                f"{self.tensors} tensors, {self.total_bytes} bytes, "
                f"{self.elapsed_seconds:.3f}s")


def save_elastic_checkpoint(store: ShardStore, full_state: Mapping[str, Any],
                            topology: CheckpointTopology, tag: str,
                            engine: str = "deepspeed", iteration: int = -1,
                            policy: Optional[CheckpointPolicy] = None) -> None:
    """Write ``full_state`` as a committed elastic checkpoint at ``topology``.

    The engines are handed views of the caller's arrays wherever a rank's
    slice is one contiguous run of them (a strided copy otherwise): nothing
    here returns before every engine's ``wait_all()`` has, the same "immutable
    until the snapshot is taken" contract the lazy capture rests on.
    """
    _save_rank_states(store, _shard(full_state, topology, views=True), topology,
                      tag, engine, iteration, policy)


def _save_rank_states(store: ShardStore, states: Mapping[int, Any],
                      topology: CheckpointTopology, tag: str, engine: str,
                      iteration: int, policy: Optional[CheckpointPolicy]) -> None:
    """Commit per-rank states as one checkpoint at ``topology``: one real engine
    per rank of the grid (threads, sharing one two-phase-commit coordinator,
    exactly like the conformance harness), every rank saved concurrently — the
    synchronous engines block in ``save`` until the collective commits, so the
    pool must span the world."""
    from ..core import create_real_engine
    from ..core.consolidation import TwoPhaseCommitCoordinator

    world = topology.world_size
    if policy is None:
        policy = CheckpointPolicy(host_buffer_size=_CONVERTER_HOST_BUFFER,
                                  shards_per_rank=topology.shards_per_rank)
    elif policy.shards_per_rank != topology.shards_per_rank:
        policy = policy.with_overrides(shards_per_rank=topology.shards_per_rank)
    coordinator = TwoPhaseCommitCoordinator(world, store, topology=topology)
    engines = [create_real_engine(engine, store, rank=rank, world_size=world,
                                  coordinator=coordinator, policy=policy)
               for rank in range(world)]
    try:
        with ThreadPoolExecutor(max_workers=world,
                                thread_name_prefix="reshape-save") as pool:
            futures = [pool.submit(engines[rank].save, states[rank], tag,
                                   iteration)
                       for rank in range(world)]
            for future in futures:
                future.result()
        for eng in engines:
            eng.wait_all()
    finally:
        for eng in engines:
            eng.shutdown(wait=False)


def reshape_checkpoint(source_store: ShardStore, target: CheckpointTopology,
                       tag: Optional[str] = None,
                       dest_store: Optional[ShardStore] = None,
                       out_tag: Optional[str] = None,
                       engine: str = "deepspeed",
                       policy: Optional[CheckpointPolicy] = None,
                       validate: bool = True,
                       prefetch_depth: Optional[int] = None) -> ReshapeReport:
    """Offline converter: re-write a committed checkpoint at a new topology.

    Restores ``tag`` (default: the latest committed checkpoint on
    ``source_store``) reshaped onto ``target`` — the full model is never built
    — and saves those rank states as ``out_tag`` (default
    ``{tag}-{target.describe()}``) on ``dest_store`` (default: the source store)
    through real engines: a first-class committed checkpoint, restorable anywhere.
    """
    started = time.monotonic()
    loader = CheckpointLoader(source_store, prefetch_depth=prefetch_depth)
    if tag is None:
        tag = loader._latest_tag()
    manifest = loader.manifest(tag)
    dest = dest_store if dest_store is not None else source_store
    resolved_out = out_tag or f"{tag}-{target.describe()}"
    if resolved_out in dest.list_committed_checkpoints():
        raise CheckpointError(
            f"destination already holds a committed checkpoint {resolved_out!r}")
    # Refuses a manifest without a topology block (schema < 4).
    states = loader.restore(
        RestoreSpec.full(tag=tag, validate=validate).reshaped(target))
    source = manifest.topology
    if target.tensors is None:
        target = replace(target, tensors=source.tensors)
    _save_rank_states(dest, states, target, resolved_out, engine,
                      manifest.iteration, policy)
    out_manifest = CheckpointLoader(dest).manifest(resolved_out)
    report = ReshapeReport(
        source_tag=tag,
        target_tag=resolved_out,
        source_topology=source,
        target_topology=target,
        tensors=len(target.tensors or ()),
        total_bytes=out_manifest.total_bytes,
        elapsed_seconds=time.monotonic() - started,
    )
    logger.info("reshaped checkpoint %s", report.summary())
    return report
