"""Measuring the layers from outside: the ledger, the span recorder, the proxies.

Two things sit between the library's layers in a benchmark run, both built
here and both outside the library:

* the :class:`Ledger` — always on.  Proxies around the *bottom* stores (the
  ``FileStore`` / ``ObjectStore`` objects that actually hold bytes) stamp the
  moment a checkpoint's manifest is published on each level and count every
  byte handed to them.  ``commit_ms`` and ``write_amp`` come from it.

* the :class:`Recorder` — only in traced segments.  Proxies around *every*
  store object (bottom stores, and the ``CASStore`` / ``TierChain`` above
  them, including the writers ``create_shard_writer`` returns) and spans
  around ``engine.save`` / ``wait_for_snapshot`` / ``CheckpointLoader.restore``
  record one span per call: layer, operation, start, end, bytes, thread,
  parent (a thread-local stack) and the checkpoint tag, which is the
  identifier the spans of one checkpoint share across threads.  Spans stay in
  memory and are written as a Chrome trace when the run ends.

A proxy forwards every attribute it does not intercept, so the library's
capability probes (``callable(getattr(store, "open_shard_mmap", None))``)
see exactly what the wrapped store offers.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .state import iter_arrays

_now = time.perf_counter

#: Tags the CAS layer invents for its own objects; spans on them inherit the
#: checkpoint tag of the span that caused them.
_CAS_NAMESPACE_PREFIX = "ns-"
_CAS_NAMESPACE_SEP = "--"
_CAS_INTERNAL_PREFIXES = ("cas-chunk-", "cas-refcounts")


def client_tag(tag: Any) -> Optional[str]:
    """The benchmark's checkpoint tag behind a (possibly CAS-mangled) store tag."""
    if not isinstance(tag, str):
        return None
    if tag.startswith(_CAS_INTERNAL_PREFIXES):
        return None
    if tag.startswith(_CAS_NAMESPACE_PREFIX) and _CAS_NAMESPACE_SEP in tag:
        return tag.split(_CAS_NAMESPACE_SEP, 1)[1]
    return tag


def manifest_nbytes(manifest: Dict) -> int:
    """Bytes a store writes for a manifest (both bottom stores encode alike)."""
    return len(json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8"))


# -- ledger ------------------------------------------------------------------------
class Ledger:
    """Commit stamps and byte counts taken at the bottom stores."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: ``perf_counter`` at which the client called ``save()`` per tag.
        self.save_called: Dict[str, float] = {}
        #: First publication of a tag's manifest per bottom-store level.
        self.manifest_at: Dict[Tuple[int, str], float] = {}
        #: Bytes handed to bottom stores: shards, chunks, manifests, indexes.
        self.bottom_bytes = 0
        #: Sum of shard sizes of the checkpoints committed (first publication).
        self.logical_bytes = 0
        self._tags_seen: set = set()

    def add_bytes(self, nbytes: int) -> None:
        with self._lock:
            self.bottom_bytes += int(nbytes)

    def manifest_published(self, level: int, manifest: Dict, nbytes: int,
                           when: float) -> None:
        shards = manifest.get("shards")
        with self._lock:
            self.bottom_bytes += nbytes
            if shards is None:  # an index object (CAS refcounts), not a checkpoint
                return
            tag = str(manifest.get("tag"))
            if tag not in self._tags_seen:
                self._tags_seen.add(tag)
                self.logical_bytes += sum(int(record["nbytes"]) for record in shards)
            self.manifest_at.setdefault((level, tag), when)

    def commit_time(self, tag: str, deepest: int) -> Optional[float]:
        return self.manifest_at.get((deepest, tag))

    def committed(self, tag: str, deepest: int) -> bool:
        return (deepest, tag) in self.manifest_at


# -- recorder ------------------------------------------------------------------------
class Span:
    __slots__ = ("id", "parent", "layer", "op", "tag", "thread", "start", "end", "nbytes")

    def __init__(self, span_id: int, parent: Optional["Span"], layer: str, op: str,
                 tag: Optional[str], thread: str, start: float) -> None:
        self.id = span_id
        self.parent = parent.id if parent is not None else None
        self.layer = layer
        self.op = op
        self.tag = tag if tag is not None else (parent.tag if parent is not None else None)
        self.thread = thread
        self.start = start
        self.end = start
        self.nbytes = 0

    @property
    def dur(self) -> float:
        return self.end - self.start


class _SpanContext:
    __slots__ = ("_recorder", "_span")

    def __init__(self, recorder: "Recorder", span: Span) -> None:
        self._recorder = recorder
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._recorder._finish(self._span)


class _NullSpan:
    """Stands in for a span while the recorder is off (shared, so stateless)."""

    __slots__ = ()
    nbytes = property(lambda self: 0, lambda self, value: None)

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Recorder:
    """In-memory span store with a thread-local parent stack."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def span(self, layer: str, op: str, tag: Optional[str] = None):
        if not self.enabled:
            return _NULL_SPAN
        stack = self._local.__dict__.setdefault("stack", [])
        span = Span(next(self._ids), stack[-1] if stack else None, layer, op, tag,
                    threading.current_thread().name, _now())
        stack.append(span)
        return _SpanContext(self, span)

    def _finish(self, span: Span) -> None:
        span.end = _now()
        self._local.stack.pop()
        self.spans.append(span)

    # -- analysis ------------------------------------------------------------
    def self_times(self, spans: Sequence[Span]) -> Dict[int, float]:
        """Duration of each span minus its direct children's."""
        own = {span.id: span.dur for span in spans}
        for child in self.spans:
            if child.parent in own:
                own[child.parent] -= child.dur
        return own

    def write_chrome_trace(self, path: Path, origin: float) -> None:
        threads: Dict[str, int] = {}
        events: List[Dict[str, Any]] = []
        for span in self.spans:
            tid = threads.setdefault(span.thread, len(threads) + 1)
            events.append({
                "name": f"{span.layer}.{span.op}", "cat": span.layer, "ph": "X",
                "ts": (span.start - origin) * 1e6, "dur": span.dur * 1e6,
                "pid": 1, "tid": tid,
                "args": {"tag": span.tag, "bytes": span.nbytes,
                         "id": span.id, "parent": span.parent},
            })
        for name, tid in threads.items():
            events.append({"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                           "args": {"name": name}})
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}),
                        encoding="utf-8")


def union_length(intervals: Iterable[Tuple[float, float]],
                 window: Optional[Tuple[float, float]] = None) -> float:
    """Total length covered by ``intervals`` (clipped to ``window``)."""
    clipped = []
    for start, end in intervals:
        if window is not None:
            start, end = max(start, window[0]), min(end, window[1])
        if end > start:
            clipped.append((start, end))
    clipped.sort()
    total = 0.0
    cursor = float("-inf")
    for start, end in clipped:
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total


# -- proxies -------------------------------------------------------------------------
class Faults:
    """Deliberate breakage for the smoke test: does the verification bite?"""

    def __init__(self, kind: Optional[str] = None) -> None:
        self.kind = kind
        #: Tag whose manifest the bottom proxy swallows (``drop-manifest``).
        self.drop_manifest_tag: Optional[str] = None
        self.fired = 0

    def drops(self, manifest: Dict) -> bool:
        if (self.kind == "drop-manifest" and isinstance(manifest, dict)
                and manifest.get("tag") == self.drop_manifest_tag):
            self.fired += 1
            return True
        return False

    def corrupt_restored(self, state: Any) -> None:
        """Flip one byte of the first array of a restored state, once."""
        if self.kind != "flip-restored-byte" or self.fired:
            return
        for array in iter_arrays(state):
            if array.nbytes and array.flags.writeable:
                array.reshape(-1).view("uint8")[array.nbytes // 2] ^= 0x01
                self.fired += 1
                return


class _WriterProxy:
    """Around the offset-addressed writer ``create_shard_writer`` returns."""

    def __init__(self, inner, owner: "StoreProxy", tag: Optional[str]) -> None:
        self._inner = inner
        self._owner = owner
        self._tag = tag
        if not owner._recorder.enabled:
            self.pwrite = inner.pwrite  # untraced: nothing between caller and store

    def pwrite(self, offset: int, data) -> int:
        with self._owner._recorder.span(self._owner._layer, "pwrite", self._tag) as span:
            written = self._inner.pwrite(offset, data)
            span.nbytes = written
        return written

    def commit(self):
        with self._owner._recorder.span(self._owner._layer, "commit", self._tag) as span:
            receipt = self._inner.commit()
            span.nbytes = receipt.nbytes
        if self._owner._bottom:
            self._owner._ledger.add_bytes(receipt.nbytes)
        return receipt

    def __enter__(self) -> "_WriterProxy":
        self._inner.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb):
        return self._inner.__exit__(exc_type, exc, tb)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


def _payload_len(result: Any) -> int:
    if isinstance(result, (bytes, bytearray, memoryview)):
        return len(result)
    data = getattr(result, "data", None)  # MappedShard
    if data is not None:
        return len(data)
    nbytes = getattr(result, "nbytes", None)  # WriteReceipt
    return int(nbytes) if isinstance(nbytes, int) else 0


class StoreProxy:
    """Forwarding proxy around one store object (see the module docstring).

    ``bottom`` marks the stores that hold bytes: only they feed the ledger.
    ``level`` is the store's index in its tier chain (0 for a lone store).
    """

    #: Calls that get a span when the recorder is on.
    _SPANNED = frozenset({
        "write_shard", "create_shard_writer", "write_manifest",
        "record_shard_reference", "read_shard", "read_shard_range",
        "open_shard_mmap", "read_manifest", "shard_size", "total_bytes",
        "list_checkpoints", "list_committed_checkpoints", "delete_checkpoint",
        "sweep_unreferenced",
    })

    def __init__(self, inner, layer: str, ledger: Ledger, recorder: Recorder,
                 bottom: bool, level: int = 0, faults: Optional[Faults] = None) -> None:
        self._inner = inner
        self._layer = layer
        self._ledger = ledger
        self._recorder = recorder
        self._bottom = bottom
        self._level = level
        self._faults = faults

    def __getattr__(self, name: str):
        if name == "_inner":  # not constructed yet (copy/pickle probes)
            raise AttributeError(name)
        attr = getattr(self._inner, name)
        if name == "write_manifest":
            return functools.partial(self._write_manifest, attr)
        if name == "create_shard_writer":
            return functools.partial(self._create_shard_writer, attr)
        if name == "write_shard" and (self._bottom or self._recorder.enabled):
            return functools.partial(self._write_shard, attr)
        if name in self._SPANNED and self._recorder.enabled:
            return functools.partial(self._spanned, name, attr)
        return attr

    # The tag is every intercepted call's first argument (or absent).
    def _spanned(self, op: str, call: Callable, *args, **kwargs):
        tag = client_tag(args[0]) if args else None
        with self._recorder.span(self._layer, op, tag) as span:
            result = call(*args, **kwargs)
            span.nbytes = _payload_len(result)
        return result

    def _write_shard(self, call: Callable, tag, shard_name, chunks):
        with self._recorder.span(self._layer, "write_shard", client_tag(tag)) as span:
            receipt = call(tag, shard_name, chunks)
            span.nbytes = receipt.nbytes
        if self._bottom:
            self._ledger.add_bytes(receipt.nbytes)
        return receipt

    def _create_shard_writer(self, call: Callable, tag, shard_name, total_bytes):
        with self._recorder.span(self._layer, "create_shard_writer", client_tag(tag)):
            writer = call(tag, shard_name, total_bytes)
        return _WriterProxy(writer, self, client_tag(tag))

    def _write_manifest(self, call: Callable, tag, manifest):
        if self._bottom and self._faults is not None and self._faults.drops(manifest):
            return None
        with self._recorder.span(self._layer, "write_manifest", client_tag(tag)) as span:
            receipt = call(tag, manifest)
        published = _now()
        nbytes = manifest_nbytes(manifest)  # encoded outside the span
        span.nbytes = nbytes
        if self._bottom:
            self._ledger.manifest_published(self._level, manifest, nbytes, published)
        return receipt
