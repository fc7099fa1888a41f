"""The pluggable shard-store protocol and the store registry.

:class:`ShardStore` is the one storage interface the checkpoint pipeline
programs against — extracted from :class:`~repro.io.FileStore` so that
alternative backends (the in-memory S3-like :class:`~repro.io.ObjectStore`,
future io_uring/O_DIRECT stores, real object stores) plug in underneath every
engine, the trainer, the restart path, and the CLI without touching any call
site.  Stores are selected by name through :func:`create_store`, mirroring how
engines are selected through :func:`repro.core.create_real_engine`.

The protocol has a required core and three *optional capabilities*:

required
    ``write_shard`` / ``read_shard`` — streaming shard write, whole-shard read
    (``read_shard(tag, name, out=buffer)`` lands the bytes in the caller's
    buffer instead of a fresh ``bytes`` — what a restore that cannot map a
    shard does, one buffer per part, so nothing is joined or copied again);
    ``read_shard_range`` — a sub-shard byte range (``pread`` on the file
    backend, a ``Range:`` GET on the object backend), with which the tier
    chain's drain copies a large part in bounded pieces;
    ``write_manifest`` / ``read_manifest`` — commit-manifest publish/read
    (publishing the manifest is what makes a checkpoint restorable, so a
    backend must order it after every shard of the tag is durable);
    ``shard_size`` / ``total_bytes`` — sizing;
    ``list_checkpoints`` / ``list_committed_checkpoints`` /
    ``delete_checkpoint`` — discovery and housekeeping.

optional (detected only through :func:`supports_shard_writer`,
:func:`supports_mmap` and :func:`supports_shard_reference`, so a forwarding
proxy that exposes the attribute exposes the capability)
    ``create_shard_writer`` — offset-addressed writer for the parallel pwrite
    fast path (:class:`~repro.core.FlushPipeline` and the TorchSnapshot-like
    engine fall back to streaming writes when absent);
    ``open_shard_mmap`` — zero-copy mapped reads for the mmap restore path
    (:class:`~repro.restart.CheckpointLoader` falls back to
    ``read_shard(out=)`` when absent — e.g. an object store has no file to
    map);
    ``record_shard_reference`` — record a shard as a reference to the
    previous committed checkpoint's identical shard (incremental saves;
    :func:`supports_shard_reference`).

The ``tiered`` backend (:class:`~repro.io.TierChain`) composes registered
stores into an ordered chain — commits land on level 0 and drain
asynchronously to the deeper levels; see :mod:`repro.io.tiered`.  The ``cas``
backend (:class:`~repro.io.CASStore`) wraps any inner store in
content-addressed chunk storage with per-job namespaces, incremental
(reference-based) saves, and mark-and-sweep cross-job GC; see
:mod:`repro.io.cas`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, Iterable, List, Protocol, Union, runtime_checkable

from ..exceptions import ConfigurationError
from .cas import DEFAULT_CHUNK_BYTES, DEFAULT_NAMESPACE, CASStore
from .filestore import FileStore, WriteReceipt


@runtime_checkable
class ShardStore(Protocol):
    """Structural interface of a checkpoint shard store (see module docstring).

    ``runtime_checkable`` so conformance tests can assert
    ``isinstance(store, ShardStore)``; the optional capabilities
    (``create_shard_writer``, ``open_shard_mmap``,
    ``record_shard_reference``) are deliberately not part of the protocol —
    callers detect them with the ``supports_*`` helpers.
    """

    # -- writes --------------------------------------------------------------
    def write_shard(self, tag: str, shard_name: str,
                    chunks: Iterable[Union[bytes, memoryview]]) -> WriteReceipt:
        """Write one shard from an iterable of byte chunks; atomic publish."""
        ...

    def write_manifest(self, tag: str, manifest: Dict) -> object:
        """Atomically publish the commit manifest of checkpoint ``tag``."""
        ...

    # -- reads ---------------------------------------------------------------
    def read_shard(self, tag: str, shard_name: str, out=None):
        """Read back one shard's bytes — the one whole-shard read call.

        With ``out``, a writable buffer of exactly the shard's size (else a
        :class:`~repro.exceptions.ConsistencyError`), the bytes are read
        straight into it and a ``memoryview`` of it is returned.  A wrapper
        hands ``out`` to the store it reads and treats the result as it
        treats the plain form: CAS verifies each chunk where it landed, a
        fault-injecting store may return a shortened view.
        """
        ...

    def read_shard_range(self, tag: str, shard_name: str,
                         offset: int, length: int) -> bytes:
        """``length`` bytes of one shard from ``offset``; a range that does
        not lie inside the shard, or a missing shard, is a
        :class:`~repro.exceptions.CheckpointError` (never a short read)."""
        ...

    def read_manifest(self, tag: str) -> Dict:
        """Read back the commit manifest of checkpoint ``tag``."""
        ...

    def shard_size(self, tag: str, shard_name: str) -> int:
        """Stored size of one shard."""
        ...

    # -- management ----------------------------------------------------------
    def list_checkpoints(self) -> List[str]:
        """Tags of checkpoints present (committed or not), sorted."""
        ...

    def list_committed_checkpoints(self) -> List[str]:
        """Tags of checkpoints that have a manifest, sorted."""
        ...

    def delete_checkpoint(self, tag: str) -> None:
        """Remove every stored object of one checkpoint."""
        ...

    def total_bytes(self, tag: str) -> int:
        """Sum of shard sizes of a checkpoint."""
        ...


#: Canonical store names, default backend first.  The ``faulty`` chaos
#: wrapper is registered but deliberately not canonical: conformance suites
#: sweep STORE_NAMES and must not double-test through the injection wrapper.
STORE_NAMES: List[str] = ["file", "object", "tiered", "cas"]

#: Display labels used in report/bench output.
STORE_LABELS: Dict[str, str] = {
    "file": "FileStore (POSIX directory)",
    "object": "ObjectStore (in-memory, one part per key)",
    "tiered": "TierChain (level-0 commits + async drain to deeper levels)",
    "cas": "CASStore (content-addressed chunks, namespaces, mark-and-sweep GC)",
    "faulty": "FaultyStore (seeded fault injection around another backend)",
}

_StoreFactory = Callable[..., ShardStore]


def _make_file_store(root=None, **kwargs) -> ShardStore:
    if root is None:
        raise ConfigurationError("the 'file' store needs a root directory")
    return FileStore(root, **kwargs)


def _make_object_store(root=None, **kwargs) -> ShardStore:
    from .objectstore import ObjectStore

    # ``root`` becomes the bucket label so per-backend workdirs stay legible
    # in reports; an object store has no directory to create.
    bucket = str(root) if root is not None else "repro-checkpoints"
    return ObjectStore(bucket=bucket, **kwargs)


def _make_tiered_store(root=None, tiers="fast:file,slow:object",
                       **kwargs) -> ShardStore:
    """Compose a :class:`~repro.io.TierChain` from registry backends.

    ``tiers`` is a chain spec string
    (``"nvme:file:/a:50GiB,pfs:file:/b,object:object"``, see
    :func:`~repro.io.parse_tier_chain_spec`) or a pre-parsed sequence of
    :class:`~repro.io.TierChainLevelSpec`; the default is a local ``fast``
    file level draining to an in-memory ``slow`` object level.  Levels
    without an explicit root live under ``root/<name>`` (file; level 0's
    sidecar tier-index sits next to its checkpoint directories) or a
    ``<root>-<name>`` bucket label (object).  Remaining kwargs go to the
    chain: ``drain_workers`` (threads per link) and ``keep_local_latest``
    (``None`` never evicts).
    """
    from .tiered import (
        DEFAULT_TIER_WATERMARK,
        TierChain,
        TierLevel,
        parse_tier_chain_spec,
    )

    if root is None:
        raise ConfigurationError("the 'tiered' store needs a root directory")
    root = Path(root)
    entries = (parse_tier_chain_spec(tiers) if isinstance(tiers, str)
               else list(tiers))
    levels = []
    for entry in entries:
        backend = canonical_store_name(entry.backend)
        if backend in ("tiered", "faulty"):
            raise ConfigurationError(
                f"tier chain level {entry.name!r} cannot use the "
                f"{backend!r} backend")
        if entry.root is not None:
            level_root = entry.root
        elif backend == "file":
            level_root = root / entry.name
        else:
            level_root = f"{root.name}-{entry.name}"
        levels.append(TierLevel(
            store=create_store(backend, root=level_root),
            name=entry.name,
            capacity_bytes=entry.capacity_bytes,
            watermark=(entry.watermark if entry.watermark is not None
                       else DEFAULT_TIER_WATERMARK),
        ))
    return TierChain(levels, **kwargs)


def _make_faulty_store(root=None, inner: str = "file", plan=None,
                       **kwargs) -> ShardStore:
    """Wrap another registered backend in seeded fault injection.

    ``inner`` names the wrapped backend (anything registered except
    ``faulty`` itself); ``plan`` is a :class:`~repro.io.FaultPlan`, a dict of
    its fields, or ``None`` for the inject-nothing default.  Remaining kwargs
    go to the inner backend's factory.
    """
    from .faultstore import FaultPlan, FaultyStore

    inner_name = canonical_store_name(inner)
    if inner_name == "faulty":
        raise ConfigurationError("the 'faulty' store cannot wrap itself")
    if isinstance(plan, dict):
        plan = FaultPlan(**plan)
    return FaultyStore(create_store(inner_name, root=root, **kwargs), plan=plan)


def _make_cas_store(root=None, inner: str = "file",
                    namespace: str = DEFAULT_NAMESPACE,
                    chunk_bytes: int = DEFAULT_CHUNK_BYTES, quota_bytes=None,
                    **kwargs) -> ShardStore:
    """Wrap another registered backend in content-addressed chunk storage.

    ``inner`` names the wrapped backend holding the shared chunk pool
    (anything registered except ``cas`` itself); ``namespace`` scopes this
    handle to one job id over that pool, ``chunk_bytes`` sets the content
    chunk size, and ``quota_bytes`` caps the namespace's committed logical
    bytes.  Remaining kwargs go to the inner backend's factory.
    """
    inner_name = canonical_store_name(inner)
    if inner_name == "cas":
        raise ConfigurationError("the 'cas' store cannot wrap itself")
    return CASStore(
        create_store(inner_name, root=root, **kwargs),
        namespace=namespace, chunk_bytes=int(chunk_bytes),
        quota_bytes=quota_bytes,
    )


_STORE_REGISTRY: Dict[str, _StoreFactory] = {
    "file": _make_file_store,
    "object": _make_object_store,
    "tiered": _make_tiered_store,
    "cas": _make_cas_store,
    "faulty": _make_faulty_store,
}


def available_stores() -> List[str]:
    """Canonical names of the registered store backends."""
    return [name for name in STORE_NAMES if name in _STORE_REGISTRY] + sorted(
        name for name in _STORE_REGISTRY if name not in STORE_NAMES
    )


def canonical_store_name(name: str) -> str:
    """Validate (and normalise) a store backend name."""
    key = name.strip().lower()
    if key not in _STORE_REGISTRY:
        raise ConfigurationError(
            f"unknown shard store {name!r}; known stores: {available_stores()}"
        )
    return key


def create_store(name: str, root=None, **kwargs) -> ShardStore:
    """Instantiate a shard store backend by name.

    ``root`` is the backing directory for the ``file`` store and a cosmetic
    bucket label for the ``object`` store; the other keyword arguments go
    to the backend (``create_store("file", root=path, fsync=True)`` makes a
    durable :class:`~repro.io.FileStore`).
    """
    factory = _STORE_REGISTRY[canonical_store_name(name)]
    return factory(root=root, **kwargs)


def register_store(name: str, factory: _StoreFactory) -> None:
    """Register a custom store backend under a new name.

    ``factory`` must accept ``(root=..., **kwargs)`` and return a
    :class:`ShardStore`; registered names become selectable everywhere stores
    are chosen by name (``create_store``, the CLI ``--store`` flag).
    """
    key = name.strip().lower()
    if not key:
        raise ConfigurationError("store name must be non-empty")
    if not callable(factory):
        raise ConfigurationError("store factory must be callable")
    _STORE_REGISTRY[key] = factory


def supports_shard_writer(store: object) -> bool:
    """Whether ``store`` offers the offset-addressed parallel write fast path."""
    return callable(getattr(store, "create_shard_writer", None))


def supports_mmap(store: object) -> bool:
    """Whether ``store`` offers zero-copy mapped reads for restores."""
    return callable(getattr(store, "open_shard_mmap", None))


def supports_shard_reference(store: object) -> bool:
    """Whether ``store`` can record a shard as a reference to a previous
    committed checkpoint's identical shard (``record_shard_reference``, the
    CAS store's incremental-save fast path)."""
    return callable(getattr(store, "record_shard_reference", None))
