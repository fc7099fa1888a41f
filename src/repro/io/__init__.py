"""Storage backends: the pluggable shard-store protocol and its registry
(:class:`ShardStore`, :func:`create_store`), the real POSIX file store, the
in-memory S3-like object store, the N-level tier chain with its background
per-link drain pipeline (the classic fast/slow pair is its two-level form),
the content-addressed multi-tenant store, and the simulator's NVMe and
Lustre bandwidth models."""

from .cas import DEFAULT_CHUNK_BYTES, DEFAULT_NAMESPACE, CASStore
from .faultstore import FaultPlan, FaultyStore, InjectedProcessKill
from .filestore import (
    FileStore,
    MappedShard,
    ShardWriter,
    WriteReceipt,
    fsync_directory,
    publish_file,
)
from .objectstore import ObjectShardWriter, ObjectStore
from .sim_storage import (
    SimNodeLocalStorage,
    SimParallelFileSystem,
    make_node_local_storage,
    make_parallel_fs,
)
from .store import (
    STORE_LABELS,
    STORE_NAMES,
    ShardStore,
    available_stores,
    canonical_store_name,
    create_store,
    register_store,
    supports_mmap,
    supports_shard_reference,
    supports_shard_writer,
)
from .tiered import (
    DrainState,
    TierChain,
    TierChainLevelSpec,
    TierLevel,
    parse_tier_chain_spec,
)

__all__ = [
    "ShardStore",
    "STORE_NAMES",
    "STORE_LABELS",
    "available_stores",
    "canonical_store_name",
    "create_store",
    "register_store",
    "supports_mmap",
    "supports_shard_reference",
    "supports_shard_writer",
    "CASStore",
    "DEFAULT_CHUNK_BYTES",
    "DEFAULT_NAMESPACE",
    "FileStore",
    "ShardWriter",
    "MappedShard",
    "WriteReceipt",
    "fsync_directory",
    "publish_file",
    "ObjectStore",
    "ObjectShardWriter",
    "FaultPlan",
    "FaultyStore",
    "InjectedProcessKill",
    "TierChain",
    "TierLevel",
    "TierChainLevelSpec",
    "parse_tier_chain_spec",
    "DrainState",
    "SimParallelFileSystem",
    "SimNodeLocalStorage",
    "make_parallel_fs",
    "make_node_local_storage",
]
