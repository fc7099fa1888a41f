"""Seeded fault injection for shard stores: :class:`FaultPlan` + :class:`FaultyStore`.

The chaos half of the fault-injection framework.  :class:`FaultyStore` wraps
any registered :class:`~repro.io.ShardStore` (``file``, ``object``, or any
level of a :class:`~repro.io.TierChain`) and injects the failure modes real
checkpointing deployments see, driven by a :class:`FaultPlan`:

* **torn/short writes** — the shard's chunk stream is consumed in full (so
  the engine computes its CRC over the intended bytes) but a truncated
  payload is what actually lands, exactly like a crash or full disk mid
  ``write()``;
* **transient and persistent I/O errors** — reads and writes raise
  ``OSError``; with :attr:`FaultPlan.max_failures_per_op` set, an operation
  succeeds once its failure budget is spent (a flaky NIC), with it unset the
  failure is persistent (a dead OST);
* **store outages** — a contiguous window of operations (by global operation
  index) all fail, modelling the remote store being unreachable mid-drain;
* **process kill between shard-commit and manifest-publish** — the Nth
  manifest publish raises :class:`InjectedProcessKill` *before* delegating,
  leaving every shard durable but the checkpoint uncommitted, the classic
  kill-9-during-commit tear.

Every injection decision is **deterministic in the plan's seed**: per-key
decisions hash ``(seed, operation, key, occurrence)`` so the injected fault
set does not depend on thread interleaving, and the same plan replayed over
the same operation sequence yields a byte-identical :meth:`FaultyStore.fault_log`.
A chaos failure is therefore reproducible from the seed printed in its
message.

The wrapper intentionally hides the inner store's ``create_shard_writer`` and
``open_shard_mmap`` capabilities: engines fall back to the streaming write
path and loaders to heap reads, so **every byte moves through the fault
filter** rather than bypassing it through an fd or a memory map.  Ranged
reads stay available (with read faults injected) when the inner store has
them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..exceptions import CheckpointError, ConfigurationError
from .filestore import WriteReceipt


class InjectedProcessKill(CheckpointError):
    """A simulated process kill between shard-commit and manifest-publish.

    A subclass of :class:`~repro.exceptions.CheckpointError` so that even a
    code path that lets it propagate raw still fails with a sanctioned loud
    error — silent corruption is never an acceptable outcome of a kill.
    """


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, JSON-serialisable description of what to inject when.

    Probabilities are per *decision* (one shard write, one read, ...) and
    deterministic in ``seed`` — see the module docstring.  A default plan
    injects nothing.
    """

    #: Master seed; every injection decision derives from it.
    seed: int = 0
    #: Probability that a shard write lands torn (short) instead of complete.
    torn_write_prob: float = 0.0
    #: Fraction of the shard's bytes that survive a torn write.
    torn_write_keep_fraction: float = 0.5
    #: Probability that a shard/manifest write raises ``OSError``.
    write_error_prob: float = 0.0
    #: Probability that a shard/manifest read raises ``OSError``.
    read_error_prob: float = 0.0
    #: Probability that a shard read returns a torn (truncated) payload —
    #: silent short reads, the restore-path mirror of torn writes.  Injected
    #: on shard reads only: a torn manifest read would be a JSON parse error,
    #: not the silent-data-damage case the restore path must catch.
    torn_read_prob: float = 0.0
    #: Fraction of the shard's bytes that survive a torn read.
    torn_read_keep_fraction: float = 0.5
    #: Per-(operation, key) failure budget: after this many injected errors
    #: the operation succeeds (a transient fault).  ``None`` = persistent.
    max_failures_per_op: Optional[int] = None
    #: First global operation index of a full-store outage window (``None``
    #: disables outage injection).
    outage_start_op: Optional[int] = None
    #: Number of consecutive operations that fail during the outage window.
    outage_ops: int = 0
    #: Kill the process on the Nth manifest publish (1-based; ``None`` never).
    kill_on_manifest: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("torn_write_prob", "write_error_prob", "read_error_prob",
                     "torn_read_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"FaultPlan.{name} must be in [0, 1]")
        for name in ("torn_write_keep_fraction", "torn_read_keep_fraction"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigurationError(
                    f"FaultPlan.{name} must be in [0, 1)")
        if self.max_failures_per_op is not None and self.max_failures_per_op <= 0:
            raise ConfigurationError(
                "FaultPlan.max_failures_per_op must be positive (or None)")
        if self.outage_ops < 0:
            raise ConfigurationError("FaultPlan.outage_ops must be >= 0")
        if self.kill_on_manifest is not None and self.kill_on_manifest <= 0:
            raise ConfigurationError(
                "FaultPlan.kill_on_manifest must be positive (or None)")

    # -- serialisation (CI artifacts, reproduction from a failure message) ----
    def to_json(self) -> str:
        """JSON encoding of the plan (the CI chaos artifact format)."""
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_json` output."""
        return cls(**json.loads(payload))

    def with_overrides(self, **kwargs: object) -> "FaultPlan":
        """Copy of this plan with selected fields replaced."""
        return dataclasses.replace(self, **kwargs)  # type: ignore[arg-type]

    # -- deterministic decisions ----------------------------------------------
    def roll(self, op: str, key: str, occurrence: int) -> float:
        """Uniform [0, 1) draw, deterministic in (seed, op, key, occurrence).

        Keyed on the operation's identity rather than a shared RNG stream so
        concurrent store calls from different threads cannot permute each
        other's outcomes.
        """
        digest = hashlib.sha256(
            f"{self.seed}|{op}|{key}|{occurrence}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") / float(1 << 64)


class FaultyStore:
    """A :class:`~repro.io.ShardStore` wrapper injecting a :class:`FaultPlan`.

    Composable around any registered backend (and registered itself as the
    ``faulty`` backend).  All unknown attributes delegate to the inner store,
    except the capabilities deliberately hidden so injection cannot be
    bypassed (see the module docstring).
    """

    #: Optional capabilities never exposed: bytes written through an fd or
    #: read through a map would bypass the fault filter.
    _HIDDEN = frozenset({"create_shard_writer", "open_shard_mmap"})

    def __init__(self, inner, plan: Optional[FaultPlan] = None) -> None:
        if isinstance(inner, FaultyStore):
            raise ConfigurationError("FaultyStore cannot wrap another FaultyStore")
        self._inner = inner
        self.plan = plan or FaultPlan()
        self._lock = threading.Lock()
        self._op_index = 0
        self._manifest_publishes = 0
        self._occurrences: Dict[Tuple[str, str], int] = {}
        self._failures: Dict[Tuple[str, str], int] = {}
        self._log: List[Dict[str, object]] = []
        self._enabled = True
        # Ranged reads are exposed (with injection) only when the inner store
        # has them, as an instance attribute so ``supports_ranged_reads``
        # feature detection keeps working.
        if callable(getattr(inner, "read_shard_range", None)):
            self.read_shard_range = self._faulty_read_shard_range

    # -- plumbing -------------------------------------------------------------
    @property
    def inner(self):
        """The wrapped store (the ground truth the chaos suite validates)."""
        return self._inner

    def __getattr__(self, name: str):
        if name == "_inner":  # guard: never recurse during construction
            raise AttributeError(name)
        if name in FaultyStore._HIDDEN:
            raise AttributeError(
                f"{name!r} is disabled under fault injection (writes/reads "
                "must stream through the fault filter)")
        return getattr(self._inner, name)

    def suspend(self) -> "_SuspendedFaults":
        """Context manager disabling injection (post-mortem inspection)."""
        return _SuspendedFaults(self)

    def ops_so_far(self) -> int:
        """Total fault-gated operations observed so far.

        Ops are counted even while injection is suspended, so tests that arm
        a fault plan mid-run (e.g. read faults after a clean save phase) use
        this to position ``outage_start_op`` relative to "now".
        """
        with self._lock:
            return self._op_index

    def fault_log(self) -> List[Dict[str, object]]:
        """Every injected fault so far, in injection order."""
        with self._lock:
            return [dict(entry) for entry in self._log]

    def _record(self, op: str, key: str, kind: str, op_index: int,
                detail: str = "") -> None:
        entry = {"op": op, "key": key, "kind": kind, "op_index": op_index}
        if detail:
            entry["detail"] = detail
        self._log.append(entry)

    def _next_op(self, op: str, key: str) -> Tuple[int, int]:
        """Claim one operation: its global index and per-key occurrence."""
        with self._lock:
            index = self._op_index
            self._op_index += 1
            occurrence = self._occurrences.get((op, key), 0)
            self._occurrences[(op, key)] = occurrence + 1
            return index, occurrence

    def _check_outage(self, op: str, key: str, op_index: int) -> None:
        plan = self.plan
        if plan.outage_start_op is None:
            return
        if plan.outage_start_op <= op_index < plan.outage_start_op + plan.outage_ops:
            with self._lock:
                self._record(op, key, "outage", op_index)
            raise OSError(
                f"injected store outage (op {op_index}, seed {plan.seed}): "
                f"{op} {key}")

    def _maybe_error(self, op: str, key: str, probability: float,
                     op_index: int, occurrence: int) -> None:
        plan = self.plan
        if probability <= 0.0 or plan.roll(op, key, occurrence) >= probability:
            return
        with self._lock:
            failures = self._failures.get((op, key), 0)
            budget = plan.max_failures_per_op
            if budget is not None and failures >= budget:
                return  # transient fault: the budget is spent, succeed now
            self._failures[(op, key)] = failures + 1
            kind = "transient_error" if budget is not None else "persistent_error"
            self._record(op, key, kind, op_index)
        raise OSError(
            f"injected {'transient' if plan.max_failures_per_op is not None else 'persistent'} "
            f"I/O error (seed {plan.seed}): {op} {key}")

    def _gate(self, op: str, key: str, probability: float) -> Tuple[int, int]:
        """Common per-operation fault gate: outage window, then error roll."""
        op_index, occurrence = self._next_op(op, key)
        if not self._enabled:
            return op_index, occurrence
        self._check_outage(op, key, op_index)
        self._maybe_error(op, key, probability, op_index, occurrence)
        return op_index, occurrence

    # -- writes ---------------------------------------------------------------
    def write_shard(self, tag: str, shard_name: str,
                    chunks: Iterable[Union[bytes, memoryview]]) -> WriteReceipt:
        key = f"{tag}/{shard_name}"
        op_index, occurrence = self._gate("write_shard", key,
                                          self.plan.write_error_prob)
        torn = (self._enabled and self.plan.torn_write_prob > 0.0
                and self.plan.roll("torn_write", key, occurrence)
                < self.plan.torn_write_prob)
        if not torn:
            return self._inner.write_shard(tag, shard_name, chunks)
        # Torn write: consume the caller's full stream (its CRC accounting
        # must see every byte), then land only a prefix — the manifest will
        # record a checksum the stored bytes can never match, which is
        # exactly what restart-time validation exists to catch.
        payload = bytearray()
        for chunk in chunks:
            payload.extend(chunk)
        keep = int(len(payload) * self.plan.torn_write_keep_fraction)
        with self._lock:
            self._record("write_shard", key, "torn_write", op_index,
                         detail=f"kept {keep}/{len(payload)} bytes")
        return self._inner.write_shard(tag, shard_name, [bytes(payload[:keep])])

    def write_manifest(self, tag: str, manifest: Dict) -> object:
        op_index, _occurrence = self._gate("write_manifest", tag,
                                           self.plan.write_error_prob)
        if self._enabled and self.plan.kill_on_manifest is not None:
            with self._lock:
                self._manifest_publishes += 1
                publish = self._manifest_publishes
                if publish == self.plan.kill_on_manifest:
                    self._record("write_manifest", tag, "process_kill", op_index)
                    raise InjectedProcessKill(
                        f"injected process kill before manifest publish "
                        f"#{publish} of {tag!r} (seed {self.plan.seed})")
        return self._inner.write_manifest(tag, manifest)

    # -- reads ----------------------------------------------------------------
    def _maybe_tear_read(self, op: str, key: str, occurrence: int,
                         op_index: int, payload: bytes) -> bytes:
        """Truncate a read payload per the torn-read roll (shard reads only)."""
        plan = self.plan
        if (not self._enabled or plan.torn_read_prob <= 0.0
                or plan.roll("torn_read", key, occurrence) >= plan.torn_read_prob):
            return payload
        keep = int(len(payload) * plan.torn_read_keep_fraction)
        with self._lock:
            self._record(op, key, "torn_read", op_index,
                         detail=f"kept {keep}/{len(payload)} bytes")
        return payload[:keep]

    def read_shard(self, tag: str, shard_name: str, out=None):
        # ``out`` changes where the bytes land, never whether they are gated:
        # a torn in-place read returns the shortened view of ``out``.
        key = f"{tag}/{shard_name}"
        op_index, occurrence = self._gate("read_shard", key,
                                          self.plan.read_error_prob)
        payload = self._inner.read_shard(tag, shard_name, out=out)
        return self._maybe_tear_read("read_shard", key, occurrence, op_index,
                                     payload)

    def _faulty_read_shard_range(self, tag: str, shard_name: str,
                                 offset: int, length: int) -> bytes:
        key = f"{tag}/{shard_name}"
        op_index, occurrence = self._gate("read_shard_range", key,
                                          self.plan.read_error_prob)
        payload = self._inner.read_shard_range(tag, shard_name, offset, length)
        return self._maybe_tear_read("read_shard_range", key, occurrence,
                                     op_index, payload)

    def read_manifest(self, tag: str) -> Dict:
        self._gate("read_manifest", tag, self.plan.read_error_prob)
        return self._inner.read_manifest(tag)

    def shard_size(self, tag: str, shard_name: str) -> int:
        return self._inner.shard_size(tag, shard_name)

    # -- management -----------------------------------------------------------
    def list_checkpoints(self) -> List[str]:
        return self._inner.list_checkpoints()

    def list_committed_checkpoints(self) -> List[str]:
        return self._inner.list_committed_checkpoints()

    def delete_checkpoint(self, tag: str) -> None:
        self._inner.delete_checkpoint(tag)

    def total_bytes(self, tag: str) -> int:
        return self._inner.total_bytes(tag)


class _SuspendedFaults:
    """Re-entrant-enough context manager flipping a store's injection off."""

    def __init__(self, store: FaultyStore) -> None:
        self._store = store

    def __enter__(self) -> FaultyStore:
        self._store._enabled = False
        return self._store

    def __exit__(self, exc_type, exc, tb) -> None:
        self._store._enabled = True
