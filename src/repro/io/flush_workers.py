"""Background flush worker pool for the real-mode engine.

Host-to-storage flushes run on dedicated threads, mirroring the original
engine's dedicated flush threads in C++.  A flush touches only the pinned
staging buffer and the file system, never the training thread's data
structures — but these are Python threads: NumPy copies, ``zlib.crc32`` and
file I/O release the GIL, the interpreter work between them does not, and it
is taken from the computation the flush is meant to hide behind.  dsbench
measures that as ``core.engine.interference_frac`` (0.13-0.40 of an
iteration's compute while every tensor cost its own task; see the README's
"Zero-copy I/O fast path"), which is why the pipeline hands this pool one
task per shard and moves extents, not tensors, inside it.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from typing import Callable, List, Optional

from ..exceptions import CheckpointError
from ..logging_utils import get_logger

logger = get_logger(__name__)


@dataclass
class FlushTask:
    """One unit of flush work."""

    run: Callable[[], None]
    on_done: Optional[Callable[[Optional[BaseException]], None]] = None
    description: str = ""


class FlushWorkerPool:
    """A fixed pool of worker threads draining a FIFO queue of flush tasks."""

    def __init__(self, num_workers: int = 1, name: str = "flush") -> None:
        if num_workers <= 0:
            raise CheckpointError("flush worker pool needs at least one worker")
        self.name = name
        self._queue: "queue.Queue[Optional[FlushTask]]" = queue.Queue()
        self._workers: List[threading.Thread] = []
        self._errors: List[BaseException] = []
        self._errors_lock = threading.Lock()
        self._closed = False
        for index in range(num_workers):
            worker = threading.Thread(
                target=self._worker_loop, name=f"{name}-worker-{index}", daemon=True
            )
            worker.start()
            self._workers.append(worker)

    # -- submission ---------------------------------------------------------
    def submit(self, task: FlushTask) -> None:
        """Queue a flush task for background execution."""
        if self._closed:
            raise CheckpointError("flush worker pool is shut down")
        self._queue.put(task)

    @property
    def pending(self) -> int:
        """Approximate number of queued-but-not-started tasks."""
        return self._queue.qsize()

    @property
    def num_workers(self) -> int:
        """Size of the worker pool (e.g. the degree of pwrite parallelism)."""
        return len(self._workers)

    @property
    def unfinished(self) -> int:
        """Tasks submitted but not yet completed (queued + in flight)."""
        return self._queue.unfinished_tasks

    # -- synchronisation ---------------------------------------------------------
    def drain(self) -> None:
        """Block until every submitted task has completed."""
        self._queue.join()
        self.raise_pending_errors()

    def raise_pending_errors(self) -> None:
        """Re-raise the first background failure, if any."""
        with self._errors_lock:
            if self._errors:
                error = self._errors[0]
                self._errors.clear()
                raise CheckpointError(f"background flush failed: {error}") from error

    def shutdown(self, wait: bool = True) -> None:
        """Stop the workers; optionally wait for queued work to finish first."""
        if self._closed:
            return
        if wait:
            self._queue.join()
        self._closed = True
        for _ in self._workers:
            self._queue.put(None)
        for worker in self._workers:
            worker.join(timeout=10.0)

    # -- worker loop ----------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            task = self._queue.get()
            if task is None:
                self._queue.task_done()
                return
            error: Optional[BaseException] = None
            try:
                task.run()
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                error = exc
                with self._errors_lock:
                    self._errors.append(exc)
                logger.error("flush task %s failed: %s", task.description, exc)
            finally:
                try:
                    if task.on_done is not None:
                        task.on_done(error)
                finally:
                    self._queue.task_done()
