"""The reference kernel that normalises every timing, and the host ceilings.

The reference kernel is a fixed piece of single-thread work — a 16 MiB
``memcpy`` plus a 4 MiB ``crc32`` — that is bandwidth-bound in one half and
compute-bound in the other, like the checkpoint pipeline itself.  On a shared
host its time drifts by 10-20 % between 20 s windows, and a slow spell can
swallow a whole run.  It is probed before and after every phase of every
segment; a run's timings are divided by the median of its probes (one probe
is 45 ms of a disturbed host and too noisy to scale the phase beside it by —
README, "Host hazards"), which removes the drift between runs.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import statistics
import time
import zlib
from pathlib import Path
from typing import Callable, Dict, List, Sequence

import numpy as np

from .metrics import REF_KERNEL_MS

MiB = 1 << 20
_MEMCPY_BYTES = 16 * MiB
_CRC_BYTES = 4 * MiB


class ReferenceKernel:
    """Times the reference kernel and remembers every probe of the run."""

    def __init__(self, reps: int = 15) -> None:
        self.reps = reps
        self._src = np.full(_MEMCPY_BYTES, 7, dtype=np.uint8)
        self._dst = np.empty_like(self._src)
        self._crc = bytes(self._src[:_CRC_BYTES])
        #: Median ms of every probe taken, in order.
        self.history: List[float] = []
        self.probe()  # warm the buffers; discarded
        self.history.clear()

    def probe(self) -> float:
        """Median wall ms of ``reps`` runs of the kernel."""
        samples = []
        for _ in range(self.reps):
            started = time.perf_counter()
            np.copyto(self._dst, self._src)
            zlib.crc32(self._crc)
            samples.append((time.perf_counter() - started) * 1e3)
        value = statistics.median(samples)
        self.history.append(value)
        return value

    @staticmethod
    def scale(probes: Sequence[float]) -> float:
        """Factor turning raw durations into reference-host time, from the
        probes taken around them: ``REF_KERNEL_MS`` over their median."""
        return REF_KERNEL_MS / statistics.median(probes)

    def summary(self) -> Dict[str, float]:
        median = statistics.median(self.history)
        return {
            "host.ref_kernel_ms_p50": median,
            "host.ref_kernel_spread": (max(self.history) - min(self.history)) / median,
        }


def _best_mbps(nbytes: int, reps: int, run: Callable[[], None]) -> float:
    """Ceilings are the best of ``reps``: the least disturbed run is the
    closest to what the hardware can do."""
    best = float("inf")
    for _ in range(reps):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return nbytes / best / 1e6


def host_ceilings(work_dir: Path, tiny: bool = False) -> Dict[str, float]:
    """Raw single-thread throughput of the primitives the layers are built on.

    These are the denominators of "% of ceiling" (README lists which metric is
    held against which); they are raw MB/s, not normalised.
    """
    size = (2 if tiny else 64) * MiB
    reps = 2 if tiny else 5
    src = np.full(size, 3, dtype=np.uint8)
    dst = np.empty_like(src)
    dst[:] = 0
    hash_view = memoryview(src)[:size // 4]
    out: Dict[str, float] = {}
    out["host.memcpy_MBps"] = _best_mbps(size, reps, lambda: np.copyto(dst, src))
    out["host.crc32_MBps"] = _best_mbps(len(hash_view), reps, lambda: zlib.crc32(hash_view))
    out["host.sha256_MBps"] = _best_mbps(
        len(hash_view), reps, lambda: hashlib.sha256(hash_view).digest())

    def first_touch() -> None:
        # An anonymous map is what glibc hands out above the mmap threshold:
        # every page is faulted in (and zeroed) on its first write.
        region = mmap.mmap(-1, size)
        try:
            np.frombuffer(region, dtype=np.uint8)[:] = 1
        finally:
            region.close()

    out["host.first_touch_MBps"] = _best_mbps(size, reps, first_touch)

    io_bytes = size // 2
    payload = memoryview(src)[:io_bytes]
    path = work_dir / "probe.bin"

    def pwrite(fsync: bool) -> Callable[[], None]:
        def run() -> None:
            fd = os.open(str(path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            try:
                written = 0
                while written < io_bytes:
                    written += os.pwrite(fd, payload[written:], written)
                if fsync:
                    os.fsync(fd)
            finally:
                os.close(fd)
        return run

    try:
        out["host.pwrite_MBps"] = _best_mbps(io_bytes, reps, pwrite(False))
        out["host.pwrite_fsync_MBps"] = _best_mbps(io_bytes, 2 if tiny else 3, pwrite(True))
    finally:
        path.unlink(missing_ok=True)
    return out
