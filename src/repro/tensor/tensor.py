"""Device-tagged tensors.

The original system operates on CUDA tensors living in GPU HBM and copies
them to pinned host memory with the GPU copy engine.  This environment has
no GPU, so ``DeviceTensor`` wraps a NumPy array together with a *device tag*.
The checkpoint engines only rely on the operations exposed here: querying
size/dtype and reading the payload array — which keeps the engine code
identical in spirit to the C++/CUDA implementation described in §5.3 of the
paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

import numpy as np


@dataclass(frozen=True)
class Device:
    """A compute device identified by kind and index (e.g. ``gpu:2``)."""

    kind: str
    index: int = 0

    def __str__(self) -> str:
        return f"{self.kind}:{self.index}"

    @staticmethod
    def cpu() -> "Device":
        """The host CPU device."""
        return Device("cpu", 0)

    @staticmethod
    def gpu(index: int = 0) -> "Device":
        """A (simulated) GPU device."""
        return Device("gpu", index)


class DeviceTensor:
    """A tensor bound to a device.

    The payload is always a NumPy array; the device tag determines which
    transfer path a checkpoint engine must use (device-to-host copy vs a
    plain host-side memcpy).
    """

    __slots__ = ("_array", "device", "name")

    def __init__(self, array: np.ndarray, device: Device, name: str = "") -> None:
        if not isinstance(array, np.ndarray):
            raise TypeError("DeviceTensor requires a numpy array payload")
        self._array = array
        self.device = device
        self.name = name

    # -- shape / size ------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        """Tensor shape."""
        return self._array.shape

    @property
    def dtype(self) -> np.dtype:
        """Element dtype."""
        return self._array.dtype

    @property
    def nbytes(self) -> int:
        """Payload size in bytes."""
        return int(self._array.nbytes)

    @property
    def array(self) -> np.ndarray:
        """The underlying NumPy array (device-resident in the simulation)."""
        return self._array

    # -- data movement -------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DeviceTensor(name={self.name!r}, shape={self.shape}, dtype={self.dtype}, device={self.device})"


class StridedSlice:
    """A 1-D slice of an array that is not one contiguous run of it, uncopied.

    An elastic rank's slice of a tensor split along a later axis (a Megatron
    row-parallel weight at ``tp > 1``) keeps a band of columns of every row;
    its ZeRO-1 range of that band tiles into at most three row-major blocks —
    partial head row, whole rows, partial tail row.  ``windows`` are those
    blocks as 2-D views of the caller's array, each row a contiguous run, and
    the slice is their rows in order.  A checkpoint engine saves the leaf as
    an array of ``shape`` ``(numel,)`` and ``dtype``;
    :func:`repro.serialization.tensor_bytes` copies the windows once, into
    the buffer the bytes are written from.
    """

    __slots__ = ("windows", "shape", "dtype")

    def __init__(self, windows: Iterable[np.ndarray]) -> None:
        self.windows = tuple(windows)
        self.dtype = self.windows[0].dtype
        self.shape = (sum(window.size for window in self.windows),)

    @property
    def nbytes(self) -> int:
        """Payload size in bytes."""
        return self.shape[0] * self.dtype.itemsize

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"StridedSlice(shape={self.shape}, dtype={self.dtype}, windows={len(self.windows)})"
