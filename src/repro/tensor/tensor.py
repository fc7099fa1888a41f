"""Device-tagged tensors and a simulated GPU memory arena.

The original system operates on CUDA tensors living in GPU HBM and copies
them to pinned host memory with the GPU copy engine.  This environment has
no GPU, so ``DeviceTensor`` wraps a NumPy array together with a *device tag*
and the :class:`DeviceArena` accounts for device memory capacity the way a
CUDA allocator would.  The checkpoint engines only rely on the operations
exposed here: querying size/dtype, reading bytes, and copying a tensor's
payload into a host buffer slice — which keeps the engine code identical in
spirit to the C++/CUDA implementation described in §5.3 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from ..exceptions import CapacityError, TransferError


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

    @property
    def is_gpu(self) -> bool:
        """True for simulated GPU devices."""
        return self.kind == "gpu"


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
    def tobytes(self) -> bytes:
        """Serialize the payload to bytes (C order)."""
        return np.ascontiguousarray(self._array).tobytes()

    def copy_into(self, destination: memoryview) -> int:
        """Copy the payload into ``destination`` and return the bytes written.

        ``destination`` must be at least ``self.nbytes`` long.  This is the
        moral equivalent of a ``cudaMemcpyAsync`` into a pinned staging
        buffer.
        """
        payload = np.ascontiguousarray(self._array)
        raw = payload.view(np.uint8).reshape(-1)
        if len(destination) < raw.nbytes:
            raise TransferError(
                f"destination buffer too small: {len(destination)} < {raw.nbytes}"
            )
        target = np.frombuffer(destination, dtype=np.uint8, count=raw.nbytes)
        np.copyto(target, raw)
        return int(raw.nbytes)

    def to_host(self) -> "DeviceTensor":
        """Return a host-resident copy of this tensor."""
        return DeviceTensor(self._array.copy(), Device.cpu(), self.name)

    def clone(self) -> "DeviceTensor":
        """Deep copy on the same device."""
        return DeviceTensor(self._array.copy(), self.device, self.name)

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


class DeviceArena:
    """Capacity accounting for a simulated GPU.

    The paper's gap analysis (§1, §3.4) hinges on the fact that GPU memory is
    too scarce to hold a checkpoint copy, which is why the fastest staging
    tier is pinned *host* memory.  The arena enforces that constraint so the
    engines cannot cheat by staging on-device.
    """

    def __init__(self, device: Device, capacity: int) -> None:
        if capacity <= 0:
            raise CapacityError("device capacity must be positive")
        self.device = device
        self.capacity = int(capacity)
        self._allocated = 0
        self._tensors: Dict[str, DeviceTensor] = {}

    @property
    def allocated(self) -> int:
        """Bytes currently allocated on the device."""
        return self._allocated

    @property
    def available(self) -> int:
        """Bytes still available on the device."""
        return self.capacity - self._allocated

    def allocate(self, name: str, shape: Tuple[int, ...], dtype: np.dtype | str = np.float32,
                 fill: Optional[float] = None) -> DeviceTensor:
        """Allocate a named tensor on the device."""
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if nbytes > self.available:
            raise CapacityError(
                f"device {self.device} out of memory: need {nbytes}, have {self.available}"
            )
        if name in self._tensors:
            raise CapacityError(f"tensor {name!r} already allocated on {self.device}")
        if fill is None:
            array = np.empty(shape, dtype=dtype)
        else:
            array = np.full(shape, fill, dtype=dtype)
        tensor = DeviceTensor(array, self.device, name)
        self._tensors[name] = tensor
        self._allocated += nbytes
        return tensor

    def adopt(self, tensor: DeviceTensor) -> DeviceTensor:
        """Register an existing tensor with the arena (accounting only)."""
        if tensor.nbytes > self.available:
            raise CapacityError(
                f"device {self.device} out of memory adopting {tensor.name!r}"
            )
        name = tensor.name or f"tensor-{len(self._tensors)}"
        if name in self._tensors:
            raise CapacityError(f"tensor {name!r} already allocated on {self.device}")
        self._tensors[name] = tensor
        self._allocated += tensor.nbytes
        return tensor

    def free(self, name: str) -> None:
        """Release a named tensor."""
        tensor = self._tensors.pop(name, None)
        if tensor is None:
            raise CapacityError(f"tensor {name!r} is not allocated on {self.device}")
        self._allocated -= tensor.nbytes

    def get(self, name: str) -> DeviceTensor:
        """Look up a named tensor."""
        return self._tensors[name]

    def tensors(self) -> Iterable[DeviceTensor]:
        """Iterate over all tensors resident in the arena."""
        return list(self._tensors.values())
