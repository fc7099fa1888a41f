"""State-dict flattening — phase 1 of the checkpoint pipeline (§5.3).

Given an arbitrary nested Python object (dicts, lists, tuples, scalars,
NumPy arrays, :class:`~repro.tensor.tensor.DeviceTensor`), the engine needs:

1. a flat list of the *large* payloads (tensors/arrays) with their sizes so
   it can plan device-to-host copies and file offsets, and
2. a lightweight skeleton of everything else, so the original object can be
   rebuilt at restart time with the payloads patched back in.

This mirrors the paper's description: "recursively parse the Python object,
and create a list of large arrays and tensors ... by storing their memory
pointers and sizes".
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from ..exceptions import SerializationError
from .tensor import Device, DeviceTensor

#: Key paths are tuples of dict keys / sequence indices from the root.
KeyPath = Tuple[Any, ...]


@dataclass(frozen=True)
class TensorRef:
    """A reference to one tensor payload inside a state dict."""

    path: KeyPath
    shape: Tuple[int, ...]
    dtype: str
    nbytes: int
    device: str
    #: The live payload (device-resident); not serialized into headers.
    payload: Any = field(repr=False, compare=False, default=None)

    @property
    def key(self) -> str:
        """Dotted string form of the key path (used for file naming/logging)."""
        return ".".join(str(part) for part in self.path)


class _Placeholder:
    """Marks the position of an extracted tensor inside the skeleton."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<tensor #{self.index}>"


@dataclass
class FlattenedState:
    """Result of :func:`flatten_state_dict`."""

    tensors: List[TensorRef]
    skeleton: Any

    @property
    def total_tensor_bytes(self) -> int:
        """Total payload bytes across all tensors."""
        return sum(ref.nbytes for ref in self.tensors)

    def skeleton_bytes(self) -> bytes:
        """Pickle the skeleton (tensors replaced by placeholders)."""
        try:
            return pickle.dumps(self.skeleton, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # pragma: no cover - defensive
            raise SerializationError(f"cannot pickle state skeleton: {exc}") from exc


def _is_tensor_leaf(value: Any) -> bool:
    return isinstance(value, (np.ndarray, DeviceTensor))


_CPU = str(Device.cpu())


# Module-level on purpose: an inner function that calls itself forms a
# function<->cell cycle that owns whatever else it closes over — here the
# tensor list, i.e. every payload of the state just saved — until the cyclic
# GC happens to run.
def _flatten(value: Any, path: KeyPath, tensors: List[TensorRef],
             dtype_names: Dict[np.dtype, str]) -> Any:
    if _is_tensor_leaf(value):
        index = len(tensors)
        if isinstance(value, DeviceTensor):
            array = value.array
            device = str(value.device)
        else:
            array = value
            device = _CPU
        dtype = dtype_names.get(array.dtype)
        if dtype is None:
            dtype = dtype_names[array.dtype] = str(array.dtype)
        ref = TensorRef(
            path=path,
            shape=tuple(array.shape),
            dtype=dtype,
            nbytes=int(array.nbytes),
            device=device,
            payload=value,
        )
        tensors.append(ref)
        return _Placeholder(index)
    if isinstance(value, dict):
        return {key: _flatten(item, path + (key,), tensors, dtype_names)
                for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        items = [_flatten(item, path + (idx,), tensors, dtype_names)
                 for idx, item in enumerate(value)]
        return type(value)(items) if isinstance(value, tuple) else items
    return value


def flatten_state_dict(state: Any) -> FlattenedState:
    """Flatten ``state`` into tensor references plus a picklable skeleton."""
    tensors: List[TensorRef] = []
    # ``str(dtype)`` is NumPy's slowest per-tensor call here and a state has a
    # handful of distinct dtypes.
    dtype_names: Dict[np.dtype, str] = {}
    skeleton = _flatten(state, (), tensors, dtype_names)
    return FlattenedState(tensors=tensors, skeleton=skeleton)


def unflatten_state_dict(skeleton: Any, arrays: Sequence[np.ndarray]) -> Any:
    """Rebuild the original nested object from a skeleton and tensor payloads."""

    # ``visit`` closes over itself, so ``arrays`` outlives the result until the
    # cyclic GC runs (see ``_flatten``).  Left as is on purpose: freeing a
    # many-small-tensor state at once makes glibc trim the heap top, and the
    # next restore pays the page faults again (ROADMAP item 5).
    def visit(value: Any) -> Any:
        if isinstance(value, _Placeholder):
            if value.index >= len(arrays):
                raise SerializationError(
                    f"skeleton references tensor #{value.index} but only "
                    f"{len(arrays)} payloads were provided"
                )
            return arrays[value.index]
        if isinstance(value, dict):
            return {key: visit(item) for key, item in value.items()}
        if isinstance(value, list):
            return [visit(item) for item in value]
        if isinstance(value, tuple):
            return tuple(visit(item) for item in value)
        return value

    return visit(skeleton)


def state_dict_nbytes(state: Any) -> int:
    """Total tensor payload bytes of a nested state dict."""
    return flatten_state_dict(state).total_tensor_bytes


def tensor_payload_array(ref: TensorRef) -> np.ndarray:
    """Return the NumPy array behind a :class:`TensorRef`."""
    payload = ref.payload
    if isinstance(payload, DeviceTensor):
        return payload.array
    if isinstance(payload, np.ndarray):
        return payload
    raise SerializationError(f"tensor reference {ref.key!r} has no live payload")
