"""State-dict flattening — phase 1 of the checkpoint pipeline (§5.3).

Given an arbitrary nested Python object (dicts, lists, tuples, scalars,
NumPy arrays, :class:`~repro.tensor.tensor.DeviceTensor`,
:class:`~repro.tensor.tensor.StridedSlice`), the engine needs:

1. a flat list of the *large* payloads (tensors/arrays) with their sizes so
   it can plan device-to-host copies and file offsets, and
2. a lightweight skeleton of everything else, so the original object can be
   rebuilt at restart time with the payloads patched back in.

This mirrors the paper's description: "recursively parse the Python object,
and create a list of large arrays and tensors ... by storing their memory
pointers and sizes".

Training loops save a state of the same structure again and again, so a
:class:`FlattenCache` pays for that structure once: each call makes one cheap
walk of the state and, while the structure repeats, only binds the fresh
payloads to the previous call's tensor references and reuses its skeleton
pickle.
"""

from __future__ import annotations

import copyreg
import operator
import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..exceptions import SerializationError
from .tensor import Device, DeviceTensor, StridedSlice

#: Key paths are tuples of dict keys / sequence indices from the root.
KeyPath = Tuple[Any, ...]


@dataclass(frozen=True, init=False)
class TensorRef:
    """A reference to one tensor payload inside a state dict.

    Immutable; equality and hash ignore the payload.  The fields are stored
    straight into the instance dict, not through the ``object.__setattr__``
    call per field of a generated frozen ``__init__``: a save builds one of
    these per tensor.
    """

    path: KeyPath
    shape: Tuple[int, ...]
    dtype: str
    nbytes: int
    device: str
    #: The live payload (device-resident); not serialized into headers.
    payload: Any = field(repr=False, compare=False, default=None)

    def __init__(self, path: KeyPath, shape: Tuple[int, ...], dtype: str, nbytes: int,
                 device: str, payload: Any = None) -> None:
        fields = self.__dict__
        fields["path"] = path
        fields["shape"] = shape
        fields["dtype"] = dtype
        fields["nbytes"] = nbytes
        fields["device"] = device
        fields["payload"] = payload

    def bind(self, payload: Any) -> "TensorRef":
        """The same reference with ``payload`` as its live payload."""
        ref = object.__new__(TensorRef)
        fields = ref.__dict__
        fields.update(self.__dict__)
        fields["payload"] = payload
        return ref

    @property
    def key(self) -> str:
        """Dotted string form of the key path (used for file naming/logging)."""
        return ".".join(str(part) for part in self.path)


class _Placeholder:
    """Marks the position of an extracted tensor inside the skeleton."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    def __reduce_ex__(self, protocol: int):
        # What the default pickling of a slotted object builds, without its
        # generic slot-name lookup: one skeleton pickles one per tensor.
        return copyreg.__newobj__, (_Placeholder,), (None, {"index": self.index})

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<tensor #{self.index}>"


@dataclass
class FlattenedState:
    """Result of :func:`flatten_state_dict` and :meth:`FlattenCache.flatten`."""

    tensors: List[TensorRef]
    skeleton: Any
    #: Set by :meth:`FlattenCache.flatten`: the same object for every state
    #: of one structure, so it can key what depends only on the structure.
    structure: Optional["_Structure"] = field(default=None, repr=False)
    _pickled: Optional[bytes] = field(default=None, repr=False)

    @property
    def total_tensor_bytes(self) -> int:
        """Total payload bytes across all tensors."""
        return sum(ref.nbytes for ref in self.tensors)

    def skeleton_bytes(self) -> bytes:
        """Pickle the skeleton (tensors replaced by placeholders), once."""
        if self._pickled is None:
            try:
                self._pickled = pickle.dumps(self.skeleton, protocol=pickle.HIGHEST_PROTOCOL)
            except Exception as exc:  # pragma: no cover - defensive
                raise SerializationError(f"cannot pickle state skeleton: {exc}") from exc
        return self._pickled


#: What counts as a tensor leaf, for ``_flatten`` and ``_walk`` alike.  A
#: strided slice is saved as the 1-D array it stands for.
_TENSOR_TYPES = (np.ndarray, DeviceTensor, StridedSlice)


def _sequence_like(value: Any, items: List[Any]) -> Any:
    """``items`` in a sequence of ``value``'s kind: any list becomes a list,
    a tuple keeps its type (a namedtuple takes its fields positionally)."""
    if isinstance(value, list):
        return items
    cls = type(value)
    return cls(*items) if hasattr(cls, "_fields") else cls(items)


_CPU = str(Device.cpu())


# Module-level on purpose: an inner function that calls itself forms a
# function<->cell cycle that owns whatever else it closes over — here the
# tensor list, i.e. every payload of the state just saved — until the cyclic
# GC happens to run.
def _flatten(value: Any, path: KeyPath, tensors: List[TensorRef],
             dtype_names: Dict[np.dtype, str]) -> Any:
    if isinstance(value, _TENSOR_TYPES):
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
        return _sequence_like(value, [_flatten(item, path + (idx,), tensors, dtype_names)
                                      for idx, item in enumerate(value)])
    return value


def flatten_state_dict(state: Any) -> FlattenedState:
    """Flatten ``state`` into tensor references plus a picklable skeleton."""
    tensors: List[TensorRef] = []
    # ``str(dtype)`` is NumPy's slowest per-tensor call here and a state has a
    # handful of distinct dtypes.
    dtype_names: Dict[np.dtype, str] = {}
    skeleton = _flatten(state, (), tensors, dtype_names)
    return FlattenedState(tensors=tensors, skeleton=skeleton)


#: Immutable types whose instances can be reused in a skeleton pickle.  Not
#: ``float`` (``-0.0 == 0.0`` and NaN != NaN: equality is no test of equal
#: bytes, so a float leaf is re-pickled on every save), nothing that compares
#: by identity or changes in place.
_EXACT_TYPES = frozenset({int, bool, str, bytes, type(None)})


# Module-level for the reason given at ``_flatten``.
def _walk(value: Any, signature: List[Any], payloads: List[Any],
          keys_and_leaves: List[Any]) -> None:
    """``_flatten``'s traversal, building no skeleton and no reference.

    ``payloads`` gets the tensors in flatten order, ``keys_and_leaves`` every
    dict key and non-tensor leaf, and ``signature`` one token per node, in
    post-order: ``(shape, dtype[, device])`` per tensor, ``(type, keys, key
    types)`` per dict, ``(type, length)`` per list or tuple, ``None`` per other
    leaf.  Two states of equal signatures flatten to equal references and
    header keys.  A dict with a key outside ``_EXACT_TYPES`` (whose ``str``
    may differ between equal keys, ``-0.0`` and ``0.0``) appends a token
    equal to nothing.
    """
    if isinstance(value, _TENSOR_TYPES):
        payloads.append(value)
        if isinstance(value, DeviceTensor):
            array = value.array
            signature.append((array.shape, array.dtype, str(value.device)))
        else:
            signature.append((value.shape, value.dtype))
    elif isinstance(value, dict):
        keys = []
        for key, item in value.items():
            keys.append(key)
            if type(item) is np.ndarray:  # the first branch, inlined for the usual leaf
                payloads.append(item)
                signature.append((item.shape, item.dtype))
            else:
                _walk(item, signature, payloads, keys_and_leaves)
        keys_and_leaves += keys
        types = tuple(map(type, keys))
        signature.append((type(value), tuple(keys), types)
                         if _EXACT_TYPES.issuperset(types) else object())
    elif isinstance(value, (list, tuple)):
        for item in value:
            _walk(item, signature, payloads, keys_and_leaves)
        signature.append((type(value), len(value)))
    else:
        keys_and_leaves.append(value)
        signature.append(None)


class _Structure:
    """What :class:`FlattenCache` keeps of one structure: its signature, its
    tensor references without payloads, and ``(keys and leaves, skeleton,
    pickle)`` of the last state flattened while every key and leaf was of an
    exact type (else ``None``)."""

    __slots__ = ("signature", "templates", "skeleton")

    def __init__(self, signature: List[Any], templates: List[TensorRef]) -> None:
        self.signature = signature
        self.templates = templates
        self.skeleton: Optional[Tuple[List[Any], Any, bytes]] = None


class FlattenCache:
    """:func:`flatten_state_dict` for states whose structure repeats.

    One entry.  Each call walks the state once (``_walk``).  A new structure
    is flattened in full and remembered.  The same structure (equal
    signatures) binds the fresh payloads to the remembered references, and
    reuses the skeleton and its pickle when every key and non-tensor leaf is
    the very object it was and of an exact type — so a fresh pickle, memo
    references included, would be the same bytes.  Otherwise (a changed
    counter, a float, a mutable leaf) the state is flattened again for its
    skeleton; its :attr:`~FlattenedState.structure` is still the remembered
    one.  Nothing kept refers to a payload or to a mutable leaf.
    """

    def __init__(self) -> None:
        self._last: Optional[_Structure] = None

    def flatten(self, state: Any) -> FlattenedState:
        signature: List[Any] = []
        payloads: List[Any] = []
        keys_and_leaves: List[Any] = []
        _walk(state, signature, payloads, keys_and_leaves)
        last = self._last
        if last is None or last.signature != signature:
            flattened = flatten_state_dict(state)
            last = self._last = _Structure(
                signature, [ref.bind(None) for ref in flattened.tensors])
        else:
            kept = last.skeleton
            if kept is not None and all(map(operator.is_, keys_and_leaves, kept[0])):
                return FlattenedState(
                    [ref.bind(payload) for ref, payload in zip(last.templates, payloads)],
                    kept[1], structure=last, _pickled=kept[2])
            flattened = flatten_state_dict(state)
        flattened.structure = last
        last.skeleton = ((keys_and_leaves, flattened.skeleton, flattened.skeleton_bytes())
                         if _EXACT_TYPES.issuperset(map(type, keys_and_leaves)) else None)
        return flattened


def unflatten_state_dict(skeleton: Any, arrays: Sequence[np.ndarray]) -> Any:
    """Rebuild the original nested object from a skeleton and tensor payloads."""

    # ``visit`` closes over itself, so ``arrays`` outlives the result until the
    # cyclic GC runs (see ``_flatten``).  Left as is on purpose: freeing a
    # many-small-tensor state at once makes glibc trim the heap top, and the
    # next restore pays the page faults again (ROADMAP item 3).
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
        if isinstance(value, (list, tuple)):
            return _sequence_like(value, [visit(item) for item in value])
        return value

    return visit(skeleton)


def tensor_payload_array(ref: TensorRef) -> Union[np.ndarray, StridedSlice]:
    """Return the NumPy array (or the strided slice) behind a :class:`TensorRef`;
    :func:`repro.serialization.tensor_bytes` turns either into bytes."""
    payload = ref.payload
    if isinstance(payload, DeviceTensor):
        return payload.array
    if isinstance(payload, (np.ndarray, StridedSlice)):
        return payload
    raise SerializationError(f"tensor reference {ref.key!r} has no live payload")
