"""Seeded, transformer-shaped model states and their deterministic mutation.

Shapes depend only on the workload (never on the seed), so every seed does
the same work; the seed decides the bytes.  A third of the tensors hold
~94 % of the bytes (weight matrices vs. biases / norms), the iteration
counter is a 1-element array — a changing Python scalar would live in the
pickled skeleton that every shard part embeds and make every part dirty —
and the mutation of iteration ``i`` writes a value that is a pure function of
``(seed, i, tensor)`` into one element per 4 KiB of every *hot* tensor.  The
state a retained tag must restore to is therefore the live state with that
function applied for the tag's iteration (:meth:`BenchState.at`); nothing but
the strided elements ever changes.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

MiB = 1 << 20
#: One mutated element per this many elements (4 KiB of float32): every page,
#: and so every content chunk, of a hot tensor changes on every iteration.
MUTATION_STRIDE = 1024
_BIG_SHARE = 0.94
_BIG_NAMES = ("attn.qkv.weight", "mlp.fc.weight")
_SMALL_NAMES = ("attn.qkv.bias", "mlp.fc.bias", "ln1.weight", "ln2.weight")


def _mutation_value(seed: int, iteration: int, index: int) -> np.float32:
    return np.float32((((seed * 31 + iteration) * 131 + index) % 65521) / 256.0)


def _tensor_sizes(total_bytes: int, n_big: int, n_small: int) -> Tuple[int, int]:
    """Element counts of one big and one small float32 tensor."""
    big = max(64, int(total_bytes * _BIG_SHARE) // 4 // n_big // 64 * 64)
    small = max(16, (total_bytes // 4 - big * n_big) // max(n_small, 1) // 16 * 16)
    return big, small


@dataclass
class BenchState:
    """A model state plus what the benchmark needs to mutate and verify it."""

    seed: int
    #: The object handed to ``save()`` / ``save_elastic_checkpoint``.
    tree: Any
    #: The 1-element iteration counter inside ``tree``.
    counter: np.ndarray
    #: Flat views of the tensors :meth:`mutate` writes, in a fixed order.
    hot: List[np.ndarray] = field(default_factory=list)
    #: TP partition axes (elastic states only).
    axes: Optional[Dict[str, Optional[int]]] = None

    @property
    def nbytes(self) -> int:
        return sum(array.nbytes for array in iter_arrays(self.tree))

    def mutate(self, iteration: int) -> None:
        """The in-place "optimizer step" of iteration ``iteration``."""
        _apply(self.seed, iteration, self.hot, self.counter)

    def at(self, iteration: int) -> Any:
        """A deep copy of the tree as it was saved at ``iteration``."""
        memo: Dict[int, Any] = {}
        tree = copy.deepcopy(self.tree, memo)
        hot = [memo[id(_base(flat))].reshape(-1) for flat in self.hot]
        _apply(self.seed, iteration, hot, memo[id(self.counter)])
        return tree

    def restrict_hot(self, keep: Sequence[np.ndarray]) -> None:
        """Freeze every hot tensor that is not one of ``keep`` (by identity)."""
        wanted = {id(array) for array in keep}
        self.hot = [flat for flat in self.hot if id(_base(flat)) in wanted]


def _base(flat: np.ndarray) -> np.ndarray:
    return flat.base if flat.base is not None else flat


def _apply(seed: int, iteration: int, hot: Sequence[np.ndarray],
           counter: np.ndarray) -> None:
    for index, flat in enumerate(hot):
        flat[::MUTATION_STRIDE] = _mutation_value(seed, iteration, index)
    counter[0] = iteration


def transformer_state(seed: int, total_mib: float, tensors: int,
                      n_big: Optional[int] = None) -> BenchState:
    """``tensors`` arrays of ``total_mib`` MiB: ``n_big`` weight matrices
    (default a third), one counter, the rest biases and norm weights."""
    n_big = tensors // 3 if n_big is None else n_big
    n_small = tensors - n_big - 1
    big, small = _tensor_sizes(int(total_mib * MiB), n_big, n_small)
    rng = np.random.default_rng(seed)
    counter = np.zeros(1, dtype=np.int64)
    model: Dict[str, np.ndarray] = {}
    width = 64
    made_big = made_small = layer = 0
    while made_big < n_big or made_small < n_small:
        for name in _BIG_NAMES:
            if made_big < n_big:
                model[f"layers.{layer:03d}.{name}"] = rng.random(
                    (big // width, width), dtype=np.float32)
                made_big += 1
        for name in _SMALL_NAMES:
            if made_small < n_small:
                model[f"layers.{layer:03d}.{name}"] = rng.random(small, dtype=np.float32)
                made_small += 1
        layer += 1
    tree = {"iteration": counter, "model": model}
    hot = [array.reshape(-1) for array in model.values()]
    return BenchState(seed=seed, tree=tree, counter=counter, hot=hot)


def elastic_state(seed: int, total_mib: float, model_tensors: int) -> BenchState:
    """A full (unsharded) elastic state: 2-D model tensors with Megatron TP
    axes plus two Adam moments each — a third of the bytes are weights."""
    n_big = model_tensors // 3
    n_small = model_tensors - n_big
    big, small = _tensor_sizes(int(total_mib * MiB) // 3, n_big, n_small)
    rng = np.random.default_rng(seed)
    counter = np.zeros(1, dtype=np.int64)
    model: Dict[str, np.ndarray] = {}
    axes: Dict[str, Optional[int]] = {}
    width = 64
    for index in range(n_big):
        key = f"layers.{index:03d}.weight"
        # Column-parallel and row-parallel layers alternate, as in a
        # Megatron block (qkv/fc1 split rows, proj/fc2 split columns).
        axis = index % 2
        shape = (big // width, width) if axis == 0 else (width, big // width)
        model[key] = rng.random(shape, dtype=np.float32)
        axes[key] = axis
    for index in range(n_small):
        key = f"layers.{index:03d}.norm"
        model[key] = rng.random((1, small), dtype=np.float32)
        axes[key] = None
    zero = {key: {"exp_avg": rng.random(array.shape, dtype=np.float32),
                  "exp_avg_sq": rng.random(array.shape, dtype=np.float32)}
            for key, array in model.items()}
    tree = {"model": model, "zero": zero, "extra": {"step": counter, "seed": seed}}
    hot = [array.reshape(-1) for array in model.values()]
    hot += [buf.reshape(-1) for bufs in zero.values() for buf in bufs.values()]
    return BenchState(seed=seed, tree=tree, counter=counter, hot=hot, axes=axes)


# -- verification ------------------------------------------------------------------
def iter_arrays(tree: Any):
    if isinstance(tree, np.ndarray):
        yield tree
    elif isinstance(tree, dict):
        for value in tree.values():
            yield from iter_arrays(value)
    elif isinstance(tree, (list, tuple)):
        for value in tree:
            yield from iter_arrays(value)


def first_difference(restored: Any, expected: Any, path: str = "") -> Optional[str]:
    """Where two state trees differ (``None`` when bit-identical)."""
    if isinstance(expected, np.ndarray):
        if not isinstance(restored, np.ndarray):
            return f"{path}: restored a {type(restored).__name__}, expected an array"
        if restored.dtype != expected.dtype or restored.shape != expected.shape:
            return (f"{path}: restored {restored.dtype}{restored.shape}, "
                    f"expected {expected.dtype}{expected.shape}")
        same = np.array_equal(np.ascontiguousarray(restored).view(np.uint8),
                              np.ascontiguousarray(expected).view(np.uint8))
        return None if same else f"{path}: payload bytes differ"
    if isinstance(expected, dict):
        if not isinstance(restored, dict) or set(restored) != set(expected):
            return f"{path}: keys differ"
        for key, value in expected.items():
            found = first_difference(restored[key], value, f"{path}/{key}")
            if found:
                return found
        return None
    if isinstance(expected, (list, tuple)):
        if not isinstance(restored, type(expected)) or len(restored) != len(expected):
            return f"{path}: sequence differs"
        for index, value in enumerate(expected):
            found = first_difference(restored[index], value, f"{path}/{index}")
            if found:
                return found
        return None
    return None if restored == expected else f"{path}: {restored!r} != {expected!r}"
