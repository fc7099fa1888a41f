"""What a save lays down does not depend on what the engine remembers.

Every ``save()`` walks the state once and, while the structure repeats, only
binds the fresh payloads to the tensor references, part headers and skeleton
pickle it kept from an earlier save.  The property below runs random states
through random in-place mutation sequences and holds the cached path to the
uncached one byte for byte: every shard file is ``serialize_part`` of a fresh
``plan_shards(flatten_state_dict(state))``, and every file of the checkpoint,
manifest included, equals what an engine that flattens, pickles and plans from
scratch on every save writes.
"""

import collections
import pickle
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, note, settings
from hypothesis import strategies as st

from repro.config import CheckpointPolicy
from repro.core import DataStatesCheckpointEngine
from repro.io import FileStore
from repro.serialization import plan_shards, serialize_part
from repro.tensor import Device, DeviceTensor, flatten_state_dict
from repro.tensor.state_dict import _Placeholder


class _SubDict(dict):
    """A dict subclass container (flattened as a plain dict)."""


_Pair = collections.namedtuple("_Pair", "first second")


class _Box:
    """A mutable, picklable non-tensor leaf: equal only to itself."""

    def __init__(self, value):
        self.value = value


class _Uncached(DataStatesCheckpointEngine):
    """Flattens, pickles and plans every save from scratch."""

    def _plan(self, state, base_name):
        return self.plan_shards(flatten_state_dict(state), base_name)


# ---------------------------------------------------------------------------
# States and mutations
# ---------------------------------------------------------------------------

#: Pairs of same-itemsize dtypes, so ``a.dtype =`` works in place.
_DTYPES = ["float32", "int32", "float64", "int64", "int16", "uint16", "uint8", "int8"]
_SAME_SIZE = {"float32": "int32", "int32": "float32", "float64": "int64",
              "int64": "float64", "int16": "uint16", "uint16": "int16",
              "uint8": "int8", "int8": "uint8"}

_keys = st.one_of(st.sampled_from(["a", "b", "w", "bias"]), st.integers(0, 3), st.booleans())
_scalars = st.one_of(
    st.integers(-3, 300), st.booleans(), st.none(),
    st.sampled_from([0.0, -0.0, float("nan"), 1.5]),
    st.text(alphabet="xyz", max_size=3))


@st.composite
def _arrays(draw):
    shape = draw(st.lists(st.integers(0, 3), max_size=2))
    dtype = draw(st.sampled_from(_DTYPES))
    array = np.arange(int(np.prod(shape)), dtype=dtype).reshape(shape)
    if draw(st.booleans()):
        return DeviceTensor(array, Device.gpu(draw(st.integers(0, 1))))
    return array


_leaves = st.one_of(_arrays(), _arrays(), _scalars, st.builds(_Box, st.integers(0, 9)))


def _containers(children):
    return st.one_of(
        st.dictionaries(_keys, children, max_size=4),
        st.dictionaries(_keys, children, max_size=3).map(_SubDict),
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.builds(_Pair, children, children))


_states = st.dictionaries(_keys, st.recursive(_leaves, _containers, max_leaves=12),
                          min_size=1, max_size=4)


def _nodes(value):
    """Every node of the state, pre-order."""
    yield value
    if isinstance(value, dict):
        for item in value.values():
            yield from _nodes(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _nodes(item)


def _slots(state):
    """``(container, key)`` of every replaceable position (dicts and lists)."""
    slots = []
    for node in _nodes(state):
        if isinstance(node, dict):
            slots += [(node, key) for key in node]
        elif isinstance(node, list):
            slots += [(node, index) for index in range(len(node))]
    return slots


def _arrays_in(state):
    return [node.array if isinstance(node, DeviceTensor) else node
            for node in _nodes(state) if isinstance(node, (np.ndarray, DeviceTensor))]


def _mutate(state, data):
    """One random mutation of ``state`` in place; the name of what it did."""
    kind = data.draw(st.sampled_from([
        "write", "shape", "dtype", "replace-array", "add-key", "remove-key",
        "rename-key", "bool-key", "scalar", "equal-scalar", "swap", "regroup",
        "mutable-leaf"]))
    arrays = _arrays_in(state)
    dicts = [node for node in _nodes(state) if isinstance(node, dict)]
    slots = _slots(state)
    if kind == "write" and arrays:
        target = data.draw(st.sampled_from(arrays))
        target[...] = data.draw(st.integers(0, 100))
    elif kind == "shape" and arrays:
        target = data.draw(st.sampled_from(arrays))
        target.shape = (target.size,) if target.ndim != 1 else (1, target.size)
    elif kind == "dtype" and arrays:
        target = data.draw(st.sampled_from(arrays))
        target.dtype = _SAME_SIZE[str(target.dtype)]
    elif kind == "replace-array" and slots:
        container, key = data.draw(st.sampled_from(slots))
        container[key] = data.draw(_arrays())
    elif kind == "add-key":
        data.draw(st.sampled_from(dicts))[data.draw(_keys)] = data.draw(_leaves)
    elif kind in ("remove-key", "rename-key") and any(dicts):
        target = data.draw(st.sampled_from([node for node in dicts if node]))
        value = target.pop(data.draw(st.sampled_from(list(target))))
        if kind == "rename-key":
            target[data.draw(_keys)] = value
    elif kind == "bool-key":
        # 1 <-> True (and 0 <-> False): equal, same hash, another header key.
        target = data.draw(st.sampled_from(
            [node for node in dicts if 0 in node or 1 in node] or dicts))
        key = data.draw(st.sampled_from([0, 1]))
        if key in target:
            old = next(existing for existing in target if existing == key)
            swapped = bool(key) if type(old) is int else int(key)
            items = list(target.items())
            target.clear()
            target.update((swapped if existing is old else existing, value)
                          for existing, value in items)
        else:  # a tensor, so the next swap renames a header entry
            target[key] = data.draw(_arrays())
    elif kind == "scalar" and slots:
        container, key = data.draw(st.sampled_from(slots))
        container[key] = data.draw(_scalars)
    elif kind == "equal-scalar" and any(type(c[k]) in (bool, int, str, float) for c, k in slots):
        # Equal to what it replaces, but another type or another object.
        container, key = data.draw(st.sampled_from(
            [(c, k) for c, k in slots if type(c[k]) in (bool, int, str, float)]))
        value = container[key]
        if type(value) is bool:
            container[key] = int(value)
        elif type(value) is int:
            container[key] = bool(value) if value in (0, 1) else int(str(value))
        elif type(value) is str:
            container[key] = "".join(list(value))
        elif type(value) is float:
            container[key] = -value if value == 0 else float(repr(value))
    elif kind in ("swap", "regroup"):
        lists = [node for node in _nodes(state) if isinstance(node, list) and len(node) > 1]
        if lists:
            target = data.draw(st.sampled_from(lists))
            index = data.draw(st.integers(0, len(target) - 2))
            if kind == "swap":
                target[index], target[index + 1] = target[index + 1], target[index]
            elif isinstance(target[index + 1], list):
                # [a, [b]] -> [[a, b]]: the same nodes, in the same order.
                target[index + 1].insert(0, target.pop(index))
    elif kind == "mutable-leaf":
        boxes = [node for node in _nodes(state) if isinstance(node, _Box)]
        if boxes:
            data.draw(st.sampled_from(boxes)).value += 1
        else:
            data.draw(st.sampled_from(dicts))["box"] = _Box(0)
    return kind


def _files(root):
    return {path.relative_to(root): path.read_bytes()
            for path in sorted(Path(root).rglob("*")) if path.is_file()}


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(state=_states, shards_per_rank=st.integers(1, 3), data=st.data())
def test_cached_saves_write_what_uncached_saves_write(state, shards_per_rank, data):
    policy = CheckpointPolicy(host_buffer_size=1 << 20, shards_per_rank=shards_per_rank)
    with tempfile.TemporaryDirectory() as cached_root, \
            tempfile.TemporaryDirectory() as uncached_root:
        cached = DataStatesCheckpointEngine(FileStore(cached_root), policy=policy)
        uncached = _Uncached(FileStore(uncached_root), policy=policy)
        try:
            steps = data.draw(st.integers(1, 8))
            for step in range(steps + 1):
                if step:
                    note(_mutate(state, data))
                tag = f"ckpt-{step}"
                for engine in (cached, uncached):
                    engine.save(state, tag, iteration=step)
                    engine.wait_all()
                fresh = plan_shards(flatten_state_dict(state), "rank0",
                                    shards_per_rank=shards_per_rank)
                for part in fresh.parts:
                    assert (cached.store.read_shard(tag, part.name)
                            == serialize_part(part, fresh.skeleton))
                assert _files(Path(cached_root) / tag) == _files(Path(uncached_root) / tag)
        finally:
            cached.shutdown(wait=False)
            uncached.shutdown(wait=False)


# ---------------------------------------------------------------------------
# The skeleton's placeholders pickle as the default pickling would
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("protocol", [2, 3, 4, 5])
def test_placeholder_pickles_to_the_default_bytes(monkeypatch, protocol):
    skeleton = {"model": [_Placeholder(0), _Placeholder(1)], "step": 7,
                "pair": (_Placeholder(2), "tail")}
    ours = pickle.dumps(skeleton, protocol=protocol)
    monkeypatch.delattr(_Placeholder, "__reduce_ex__")
    assert pickle.dumps(skeleton, protocol=protocol) == ours
    monkeypatch.undo()
    loaded = pickle.loads(ours)
    assert [placeholder.index for placeholder in loaded["model"]] == [0, 1]
    assert loaded["pair"][0].index == 2 and loaded["step"] == 7
