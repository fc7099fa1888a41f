"""Tests for device-tagged tensors and state-dict flattening."""

import gc
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SerializationError
from repro.tensor import (
    Device,
    DeviceTensor,
    FlattenCache,
    TensorRef,
    flatten_state_dict,
    tensor_payload_array,
    unflatten_state_dict,
)


# ---------------------------------------------------------------------------
# Device / DeviceTensor
# ---------------------------------------------------------------------------

def test_device_string_form():
    assert str(Device.gpu(2)) == "gpu:2"
    assert str(Device.cpu()) == "cpu:0"


def test_device_tensor_shape_and_nbytes():
    tensor = DeviceTensor(np.zeros((4, 8), dtype=np.float32), Device.gpu(0), "w")
    assert tensor.shape == (4, 8)
    assert tensor.nbytes == 4 * 8 * 4
    assert tensor.dtype == np.float32


def test_device_tensor_requires_ndarray():
    with pytest.raises(TypeError):
        DeviceTensor([1, 2, 3], Device.cpu())  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# State dict flattening
# ---------------------------------------------------------------------------

def _sample_state():
    return {
        "model": {
            "layer0": {"weight": np.arange(6, dtype=np.float32).reshape(2, 3),
                       "bias": np.ones(3, dtype=np.float64)},
            "layer1": {"weight": np.full((2, 2), 2.0, dtype=np.float32)},
        },
        "optimizer": {"step": 7, "moments": [np.zeros(4, dtype=np.float32)]},
        "iteration": 42,
        "note": "hello",
    }


def test_flatten_finds_all_tensors():
    flattened = flatten_state_dict(_sample_state())
    assert len(flattened.tensors) == 4
    keys = {ref.key for ref in flattened.tensors}
    assert "model.layer0.weight" in keys
    assert "optimizer.moments.0" in keys


def test_flatten_total_bytes():
    state = _sample_state()
    expected = 6 * 4 + 3 * 8 + 4 * 4 + 4 * 4
    assert flatten_state_dict(state).total_tensor_bytes == expected


def test_flatten_unflatten_roundtrip_preserves_everything():
    state = _sample_state()
    flattened = flatten_state_dict(state)
    arrays = [tensor_payload_array(ref).copy() for ref in flattened.tensors]
    rebuilt = unflatten_state_dict(flattened.skeleton, arrays)
    assert rebuilt["iteration"] == 42
    assert rebuilt["note"] == "hello"
    assert rebuilt["optimizer"]["step"] == 7
    np.testing.assert_array_equal(rebuilt["model"]["layer0"]["weight"],
                                  state["model"]["layer0"]["weight"])
    np.testing.assert_array_equal(rebuilt["optimizer"]["moments"][0],
                                  state["optimizer"]["moments"][0])


def test_flatten_handles_device_tensors():
    state = {"w": DeviceTensor(np.arange(4, dtype=np.float32), Device.gpu(3), "w")}
    flattened = flatten_state_dict(state)
    assert flattened.tensors[0].device == "gpu:3"
    np.testing.assert_array_equal(tensor_payload_array(flattened.tensors[0]),
                                  np.arange(4, dtype=np.float32))


def test_flatten_preserves_tuples_and_lists():
    state = {"pair": (np.zeros(2), [np.ones(2), "tail"])}
    flattened = flatten_state_dict(state)
    rebuilt = unflatten_state_dict(
        flattened.skeleton, [tensor_payload_array(r) for r in flattened.tensors]
    )
    assert isinstance(rebuilt["pair"], tuple)
    assert isinstance(rebuilt["pair"][1], list)
    assert rebuilt["pair"][1][1] == "tail"


def test_unflatten_with_missing_payloads_fails():
    flattened = flatten_state_dict({"a": np.zeros(2), "b": np.zeros(2)})
    with pytest.raises(SerializationError):
        unflatten_state_dict(flattened.skeleton, [np.zeros(2)])


def test_flatten_leaves_no_cycle_owning_the_arrays():
    """The call may not leave garbage only the cyclic collector can free: a
    state passed through it dies with its last reference."""
    gc.disable()
    try:
        array = np.zeros(1 << 19)
        ref = weakref.ref(array)
        flattened = flatten_state_dict({"layer": {"w": array}})
        del array, flattened
        assert ref() is None
    finally:
        gc.enable()


def test_skeleton_bytes_is_picklable_and_small():
    flattened = flatten_state_dict(_sample_state())
    raw = flattened.skeleton_bytes()
    assert isinstance(raw, bytes)
    # The skeleton must not embed the tensor payloads.
    assert len(raw) < 2000


@st.composite
def nested_states(draw, depth=2):
    """Random nested dict/list structures with numpy leaves and scalars."""
    if depth == 0:
        choice = draw(st.integers(min_value=0, max_value=2))
        if choice == 0:
            shape = draw(st.tuples(st.integers(1, 4), st.integers(1, 4)))
            return np.arange(shape[0] * shape[1], dtype=np.float32).reshape(shape)
        if choice == 1:
            return draw(st.integers(-100, 100))
        return draw(st.text(max_size=5))
    keys = draw(st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=3, unique=True))
    return {key: draw(nested_states(depth=depth - 1)) for key in keys}


@settings(max_examples=30, deadline=None)
@given(nested_states())
def test_property_flatten_unflatten_roundtrip(state):
    flattened = flatten_state_dict(state)
    arrays = [tensor_payload_array(ref) for ref in flattened.tensors]
    rebuilt = unflatten_state_dict(flattened.skeleton, arrays)

    def assert_equal(a, b):
        if isinstance(a, np.ndarray):
            np.testing.assert_array_equal(a, b)
        elif isinstance(a, dict):
            assert set(a) == set(b)
            for key in a:
                assert_equal(a[key], b[key])
        else:
            assert a == b

    assert_equal(state, rebuilt)


# ---------------------------------------------------------------------------
# TensorRef, and the flatten cache a save goes through
# ---------------------------------------------------------------------------

def test_tensor_ref_is_immutable_and_compares_without_its_payload():
    import dataclasses

    ref = TensorRef(path=("a", 0), shape=(2,), dtype="float32", nbytes=8, device="cpu:0")
    bound = ref.bind(np.zeros(2, dtype=np.float32))
    assert bound == ref and hash(bound) == hash(ref) and ref.payload is None
    assert (bound.path, bound.shape, bound.dtype, bound.nbytes, bound.device) == (
        ("a", 0), (2,), "float32", 8, "cpu:0")
    assert bound != dataclasses.replace(ref, nbytes=4)
    assert dataclasses.replace(bound, payload=None).payload is None
    assert "payload" not in repr(bound) and bound.key == "a.0"
    with pytest.raises(dataclasses.FrozenInstanceError):
        bound.shape = (1, 2)


def _pickled_like_a_fresh_flatten(cache, state):
    flattened = cache.flatten(state)
    assert flattened.skeleton_bytes() == flatten_state_dict(state).skeleton_bytes()
    return flattened


def test_flatten_cache_reuses_a_skeleton_only_for_the_same_immutable_leaves():
    cache = FlattenCache()
    text = "".join(["no", "te"])
    state = {"w": np.zeros(3), "note": text, "again": text, "step": 7, "lr": -0.0}
    first = _pickled_like_a_fresh_flatten(cache, state)
    # A float leaf is never reused, not even the same object: -0.0 == 0.0.
    assert cache.flatten(state).skeleton is not first.skeleton
    state["lr"] = 0.0
    second = _pickled_like_a_fresh_flatten(cache, state)
    assert second.skeleton_bytes() != first.skeleton_bytes()
    assert second.structure is first.structure
    del state["lr"]
    _pickled_like_a_fresh_flatten(cache, state)  # a new structure
    kept = cache.flatten(state)
    assert cache.flatten(state).skeleton is kept.skeleton  # same objects: reused
    # Equal strings that are not the same object pickle without the memo
    # reference the shared one got.
    state["again"] = "".join(["no", "te"])
    assert _pickled_like_a_fresh_flatten(cache, state).skeleton_bytes() != (
        kept.skeleton_bytes())
    # A mutable leaf compares by identity and may have changed in place.
    box = {"model": [np.ones(2)], "meta": set()}
    _pickled_like_a_fresh_flatten(cache, box)
    box["meta"].add(3)
    assert pickle.loads(_pickled_like_a_fresh_flatten(cache, box).skeleton_bytes())[
        "meta"] == {3}


def test_flatten_cache_matches_a_fresh_flatten_through_every_change():
    """Each state goes through one cache and is compared with a fresh
    flatten: references (device included), payloads and skeleton bytes."""
    one, array = 1, np.zeros(2)
    tensor = DeviceTensor(np.ones(2), Device.gpu(0))

    def move_tensor():
        tensor.device = Device.gpu(1)
        return {"a": tensor}

    states = [
        # The same tokens but for the lengths.
        lambda: {"a": [[], []]}, lambda: {"a": [[[]]]},
        lambda: {"a": [(), ()]}, lambda: {"a": [((),)]},
        # A leaf moves past a tensor.
        lambda: {"a": [one, array]}, lambda: {"a": [array, one]},
        # A tensor, same object, on another device.
        lambda: {"a": tensor}, move_tensor,
        # A key that is neither str nor int never hits.
        lambda: {0.0: array}, lambda: {-0.0: array},
    ]
    cache = FlattenCache()
    for make in states:
        state = make()
        flattened, fresh = cache.flatten(state), flatten_state_dict(state)
        assert flattened.tensors == fresh.tensors
        assert all(ours.payload is theirs.payload
                   for ours, theirs in zip(flattened.tensors, fresh.tensors))
        assert flattened.skeleton_bytes() == fresh.skeleton_bytes()
        assert [ref.key for ref in flattened.tensors] == [ref.key for ref in fresh.tensors]


def test_flatten_cache_binds_fresh_payloads_and_pins_none():
    cache = FlattenCache()
    gc.disable()
    try:
        for _ in range(2):  # a miss, then a hit
            array = np.zeros(1 << 19)
            ref = weakref.ref(array)
            flattened = cache.flatten({"layer": {"w": array}, "step": 1})
            assert flattened.tensors[0].payload is array
            del array, flattened
            assert ref() is None
    finally:
        gc.enable()


def test_flatten_keeps_a_namedtuple():
    from collections import namedtuple

    pair = namedtuple("pair", "first second")
    state = {"pair": pair(np.arange(3), "tail")}
    flattened = flatten_state_dict(state)
    rebuilt = unflatten_state_dict(flattened.skeleton, [np.arange(3)])
    assert type(rebuilt["pair"]) is pair and rebuilt["pair"].second == "tail"
    np.testing.assert_array_equal(rebuilt["pair"].first, np.arange(3))
