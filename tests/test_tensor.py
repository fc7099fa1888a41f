"""Tests for device-tagged tensors, the device arena, and state-dict flattening."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import CapacityError, SerializationError, TransferError
from repro.tensor import (
    Device,
    DeviceArena,
    DeviceTensor,
    flatten_state_dict,
    state_dict_nbytes,
    tensor_payload_array,
    unflatten_state_dict,
)


# ---------------------------------------------------------------------------
# Device / DeviceTensor
# ---------------------------------------------------------------------------

def test_device_string_form():
    assert str(Device.gpu(2)) == "gpu:2"
    assert str(Device.cpu()) == "cpu:0"
    assert Device.gpu(0).is_gpu and not Device.cpu().is_gpu


def test_device_tensor_shape_and_nbytes():
    tensor = DeviceTensor(np.zeros((4, 8), dtype=np.float32), Device.gpu(0), "w")
    assert tensor.shape == (4, 8)
    assert tensor.nbytes == 4 * 8 * 4
    assert tensor.dtype == np.float32


def test_device_tensor_requires_ndarray():
    with pytest.raises(TypeError):
        DeviceTensor([1, 2, 3], Device.cpu())  # type: ignore[arg-type]


def test_copy_into_buffer_roundtrip():
    array = np.arange(12, dtype=np.int32).reshape(3, 4)
    tensor = DeviceTensor(array, Device.gpu(0))
    buffer = bytearray(tensor.nbytes)
    written = tensor.copy_into(memoryview(buffer))
    assert written == tensor.nbytes
    recovered = np.frombuffer(buffer, dtype=np.int32).reshape(3, 4)
    np.testing.assert_array_equal(recovered, array)


def test_copy_into_too_small_buffer_rejected():
    tensor = DeviceTensor(np.zeros(10, dtype=np.float64), Device.gpu(0))
    with pytest.raises(TransferError):
        tensor.copy_into(memoryview(bytearray(8)))


def test_to_host_and_clone_are_copies():
    array = np.ones(4)
    tensor = DeviceTensor(array, Device.gpu(1), "x")
    host = tensor.to_host()
    clone = tensor.clone()
    array[0] = 99.0
    assert host.array[0] == 1.0
    assert clone.array[0] == 1.0
    assert host.device == Device.cpu()
    assert clone.device == Device.gpu(1)


# ---------------------------------------------------------------------------
# DeviceArena
# ---------------------------------------------------------------------------

def test_arena_allocation_accounting():
    arena = DeviceArena(Device.gpu(0), capacity=1024)
    t = arena.allocate("a", (16,), np.float32)
    assert arena.allocated == 64
    assert arena.available == 960
    arena.free("a")
    assert arena.allocated == 0
    assert t.nbytes == 64


def test_arena_out_of_memory():
    arena = DeviceArena(Device.gpu(0), capacity=100)
    with pytest.raises(CapacityError):
        arena.allocate("big", (200,), np.uint8)


def test_arena_duplicate_name_rejected():
    arena = DeviceArena(Device.gpu(0), capacity=1024)
    arena.allocate("a", (4,))
    with pytest.raises(CapacityError):
        arena.allocate("a", (4,))


def test_arena_free_unknown_rejected():
    arena = DeviceArena(Device.gpu(0), capacity=1024)
    with pytest.raises(CapacityError):
        arena.free("missing")


def test_arena_adopt_existing_tensor():
    arena = DeviceArena(Device.gpu(0), capacity=1024)
    tensor = DeviceTensor(np.zeros(8, dtype=np.float64), Device.gpu(0), "adopted")
    arena.adopt(tensor)
    assert arena.allocated == 64
    assert arena.get("adopted") is tensor


def test_arena_fill_value():
    arena = DeviceArena(Device.gpu(0), capacity=1024)
    tensor = arena.allocate("ones", (5,), np.float32, fill=1.5)
    np.testing.assert_allclose(tensor.array, 1.5)


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
    assert state_dict_nbytes(state) == expected


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
