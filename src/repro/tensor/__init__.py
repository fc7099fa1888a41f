"""Device-tagged tensors and state-dict flattening utilities."""

from .state_dict import (
    FlattenCache,
    FlattenedState,
    TensorRef,
    flatten_state_dict,
    tensor_payload_array,
    unflatten_state_dict,
)
from .tensor import Device, DeviceTensor, StridedSlice

__all__ = [
    "Device",
    "DeviceTensor",
    "StridedSlice",
    "TensorRef",
    "FlattenCache",
    "FlattenedState",
    "flatten_state_dict",
    "unflatten_state_dict",
    "tensor_payload_array",
]
