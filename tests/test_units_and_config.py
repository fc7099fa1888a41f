"""Tests for unit helpers, logging utilities, and the exception hierarchy."""

import pytest

import repro
from repro.exceptions import (
    AllocationError,
    CapacityError,
    CheckpointError,
    ConsistencyError,
    ReproError,
    RestartError,
    SerializationError,
    ShardingError,
    SimulationError,
)
from repro.logging_utils import get_logger
from repro.units import GB, KB, MB, gbps, ms


def test_binary_units_are_powers_of_two():
    assert KB == 1024
    assert MB == 1024**2
    assert GB == 1024**3


def test_decimal_units_match_vendor_convention():
    assert gbps(25.0) == 25e9


def test_time_helpers():
    assert ms(5) == pytest.approx(0.005)


def test_exception_hierarchy_roots_at_repro_error():
    for exc_type in (CapacityError, AllocationError, CheckpointError, ConsistencyError,
                     RestartError, SerializationError, SimulationError,
                     ShardingError):
        assert issubclass(exc_type, ReproError)
    assert issubclass(AllocationError, CapacityError)
    assert issubclass(ConsistencyError, CheckpointError)


def test_top_level_exports():
    assert repro.__version__
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_get_logger_namespacing():
    assert get_logger().name == "repro"
    assert get_logger("repro.core").name == "repro.core"
    assert get_logger("custom.module").name == "repro.custom.module"
