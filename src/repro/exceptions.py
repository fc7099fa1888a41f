"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An invalid configuration value was supplied."""


class CapacityError(ReproError):
    """A memory tier or buffer does not have enough capacity."""


class AllocationError(CapacityError):
    """A buffer allocation request could not be satisfied."""


class CheckpointError(ReproError):
    """A checkpoint operation failed."""


class ConsistencyError(CheckpointError):
    """A checkpoint failed validation (incomplete, corrupted, or torn)."""


class RestartError(ReproError):
    """Restoring training state from a checkpoint failed."""


class SerializationError(ReproError):
    """Serializing or deserializing a state dict failed."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an invalid state."""


class ShardingError(ReproError):
    """A 3D-parallel sharding/partitioning request is invalid."""
