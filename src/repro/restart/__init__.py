"""Checkpoint discovery, validation, and restore (incl. elastic reshape)."""

from .loader import CheckpointInfo, CheckpointLoader
from .spec import RestoreSpec
from .reshape import (
    ReshapeReport,
    elastic_topology,
    merge_full_state,
    reshape_checkpoint,
    reshape_state_dicts,
    save_elastic_checkpoint,
    shard_full_state,
)

__all__ = [
    "CheckpointLoader",
    "CheckpointInfo",
    "RestoreSpec",
    "ReshapeReport",
    "elastic_topology",
    "merge_full_state",
    "reshape_checkpoint",
    "reshape_state_dicts",
    "save_elastic_checkpoint",
    "shard_full_state",
]
