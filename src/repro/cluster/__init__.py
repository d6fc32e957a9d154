"""Rack-scale pieces: controller, memory nodes, slab allocation."""

from .controller import RackController
from .memnode import MemoryNode, UnpackReceipt
from .replication import (
    DataPlane,
    FailoverReport,
    Lease,
    LineStore,
    ReplicaSet,
    ReplicationManager,
    StoredLine,
    line_checksum,
    line_payload,
)
from .slab import DEFAULT_SLAB_BYTES, Slab, SlabPool

__all__ = [
    "DEFAULT_SLAB_BYTES",
    "DataPlane",
    "FailoverReport",
    "Lease",
    "LineStore",
    "MemoryNode",
    "RackController",
    "ReplicaSet",
    "ReplicationManager",
    "Slab",
    "SlabPool",
    "StoredLine",
    "UnpackReceipt",
    "line_checksum",
    "line_payload",
]
