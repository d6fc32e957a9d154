"""Kona: the coherence-based remote-memory runtime (the paper's core)."""

from .alloclib import AllocLib
from .config import KonaConfig
from .eviction import EvictionHandler, EvictionStats, PendingWritebackBuffer
from .failures import (
    FailureManager,
    FallbackMode,
    FetchOutcome,
    MachineCheckException,
)
from .health import HealthMonitor, HealthState, Incident
from .resource_manager import ResourceManager
from .runtime import VFMEM_BASE, KonaRuntime, build_rack
from .telemetry import TelemetrySnapshot, snapshot
from .tracker import DirtyDataTracker

__all__ = [
    "AllocLib",
    "DirtyDataTracker",
    "EvictionHandler",
    "EvictionStats",
    "FailureManager",
    "FallbackMode",
    "FetchOutcome",
    "HealthMonitor",
    "HealthState",
    "Incident",
    "KonaConfig",
    "KonaRuntime",
    "MachineCheckException",
    "PendingWritebackBuffer",
    "ResourceManager",
    "TelemetrySnapshot",
    "VFMEM_BASE",
    "build_rack",
    "snapshot",
]
