"""The reference ccFPGA architecture: VFMem directory, FMem cache, bitmap."""

from .agent import AgentConfig, EvictionSink, MemoryAgent
from .bitmap import DirtyBitmap
from .fmem import FMemCache
from .translation import RemoteLocation, RemoteTranslationMap

__all__ = [
    "AgentConfig",
    "DirtyBitmap",
    "EvictionSink",
    "FMemCache",
    "MemoryAgent",
    "RemoteLocation",
    "RemoteTranslationMap",
]
