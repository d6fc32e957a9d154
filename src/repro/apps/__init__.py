"""An application built on the Kona public API.

A consumer of the runtime, not part of it: a key-value store whose
data lives transparently in disaggregated memory.  It demonstrates
(and tests) that unmodified application logic — hash probing, value
logs — runs on Kona with nothing but a ``malloc``/``read``/``write``
contract.
"""

from .kvstore import RemoteKVStore

__all__ = ["RemoteKVStore"]
