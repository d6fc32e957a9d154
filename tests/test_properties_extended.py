"""Extended property-based tests: PML, the KV store, pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

import repro.common.units as u
from repro.apps.kvstore import RemoteKVStore
from repro.kona import KonaConfig, KonaRuntime
from repro.kona.pipeline import EvictionPipeline
from repro.vm.faults import FaultPath, PageFaultModel
from repro.vm.pml import PMLTracker
from repro.vm.writeprotect import WriteProtectTracker


class TestPMLProperties:
    @given(st.lists(st.integers(0, 200), min_size=1, max_size=300))
    def test_pml_and_wp_agree_on_dirty_set(self, vpns):
        """Different cost, identical tracked set — the §8 point."""
        pml = PMLTracker(buffer_entries=16)
        wp = WriteProtectTracker(PageFaultModel(FaultPath.USERFAULTFD))
        wp.track(set(range(201)))
        pml.begin_window()
        wp.begin_window()
        for vpn in vpns:
            pml.on_write(vpn)
            wp.on_write(vpn)
        assert pml.dirty_pages() == wp.dirty_pages() == set(vpns)

    @given(st.integers(1, 64), st.integers(1, 500))
    def test_vm_exits_bounded(self, buffer_entries, pages):
        pml = PMLTracker(buffer_entries=buffer_entries)
        pml.begin_window()
        for vpn in range(pages):
            pml.on_write(vpn)
        assert pml.counters["vm_exits"] == pages // buffer_entries


class TestPipelineProperties:
    @given(st.integers(1, 12), st.integers(16, 256))
    @settings(max_examples=20, deadline=None)
    def test_elapsed_at_least_every_stage(self, lines, pages):
        result = EvictionPipeline().run(pages, lines)
        eps = 1.001
        assert result.elapsed_ns * eps >= result.producer_busy_ns
        assert result.elapsed_ns * eps >= result.receiver_busy_ns
        assert result.batches >= 1


class KVStoreMachine(RuleBasedStateMachine):
    """Stateful test: the remote KV store versus a plain dict."""

    def __init__(self):
        super().__init__()
        config = KonaConfig(fmem_capacity=4 * u.MB,
                            vfmem_capacity=64 * u.MB,
                            slab_bytes=16 * u.MB)
        self.store = RemoteKVStore(KonaRuntime(config), capacity=128,
                                   value_log_bytes=16 * u.MB)
        self.model = {}

    keys = st.sampled_from([f"key-{i}" for i in range(40)])
    values = st.binary(min_size=1, max_size=64)

    @rule(key=keys, value=values)
    def put(self, key, value):
        if len(self.model) < 100 or key in self.model:
            self.store.put(key, value)
            self.model[key] = value

    @rule(key=keys)
    def get(self, key):
        assert self.store.get(key) == self.model.get(key)

    @rule(key=keys)
    def delete(self, key):
        existed = key in self.model
        assert self.store.delete(key) == existed
        self.model.pop(key, None)

    @invariant()
    def sizes_agree(self):
        assert len(self.store) == len(self.model)

    @invariant()
    def no_page_faults_ever(self):
        counters = self.store.runtime.page_table.counters
        assert counters["faults_missing"] == 0


KVStoreMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=30, deadline=None)
TestKVStoreStateful = KVStoreMachine.TestCase
