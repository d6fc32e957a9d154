"""Tests for the append-only time-series store."""

import pytest

from repro.common.errors import ConfigError
from repro.obs import TimeSeriesStore


def make_counter_store():
    """A monotonically increasing counter sampled every 10 ns."""
    store = TimeSeriesStore()
    for i in range(11):
        store.append(i * 10.0, "hits", float(i * 5))
    return store


class TestIngest:
    def test_append_and_series(self):
        store = make_counter_store()
        assert len(store) == 11
        assert "hits" in store
        assert store.names() == ["hits"]
        assert store.series("hits")[0] == (0.0, 0.0)
        assert store.series("hits")[-1] == (100.0, 50.0)

    def test_range_query_is_inclusive(self):
        store = make_counter_store()
        window = store.series("hits", 20.0, 40.0)
        assert [ts for ts, _ in window] == [20.0, 30.0, 40.0]

    def test_out_of_order_append_raises(self):
        store = make_counter_store()
        with pytest.raises(ConfigError):
            store.append(5.0, "hits", 99.0)

    def test_equal_timestamp_append_allowed(self):
        store = make_counter_store()
        store.append(100.0, "hits", 51.0)
        assert store.series("hits")[-2:] == [(100.0, 50.0), (100.0, 51.0)]

    def test_append_row_fans_out_per_series(self):
        store = TimeSeriesStore()
        store.append_row(1.0, {"a": 1.0, "b": 2.0})
        store.append_row(2.0, {"a": 3.0, "b": 4.0})
        assert store.names() == ["a", "b"]
        assert store.series("b") == [(1.0, 2.0), (2.0, 4.0)]

    def test_span_ns(self):
        assert TimeSeriesStore().span_ns == (0.0, 0.0)
        assert make_counter_store().span_ns == (0.0, 100.0)
