"""Tests for SLO rules, burn-rate alerting, and health integration."""

import pytest

from repro.common.errors import ConfigError
from repro.obs import (
    MetricsRegistry,
    SLOEngine,
    SLORule,
    TimeSeriesStore,
)


def level_rule(**overrides):
    defaults = dict(name="errors-low", metric="errors", kind="level",
                    op="<=", bound=0.0, objective=0.5,
                    window_ns=100.0, long_window_factor=4.0,
                    burn_threshold=1.5)
    defaults.update(overrides)
    return SLORule(**defaults)


class TestSLORule:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SLORule(name="x", metric="m", kind="median")
        with pytest.raises(ConfigError):
            SLORule(name="x", metric="m", op="!=")
        with pytest.raises(ConfigError):
            SLORule(name="x", metric="m", objective=1.0)
        with pytest.raises(ConfigError):
            SLORule(name="x", metric="m", window_ns=0.0)

    def test_error_budget_and_good(self):
        rule = SLORule(name="x", metric="m", op="<=", bound=10.0,
                       objective=0.99)
        assert rule.error_budget == pytest.approx(0.01)
        assert rule.good(10.0)
        assert not rule.good(10.5)


class TestEngineBasics:
    def test_duplicate_rule_names_raise(self):
        with pytest.raises(ConfigError):
            SLOEngine(TimeSeriesStore(), [level_rule(), level_rule()])

    def test_no_samples_no_alert(self):
        engine = SLOEngine(TimeSeriesStore(), [level_rule()])
        assert engine.evaluate_at(1_000.0) == []

    def test_level_rule_fires_on_bad_window(self):
        store = TimeSeriesStore()
        for ts in (10.0, 50.0, 90.0):
            store.append(ts, "errors", 1.0)   # every sample bad
        engine = SLOEngine(store, [level_rule()])
        firing = engine.evaluate_at(100.0)
        assert [a.rule for a in firing] == ["errors-low"]
        # bad fraction 1.0 over budget 0.5 -> burn 2x.
        assert firing[0].burn_rate == pytest.approx(2.0)
        assert "burn" in firing[0].brief()

    def test_long_window_vetoes_stale_blip(self):
        store = TimeSeriesStore()
        # Long window (400 ns) mostly good; short window (100 ns) bad.
        for ts in range(0, 300, 20):
            store.append(float(ts), "errors", 0.0)
        store.append(350.0, "errors", 1.0)
        engine = SLOEngine(store, [level_rule()])
        # Short burn = 2x >= 1.5, but long burn = (1/16)/0.5 < 1.5.
        assert engine.evaluate_at(400.0) == []

    def test_alerts_deduplicated_per_instant(self):
        store = TimeSeriesStore()
        store.append(90.0, "errors", 1.0)
        engine = SLOEngine(store, [level_rule()])
        engine.evaluate_at(100.0)
        engine.evaluate_at(100.0)
        assert len(engine.alerts) == 1


class TestRateRules:
    def test_rate_rule_judges_counter_increase(self):
        store = TimeSeriesStore()
        # A counter flat at 5, then jumping: the jump is the bad rate.
        for ts, v in [(0.0, 5.0), (50.0, 5.0), (100.0, 9.0)]:
            store.append(ts, "failovers", v)
        rule = level_rule(name="no-failovers", metric="failovers",
                          kind="rate", window_ns=200.0,
                          burn_threshold=1.0)
        firing = SLOEngine(store, [rule]).evaluate_at(100.0)
        # One bad of two judged rates over budget 0.5 -> burn 1.0.
        assert len(firing) == 1
        # 4 increments over 50 ns -> 8e7 per simulated second.
        assert firing[0].value == pytest.approx(8e7)

    def test_flat_counter_is_good(self):
        store = TimeSeriesStore()
        for ts in (0.0, 50.0, 100.0):
            store.append(ts, "failovers", 5.0)
        rule = level_rule(name="no-failovers", metric="failovers",
                          kind="rate", window_ns=200.0)
        assert SLOEngine(store, [rule]).evaluate_at(100.0) == []


class TestQuantileRules:
    def make(self, p99_bound):
        registry = MetricsRegistry()
        hist = registry.histogram("stall_ns")
        # A 10% tail at 100 us puts the p99 estimate inside the tail.
        for v in [10.0] * 90 + [100_000.0] * 10:
            hist.observe(v)
        rule = SLORule(name="stall-p99", metric="stall_ns",
                       kind="quantile", op="<=", bound=p99_bound,
                       quantile=0.99)
        return SLOEngine(TimeSeriesStore(), [rule], registry=registry)

    def test_violated_tail_fires(self):
        firing = self.make(p99_bound=50.0).evaluate_at(0.0)
        assert len(firing) == 1
        assert firing[0].burn_rate == float("inf")
        assert "threshold breached" in firing[0].brief()

    def test_good_tail_silent(self):
        assert self.make(p99_bound=1e9).evaluate_at(0.0) == []

    def test_no_registry_is_silent(self):
        rule = SLORule(name="q", metric="stall_ns", kind="quantile")
        assert SLOEngine(TimeSeriesStore(), [rule]).evaluate_at(0.0) == []


class TestSweepAndVerdicts:
    def make_engine(self):
        store = TimeSeriesStore()
        for i in range(10):
            store.append(i * 50.0, "errors", 1.0 if i >= 6 else 0.0)
        return SLOEngine(store, [level_rule(long_window_factor=1.0)])

    def test_sweep_replays_whole_series(self):
        engine = self.make_engine()
        alerts = engine.sweep()
        assert alerts
        assert alerts == sorted(alerts, key=lambda a: a.at_ns)
        assert engine.alerts == alerts

    def test_verdicts_measure_good_fraction(self):
        [(name, good_fraction, met)] = self.make_engine().verdicts()
        assert name == "errors-low"
        assert good_fraction == pytest.approx(0.6)
        assert met  # 0.6 >= the 0.5 objective

    def test_verdict_rows_render_objective_and_met(self):
        assert self.make_engine().verdict_rows() == [
            ("errors-low", "0.500", "0.600", "met")]

    def test_strict_objective_not_met(self):
        engine = self.make_engine()
        engine.rules = [level_rule(objective=0.9)]
        [(_, _, met)] = engine.verdicts()
        assert not met


class TestHealthIntegration:
    class StubHealth:
        """Duck-typed stand-in for the Kona health monitor."""

        def __init__(self):
            self.providers = []

        def add_context_provider(self, provider):
            """Collect providers the way HealthMonitor does."""
            self.providers.append(provider)

    class StubSampler:
        """Appends one bad gauge row when asked to sample."""

        def __init__(self, tsdb):
            self.tsdb = tsdb
            self.forced = 0

        def sample(self):
            """Record the triggering bad sample, like the real one."""
            self.forced += 1
            self.tsdb.append(95.0, "errors", 1.0)

    def test_transition_context_carries_alerts(self):
        store = TimeSeriesStore()
        store.append(10.0, "errors", 0.0)
        sampler = self.StubSampler(store)
        engine = SLOEngine(store, [level_rule(burn_threshold=1.0)],
                           sampler=sampler)
        health = self.StubHealth()
        engine.attach(health)
        [provider] = health.providers
        context = provider("DEGRADED")
        assert sampler.forced == 1
        assert context["alerts"] == [engine.alerts[0].brief()]
        assert context["burn"]["errors-low"] == pytest.approx(1.0, abs=0.5)


class TestControlTowerCampaign:
    def test_degraded_transition_carries_burn_alert(self):
        # The acceptance bar: during the chaos node-failure campaign
        # the SLO engine raises a burn-rate alert *attached to* the
        # DEGRADED health transition, and the campaign still passes.
        from repro.experiments.chaos import run_chaos

        run = run_chaos(seed=0, ops=5_000)
        assert run.passed
        degraded = run.degraded_alerts()
        assert degraded
        assert any("burn" in brief for brief in degraded)
        # The sweep also finds alerts beyond the transition instants.
        assert run.engine.alerts
        # And the campaign honestly violates the fault-path SLOs.
        verdicts = dict((name, met) for name, _, met
                        in run.engine.verdicts())
        assert not verdicts["no-degraded-pages"]
        assert verdicts["mttr-ceiling"]
