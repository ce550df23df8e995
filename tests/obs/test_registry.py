"""The metrics registry: instrument semantics and the disabled mode."""

import pytest

from repro import obs
from repro.obs.registry import (
    Counter, Gauge, Histogram, MetricsRegistry, NULL_INSTRUMENT, Timer)


class TestCounter:
    def test_inc(self):
        c = Counter("x")
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("pool.pages")
        assert g.value == 0
        g.set(7)
        g.inc()
        g.inc(2)
        g.dec(4)
        assert g.value == 6
        g.set(1.5)  # gauges may hold non-integers (hit rates)
        assert g.value == 1.5


class TestTimer:
    def test_observe_accumulates(self):
        t = Timer("t")
        t.observe(0.5)
        t.observe(1.5)
        assert t.count == 2
        assert t.total == pytest.approx(2.0)
        assert t.mean == pytest.approx(1.0)
        assert t.min == pytest.approx(0.5)
        assert t.max == pytest.approx(1.5)

    def test_time_context_manager(self):
        t = Timer("t")
        with t.time():
            pass
        assert t.count == 1
        assert t.total >= 0.0

    def test_mean_of_empty_timer(self):
        assert Timer("t").mean == 0.0


class TestHistogram:
    def test_bucketing(self):
        h = Histogram("h", bounds=(1, 10, 100))
        for value in (0, 1, 5, 50, 5000):
            h.observe(value)
        # <=1: {0, 1}; <=10: {5}; <=100: {50}; overflow: {5000}
        assert h.buckets == [2, 1, 1, 1]
        assert h.count == 5
        assert h.mean == pytest.approx(5056 / 5)

    def test_observe_many_matches_observe(self):
        a = Histogram("a", bounds=(2, 4))
        b = Histogram("b", bounds=(2, 4))
        values = [0, 1, 2, 3, 4, 5, 6]
        for v in values:
            a.observe(v)
        b.observe_many(values)
        assert a.buckets == b.buckets
        assert a.count == b.count and a.total == b.total

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=())
        with pytest.raises(ValueError):
            Histogram("h", bounds=(3, 1))


class TestRegistry:
    def test_instruments_are_memoized(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.timer("b") is reg.timer("b")
        assert reg.histogram("c") is reg.histogram("c")
        assert reg.gauge("d") is reg.gauge("d")
        assert reg.quantiles("e") is reg.quantiles("e")

    def test_histogram_conflicting_bounds_raise(self):
        reg = MetricsRegistry()
        first = reg.histogram("h", bounds=(1, 2, 4))
        # Omitted bounds mean "whatever it already has".
        assert reg.histogram("h") is first
        # Re-stating the same bounds is fine too.
        assert reg.histogram("h", bounds=(1, 2, 4)) is first
        with pytest.raises(ValueError, match="conflicting bounds"):
            reg.histogram("h", bounds=(10, 20))

    def test_gauges_in_snapshot(self):
        reg = MetricsRegistry()
        reg.gauge("pool.hit_rate").set(0.75)
        reg.gauge("pool.pages").set(32)
        assert reg.snapshot()["gauges"] == {"pool.hit_rate": 0.75,
                                            "pool.pages": 32}

    def test_disabled_registry_returns_null(self):
        reg = MetricsRegistry(enabled=False)
        assert reg.counter("a") is NULL_INSTRUMENT
        assert reg.timer("b") is NULL_INSTRUMENT
        assert reg.histogram("c") is NULL_INSTRUMENT
        # Nothing was created.
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "timers": {},
                                  "histograms": {}, "quantiles": {}}

    def test_null_instrument_is_inert(self):
        NULL_INSTRUMENT.inc()
        NULL_INSTRUMENT.set(7)
        NULL_INSTRUMENT.observe(3)
        NULL_INSTRUMENT.observe_many([1, 2])
        with NULL_INSTRUMENT.time():
            pass
        assert NULL_INSTRUMENT.value == 0
        assert NULL_INSTRUMENT.count == 0

    def test_disable_keeps_values(self):
        reg = MetricsRegistry()
        reg.counter("kept").inc(3)
        reg.disable()
        reg.counter("kept").inc(100)  # null instrument — ignored
        reg.enable()
        assert reg.counter("kept").value == 3

    def test_reset_drops_everything(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.timer("b").observe(1.0)
        reg.reset()
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "timers": {},
                                  "histograms": {}, "quantiles": {}}

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.timer("t").observe(0.25)
        reg.histogram("h", bounds=(1, 2)).observe(1)
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 2}
        assert snap["timers"]["t"]["count"] == 1
        assert snap["timers"]["t"]["total_seconds"] == \
            pytest.approx(0.25)
        assert snap["histograms"]["h"]["buckets"] == [1, 0, 0]


class TestGlobalRegistry:
    def test_disabled_by_default(self):
        assert obs.get_registry().enabled is False

    def test_metrics_enabled_context_restores_state(self):
        assert not obs.get_registry().enabled
        with obs.metrics_enabled() as reg:
            assert reg is obs.get_registry()
            assert reg.enabled
            reg.counter("inside").inc()
        assert not obs.get_registry().enabled

    def test_enable_disable_roundtrip(self):
        reg = obs.enable_metrics(reset=True)
        try:
            reg.counter("x").inc()
            assert reg.snapshot()["counters"] == {"x": 1}
        finally:
            obs.disable_metrics()
        assert not obs.get_registry().enabled

    def test_set_registry_swaps_and_returns_previous(self):
        replacement = MetricsRegistry(enabled=False)
        previous = obs.set_registry(replacement)
        try:
            assert obs.get_registry() is replacement
        finally:
            obs.set_registry(previous)
        assert obs.get_registry() is previous


class TestLibraryIntegration:
    """The wiring: library calls land in the global registry."""

    def test_construction_and_search_counters(self):
        from repro.core.index import SpineIndex

        with obs.metrics_enabled() as reg:
            index = SpineIndex("aaccacaaca")
            assert index.find_all("ac") == [1, 4, 7]
            assert index.contains("caca")
            assert not index.contains("ccc")
            counters = reg.snapshot()["counters"]
        assert counters["construction.chars"] == 10
        assert counters["construction.chain_hops"] > 0
        assert counters["search.queries"] == 3
        assert counters["search.misses"] == 1
        assert counters["search.occurrences"] == 3
        assert counters["search.steps"] > 0

    def test_matching_counters(self):
        from repro.core.index import SpineIndex
        from repro.core.matching import matching_statistics

        with obs.metrics_enabled() as reg:
            index = SpineIndex("aaccacaaca")
            result = matching_statistics(index, "accaca")
            counters = reg.snapshot()["counters"]
        assert counters["matching.queries"] == 1
        assert counters["matching.chars"] == 6
        assert counters["matching.checks"] == result.checks
        assert counters["matching.link_hops"] == result.link_hops

    def test_serialize_counters(self, tmp_path):
        from repro.core.index import SpineIndex
        from repro.core.serialize import load_index, save_index

        path = tmp_path / "m.spine"
        with obs.metrics_enabled() as reg:
            save_index(SpineIndex("aaccacaaca"), path)
            load_index(path)
            counters = reg.snapshot()["counters"]
        assert counters["serialize.save.files"] == 1
        assert counters["serialize.load.files"] == 1
        assert counters["serialize.save.bytes"] == \
            counters["serialize.load.bytes"]
        assert counters["serialize.save.bytes"] == \
            path.stat().st_size - 16  # minus the fixed header

    def test_disk_counters(self):
        from repro.disk.spine_disk import DiskSpineIndex

        with obs.metrics_enabled() as reg:
            disk = DiskSpineIndex(buffer_pages=4)
            disk.extend("ACGTACGTACGT")
            assert disk.contains("GTAC")
            assert disk.find_all("ACGT") == [0, 4, 8]
            disk.io_snapshot()
            disk.close()
            counters = reg.snapshot()["counters"]
        assert counters["disk.construction.chars"] == 12
        assert counters["disk.search.queries"] == 2
        assert reg.snapshot()["gauges"]["disk.buffer_hits"] > 0

    def test_disabled_mode_records_nothing(self, tmp_path):
        from repro.core.index import SpineIndex
        from repro.core.serialize import save_index

        reg = obs.get_registry()
        assert not reg.enabled
        reg.reset()
        index = SpineIndex("aaccacaaca")
        index.find_all("ac")
        save_index(index, tmp_path / "q.spine")
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "timers": {},
                                  "histograms": {}, "quantiles": {}}
