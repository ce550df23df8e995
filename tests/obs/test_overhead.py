"""Disabled-mode cost guard for the observability layers.

The contract (ISSUE/PR discipline since the metrics registry landed):
with metrics and tracing both disabled, a search allocates **zero**
trace or instrument objects — call sites gate on one attribute check
and fall through to the seed-era fast loops. The test enforces that
two ways: sentinel identity (disabled registries/tracers hand back
``NULL_INSTRUMENT``/``None``) and booby-trapped constructors (any
``Span``/``Counter``/``Timer``/``Histogram`` allocation during the
disabled run raises). A loose wall-clock bound keeps the disabled path
within a factor of the bare traversal core it wraps.
"""

import time

import pytest

from repro import obs
from repro.core.index import SpineIndex
from repro.core.matching import matching_statistics
from repro.core.batch import traverse_first_end
from repro.core.packed import PackedSpineIndex
from repro.disk.spine_disk import DiskSpineIndex
from repro.obs import quantiles as quantiles_mod
from repro.obs import registry as registry_mod
from repro.obs import slowlog as slowlog_mod
from repro.obs import trace as trace_mod
from repro.sequences import generate_dna

SCALE = 100_000


@pytest.fixture(scope="module")
def big_index():
    return SpineIndex(generate_dna(SCALE, seed=11))


@pytest.fixture(scope="module")
def patterns():
    dna = generate_dna(SCALE, seed=11)
    return [dna[start:start + 16] for start in range(0, 4000, 40)]


def test_disabled_sentinels():
    assert obs.get_registry().enabled is False
    assert obs.get_tracer().enabled is False
    assert obs.get_slow_log().enabled is False
    assert obs.get_registry().counter("x") is registry_mod.NULL_INSTRUMENT
    assert obs.get_registry().timer("x") is registry_mod.NULL_INSTRUMENT
    assert obs.get_registry().gauge("x") is registry_mod.NULL_INSTRUMENT
    assert (obs.get_registry().quantiles("x")
            is registry_mod.NULL_INSTRUMENT)
    assert obs.get_tracer().begin("x") is None


def test_disabled_search_allocates_no_observability_objects(
        big_index, patterns, monkeypatch):
    def boom(self, *args, **kwargs):
        raise AssertionError(
            "observability object allocated on the disabled path")

    monkeypatch.setattr(trace_mod.Span, "__init__", boom)
    monkeypatch.setattr(registry_mod.Counter, "__init__", boom)
    monkeypatch.setattr(registry_mod.Timer, "__init__", boom)
    monkeypatch.setattr(registry_mod.Histogram, "__init__", boom)
    monkeypatch.setattr(registry_mod.Gauge, "__init__", boom)
    monkeypatch.setattr(quantiles_mod.P2Quantile, "__init__", boom)
    monkeypatch.setattr(quantiles_mod.StreamingQuantiles, "__init__",
                        boom)

    assert not obs.get_registry().enabled
    assert not obs.get_tracer().enabled
    for pattern in patterns:
        assert big_index.contains(pattern)
    big_index.find_all(patterns[0])
    matching_statistics(big_index, generate_dna(512, seed=12))
    # Every layer's verbs share one instrumented boundary in the core.
    text = generate_dna(2000, seed=13)
    packed = PackedSpineIndex.from_index(SpineIndex(text))
    disk = DiskSpineIndex(buffer_pages=8)
    try:
        disk.extend(text)
        probes = (text[100:116], text[1500:1510], "ACGTACGTACGTACGT")
        for pattern in probes:
            assert packed.contains(pattern) == (pattern in text)
            assert disk.contains(pattern) == (pattern in text)
    finally:
        disk.close()


def test_disabled_batch_and_service_allocate_nothing(
        big_index, patterns, monkeypatch):
    """The batched engine and the serving front end stay on the
    one-attribute-check path when metrics, tracing and the slow-query
    log are all off: no instrument, quantile, or slow-log record may
    be created."""
    from repro.core.batch import batch_find_all
    from repro.serve import QueryService

    def boom(self, *args, **kwargs):
        raise AssertionError(
            "observability object allocated on the disabled path")

    monkeypatch.setattr(trace_mod.Span, "__init__", boom)
    monkeypatch.setattr(registry_mod.Counter, "__init__", boom)
    monkeypatch.setattr(registry_mod.Timer, "__init__", boom)
    monkeypatch.setattr(registry_mod.Histogram, "__init__", boom)
    monkeypatch.setattr(registry_mod.Gauge, "__init__", boom)
    monkeypatch.setattr(quantiles_mod.P2Quantile, "__init__", boom)
    monkeypatch.setattr(quantiles_mod.StreamingQuantiles, "__init__",
                        boom)
    monkeypatch.setattr(
        slowlog_mod.SlowQueryLog, "observe",
        lambda *a, **k: (_ for _ in ()).throw(AssertionError(
            "slow-log record taken while disabled")))

    assert not obs.get_slow_log().enabled
    batch_find_all(big_index, patterns[:8])
    with QueryService(big_index, threads=1) as service:
        service.find_all(patterns[0])
        service.batch_find_all(patterns[:4])


def test_disabled_search_wall_clock_factor(big_index, patterns):
    """Public (instrumented-but-disabled) search stays within a loose
    factor of the bare traversal loop it wraps."""
    encode = big_index.alphabet.encode
    limit = len(big_index)

    def bare():
        for pattern in patterns:
            traverse_first_end(big_index, encode(pattern), limit)

    def public():
        for pattern in patterns:
            big_index.contains(pattern)

    def best(fn, repeats=3):
        times = []
        for _ in range(repeats):
            started = time.perf_counter()
            fn()
            times.append(time.perf_counter() - started)
        return min(times)

    bare()  # warm both paths before timing
    public()
    baseline = best(bare)
    observed = best(public)
    # Generous: gating is one attribute check per query, but tiny
    # absolute times make the ratio noisy on loaded CI machines.
    assert observed <= baseline * 5 + 0.05, (
        f"disabled-path search took {observed:.4f}s vs bare traversal "
        f"{baseline:.4f}s")
