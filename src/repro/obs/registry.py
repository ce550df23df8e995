"""Counters, gauges, timers, histograms and streaming quantiles
behind a metrics registry.

One registry instance owns every instrument created through it; a
process-global default registry (see :mod:`repro.obs`) lets library
code stay instrumented without threading a registry through every call.

The design constraint is the disabled mode: instrumented hot paths in
:mod:`repro.core` and :mod:`repro.disk` run for every appended
character and every query, so when metrics are off the per-operation
cost must be one attribute check (``registry.enabled``) and nothing
else. Accordingly:

* instrumented code gates on ``registry.enabled`` *before* touching any
  instrument;
* ``counter()`` / ``gauge()`` / ``timer()`` / ``histogram()`` /
  ``quantiles()`` on a disabled registry hand back a shared no-op
  :data:`NULL_INSTRUMENT`, so even un-gated call sites stay cheap and
  allocation-free.

Instruments aggregate in plain Python numbers — there is no sampling,
no background thread, no I/O. ``snapshot()`` renders everything to
plain dicts for JSON reports, and
:func:`repro.obs.export.render_prometheus` renders the same registry
as Prometheus text exposition for live scraping.
"""

from __future__ import annotations

import time
from bisect import bisect_left

from repro.obs.quantiles import DEFAULT_QUANTILES, StreamingQuantiles

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BOUNDS_US",
    "MetricsRegistry",
    "NULL_INSTRUMENT",
    "Timer",
]

#: Default histogram bucket upper bounds (powers of two; values above
#: the last bound land in an overflow bucket).
DEFAULT_BOUNDS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

#: Bucket upper bounds for latency histograms in **microseconds**.
#: :data:`DEFAULT_BOUNDS` tops out at 1024 and was sized for integer
#: structural counts (scan lengths, batch sizes); sub-second query
#: latencies need a range from tens of microseconds (a hot in-memory
#: traversal) to one second (a cold disk-resident batch).
LATENCY_BOUNDS_US = (50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000,
                     25_000, 50_000, 100_000, 250_000, 500_000,
                     1_000_000)


class Counter:
    """A monotonically growing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def inc(self, amount=1):
        """Add ``amount`` (default 1)."""
        self.value += amount

    def __repr__(self):
        return f"Counter({self.name!r}, value={self.value})"


class Gauge:
    """A point-in-time value that may go up or down.

    The instrument for mirrored snapshots and health introspection —
    buffer-pool residency, checkpoint generation, shard sizes — where
    the reading *is* the state, not an accumulation of events.
    """

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def set(self, value):
        """Overwrite with the current reading."""
        self.value = value

    def inc(self, amount=1):
        """Add ``amount`` (default 1)."""
        self.value += amount

    def dec(self, amount=1):
        """Subtract ``amount`` (default 1)."""
        self.value -= amount

    def __repr__(self):
        return f"Gauge({self.name!r}, value={self.value})"


class Timer:
    """Accumulated wall-clock durations of one operation kind."""

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None

    def observe(self, seconds):
        """Record one duration in seconds."""
        self.count += 1
        self.total += seconds
        if self.min is None or seconds < self.min:
            self.min = seconds
        if self.max is None or seconds > self.max:
            self.max = seconds

    def time(self):
        """Context manager timing the enclosed block::

            with registry.timer("search.find_all").time():
                index.find_all(pattern)
        """
        return _TimerContext(self)

    @property
    def mean(self):
        """Mean duration in seconds (0.0 before any observation)."""
        return self.total / self.count if self.count else 0.0

    def __repr__(self):
        return (f"Timer({self.name!r}, count={self.count}, "
                f"total={self.total:.6f})")


class _TimerContext:
    __slots__ = ("_timer", "_start")

    def __init__(self, timer):
        self._timer = timer
        self._start = None

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self._timer.observe(time.perf_counter() - self._start)
        return False


class Histogram:
    """Bucketed distribution of integer-ish observations.

    ``bounds`` are ascending inclusive upper bounds; one extra overflow
    bucket catches everything above ``bounds[-1]``.
    """

    __slots__ = ("name", "bounds", "buckets", "count", "total")

    def __init__(self, name, bounds=DEFAULT_BOUNDS):
        bounds = tuple(bounds)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError("histogram bounds must be ascending and "
                             "non-empty")
        self.name = name
        self.bounds = bounds
        self.buckets = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0

    def observe(self, value):
        """Record one observation."""
        self.buckets[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value

    def observe_many(self, values):
        """Record every value of an iterable (one bulk call per query
        keeps instrumented loops free of per-item registry lookups)."""
        bounds = self.bounds
        buckets = self.buckets
        count = 0
        total = 0
        for value in values:
            buckets[bisect_left(bounds, value)] += 1
            count += 1
            total += value
        self.count += count
        self.total += total

    @property
    def mean(self):
        """Mean observed value (0.0 before any observation)."""
        return self.total / self.count if self.count else 0.0

    def __repr__(self):
        return f"Histogram({self.name!r}, count={self.count})"


class _NullInstrument:
    """Shared no-op stand-in for every instrument kind when disabled."""

    __slots__ = ()

    name = "<null>"
    value = 0
    count = 0
    total = 0
    mean = 0.0
    min = None
    max = None

    def inc(self, amount=1):
        pass

    def dec(self, amount=1):
        pass

    def set(self, value):
        pass

    def observe(self, value):
        pass

    def observe_many(self, values):
        pass

    def quantile(self, prob):
        return 0.0

    def time(self):
        return _NULL_CONTEXT

    def __repr__(self):
        return "<null instrument>"


class _NullContext:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


#: The shared disabled-mode instrument (every kind's method surface).
NULL_INSTRUMENT = _NullInstrument()
_NULL_CONTEXT = _NullContext()


class MetricsRegistry:
    """A named collection of counters, timers and histograms.

    Parameters
    ----------
    enabled:
        When false, instrument accessors return the shared
        :data:`NULL_INSTRUMENT` and nothing is recorded. Flip at runtime
        with :meth:`enable` / :meth:`disable`; instruments created while
        enabled keep their values across a disable/enable cycle.
    """

    def __init__(self, enabled=True):
        self.enabled = enabled
        self._counters = {}
        self._gauges = {}
        self._timers = {}
        self._histograms = {}
        self._quantiles = {}

    # -- lifecycle -----------------------------------------------------

    def enable(self):
        """Turn recording on."""
        self.enabled = True

    def disable(self):
        """Turn recording off (existing values are kept)."""
        self.enabled = False

    def reset(self):
        """Drop every instrument and its accumulated values."""
        self._counters.clear()
        self._gauges.clear()
        self._timers.clear()
        self._histograms.clear()
        self._quantiles.clear()

    # -- instrument accessors ------------------------------------------

    def counter(self, name):
        """The :class:`Counter` called ``name`` (created on first use)."""
        if not self.enabled:
            return NULL_INSTRUMENT
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name):
        """The :class:`Gauge` called ``name`` (created on first use)."""
        if not self.enabled:
            return NULL_INSTRUMENT
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def timer(self, name):
        """The :class:`Timer` called ``name`` (created on first use)."""
        if not self.enabled:
            return NULL_INSTRUMENT
        instrument = self._timers.get(name)
        if instrument is None:
            instrument = self._timers[name] = Timer(name)
        return instrument

    def histogram(self, name, bounds=None):
        """The :class:`Histogram` called ``name`` (created on first
        use; omitted ``bounds`` mean :data:`DEFAULT_BOUNDS` on
        creation and "whatever it already has" afterwards).

        Re-registering an existing histogram with *different* explicit
        bounds raises ``ValueError``: silently handing back the old
        instrument would bucket the caller's observations against a
        scale it never asked for.
        """
        if not self.enabled:
            return NULL_INSTRUMENT
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(
                name, DEFAULT_BOUNDS if bounds is None else bounds)
        elif bounds is not None and tuple(bounds) != instrument.bounds:
            raise ValueError(
                f"histogram {name!r} already registered with bounds "
                f"{instrument.bounds}, conflicting bounds "
                f"{tuple(bounds)} requested")
        return instrument

    def quantiles(self, name, probs=None):
        """The :class:`~repro.obs.quantiles.StreamingQuantiles`
        instrument called ``name`` (created on first use; omitted
        ``probs`` mean :data:`~repro.obs.quantiles.DEFAULT_QUANTILES`
        on creation). Conflicting explicit ``probs`` on an existing
        instrument raise ``ValueError``, mirroring :meth:`histogram`.
        """
        if not self.enabled:
            return NULL_INSTRUMENT
        instrument = self._quantiles.get(name)
        if instrument is None:
            instrument = self._quantiles[name] = StreamingQuantiles(
                name, DEFAULT_QUANTILES if probs is None else probs)
        elif probs is not None and tuple(probs) != instrument.probs:
            raise ValueError(
                f"quantile instrument {name!r} already registered "
                f"with probs {instrument.probs}, conflicting probs "
                f"{tuple(probs)} requested")
        return instrument

    def observe_latency(self, name, seconds):
        """Record one operation latency across the full battery:
        the ``<name>.seconds`` :class:`Timer` (count/total/min/max),
        the ``<name>.latency_us`` :class:`Histogram` (microsecond
        buckets, :data:`LATENCY_BOUNDS_US`) and the
        ``<name>.latency`` streaming quantiles (p50/p95/p99/p999).

        The hot-path convenience: query call sites gate on
        ``registry.enabled`` once and then make this single call.
        """
        if not self.enabled:
            return
        self.timer(name + ".seconds").observe(seconds)
        self.histogram(name + ".latency_us",
                       LATENCY_BOUNDS_US).observe(seconds * 1e6)
        self.quantiles(name + ".latency").observe(seconds)

    # -- reporting -----------------------------------------------------

    def snapshot(self):
        """Everything recorded so far, as plain JSON-ready dicts."""
        return {
            "counters": {name: c.value
                         for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value
                       for name, g in sorted(self._gauges.items())},
            "timers": {
                name: {
                    "count": t.count,
                    "total_seconds": t.total,
                    "mean_seconds": t.mean,
                    "min_seconds": t.min,
                    "max_seconds": t.max,
                }
                for name, t in sorted(self._timers.items())
            },
            "histograms": {
                name: {
                    "count": h.count,
                    "total": h.total,
                    "mean": h.mean,
                    "bounds": list(h.bounds),
                    "buckets": list(h.buckets),
                }
                for name, h in sorted(self._histograms.items())
            },
            "quantiles": {
                name: {
                    "count": q.count,
                    "total": q.total,
                    "mean": q.mean,
                    "min": q.min,
                    "max": q.max,
                    "probs": list(q.probs),
                    "estimates": q.labelled(),
                }
                for name, q in sorted(self._quantiles.items())
            },
        }

    def __repr__(self):
        state = "enabled" if self.enabled else "disabled"
        return (f"MetricsRegistry({state}, {len(self._counters)} counters,"
                f" {len(self._gauges)} gauges, "
                f"{len(self._timers)} timers, "
                f"{len(self._histograms)} histograms, "
                f"{len(self._quantiles)} quantiles)")
