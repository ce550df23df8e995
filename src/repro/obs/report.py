"""Rendering metrics registries into machine-readable reports.

The ``repro profile`` CLI subcommand and
``benchmarks/bench_report.py`` both emit the JSON shape produced by
:func:`build_report`, so perf trajectories across PRs compare
like-for-like documents.
"""

from __future__ import annotations

import platform
import sys

#: Report schema version — bump when the JSON shape changes.
REPORT_SCHEMA = 1


def record_io_snapshot(registry, snapshot, prefix="disk"):
    """Mirror an :class:`~repro.storage.metrics.IOMetrics` snapshot
    (or any flat name->number dict) into ``registry`` **gauges**.

    The disk layer's physical/buffer counters are mirrored point-in-
    time readings, so they are ``set`` under ``<prefix>.<name>``;
    re-recording a later snapshot of the same index simply refreshes
    the values. They are gauges, not counters: a counter that could be
    set would not be monotonic, which corrupts rate-over-time math in
    scraping systems (they live under the snapshot's ``gauges``
    section).
    """
    if not registry.enabled:
        return
    for name, value in snapshot.items():
        registry.gauge(f"{prefix}.{name}").set(value)


def observe_index(registry, index, prefix="index"):
    """Record an index's structural totals as ``<prefix>.*`` gauges.

    Works for any object exposing ``edge_counts()`` and ``__len__``
    (i.e. :class:`~repro.core.index.SpineIndex`); totals are ``set``
    because they are point-in-time properties of the index, not
    events (the same non-monotonicity argument as
    :func:`record_io_snapshot`).
    """
    if not registry.enabled:
        return
    registry.gauge(f"{prefix}.length").set(len(index))
    for name, value in index.edge_counts().items():
        registry.gauge(f"{prefix}.{name}").set(value)


def build_report(registry, label=None, context=None):
    """A JSON-ready report document around ``registry.snapshot()``.

    Parameters
    ----------
    registry:
        The :class:`~repro.obs.registry.MetricsRegistry` to render.
    label:
        Free-form run label (e.g. a corpus name or bench id).
    context:
        Extra key->value metadata merged into the ``context`` block
        (scales, knob settings, input sizes ...).
    """
    doc = {
        "schema": REPORT_SCHEMA,
        "label": label,
        "platform": {
            "python": sys.version.split()[0],
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
        },
        "context": dict(context or {}),
        "metrics": registry.snapshot(),
    }
    return doc
