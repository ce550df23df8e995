"""Spans and counters for the traced run (``--trace 1``).

The program is not changed. :class:`Instrumentation` replaces the
public entry point of each layer with a wrapper that records a span
(name, start, end, parent, request id) and restores the originals when
the traced phase ends. Spans go only around calls made a few times per
operation; per-record work (``step``, ``BufferPool.get``, page reads)
is counted, not spanned: by the program's own ``IOMetrics`` and
metrics registry, and by two C-level counting iterators.

Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import itertools
import json
import operator
import threading
import time

from repro import serve as _serve
from repro.core import batch as _batch
from repro.core import matching as _matching
from repro.core.index import SpineIndex
from repro.core.search import OccurrenceScanner
from repro.disk.spine_disk import DiskSpineIndex
from repro.shard.index import ShardedSpineIndex
from repro.storage.buffer import ReadWriteLock
from repro.storage.pager import PageFile
from repro.storage.wal import WriteAheadLog

perf = time.perf_counter

#: The per-op check: the layers' self times must add up to the op's
#: wall time within this share (plus :data:`SUM_SLACK_S`).
SUM_TOLERANCE = 0.01
SUM_SLACK_S = 2e-6
#: The coverage check: per op kind, the time no layer span covers (the
#: self time of the ops' root spans, which is the benchmark's own
#: timing and call overhead) may be at most this share of their time.
UNCOVERED_SHARE = 0.10


class TraceError(Exception):
    """The spans of an op do not account for its time."""


class SpanLog:
    """In-memory spans of one traced phase.

    Each span is ``(span_id, parent_id, op_id, name, start, end)``; an
    op's root span has ``parent_id None`` and ``span_id == op_id``.
    Spans opened on a thread with no open span of its own (the query
    service's worker pool) take as parent the innermost open span of
    the client thread, which every workload has one of.
    """

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._client_stack = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self):
        """Open an op's root span on the calling (client) thread."""
        stack = self._stack()
        sid = next(self._ids)
        stack.append((sid, sid))
        self._client_stack = stack
        return sid

    def end_op(self, sid, name, start, end):
        self._stack().pop()
        self.spans.append((sid, None, sid, "client." + name, start, end))

    def wrap(self, name, fn, after=None):
        """``fn`` wrapped in a span called ``name``; ``after(args,
        result)`` runs once the span is closed."""
        log = self

        def wrapper(*args, **kwargs):
            stack = log._stack()
            if stack:
                parent, op = stack[-1]
            elif log._client_stack:
                parent, op = log._client_stack[-1]
            else:
                parent = op = None
            sid = next(log._ids)
            stack.append((sid, op))
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                log.spans.append((sid, parent, op, name, start, end))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def dump(self, path):
        """Write the spans as JSON lines (times in seconds)."""
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, op, name, start, end in self.spans:
                handle.write(json.dumps(
                    {"id": sid, "parent": parent, "request": op,
                     "name": name, "start": start, "end": end}) + "\n")


class Instrumentation:
    """Installs the traced-phase wrappers; use as a context manager."""

    def __init__(self):
        self.log = SpanLog()
        self.steps = []            # per traverse call
        self.resolves = []         # (scan_nodes, link_entries, occ)
        self.matching = []         # (chars, checks, link_hops)
        self.page_reads = []       # seconds per PageFile.read_page
        self.page_writes = []      # seconds per PageFile.write_page
        self._local = threading.local()
        self._patches = []

    # -- patching ------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _span(self, owner, attr, name, after=None):
        original = owner.__dict__[attr]
        self._patch(owner, attr, self.log.wrap(name, original, after))

    def __enter__(self):
        log = self.log
        for verb in ("contains", "find_all", "batch_find_all", "extend"):
            self._span(_serve.QueryService, verb, "serve." + verb)
        for verb in ("contains_at", "find_all_at", "batch_find_all",
                     "extend"):
            self._span(ShardedSpineIndex, verb, "shard." + verb)
        # ``repro.serve`` imported these by name, so both modules get
        # the same wrapper.
        for verb in ("contains_at", "find_all_at", "batch_find_all"):
            wrapped = log.wrap("batch." + verb, _batch.__dict__[verb])
            self._patch(_batch, verb, wrapped)
            if verb in _serve.__dict__:
                self._patch(_serve, verb, wrapped)
        self._patch(_batch, "traverse_first_end",
                    log.wrap("batch.traverse",
                             self._counting_traverse(
                                 _batch.traverse_first_end)))
        self._span(OccurrenceScanner, "resolve", "batch.resolve",
                   self._after_resolve)
        for cls in (SpineIndex, DiskSpineIndex):
            self._patch(cls, "iter_link_entries",
                        self._counting_links(
                            cls.__dict__["iter_link_entries"]))
        self._span(_matching, "matching_statistics",
                   "matching.statistics", self._after_matching)
        self._span(DiskSpineIndex, "extend", "disk.extend")
        self._span(DiskSpineIndex, "checkpoint", "disk.checkpoint")
        self._span(SpineIndex, "extend", "core.extend")
        self._span(DiskSpineIndex, "contains", "disk.contains")
        self._span(DiskSpineIndex, "find_all", "disk.find_all")
        self._span(ReadWriteLock, "acquire_read", "rwlock.read_wait")
        self._span(ReadWriteLock, "acquire_write", "rwlock.write_wait")
        self._span(WriteAheadLog, "append", "wal.append")
        self._span(WriteAheadLog, "_fsync", "wal.sync")
        self._patch(PageFile, "read_page",
                    _timed(PageFile.__dict__["read_page"],
                           self.page_reads))
        self._patch(PageFile, "write_page",
                    _timed(PageFile.__dict__["write_page"],
                           self.page_writes))
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    # -- counters ------------------------------------------------------

    def _counting_traverse(self, original):
        steps = self.steps

        def traverse(index, codes, limit, cancel=None):
            # The traversal consumes one code per ``step`` call, so the
            # codes pulled through this counter are the steps taken.
            counter = itertools.count()
            counted = map(operator.itemgetter(0), zip(codes, counter))
            try:
                return original(index, counted, limit, cancel)
            finally:
                steps.append(next(counter))

        return traverse

    def _counting_links(self, original):
        local = self._local

        def iter_link_entries(index, lo=0, hi=None, min_lel=0):
            counter = itertools.count()
            counters = getattr(local, "link_counters", None)
            if counters is None:
                counters = local.link_counters = []
            counters.append(counter)
            return map(operator.itemgetter(0),
                       zip(original(index, lo, hi, min_lel), counter))

        return iter_link_entries

    def _after_resolve(self, args, result):
        counters = getattr(self._local, "link_counters", None) or []
        entries = sum(next(c) for c in counters)
        self._local.link_counters = []
        occurrences = sum(len(ends) for ends in result.values())
        self.resolves.append((args[0].last_scan_nodes, entries,
                              occurrences))

    def _after_matching(self, args, result):
        self.matching.append((len(args[1]), result.checks,
                              result.link_hops))


def _timed(original, durations):
    def timed(*args, **kwargs):
        start = perf()
        try:
            return original(*args, **kwargs)
        finally:
            durations.append(perf() - start)

    return timed


# -- analysis ----------------------------------------------------------


def attribute(spans):
    """Per-span self time, and the per-op sum check.

    Within one op, every instant of wall time goes to the innermost
    open spans: those with no open child. Where one span runs alone
    this is its duration minus the time its child spans cover; where
    spans run in parallel on the worker pool, the instant is shared
    between them. Returns ``{span_id: self_seconds}``. Raises
    :class:`TraceError` on an orphan span or when an op's self times do
    not add up to its total within :data:`SUM_TOLERANCE`.
    """
    by_op = {}
    for span in spans:
        if span[2] is None:
            raise TraceError(f"span {span[3]} ran outside every op")
        by_op.setdefault(span[2], []).append(span)
    self_time = {}
    for op_id, group in by_op.items():
        root = next((s for s in group if s[0] == op_id), None)
        if root is None:
            raise TraceError(f"op {op_id} has spans but no root")
        parent_of = {s[0]: s[1] for s in group}
        events = []
        for sid, _, _, _, start, end in group:
            events.append((start, 1, sid))
            events.append((end, 0, sid))
        events.sort()
        open_children = {}
        last = None
        for when, is_start, sid in events:
            if last is not None and open_children:
                leaves = [s for s, n in open_children.items() if n == 0]
                share = (when - last) / len(leaves)
                for s in leaves:
                    self_time[s] = self_time.get(s, 0.0) + share
            last = when
            parent = parent_of[sid]
            if is_start:
                open_children[sid] = 0
                if parent is not None and parent in open_children:
                    open_children[parent] += 1
            else:
                del open_children[sid]
                if parent is not None and parent in open_children:
                    open_children[parent] -= 1
        total = root[5] - root[4]
        summed = sum(self_time.get(s[0], 0.0) for s in group)
        if abs(summed - total) > SUM_TOLERANCE * total + SUM_SLACK_S:
            raise TraceError(
                f"op {root[3]}: layer self times sum to "
                f"{summed * 1e6:.1f} us, op took {total * 1e6:.1f} us")
    return self_time


def check_covered(spans, self_time):
    """Raise :class:`TraceError` when, for some op kind, the layer
    spans leave more than :data:`UNCOVERED_SHARE` of the ops' time
    uncovered. The sum check of :func:`attribute` holds by construction
    once spans nest; this one finds time that no layer accounts for.
    It is taken over all ops of a kind, because a single short op can
    lose the interpreter lock to another thread between its root span
    and its first layer span."""
    uncovered = {}
    for sid, parent, _, name, start, end in spans:
        if parent is None:
            share = uncovered.setdefault(name, [0.0, 0.0])
            share[0] += self_time.get(sid, 0.0)
            share[1] += end - start
    for name, (free, total) in uncovered.items():
        if free > UNCOVERED_SHARE * total:
            raise TraceError(
                f"{name}: {free / total:.1%} of the ops' time is in no "
                "layer span")
