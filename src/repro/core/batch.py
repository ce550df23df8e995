"""The query core: every layer's verbs, implemented once (Section 4).

SPINE answers a pattern the same way on every layer. The first
occurrence is one PT/PRT-constrained root-to-node traversal
(:func:`traverse_first_end`); every other occurrence is found by one
downstream link sweep (:class:`~repro.core.search.OccurrenceScanner`).
This module holds the only implementation of the query verbs:

* :func:`contains_at`, :func:`find_first_at` and :func:`find_all_at`
  answer one pattern;
* :func:`batch_find_all` answers many. It resolves the first
  occurrence of every pattern by traversal, then finds all remaining
  occurrences of all patterns in "one single final sequential scan".
  On the disk layer N looped ``find_all`` calls make N passes over the
  Link Table, while a batch makes exactly one sequential LT sweep — the
  access pattern the paper's Figure 8 buffering argument favors.

A layer supplies only primitives: ``alphabet``, ``len``, ``step``,
``iter_link_entries``, ``read_locked`` (the shared side of the disk
layer's read-write lock; a shared no-op on the in-memory layers) and a
``METRIC_FAMILY`` class constant naming its metrics and spans. Its own
``contains`` / ``find_first`` / ``find_all`` / ``count`` are one-line
calls into this module with ``limit=len(index)``. Each verb takes the
read lock once, at entry: the lock is not reentrant and prefers
writers, so a nested acquire would deadlock behind a waiting writer.
Metrics and tracing for the single-pattern verbs are applied here too,
once, behind one check at entry.

Snapshot semantics (Section 2.7): every verb answers against the
prefix of length ``limit``. Because a SPINE prefix is an exact
sub-index — every edge created after character ``k`` has a
destination beyond ``k`` — rejecting steps that land past the boundary
answers the query against the index as of that length, even while an
in-memory ``extend`` appends concurrently.
"""

from __future__ import annotations

import contextlib
import itertools
import time
from concurrent.futures import ThreadPoolExecutor
from operator import itemgetter

from repro.core.search import OccurrenceScanner
from repro.exceptions import (
    DeadlineExceededError,
    SearchError,
    ServiceClosedError,
)
from repro.obs import get_registry
from repro.obs.trace import get_tracer

__all__ = [
    "BatchMatch",
    "NO_LOCK",
    "batch_find_all",
    "check_executor_open",
    "contains_at",
    "find_all_at",
    "find_first_at",
    "traverse_first_end",
]

#: ``read_locked()`` of the layers whose readers need no lock (memory,
#: packed): one shared, stateless no-op context.
NO_LOCK = contextlib.nullcontext()


class BatchMatch:
    """One pattern's outcome within a batch.

    Attributes
    ----------
    pattern:
        The query pattern, as submitted.
    starts:
        Sorted 0-indexed occurrence starts (empty on any miss).
    status:
        ``"hit"``, ``"miss"`` (valid pattern, no occurrence) or
        ``"alphabet-miss"`` (a character outside the index alphabet —
        such a pattern cannot occur, reported cleanly instead of
        raising).
    """

    __slots__ = ("pattern", "starts", "status")

    def __init__(self, pattern, starts, status):
        self.pattern = pattern
        self.starts = starts
        self.status = status

    @property
    def found(self):
        """True iff the pattern occurs at least once."""
        return self.status == "hit"

    def __len__(self):
        return len(self.starts)

    def __repr__(self):
        return (f"BatchMatch({self.pattern!r}, {self.status}, "
                f"{len(self.starts)} occurrence(s))")


def traverse_first_end(index, codes, limit, cancel=None):
    """End node of the first occurrence of ``codes`` within the prefix
    of length ``limit``, or ``None``.

    ``codes`` is any iterable of alphabet codes; the empty sequence
    ends at the root (node 0). A step landing beyond ``limit`` is a
    dead end: by Section 2.7 that edge does not exist in the prefix
    sub-index (edges planted after character ``limit`` always point
    past it).

    ``cancel`` is an optional
    :class:`~repro.resilience.CancellationToken`; when given, the
    traversal checkpoints it once per step (an amortized integer
    decrement — see :mod:`repro.resilience.deadline`). While tracing is
    on, every edge decision lands on the tracer's active span.
    """
    tracer = get_tracer()
    span = tracer.active if tracer.enabled else None
    checkpoint = cancel.checkpoint if cancel is not None else None
    step = index.step
    node = 0
    for pathlength, code in enumerate(codes):
        if checkpoint is not None:
            checkpoint()
        node = step(node, pathlength, code, span)
        if node is None or node > limit:
            return None
    return node


class _Probe:
    """Metrics and trace span of one single-pattern query.

    Created only while metrics or tracing is on. Names come from the
    layer's ``METRIC_FAMILY``: ``<family>.queries`` / ``.misses`` /
    ``.steps`` / ``.occurrences`` / ``.scan_nodes`` counters, the
    ``<family>.scan_length`` histogram, the ``<family>.<verb>``
    latency battery and a ``<family>.<verb>`` span.
    """

    __slots__ = ("family", "verb", "registry", "tracer", "span",
                 "started", "steps", "end")

    def __init__(self, index, verb, pattern, registry, tracer):
        self.family = index.METRIC_FAMILY
        self.verb = verb
        # A disabled registry hands out no-op instruments and a disabled
        # tracer begins no span, so neither needs a check of its own.
        self.registry = registry
        self.tracer = tracer
        self.span = tracer.begin(f"{self.family}.{verb}", pattern=pattern)
        self.steps = 0
        self.end = None
        self.started = time.perf_counter()

    def traverse(self, index, codes, limit, cancel):
        """:func:`traverse_first_end`, counting the steps it takes."""
        # zip advances the counter once per code the loop consumes.
        taken = itertools.count()
        self.end = traverse_first_end(
            index, map(itemgetter(0), zip(codes, taken)), limit, cancel)
        self.steps = next(taken)
        return self.end

    def finish(self, starts, scan_nodes):
        family = self.family
        registry = self.registry
        hit = self.end is not None
        registry.counter(family + ".queries").inc()
        registry.counter(family + ".steps").inc(self.steps)
        if not hit:
            registry.counter(family + ".misses").inc()
        if starts is not None:
            registry.counter(family + ".occurrences").inc(len(starts))
        if starts and scan_nodes:
            registry.counter(family + ".scan_nodes").inc(scan_nodes)
            registry.histogram(family + ".scan_length").observe(scan_nodes)
        registry.observe_latency(f"{family}.{self.verb}",
                                 time.perf_counter() - self.started)
        if self.span is not None:
            attrs = {"end_node": self.end}
            if starts is not None:
                attrs.update(occurrences=len(starts),
                             scan_nodes=scan_nodes)
            self.tracer.finish(self.span, status="hit" if hit else "miss",
                               **attrs)

    def fail(self, exc):
        if self.span is not None:
            self.tracer.finish(self.span, status=_failure_status(exc),
                               error=type(exc).__name__)


def _failure_status(exc):
    if isinstance(exc, (DeadlineExceededError, ServiceClosedError)):
        return "cancelled"
    return "error"


def _answer(index, verb, pattern, limit, cancel):
    """The single-pattern engine behind every verb.

    Encodes ``pattern``; then, under one read-lock acquisition,
    traverses to the first occurrence's end node and — for
    ``find_all`` — sweeps downstream for the rest (Section 4: node
    ``j`` ends another occurrence exactly when its link destination
    already ends one and its LEL covers the pattern). Returns
    ``(codes, end, starts)``; ``starts`` is ``None`` unless ``verb`` is
    ``"find_all"``.
    """
    registry = get_registry()
    tracer = get_tracer()
    probe = (_Probe(index, verb, pattern, registry, tracer)
             if registry.enabled or tracer.enabled else None)
    codes = index.alphabet.try_encode(pattern)
    end = None
    starts = [] if verb == "find_all" else None
    scan_nodes = 0
    if codes is not None:
        try:
            with index.read_locked():
                end = (traverse_first_end(index, codes, limit, cancel)
                       if probe is None
                       else probe.traverse(index, codes, limit, cancel))
                if end is not None and verb == "find_all":
                    scanner = OccurrenceScanner(index)
                    pid = scanner.add(end, len(codes))
                    starts = scanner.resolve_starts(
                        limit=limit, cancel=cancel)[pid]
                    scan_nodes = scanner.last_scan_nodes
        except BaseException as exc:
            if probe is not None:
                probe.fail(exc)
            raise
    if probe is not None:
        probe.finish(starts, scan_nodes)
    return codes, end, starts


def contains_at(index, pattern, limit, cancel=None):
    """``contains`` evaluated against the length-``limit`` prefix.

    The empty pattern occurs everywhere; a pattern with a character
    outside the alphabet is a clean miss, never a raise.
    """
    if pattern == "":
        return True
    return _answer(index, "contains", pattern, limit, cancel)[1] \
        is not None


def find_first_at(index, pattern, limit, cancel=None):
    """0-indexed start of the first occurrence within the prefix, or
    ``None``. The empty pattern occurs at 0 (Section 4.1: the traversal
    endpoint *is* the first occurrence's end node)."""
    codes, end, _ = _answer(index, "find_first", pattern, limit, cancel)
    return None if end is None else end - len(codes)


def find_all_at(index, pattern, limit, cancel=None):
    """Sorted 0-indexed starts of all occurrences within the prefix
    (``[]`` on a miss; the empty pattern is rejected)."""
    if pattern == "":
        raise SearchError("find_all of the empty pattern is ill-defined")
    return _answer(index, "find_all", pattern, limit, cancel)[2]


def check_executor_open(executor):
    """Reject an already-shut-down executor with a structured error.

    A ``ThreadPoolExecutor`` that has been ``shutdown()`` raises a raw
    ``RuntimeError`` only when the first traversal is submitted —
    mid-batch, from inside ``map``. Checking up front turns that into
    :class:`~repro.exceptions.ServiceClosedError` before any work
    starts. Non-stdlib executors without a ``_shutdown`` flag pass
    through unchecked (their first submit will still error, and the
    serving layer translates that too).
    """
    if executor is not None and getattr(executor, "_shutdown", False):
        raise ServiceClosedError(
            "executor is shut down; batch_find_all needs a live "
            "executor (or pass none to use a temporary pool)")


def batch_find_all(index, patterns, threads=1, limit=None,
                   executor=None, cancel=None):
    """Resolve every pattern's occurrences with one shared backbone
    scan.

    Parameters
    ----------
    index:
        Any of the three traversal layers (in-memory, packed, disk).
    patterns:
        Iterable of pattern strings; duplicates are traversed and
        resolved once and share their occurrence list. Empty patterns
        are rejected (:class:`SearchError`), exactly like ``find_all``.
    threads:
        Worker threads for the traversal phase (the resolution phase is
        inherently one sequential pass). Must be ``>= 1``. Only sizes
        the temporary pool created when no ``executor`` is passed. On a
        disk index, a concurrent traversal phase switches the buffer
        pool into its latched, pinning mode first.
    limit:
        Snapshot bound: answer against the prefix of this length
        (defaults to ``len(index)`` at entry — which *is* the snapshot
        guard when a writer extends the in-memory index concurrently).
    executor:
        An existing ``ThreadPoolExecutor`` to run traversals on (the
        serving layer passes its long-lived pool). When given it is
        authoritative: traversals run on it with *its* sizing whenever
        there is more than one unique pattern, and ``threads`` is
        ignored. When ``None``, ``threads > 1`` creates a temporary
        pool of exactly that size. An executor that has already been
        shut down is rejected up front with
        :class:`~repro.exceptions.ServiceClosedError`.
    cancel:
        Optional :class:`~repro.resilience.CancellationToken` checked
        at the batch checkpoints (entry, each traversal step, the
        shared scan in bounded chunks). On expiry the batch raises
        :class:`~repro.exceptions.DeadlineExceededError` — partial
        traversal work is discarded, never returned as a wrong answer.

    Returns
    -------
    list[BatchMatch]
        Aligned with ``patterns`` order.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    check_executor_open(executor)
    if cancel is not None:
        cancel.poll()
    patterns = list(patterns)
    registry = get_registry()
    metrics = registry if registry.enabled else None
    tracer = get_tracer()
    span = tracer.begin("batch.find_all", patterns=len(patterns))
    if metrics is not None:
        started = time.perf_counter()

    n = len(index)
    if limit is not None:
        n = min(limit, n)

    # Encode up front; deduplicate by code sequence (case-insensitive
    # alphabets fold here for free).
    try_encode = index.alphabet.try_encode
    unique = {}      # codes tuple -> uid
    uid_codes = []   # uid -> codes list
    order = []       # per input pattern: uid, or None on alphabet miss
    for pattern in patterns:
        if pattern == "":
            raise SearchError(
                "find_all of the empty pattern is ill-defined")
        codes = try_encode(pattern)
        if codes is None:
            order.append(None)
            continue
        key = tuple(codes)
        uid = unique.get(key)
        if uid is None:
            uid = unique[key] = len(uid_codes)
            uid_codes.append(codes)
        order.append(uid)

    multithreaded = ((executor is not None or threads > 1)
                     and len(uid_codes) > 1)
    if multithreaded:
        # Must happen before we hold the read lock: the transition
        # briefly takes the pool's write lock.
        enable = getattr(index, "enable_concurrent_reads", None)
        if enable is not None:
            enable()
    def _traverse(codes):
        # One child token per traversal: the amortization counter is
        # not thread-safe, so workers must not share one.
        return traverse_first_end(
            index, codes, n, None if cancel is None else cancel.child())

    try:
        with index.read_locked():
            # Phase 1: first-occurrence traversals.
            if multithreaded:
                if executor is not None:
                    ends = list(executor.map(_traverse, uid_codes))
                else:
                    with ThreadPoolExecutor(max_workers=threads) as pool:
                        ends = list(pool.map(_traverse, uid_codes))
            else:
                ends = [_traverse(codes) for codes in uid_codes]

            # Phase 2: the single shared downstream scan (Section 4).
            scanner = OccurrenceScanner(index)
            pids = {}
            for uid, (codes, end) in enumerate(zip(uid_codes, ends)):
                if end is not None:
                    pids[uid] = scanner.add(end, len(codes))
            starts_by_pid = scanner.resolve_starts(limit=n, cancel=cancel)
    except BaseException as exc:
        if span is not None:
            tracer.finish(span, status=_failure_status(exc),
                          error=type(exc).__name__)
        raise

    results = []
    hits = misses = 0
    occurrences = 0
    for pattern, uid in zip(patterns, order):
        if uid is None:
            results.append(BatchMatch(pattern, [], "alphabet-miss"))
            misses += 1
        elif uid not in pids:
            results.append(BatchMatch(pattern, [], "miss"))
            misses += 1
        else:
            starts = list(starts_by_pid[pids[uid]])
            occurrences += len(starts)
            results.append(BatchMatch(pattern, starts, "hit"))
            hits += 1

    if metrics is not None:
        metrics.counter("batch.batches").inc()
        metrics.counter("batch.patterns").inc(len(patterns))
        metrics.counter("batch.unique_patterns").inc(len(uid_codes))
        metrics.counter("batch.hits").inc(hits)
        metrics.counter("batch.misses").inc(misses)
        metrics.counter("batch.occurrences").inc(occurrences)
        metrics.counter("batch.scan_nodes").inc(scanner.last_scan_nodes)
        metrics.histogram("batch.size").observe(len(patterns))
        metrics.observe_latency("batch", time.perf_counter() - started)
    if span is not None:
        tracer.finish(span, status="done", hits=hits, misses=misses,
                      occurrences=occurrences,
                      scan_nodes=scanner.last_scan_nodes,
                      unique_patterns=len(uid_codes), snapshot=n)
    return results
