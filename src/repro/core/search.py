"""The occurrence sweep and path helpers of SPINE search (Section 4).

Finding *all* occurrences exploits the link property — a link
``(d, v)`` at node ``j`` certifies that the ``v`` characters before
``j`` equal the ``v`` characters before ``d`` — with one downstream scan
of the backbone collecting every node whose link lands in the growing
target set with sufficient LEL. The paper defers that scan and resolves
*all* patterns found during a matching run in one shared sequential
pass; :class:`OccurrenceScanner` implements it, for one pattern or
many. The query verbs that drive it live in :mod:`repro.core.batch`.
"""

from __future__ import annotations

from repro.exceptions import SearchError


class OccurrenceScanner:
    """Batched all-occurrence resolution with one backbone scan.

    Register any number of first-occurrence hits with :meth:`add`, then
    call :meth:`resolve` once; the scan visits each backbone node a
    single time regardless of how many patterns were registered — the
    paper's "one single final sequential scan" (Section 4).

    The scan consumes link entries through the index's
    ``iter_link_entries`` hook, so one scanner serves all three
    traversal layers: the reference :class:`~repro.core.index.
    SpineIndex`, the packed layout, and the page-resident disk index —
    where the shared pass is exactly one sequential Link-Table sweep.
    """

    def __init__(self, index):
        self.index = index
        # pattern id -> (first_end, length)
        self._patterns = {}
        self._next_id = 0
        #: Backbone nodes the most recent :meth:`resolve` walked over
        #: (``n - min(first ends)``; 0 before any resolve or when no
        #: pattern was registered).
        self.last_scan_nodes = 0

    def add(self, first_end, length):
        """Register a found pattern; returns its id for :meth:`resolve`."""
        if length <= 0:
            raise SearchError("pattern length must be positive")
        if not 1 <= first_end <= len(self.index):
            raise SearchError(f"end node {first_end} out of range")
        if length > first_end:
            # A pattern of length m ending at node e starts at e - m;
            # m > e would place it before the string's first character.
            raise SearchError(
                f"pattern of length {length} cannot end at node "
                f"{first_end}")
        pid = self._next_id
        self._next_id += 1
        self._patterns[pid] = (first_end, length)
        return pid

    #: Backbone positions swept between cancellation polls. Large
    #: enough that the per-window generator setup + ``poll`` cost
    #: vanishes against the sweep itself, small enough that a deadline
    #: is noticed within a fraction of a millisecond of scan work.
    CANCEL_CHUNK = 4096

    def resolve(self, limit=None, cancel=None):
        """Run the shared scan; returns ``{pid: [end nodes ascending]}``.

        ``limit`` bounds the scan to backbone nodes ``<= limit`` — the
        snapshot prefix of Section 2.7; defaults to the whole index.
        ``cancel`` is an optional
        :class:`~repro.resilience.CancellationToken`: the sweep then
        runs in :data:`CANCEL_CHUNK`-position windows (separate
        ``iter_link_entries`` ranges) with one poll between windows,
        so even a backbone-length scan is cancelled promptly while the
        window interior stays the tight historical loop at its
        original per-entry cost.
        """
        index = self.index
        n = len(index) if limit is None else min(limit, len(index))
        results = {pid: [first_end]
                   for pid, (first_end, _) in self._patterns.items()}
        self.last_scan_nodes = 0
        if not self._patterns:
            return results
        # node -> list of (pid, length) target entries living there
        node_targets = {}
        min_start = n + 1
        min_length = None
        for pid, (first_end, length) in self._patterns.items():
            node_targets.setdefault(first_end, []).append((pid, length))
            min_start = min(min_start, first_end)
            if min_length is None or length < min_length:
                min_length = length
        self.last_scan_nodes = max(0, n - min_start)
        # Nodes with LEL below every registered length can never end an
        # occurrence, so the layers may skip them while sweeping.
        if cancel is None:
            self._sweep(index.iter_link_entries(
                min_start, hi=n, min_lel=min_length),
                node_targets, results)
        else:
            window = self.CANCEL_CHUNK
            lo = min_start
            while lo < n:
                cancel.poll()
                hi = min(lo + window, n)
                self._sweep(index.iter_link_entries(
                    lo, hi=hi, min_lel=min_length),
                    node_targets, results)
                lo = hi
        return results

    def _sweep(self, entries_iter, node_targets, results):
        """The inner link-scan loop over ``entries_iter``."""
        for j, dest, lel in entries_iter:
            entries = node_targets.get(dest)
            if not entries:
                continue
            hits = [(pid, length) for pid, length in entries
                    if lel >= length]
            if not hits:
                continue
            node_targets.setdefault(j, []).extend(hits)
            for pid, _ in hits:
                results[pid].append(j)

    def resolve_starts(self, limit=None, cancel=None):
        """Like :meth:`resolve` but mapping to 0-indexed start lists."""
        ends = self.resolve(limit=limit, cancel=cancel)
        return {
            pid: [e - self._patterns[pid][1] for e in end_list]
            for pid, end_list in ends.items()
        }


def trace_path(index, pattern):
    """The node sequence of the valid path spelling ``pattern``.

    Returns the list of visited nodes starting at the root, or ``None``
    if the pattern has no valid path (i.e. is not a substring). Useful
    for debugging and for the paper's Figure 3 walk-throughs.
    """
    codes = index.alphabet.encode(pattern)
    node = 0
    nodes = [0]
    for pathlength, code in enumerate(codes):
        node = index.step(node, pathlength, code)
        if node is None:
            return None
        nodes.append(node)
    return nodes


def is_valid_path(index, pattern):
    """True iff a valid path for ``pattern`` exists.

    By the paper's correctness theorem this holds exactly when the
    pattern is a substring of the data string — the property the PT/PRT
    labels exist to guarantee (no false positives, Section 2.1).
    """
    return index.contains(pattern)
