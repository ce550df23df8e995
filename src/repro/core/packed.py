"""Optimized physical layout for SPINE (Section 5.1, Figure 5).

The reference :class:`~repro.core.index.SpineIndex` keeps Python dicts
for flexibility during online construction. This module compiles a built
index into the paper's optimized layout:

* **implicit vertebras** — only the 2-bit/5-bit character labels are
  stored (modeled as one byte-array here; the space model accounts the
  packed width);
* **Link Table (LT)** — one fixed-size entry per node: a 4-byte word
  holding either the link destination (rib-less nodes) or a pointer into
  a Rib Table, plus a 2-byte LEL;
* **Rib Tables (RT1..RTk)** — one table per downstream fanout class,
  each entry holding the displaced link destination and the node's rib
  slots ``(code, dest, PT)``;
* **extrib region** — chain elements ``(dest, PT)`` stored contiguously
  per parent rib (the PRT label is implied by the owning rib and is
  charged in the space model);
* **overflow table** — numeric labels that do not fit two bytes are
  stored out of line, with the in-row value acting as an overflow key
  (Section 5.1's robustness mechanism).

The packed form is immutable and answers the same queries as the
reference index, through the same query core (:mod:`repro.core.batch`)
over its ``step`` and ``iter_link_entries`` primitives; equivalence is
asserted property-style in the tests. It is also the unit the
disk-resident implementation pages over (:mod:`repro.disk`).
"""

from __future__ import annotations

import numpy as np

from repro.core import batch as _batch
from repro.exceptions import ConstructionError, SearchError

#: Sentinel stored in a two-byte label field when the true value lives
#: in the overflow table.
OVERFLOW_SENTINEL = 0xFFFF
_PTR_CLASS_SHIFT = 26
_PTR_ROW_MASK = (1 << _PTR_CLASS_SHIFT) - 1


class RibTable:
    """One fanout class of the optimized layout (RT_k of Figure 5)."""

    def __init__(self, fanout, rows):
        self.fanout = fanout
        self.ld = np.zeros(rows, dtype=np.int64)
        self.codes = np.full((rows, fanout), 255, dtype=np.uint8)
        self.dests = np.zeros((rows, fanout), dtype=np.int64)
        self.pts = np.zeros((rows, fanout), dtype=np.uint32)

    @property
    def rows(self):
        """Number of rows in this fanout class."""
        return self.ld.shape[0]


class PackedSpineIndex:
    """Immutable, array-backed SPINE in the Section 5 layout.

    Build with :meth:`from_index`; query with the same search surface as
    the reference implementation.
    """

    def __init__(self):
        self.alphabet = None
        self._n = 0
        self._asize = 0
        self._codes = None          # uint8, entry 0 is a sentinel
        self._lt_ref = None         # int64: >=0 link dest, <0 RT pointer
        self._lt_lel = None         # uint16 with overflow sentinel
        self._lel_overflow = {}     # node -> true LEL
        self._pt_overflow = {}      # (class, row, slot) -> true PT
        self._tables = {}           # fanout class -> RibTable
        # extrib chains: (class, row, slot) -> (offset, length) into the
        # flat ext arrays; elements of one chain are contiguous with
        # ascending thresholds.
        self._chains = {}
        self._ext_dest = None       # int64
        self._ext_pt = None         # uint32 (full width; counted as 2B +
        #                             overflow in the space model)

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------

    @classmethod
    def from_index(cls, index):
        """Compile a built :class:`SpineIndex` into the packed layout."""
        packed = cls()
        packed.alphabet = index.alphabet
        n = len(index)
        asize = index._asize
        packed._n = n
        packed._asize = asize
        packed._codes = np.frombuffer(bytes(index._codes),
                                      dtype=np.uint8).copy()
        lt_ref = np.array(index._link_dest, dtype=np.int64)
        lel_full = np.array(index._link_lel, dtype=np.int64)
        packed._lt_lel = np.where(
            lel_full >= OVERFLOW_SENTINEL, OVERFLOW_SENTINEL, lel_full
        ).astype(np.uint16)
        packed._lel_overflow = {
            int(i): int(lel_full[i])
            for i in np.nonzero(lel_full >= OVERFLOW_SENTINEL)[0]
        }

        # Group nodes by rib fanout.
        by_node = {}
        for key, (dest, pt) in index._ribs.items():
            node, code = divmod(key, asize)
            by_node.setdefault(node, []).append((code, dest, pt))
        class_members = {}
        for node, slots in by_node.items():
            class_members.setdefault(len(slots), []).append(node)
        ext_dest = []
        ext_pt = []
        for fanout, nodes in sorted(class_members.items()):
            nodes.sort()
            table = RibTable(fanout, len(nodes))
            packed._tables[fanout] = table
            for row, node in enumerate(nodes):
                table.ld[row] = lt_ref[node]
                ptr = (fanout << _PTR_CLASS_SHIFT) | row
                lt_ref[node] = -ptr - 1
                for slot, (code, dest, pt) in enumerate(
                        sorted(by_node[node])):
                    table.codes[row, slot] = code
                    table.dests[row, slot] = dest
                    table.pts[row, slot] = pt
                    chain = index._extchains.get(node * asize + code)
                    if chain:
                        offset = len(ext_dest)
                        for e_dest, e_pt in chain:
                            ext_dest.append(e_dest)
                            ext_pt.append(e_pt)
                        packed._chains[(fanout, row, slot)] = (
                            offset, len(chain))
        packed._lt_ref = lt_ref
        packed._ext_dest = np.array(ext_dest, dtype=np.int64)
        packed._ext_pt = np.array(ext_pt, dtype=np.int64)
        if n and (1 << _PTR_CLASS_SHIFT) <= n:
            raise ConstructionError("string too long for RT pointers")
        return packed

    # ------------------------------------------------------------------
    # accessors mirroring the reference index
    # ------------------------------------------------------------------

    def __len__(self):
        return self._n

    @property
    def node_count(self):
        """Backbone nodes including the root."""
        return self._n + 1

    @property
    def text(self):
        """The indexed string, decoded from the label region."""
        return self.alphabet.decode(self._codes[1:].tolist())

    def _decode_ptr(self, ref):
        ptr = -ref - 1
        return ptr >> _PTR_CLASS_SHIFT, ptr & _PTR_ROW_MASK

    def link(self, i):
        """``(dest, LEL)`` of node ``i`` (overflow-resolved)."""
        if not 1 <= i <= self._n:
            raise SearchError(f"node {i} out of range or is the root")
        ref = int(self._lt_ref[i])
        if ref >= 0:
            dest = ref
        else:
            fanout, row = self._decode_ptr(ref)
            dest = int(self._tables[fanout].ld[row])
        lel = int(self._lt_lel[i])
        if lel == OVERFLOW_SENTINEL:
            lel = self._lel_overflow.get(i, lel)
        return dest, lel

    def iter_link_entries(self, lo=0, hi=None, min_lel=0):
        """Yield ``(j, dest, LEL)`` for nodes ``lo < j <= hi`` with
        ``LEL >= min_lel`` (the shared downstream-scan primitive).

        Candidate selection is vectorized over the stored LEL column —
        entries at the overflow sentinel qualify for any floor and are
        resolved through the overflow table before being yielded.
        """
        n = self._n if hi is None else min(hi, self._n)
        if lo >= n:
            return
        threshold = min(min_lel, OVERFLOW_SENTINEL)
        # Scan only the requested (lo, n] slice so windowed sweeps
        # (cancellation chunking) stay linear in the total range.
        candidates = np.nonzero(
            self._lt_lel[lo + 1:n + 1] >= threshold)[0] + (lo + 1)
        lt_ref = self._lt_ref
        lt_lel = self._lt_lel
        for j in candidates:
            j = int(j)
            ref = int(lt_ref[j])
            if ref >= 0:
                dest = ref
            else:
                fanout, row = self._decode_ptr(ref)
                dest = int(self._tables[fanout].ld[row])
            lel = int(lt_lel[j])
            if lel == OVERFLOW_SENTINEL:
                lel = self._lel_overflow.get(j, lel)
                if lel < min_lel:
                    continue
            yield j, dest, lel

    def ribs_at(self, node):
        """Dict ``code -> (dest, PT)`` at ``node`` (mirrors reference)."""
        ref = int(self._lt_ref[node]) if node <= self._n else 0
        if ref >= 0:
            return {}
        fanout, row = self._decode_ptr(ref)
        table = self._tables[fanout]
        return {
            int(table.codes[row, s]): (int(table.dests[row, s]),
                                       int(table.pts[row, s]))
            for s in range(fanout)
        }

    def vertebra_label(self, i):
        """Character code of the vertebra into node ``i`` (1-based)."""
        if not 1 <= i <= self._n:
            raise SearchError(f"vertebra {i} out of range")
        return int(self._codes[i])

    def rib(self, node, code):
        """``(dest, PT)`` of the rib at ``node`` for ``code``, or None."""
        return self.ribs_at(node).get(code)

    def extrib_chain(self, node, code):
        """The extrib chain ``[(dest, PT), ...]`` of the rib at ``node``
        for ``code`` (empty when the rib has never been extended)."""
        ref = int(self._lt_ref[node]) if 0 <= node <= self._n else 0
        if ref >= 0:
            return []
        fanout, row = self._decode_ptr(ref)
        table = self._tables[fanout]
        for slot in range(fanout):
            if int(table.codes[row, slot]) != code:
                continue
            span = self._chains.get((fanout, row, slot))
            if span is None:
                return []
            offset, length = span
            return [(int(self._ext_dest[k]), int(self._ext_pt[k]))
                    for k in range(offset, offset + length)]
        return []

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------

    def step(self, node, pathlength, code, _span=None):
        """Identical contract to :meth:`SpineIndex.step` (``_span`` is
        an active trace span collecting the edge decisions)."""
        if node < self._n and self._codes[node + 1] == code:
            if _span is not None:
                _span.vertebra(node)
            return node + 1
        ref = int(self._lt_ref[node])
        if ref >= 0:
            if _span is not None:
                _span.event("no-edge", node=node, code=int(code),
                            pathlength=pathlength)
            return None
        fanout, row = self._decode_ptr(ref)
        table = self._tables[fanout]
        codes = table.codes[row]
        for slot in range(fanout):
            if codes[slot] != code:
                continue
            dest = int(table.dests[row, slot])
            pt = int(table.pts[row, slot])
            if _span is not None:
                _span.event("enter-rib", node=node, code=int(code),
                            dest=dest, pt=pt, pathlength=pathlength)
            if pathlength <= pt:
                if _span is not None:
                    _span.event("pt-accept", node=node, pt=pt,
                                pathlength=pathlength, dest=dest)
                return dest
            if _span is not None:
                _span.event("pt-reject", node=node, pt=pt,
                            pathlength=pathlength)
            chain = self._chains.get((fanout, row, slot))
            if chain is None:
                if _span is not None:
                    _span.event("no-edge", node=node, code=int(code),
                                pathlength=pathlength,
                                exhausted="extribs")
                return None
            offset, length = chain
            ext_pt = self._ext_pt
            for k in range(offset, offset + length):
                e_pt = int(ext_pt[k])
                e_dest = int(self._ext_dest[k])
                taken = e_pt >= pathlength
                if _span is not None:
                    _span.event("extrib-fallthrough", node=node,
                                pt=e_pt, pathlength=pathlength,
                                dest=e_dest, taken=taken)
                if taken:
                    return e_dest
            if _span is not None:
                _span.event("no-edge", node=node, code=int(code),
                            pathlength=pathlength, exhausted="extribs")
            return None
        if _span is not None:
            _span.event("no-edge", node=node, code=int(code),
                        pathlength=pathlength)
        return None

    # ------------------------------------------------------------------
    # queries (one-line calls into the query core, repro.core.batch)
    # ------------------------------------------------------------------

    #: Metric and span family of this layer's queries.
    METRIC_FAMILY = "packed.search"

    def read_locked(self):
        """No-op: the packed layout is immutable."""
        return _batch.NO_LOCK

    def contains(self, pattern):
        """True iff ``pattern`` occurs in the indexed string."""
        return _batch.contains_at(self, pattern, self._n)

    def find_first(self, pattern):
        """0-indexed start of the first occurrence, or ``None``."""
        return _batch.find_first_at(self, pattern, self._n)

    def find_all(self, pattern):
        """Sorted 0-indexed starts of all occurrences."""
        return _batch.find_all_at(self, pattern, self._n)

    def count(self, pattern):
        """Number of (overlapping) occurrences of ``pattern``."""
        return len(_batch.find_all_at(self, pattern, self._n))

    def matching_statistics(self, query):
        """Matching statistics against the packed layout.

        Same semantics and check accounting as
        :func:`repro.core.matching.matching_statistics`; exists so the
        compact layout offers the full query surface.
        """
        from repro.core.matching import MatchingResult

        result = MatchingResult()
        cur, length = 0, 0
        for code in self.alphabet.encode(query):
            hit = self._extend_longest(cur, length, code, result)
            if hit is None:
                cur, length = 0, 0
            else:
                cur, length = hit
            result.lengths.append(length)
            result.end_nodes.append(cur)
        return result

    def _extend_longest(self, cur, length, code, result):
        n = self._n
        codes = self._codes
        while True:
            result.checks += 1
            if cur < n and codes[cur + 1] == code:
                return cur + 1, length + 1
            cand_dest = -1
            cand_pt = -1
            ref = int(self._lt_ref[cur])
            if ref < 0:
                fanout, row = self._decode_ptr(ref)
                table = self._tables[fanout]
                link_dest = int(table.ld[row])
                row_codes = table.codes[row]
                for slot in range(fanout):
                    if row_codes[slot] != code:
                        continue
                    dest = int(table.dests[row, slot])
                    pt = int(table.pts[row, slot])
                    if length <= pt:
                        return dest, length + 1
                    cand_dest, cand_pt = dest, pt
                    span = self._chains.get((fanout, row, slot))
                    if span is not None:
                        offset, count = span
                        for k in range(offset, offset + count):
                            e_pt = int(self._ext_pt[k])
                            if e_pt >= length:
                                return int(self._ext_dest[k]), length + 1
                            cand_dest = int(self._ext_dest[k])
                            cand_pt = e_pt
                    break
            else:
                link_dest = ref
            if cur == 0:
                return None
            lel = int(self._lt_lel[cur])
            if lel == OVERFLOW_SENTINEL:
                lel = self._lel_overflow.get(cur, lel)
            if cand_pt >= lel:
                return cand_dest, cand_pt + 1
            cur = link_dest
            length = lel
            result.link_hops += 1

    # ------------------------------------------------------------------
    # space accounting
    # ------------------------------------------------------------------

    def measured_bytes(self):
        """Modeled byte usage of this index under the paper's field
        widths (not Python object overhead). Returns a breakdown dict;
        ``total / len`` is the bytes-per-character figure of Section 5."""
        from repro.core.layout import (
            POINTER_BYTES, SHORT_LABEL_BYTES, _label_bits)

        n = self._n
        bits = _label_bits(self._asize)
        lt = (n + 1) * (POINTER_BYTES + SHORT_LABEL_BYTES)
        cl = (n * bits + 7) // 8
        rt = 0
        rib_slots = 0
        for fanout, table in self._tables.items():
            rows = table.rows
            rib_slots += rows * fanout
            per_row = POINTER_BYTES \
                + fanout * (POINTER_BYTES + SHORT_LABEL_BYTES) \
                + (fanout * bits + 7) // 8
            rt += rows * per_row
        ext = len(self._ext_dest) * (POINTER_BYTES + 2 * SHORT_LABEL_BYTES)
        overflow = (len(self._lel_overflow) + len(self._pt_overflow)) * 4
        total = lt + cl + rt + ext + overflow
        return {
            "link_table": lt,
            "character_labels": cl,
            "rib_tables": rt,
            "extrib_region": ext,
            "overflow_table": overflow,
            "total": total,
            "bytes_per_char": total / n if n else float(total),
            "rib_slots": rib_slots,
        }

    def __repr__(self):
        return (f"PackedSpineIndex(n={self._n}, "
                f"classes={sorted(self._tables)}, "
                f"extribs={len(self._ext_dest)})")
