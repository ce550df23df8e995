"""Differential lock-in of the cross-layer pattern-edge-case contract.

Every query entry point — in-memory, packed, disk, batch, serve, and
sharded — must agree on the two degenerate pattern classes (and, for
ordinary patterns, on the answers themselves, including Section-2.7
prefix reads through ``SnapshotGuard``):

``""`` (empty pattern)
    ``contains`` is ``True`` (the empty string occurs everywhere),
    ``find_first`` is ``0``, and ``find_all`` / ``count`` raise
    :class:`SearchError` (the occurrence list would be every position —
    ill-defined as an answer set).

unencodable (out-of-alphabet characters)
    A clean miss everywhere: ``contains`` ``False``, ``find_all``
    ``[]``, ``count`` ``0``, ``find_first`` ``None``, batch status
    ``"alphabet-miss"``. Never an exception — a pattern that cannot be
    encoded cannot occur, which is an answer, not an error.
"""

import pytest

from repro import (QueryService, ShardedSpineIndex, SnapshotGuard,
                   SpineIndex)
from repro.core.batch import batch_find_all
from repro.core.packed import PackedSpineIndex
from repro.disk.spine_disk import DiskSpineIndex
from repro.exceptions import SearchError

from repro.sequences import generate_dna

from tests.conftest import PAPER_STRING, brute_occurrences

FOREIGN = "axz!"


def _layers(tmp_path, text=PAPER_STRING):
    memory = SpineIndex(text)
    packed = PackedSpineIndex.from_index(memory)
    disk = DiskSpineIndex(alphabet=memory.alphabet,
                          path=str(tmp_path / "sem.pages"))
    disk.extend(text)
    sharded = ShardedSpineIndex.build(text, shards=3,
                                      max_pattern_len=8)
    return {"memory": memory, "packed": packed, "disk": disk,
            "sharded": sharded}


def test_all_layers_agree_on_degenerate_patterns(tmp_path):
    layers = _layers(tmp_path)
    try:
        for name, index in layers.items():
            # Empty pattern.
            assert index.contains("") is True, name
            assert index.find_first("") == 0, name
            with pytest.raises(SearchError):
                index.find_all("")
            with pytest.raises(SearchError):
                index.count("")
            # Unencodable pattern: clean miss, never a raise.
            assert index.contains(FOREIGN) is False, name
            assert index.find_all(FOREIGN) == [], name
            assert index.count(FOREIGN) == 0, name
            assert index.find_first(FOREIGN) is None, name
    finally:
        layers["disk"].close()
        layers["sharded"].close()


def test_all_layers_agree_on_regular_patterns(tmp_path):
    """Sanity differential: same answers for ordinary patterns too."""
    layers = _layers(tmp_path)
    reference = layers["memory"]
    try:
        for pattern in ("ac", "ca", "aacc", "accaa", "a", "caaca"):
            expected = reference.find_all(pattern)
            for name, index in layers.items():
                assert index.find_all(pattern) == expected, \
                    (name, pattern)
                assert index.count(pattern) == len(expected), name
                assert index.contains(pattern) == bool(expected), name
                assert index.find_first(pattern) == \
                    (expected[0] if expected else None), name
    finally:
        layers["disk"].close()
        layers["sharded"].close()


def test_batch_path_agrees(tmp_path):
    layers = _layers(tmp_path)
    try:
        for name in ("memory", "packed", "disk"):
            with pytest.raises(SearchError):
                batch_find_all(layers[name], ["ac", ""])
            (match,) = batch_find_all(layers[name], [FOREIGN])
            assert match.status == "alphabet-miss", name
            assert match.starts == [], name
        with pytest.raises(SearchError):
            layers["sharded"].batch_find_all(["ac", ""])
        (match,) = layers["sharded"].batch_find_all([FOREIGN])
        assert match.status == "alphabet-miss"
    finally:
        layers["disk"].close()
        layers["sharded"].close()


def test_serve_path_agrees():
    index = SpineIndex(PAPER_STRING)
    guard = SnapshotGuard(index)
    assert guard.contains("") is True
    with pytest.raises(SearchError):
        guard.find_all("")
    assert guard.contains(FOREIGN) is False
    assert guard.find_all(FOREIGN) == []
    with QueryService(index, threads=2) as svc:
        assert svc.contains("") is True
        with pytest.raises(SearchError):
            svc.find_all("")
        assert svc.find_all(FOREIGN) == []
        (match,) = svc.batch_find_all([FOREIGN])
        assert match.status == "alphabet-miss"
        with pytest.raises(SearchError):
            svc.batch_find_all([""])


def test_prefix_reads_agree_across_layers(tmp_path):
    """Section 2.7 prefix reads on every layer, and direct == served.

    ``SnapshotGuard(index, limit=k)`` must answer exactly as the index
    of ``text[:k]`` would, for every layer and a sweep of ``k``; at
    ``k = len(index)`` each layer's own verbs must equal the served
    ones.
    """
    text = generate_dna(240, seed=5)
    patterns = sorted({text[i:i + m] for m in (1, 2, 3, 5, 8)
                       for i in range(0, 232, 29)})
    patterns += ["ACGTACGT", "GATTACA", FOREIGN]
    layers = _layers(tmp_path, text)
    try:
        for name, index in layers.items():
            n = len(index)
            for k in sorted(set(range(0, n + 1, 37)) | {1, 8, n}):
                guard = SnapshotGuard(index, limit=k)
                batch = guard.batch_find_all(patterns)
                for pattern, match in zip(patterns, batch):
                    want = brute_occurrences(text[:k], pattern)
                    where = (name, k, pattern)
                    assert guard.contains(pattern) == bool(want), where
                    assert guard.find_all(pattern) == want, where
                    assert match.starts == want, where
            served = SnapshotGuard(index)
            for pattern in patterns:
                starts = served.find_all(pattern)
                assert index.find_all(pattern) == starts, (name, pattern)
                assert index.contains(pattern) == \
                    served.contains(pattern), (name, pattern)
                assert index.count(pattern) == len(starts), name
                assert index.find_first(pattern) == \
                    (starts[0] if starts else None), (name, pattern)
    finally:
        layers["disk"].close()
        layers["sharded"].close()
