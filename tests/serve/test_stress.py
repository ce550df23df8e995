"""Concurrency stress: threaded queries against the disk layer under a
deliberately tiny buffer pool.

Run directly in CI as a smoke step:

    PYTHONPATH=src python -m pytest tests/serve/test_stress.py -q

Readers hammer ``batch_find_all`` (multi-threaded traversal phases,
pinned page access, shared LT sweeps) and the served single-pattern
reads (``contains`` / ``find_all`` through ``SnapshotGuard`` and
``QueryService``, flat and sharded) while a writer keeps extending the
index; the read-write lock must serialize them such that every answer
is exactly correct for the index length it observed — no lost
occurrences, no duplicates, no torn reads.
"""

import random
import sys
import threading

import pytest

from repro.alphabet import dna_alphabet
from repro.core import batch_find_all
from repro.disk.spine_disk import DiskSpineIndex
from repro.serve import QueryService, SnapshotGuard
from repro.shard import ShardedSpineIndex

from tests.conftest import brute_occurrences


@pytest.mark.parametrize("policy", ["lru", "pintop"])
def test_threaded_batches_during_growth(policy):
    rng = random.Random(0x5EED)
    text = "".join(rng.choice("ACGT") for _ in range(1500))
    seed = 300
    disk = DiskSpineIndex(alphabet=dna_alphabet(), buffer_pages=4,
                          page_size=512, policy=policy)
    disk.extend(text[:seed])
    disk.enable_concurrent_reads()

    patterns = ["ACG", "GT", "TTA", "ACGT", "CCC", "AXQ"]
    # Exact oracle for every reachable prefix length.
    prefix_lengths = list(range(seed, len(text) + 1, 50))
    oracle = {
        k: {p: brute_occurrences(text[:k], p) for p in patterns}
        for k in prefix_lengths
    }

    errors = []
    stop = threading.Event()

    def reader():
        local = random.Random(threading.get_ident())
        try:
            while not stop.is_set():
                # Pin the snapshot to a known prefix length (the index
                # only grows, so any k <= len(disk) stays valid) and
                # demand the exact answer for that prefix.
                reachable = [k for k in prefix_lengths
                             if k <= len(disk)]
                k = local.choice(reachable)
                results = batch_find_all(disk, patterns, threads=3,
                                         limit=k)
                got = [m.starts for m in results]
                want = [oracle[k][p] for p in patterns]
                if got != want:
                    errors.append((k, got, want))
                    return
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(3)]
    for t in threads:
        t.start()
    try:
        for pos in range(seed, len(text), 50):
            disk.extend(text[pos:pos + 50])
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=60)
    try:
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors[:1]
        # Final state sanity after all the concurrent traffic.
        final = batch_find_all(disk, patterns, threads=3)
        for match in final:
            assert match.starts == brute_occurrences(text, match.pattern)
    finally:
        disk.close()


@pytest.mark.parametrize("layout", ["flat", "sharded"])
def test_served_single_pattern_reads_during_growth(layout):
    """``contains``/``find_all`` through ``SnapshotGuard`` and
    ``QueryService`` on a disk index while ``extend`` rewrites pages.

    Single-pattern reads must take the index's read lock exactly like
    batches do: an unlocked read races the writer's page rewrites under
    a 4-page pool (the writer or a reader then fails with a
    ``StorageError`` such as "page N not resident"). Every answer must
    equal the oracle for the prefix the read observed.
    """
    rng = random.Random(0xD15C)
    text = "".join(rng.choice("ACGT") for _ in range(4000))
    seed, chunk = 1000, 50
    options = dict(buffer_pages=4, page_size=512)
    if layout == "flat":
        index = DiskSpineIndex(alphabet=dna_alphabet(), **options)
        index.extend(text[:seed])
    else:
        index = ShardedSpineIndex.build(
            text[:seed], shards=3, max_pattern_len=8,
            alphabet=dna_alphabet(), layer="disk", **options)
    patterns = ["GATTACA", "ACG", "TTAG", "CCCA"]
    errors = []
    stop = threading.Event()

    def guard_reader():
        try:
            while not stop.is_set():
                guard = SnapshotGuard(index)
                k = guard.limit
                for pattern in patterns:
                    want = brute_occurrences(text[:k], pattern)
                    got = (guard.contains(pattern),
                           guard.find_all(pattern))
                    if got != (bool(want), want):
                        errors.append(("guard", pattern, k, got, want))
                        return
        except Exception as exc:
            errors.append(exc)

    def service_reader(svc):
        try:
            while not stop.is_set():
                for pattern in patterns:
                    # The service snapshots somewhere between these two
                    # lengths; its answer must be exact for one of them.
                    before = len(index)
                    found = svc.contains(pattern)
                    starts = svc.find_all(pattern)
                    after = len(index)
                    # ``contains`` is monotonic in the prefix length, so
                    # its two possible answers are those at the ends.
                    found_ok = any(found == (pattern in text[:k])
                                   for k in (before, after))
                    starts_ok = any(
                        starts == brute_occurrences(text[:k], pattern)
                        for k in range(before, after + 1))
                    if not (found_ok and starts_ok):
                        errors.append(("service", pattern, before,
                                       after, found, starts))
                        return
        except Exception as exc:
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # more interleavings per extend
    try:
        with QueryService(index, threads=2) as svc:
            threads = [
                threading.Thread(target=guard_reader),
                threading.Thread(target=service_reader, args=(svc,))]
            for t in threads:
                t.start()
            try:
                for pos in range(seed, len(text), chunk):
                    svc.extend(text[pos:pos + chunk])
            finally:
                stop.set()
                for t in threads:
                    t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    try:
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors[:1]
        for pattern in patterns:
            assert index.find_all(pattern) == brute_occurrences(
                text, pattern)
    finally:
        index.close()
