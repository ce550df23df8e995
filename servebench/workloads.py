"""The three served-path workloads.

Every workload makes its inputs from the seed alone
(``generate_dna`` with planted repeats, and ``derive_sequence`` for
mutated reads); the program only ever sees those inputs. All load comes
from this one process, in closed loops: a client sends its next request
once the previous reply is in. The query service uses at most two
worker threads, because the reference machine has two cores.

Every workload runs the same four kinds of timed op, ``contains``,
``find_all``, ``batch_find_all`` and ``extend``, so that each reports
every end-to-end metric; what differs is the layer under them.

``mem-serve``
    A memory :class:`~repro.core.index.SpineIndex` behind
    ``QueryService(threads=2)``. Everything fits in memory, so time goes
    to traversal, the link sweep and the serve wrapper.
``disk-shard-cold``
    ``ShardedSpineIndex`` over four disk shards, reopened with LRU pools
    of a quarter of each shard's pages. Page access and the shard
    fan-out/merge dominate.
``disk-ingest``
    A file-backed ``DiskSpineIndex`` (WAL fsync ``always``) whose pool
    holds the whole final index. One client extends, checkpoints and
    looks up what it just ingested. Construction through the pool, WAL
    appends and fsyncs, and checkpoints dominate.
"""

from __future__ import annotations

import math
import os
import random
import shutil
import time

from repro.alphabet import dna_alphabet
from repro.core import matching as _matching
from repro.core.index import SpineIndex
from repro.core.serialize import save_index
from repro.disk import DiskSpineIndex
from repro.exceptions import ReproError
from repro.sequences.generator import generate_dna
from repro.sequences.mutations import derive_sequence
from repro.serve import QueryService
from repro.shard import ShardedSpineIndex

from oracles import (SubstringIndex, check, contains_answers,
                     find_all_answers, make_oracle, matching_lengths)

perf = time.perf_counter

#: Per-query budget: far above any op's latency, so it never fires but
#: keeps the deadline checkpoints on the measured path.
DEADLINE_S = 60.0

FAILED = object()
INDEX_FILE = "index.pages"


class Samples:
    """Latencies and outcomes of the ops of one client thread."""

    def __init__(self):
        self.latencies = {}     # op -> [seconds], successful ops only
        self.attempted = 0
        self.failed = 0
        self.chars = {}         # op -> characters processed

    def merge(self, other):
        for op, values in other.latencies.items():
            self.latencies.setdefault(op, []).extend(values)
        for op, chars in other.chars.items():
            self.chars[op] = self.chars.get(op, 0) + chars
        self.attempted += other.attempted
        self.failed += other.failed

    @property
    def completed(self):
        return self.attempted - self.failed

    def busy_rate(self):
        """Completed ops per second of time spent inside them."""
        busy = sum(sum(values) for values in self.latencies.values())
        return self.completed / busy


def timed(samples, trace, op, fn, *args):
    """Run one op, timing it; a library error counts the op as failed
    (refused, timed out or broken) and returns :data:`FAILED`."""
    samples.attempted += 1
    sid = trace.log.begin_op() if trace is not None else None
    start = perf()
    try:
        result = fn(*args)
    except ReproError:
        result = FAILED
    finally:
        end = perf()
        if sid is not None:
            trace.log.end_op(sid, op, start, end)
    if result is FAILED:
        samples.failed += 1
    else:
        samples.latencies.setdefault(op, []).append(end - start)
    return result


def _substring(rng, text, lo, hi):
    m = rng.randint(lo, hi)
    s = rng.randrange(len(text) - m)
    return text[s:s + m]


def _spread(rng, text, count, lo, hi, unique=False):
    """``count`` substrings of ``lo``-``hi`` chars at evenly spread
    positions: one in the middle tenth of each stratum of the text,
    listed in bit-reversed stratum order so that every prefix of the
    list is spread evenly too. Where a pattern first occurs sets the
    length of its occurrence sweep, and on shards how many shards
    ``contains`` visits, so an even spread keeps those costs alike
    across seeds. With ``unique``, a pattern is drawn again within its
    stratum until it occurs exactly once, so that its position alone
    sets its cost."""
    bits = count.bit_length() - 1
    if count != 1 << bits:
        raise ValueError("count must be a power of two")
    width = (len(text) - hi) / count
    out = []
    for k in range(count):
        stratum = int(format(k, f"0{bits}b")[::-1], 2) if bits else 0
        for _ in range(64):
            m = rng.randint(lo, hi)
            s = int((stratum + 0.45 + 0.1 * rng.random()) * width)
            pattern = text[s:s + m]
            if not unique or (text.find(pattern) == s
                              and text.find(pattern, s + 1) == -1):
                break
        out.append(pattern)
    return out


def _interleave(first, second, share, count):
    """``count`` items, taken in order from ``first`` and ``second``:
    item ``i`` comes from ``second`` when ``floor((i + 1) * share)``
    exceeds ``floor(i * share)``, so every run of items holds ``share``
    of ``second`` to within one item."""
    a, b = iter(first), iter(second)
    return [next(b) if math.floor((i + 1) * share) > math.floor(i * share)
            else next(a) for i in range(count)]


def _absent(rng, text, count, lo, hi):
    """``count`` patterns that occur nowhere in ``text``: substrings
    with two substituted characters, kept only when absent."""
    out = []
    while len(out) < count:
        chars = list(_substring(rng, text, lo, hi))
        for _ in range(2):
            i = rng.randrange(len(chars))
            chars[i] = rng.choice("ACGT".replace(chars[i], ""))
        pattern = "".join(chars)
        if pattern not in text:
            out.append(pattern)
    return out


class Session:
    """The served system one set-up produced.

    ``directory`` holds every file the index keeps (``None`` for the
    memory layer); ``chars`` is the number of characters indexed and
    acknowledged, which the extends advance.
    """

    def __init__(self, service, index, chars, pagefiles=(),
                 directory=None):
        self.service = service
        self.index = index
        self.chars = chars
        self.pagefiles = list(pagefiles)
        self.directory = directory


class Workload:
    """Inputs, set-up, client loop and teardown of one workload."""

    name = ""
    #: A timed run is this many sessions in a row, each with a set-up
    #: of its own, that share ``--seconds`` evenly.
    sessions = 4
    #: Characters indexed at set-up; the extends append the rest of
    #: the text.
    base_chars = 0
    chunk_chars = 500

    def __init__(self, seed, seconds, workdir, base_chars=None):
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        if base_chars is not None:
            self.base_chars = base_chars
        #: Durations of the measured run's set-ups, in seconds.
        self.setup_times = []

    def describe(self):
        """The workload record printed with the results."""
        raise NotImplementedError

    def make_inputs(self):
        raise NotImplementedError

    def make_expectations(self):
        raise NotImplementedError

    def setup(self, rep):
        raise NotImplementedError

    def index_bytes(self, session):
        """Bytes of every file the index keeps."""
        path = session.directory
        return sum(os.path.getsize(os.path.join(path, name))
                   for name in os.listdir(path))

    def teardown(self, session):
        session.service.close()

    def discard(self, session):
        """Tear down a session and delete its files."""
        self.teardown(session)


class ReadMix(Workload):
    """A single closed-loop client: a fixed run of extends, then a
    fixed, seeded read mix over the extended text.

    The extends append :attr:`extend_chunks` chunks of
    :attr:`chunk_chars` characters, the text after its first
    :attr:`base_chars`, through ``QueryService.extend``; every read is
    answered on the whole text. The read schedule is one pass over the
    inputs, a list of ``(op, input index)`` that holds every input
    once: :attr:`rounds` rounds of :attr:`mix` (ops per round), shuffled
    within each round, each kind walking its input pool in list order.
    A timed run repeats the pass until time is up; a traced phase runs a
    fixed prefix of the repeated pass, so its work counts repeat exactly
    for a given seed.
    """

    mix = {}
    reads = ()
    rounds = 8
    extend_chunks = 128
    #: Rounds per second of ``--seconds`` in each traced phase.
    trace_rounds_per_s = 1.0
    warmup_rounds = 1

    def __init__(self, seed, seconds, workdir, base_chars=None,
                 extend_chunks=None):
        super().__init__(seed, seconds, workdir, base_chars)
        if extend_chunks is not None:
            self.extend_chunks = extend_chunks

    def make_text(self):
        return generate_dna(
            self.base_chars + self.extend_chunks * self.chunk_chars,
            seed=self.seed)

    def extend_ops(self):
        return [("extend", k) for k in range(self.extend_chunks)]

    def check_extended(self, session):
        """The extends must have indexed the whole text."""
        check("extend", len(session.index), len(self.text),
              "indexed length after the extends")

    def pool(self, op):
        """Inputs of ``op`` in the pool, which one pass runs once each."""
        return self.mix.get(op, 0) * self.rounds

    def schedule(self, rng):
        used = dict.fromkeys(self.mix, 0)
        ops = []
        for _ in range(self.rounds):
            kinds = [op for op, count in self.mix.items()
                     for _ in range(count)]
            rng.shuffle(kinds)
            for op in kinds:
                ops.append((op, used[op]))
                used[op] += 1
        return ops

    def ops_per_round(self):
        return sum(self.mix.values())

    def trace_ops(self):
        rounds = max(1, round(self.seconds * self.trace_rounds_per_s))
        return rounds * self.ops_per_round()

    def warmup_ops(self):
        return self.warmup_rounds * self.ops_per_round()

    def make_expectations(self):
        oracle = make_oracle(self.text)
        self.want_contains = contains_answers(oracle,
                                              self.contains_patterns)
        patterns = set(self.find_patterns)
        for batch in self.batches:
            patterns.update(batch)
        self.want_find_all = find_all_answers(oracle, patterns)
        substrings = SubstringIndex(oracle.text) if self.reads else None
        self.want_match = [matching_lengths(substrings, read)
                           for read in self.reads]

    def run(self, session, ops, trace=None, deadline=None, minimum=0):
        """Run ``ops`` in order (until ``deadline``, when given, once
        ``minimum`` ops have run); returns their samples."""
        samples = Samples()
        execute = self.execute
        for done, op in enumerate(ops):
            if (deadline is not None and done >= minimum
                    and perf() >= deadline):
                break
            execute(session, op, samples, trace)
        return samples

    def execute(self, session, op, samples, trace):
        kind, i = op
        service = session.service
        if kind == "contains":
            pattern = self.contains_patterns[i]
            got = timed(samples, trace, kind, service.contains, pattern)
            if got is not FAILED:
                check(kind, got, self.want_contains[pattern],
                      repr(pattern))
        elif kind == "find_all":
            pattern = self.find_patterns[i]
            got = timed(samples, trace, kind, service.find_all, pattern)
            if got is not FAILED:
                check(kind, list(got), self.want_find_all[pattern],
                      repr(pattern))
        elif kind == "batch":
            batch = self.batches[i]
            got = timed(samples, trace, kind, service.batch_find_all,
                        batch)
            if got is not FAILED:
                want = self.want_find_all
                check(kind,
                      [(m.pattern, m.status, list(m.starts)) for m in got],
                      [(p, "hit" if want[p] else "miss", want[p])
                       for p in batch],
                      f"#{i}")
        elif kind == "match":
            read = self.reads[i]
            got = timed(samples, trace, kind,
                        _matching.matching_statistics, session.index, read)
            if got is not FAILED:
                samples.chars["match"] = (samples.chars.get("match", 0)
                                          + len(read))
                check(kind, got.lengths, self.want_match[i], f"read #{i}")
        elif kind == "extend":
            at = self.base_chars + i * self.chunk_chars
            chunk = self.text[at:at + self.chunk_chars]
            if timed(samples, trace, kind, service.extend,
                     chunk) is not FAILED:
                session.chars += len(chunk)
                samples.chars["extend"] = (samples.chars.get("extend", 0)
                                           + len(chunk))
        else:
            raise ValueError(f"unknown op {kind!r}")

    def _make_batches(self, rng, rare, frequent, duplicates):
        batches = []
        for _ in range(self.pool("batch")):
            unique = ([_substring(rng, self.text, 16, 32)
                       for _ in range(rare)]
                      + [_substring(rng, self.text, *self.frequent_lengths)
                         for _ in range(frequent)])
            batch = unique + [rng.choice(unique)
                              for _ in range(duplicates)]
            rng.shuffle(batch)
            batches.append(batch)
        return batches

    def _make_patterns(self, rng):
        text = self.text
        half = self.pool("contains") // 2
        self.contains_patterns = _interleave(
            _spread(rng, text, half, 12, 20, unique=True),
            _absent(rng, text, half, 16, 24), 0.5, 2 * half)
        finds = self.pool("find_all")
        self.find_patterns = _interleave(
            _spread(rng, text, finds, 16, 32, unique=True),
            _spread(rng, text, finds, *self.frequent_lengths),
            self.frequent_share, finds)

    def _extends_record(self):
        return (f"before the reads, {self.extend_chunks} "
                f"QueryService.extend of {self.chunk_chars} chars")


class MemServe(ReadMix):
    """Memory index behind the query service."""

    name = "mem-serve"
    mix = {"contains": 128, "find_all": 8, "batch": 4, "match": 8}
    sessions = 5
    frequent_share = 0.3
    frequent_lengths = (6, 8)
    read_chars = 2000
    base_chars = 200_000

    def describe(self):
        return {
            "loop": "closed, 1 client; QueryService(threads=2, "
                    "max_concurrent=2, default_deadline=60 s)",
            "mix per round": "128 contains (half absent); 8 find_all "
                             "(30% 6-8-mers, the rest 16-32-mers that "
                             "occur once); 4 batch_find_all of 32 (4 "
                             "duplicates); 8 matching_statistics of "
                             f"{self.read_chars}-char mutated reads; "
                             f"{self.rounds} rounds run every input "
                             f"once; {self._extends_record()}",
            "text": f"{self.base_chars} chars at set-up, "
                    f"{len(self.text)} after the extends; memory layer",
            "pool": "none (memory layer)",
            "fsync": "none (no files)",
        }

    def make_inputs(self):
        rng = random.Random(self.seed)
        self.text = self.make_text()
        self._make_patterns(rng)
        self.batches = self._make_batches(rng, rare=22, frequent=6,
                                          duplicates=4)
        derived = derive_sequence(self.text, seed=self.seed + 1)
        span = min(self.read_chars, len(derived))
        self.reads = [derived[s:s + span] for s in
                      (rng.randrange(len(derived) - span + 1)
                       for _ in range(self.pool("match")))]
        self.ops = self.schedule(rng)

    def setup(self, rep):
        index = SpineIndex(self.text[:self.base_chars],
                           alphabet=dna_alphabet())
        service = QueryService(index, threads=2,
                               default_deadline=DEADLINE_S,
                               max_concurrent=2)
        return Session(service, index, self.base_chars)

    def index_bytes(self, session):
        """The memory layer keeps no files: the size of its saved form
        (``save_index``)."""
        path = os.path.join(self.workdir, "saved.spine")
        save_index(session.index, path)
        try:
            return os.path.getsize(path)
        finally:
            os.remove(path)


class DiskShardCold(ReadMix):
    """Four disk shards whose pools hold a quarter of their pages."""

    name = "disk-shard-cold"
    #: Many contains per round, so that a run has thousands and a burst
    #: of slow ones moves the tail percentile little.
    mix = {"contains": 256, "find_all": 4, "batch": 2}
    #: Short passes, so that five sessions, each at least one pass,
    #: fit in a run.
    rounds = 2
    sessions = 5
    #: 4-5-mers occur near the start of every shard of this text, as
    #: 6-8-mers do in the larger memory text.
    frequent_share = 0.25
    frequent_lengths = (4, 5)
    trace_rounds_per_s = 0.5
    shards = 4
    pool_share = 0.25
    max_pattern_len = 32
    base_chars = 32_000
    chunk_chars = 125
    extend_chunks = 64

    def __init__(self, seed, seconds, workdir, base_chars=None,
                 extend_chunks=None):
        super().__init__(seed, seconds, workdir, base_chars,
                         extend_chunks)
        self.pool_pages = None
        self.index_pages = None

    def describe(self):
        return {
            "loop": "closed, 1 client; QueryService(threads=2, "
                    "default_deadline=60 s), per-shard breakers on, "
                    "degraded off",
            "mix per round": "256 contains (half absent); 4 find_all "
                             "(25% 4-5-mers, the rest 16-32-mers that "
                             "occur once); 2 batch_find_all of 32 (4 "
                             f"duplicates); {self.rounds} rounds run "
                             f"every input once; {self._extends_record()}"
                             " (into the tail shard)",
            "text": f"{self.base_chars} chars in {self.shards} disk "
                    "shards (built with workers=2), "
                    f"{len(self.text)} after the extends",
            "pool": f"LRU, {self.pool_pages} pages per shard against "
                    f"{self.index_pages} index pages per shard at set-up",
            "fsync": "always (WAL fsync per extend)",
        }

    def make_inputs(self):
        rng = random.Random(self.seed)
        self.text = self.make_text()
        self._make_patterns(rng)
        self.batches = self._make_batches(rng, rare=24, frequent=4,
                                          duplicates=4)
        self.ops = self.schedule(rng)

    def setup(self, rep):
        path = os.path.join(self.workdir, f"shards-{rep}")
        shutil.rmtree(path, ignore_errors=True)
        built = ShardedSpineIndex.build(
            self.text[:self.base_chars], shards=self.shards,
            max_pattern_len=self.max_pattern_len,
            alphabet=dna_alphabet(), workers=2, layer="disk", path=path)
        pages = [s.index.pagefile.page_count for s in built._shards]
        built.close()
        self.index_pages = round(sum(pages) / len(pages))
        self.pool_pages = max(2, round(self.index_pages * self.pool_share))
        index = ShardedSpineIndex.load(path, buffer_pages=self.pool_pages)
        index.enable_breakers()
        service = QueryService(index, threads=2,
                               default_deadline=DEADLINE_S,
                               degraded=False)
        return Session(service, index, self.base_chars,
                       [s.index.pagefile for s in index._shards], path)

    def teardown(self, session):
        session.service.close()
        session.index.close()

    def discard(self, session):
        self.teardown(session)
        shutil.rmtree(session.directory, ignore_errors=True)


def _first_in(rng, text, lo, hi, count, mlo, mhi):
    """Up to ``count`` patterns of ``mlo``-``mhi`` chars whose first
    occurrence in ``text`` lies within ``text[lo:hi]``, so that their
    occurrence sweep starts there; none where the block copies earlier
    text (a planted repeat)."""
    out = []
    for _ in range(16 * count):
        m = rng.randint(mlo, mhi)
        s = rng.randrange(lo, hi - m + 1)
        pattern = text[s:s + m]
        if text.find(pattern) == s:
            out.append(pattern)
            if len(out) == count:
                break
    return out


class DiskIngest(Workload):
    """One client ingesting into a file-backed disk index and reading
    back what it ingested.

    A single closed loop: extend by one chunk, checkpoint every
    :attr:`checkpoint_every` chars, then run the reads of
    :attr:`reader_mix` (in a seeded order) against what has been
    acknowledged. ``find_all`` asks for a pattern from the newest
    chunk, and a batch for patterns from the last :attr:`batch_blocks`
    chunks, so that the occurrence sweeps, which run to the end of the
    text, stay short while the text grows.

    An earlier form ran the writer and the reader on two threads with
    think times. Readers then waited behind the writer's lock, and that
    contention magnified every swing in the shared host's speed: ten
    runs spread by a third on the end-to-end medians. The batches go
    through ``QueryService.snapshot()``: ``QueryService.batch_find_all``
    would run the traversals on the service's pool, which switches the
    disk pool into its latched mode for good.
    """

    name = "disk-ingest"
    base_chars = 20_000
    checkpoint_every = 20_000
    #: The reads after each chunk.
    reader_mix = {"contains": 32, "find_all": 2, "batch": 1}
    #: Chunks whose patterns (two each) a batch asks for, newest first.
    batch_blocks = 12
    #: Text made per second of a session: above what the loop can
    #: ingest, so a session never runs out of input.
    text_chars_per_s = 16_000
    #: Chunks per second of ``--seconds`` in each traced phase.
    trace_chunks_per_s = 12
    #: Pool frames per indexed character, with room for shadow pages.
    pool_bytes_per_char = 48

    def __init__(self, seed, seconds, workdir, base_chars=None):
        super().__init__(seed, seconds, workdir, base_chars)
        self.index_pages = None

    def describe(self):
        return {
            "loop": "closed, 1 client: QueryService.extend of "
                    f"{self.chunk_chars} chars, checkpoint() every "
                    f"{self.checkpoint_every} chars, then the reads",
            "mix per round": "per chunk, in a seeded order: 32 contains "
                             "(half acknowledged-prefix substrings of "
                             "12-20 chars, half absent 16-24-mers); 2 "
                             "find_all of a 20-32-mer first occurring in "
                             "the newest chunk; 1 batch_find_all "
                             "(snapshot) of 32: 2 such from each of the "
                             f"last {self.batch_blocks} chunks, 4 absent, "
                             "4 duplicates",
            "text": f"{self.base_chars} chars at set-up, then up to "
                    f"{len(self.text) - self.base_chars} ingested",
            "pool": f"LRU, {self.pool_pages} pages against "
                    f"{self.index_pages} index pages at the end",
            "fsync": "always (WAL fsync per extend)",
        }

    def make_inputs(self):
        rng = random.Random(self.seed)
        step = self.chunk_chars
        cap = max(int(self.seconds / self.sessions
                      * self.text_chars_per_s),
                  self.trace_chunks() * step)
        self.text = text = generate_dna(self.base_chars + cap,
                                        seed=self.seed)
        self.absent_patterns = _absent(rng, text, 256, 16, 24)
        self.block_patterns = [
            _first_in(rng, text, b, b + step, 2, 20, 32)
            for b in range(0, len(text) - step + 1, step)]
        page_payload = 4096 - 8
        self.pool_pages = math.ceil(len(text) * self.pool_bytes_per_char
                                    / page_payload) + 64

    def make_expectations(self):
        oracle = make_oracle(self.text)
        self.want_absent = contains_answers(oracle, self.absent_patterns)
        patterns = set(self.absent_patterns)
        for block in self.block_patterns:
            patterns.update(block)
        self.want_find_all = find_all_answers(oracle, patterns)

    def trace_chunks(self):
        return max(1, round(self.seconds * self.trace_chunks_per_s))

    def setup(self, rep):
        directory = os.path.join(self.workdir, f"ingest-{rep}")
        shutil.rmtree(directory, ignore_errors=True)
        os.makedirs(directory)
        index = DiskSpineIndex(path=os.path.join(directory, INDEX_FILE),
                               buffer_pages=self.pool_pages,
                               wal_fsync="always")
        index.extend(self.text[:self.base_chars])
        index.checkpoint()
        service = QueryService(index, threads=1,
                               default_deadline=DEADLINE_S)
        return Session(service, index, self.base_chars, [index.pagefile],
                       directory)

    def index_bytes(self, session):
        """Taken after a checkpoint, so that it does not depend on how
        much of the text the log alone still holds when the session
        stops."""
        session.index.checkpoint()
        return super().index_bytes(session)

    def discard(self, session):
        self.teardown(session)
        shutil.rmtree(session.directory, ignore_errors=True)

    def teardown(self, session):
        """Close the service, then the durability gate: crash, reopen,
        and compare the text with what was acknowledged."""
        session.service.close()
        index = session.index
        self.index_pages = index.pagefile.page_count
        index.crash()
        reopened = DiskSpineIndex.open(
            os.path.join(session.directory, INDEX_FILE),
            buffer_pages=self.pool_pages)
        try:
            check("durability", len(reopened), session.chars,
                  "reopened length after crash()")
            check("durability", reopened.text == self.text[:session.chars],
                  True, "reopened text equals the acknowledged text")
        finally:
            reopened.close()

    def _within(self, pattern, limit):
        """Starts of ``pattern`` in the first ``limit`` chars."""
        m = len(pattern)
        return [s for s in self.want_find_all[pattern] if s + m <= limit]

    def _recent(self, block, blocks):
        """The patterns of the newest ``blocks`` chunks up to
        ``block`` that have any."""
        out = []
        while block >= 0 and blocks > 0:
            if self.block_patterns[block]:
                out.extend(self.block_patterns[block])
                blocks -= 1
            block -= 1
        return out

    def _batch(self, rng, block):
        unique = self._recent(block, self.batch_blocks)
        unique += [rng.choice(self.absent_patterns) for _ in range(4)]
        batch = unique + [rng.choice(unique) for _ in range(4)]
        rng.shuffle(batch)
        return batch

    def run(self, session, chunks=None, trace=None, deadline=None):
        """Ingest chunk after chunk, each followed by its reads, until
        ``deadline`` (or ``chunks`` chunks); returns the samples."""
        rng = random.Random(self.seed + 1)
        service = session.service
        index = session.index
        text = self.text
        step = self.chunk_chars
        absent = self.absent_patterns
        kinds = [op for op, count in self.reader_mix.items()
                 for _ in range(count)]
        samples = Samples()
        count = since = 0
        while session.chars + step <= len(text):
            if chunks is not None and count >= chunks:
                break
            if deadline is not None and perf() >= deadline:
                break
            pos = session.chars
            if timed(samples, trace, "extend", service.extend,
                     text[pos:pos + step]) is FAILED:
                break
            session.chars = acked = pos + step
            samples.chars["extend"] = samples.chars.get("extend", 0) + step
            count += 1
            since += step
            if since >= self.checkpoint_every:
                since = 0
                if timed(samples, trace, "checkpoint",
                         index.checkpoint) is FAILED:
                    break
            block = acked // step - 1
            rng.shuffle(kinds)
            for kind in kinds:
                if kind == "contains":
                    if rng.random() < 0.5:
                        m = rng.randint(12, 20)
                        s = rng.randrange(acked - m)
                        pattern, want = text[s:s + m], True
                    else:
                        pattern = absent[rng.randrange(len(absent))]
                        want = self.want_absent[pattern]
                    got = timed(samples, trace, kind, service.contains,
                                pattern)
                    if got is not FAILED:
                        check(kind, got, want, repr(pattern))
                elif kind == "find_all":
                    pattern = rng.choice(self._recent(block, 1))
                    got = timed(samples, trace, kind, service.find_all,
                                pattern)
                    if got is not FAILED:
                        check(kind, list(got),
                              self._within(pattern, acked), repr(pattern))
                else:
                    batch = self._batch(rng, block)
                    got = timed(samples, trace, kind,
                                service.snapshot().batch_find_all, batch)
                    if got is not FAILED:
                        check(kind,
                              [(m.pattern, m.status, list(m.starts))
                               for m in got],
                              [(p, "hit" if self._within(p, acked)
                                else "miss", self._within(p, acked))
                               for p in batch],
                              f"at {acked} chars")
        return samples


WORKLOADS = {cls.name: cls for cls in (MemServe, DiskShardCold,
                                       DiskIngest)}
