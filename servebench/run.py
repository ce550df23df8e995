"""Served-path benchmark of the SPINE index.

Run from the root of a source checkout::

    python3 servebench/run.py --workload mem-serve --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off, over
a few sessions in a row that each set up afresh. ``--trace 1`` runs the
same fixed ops twice from a fresh set-up, untraced and then traced, and
reports the per-layer metrics (see ``tracing.py``) and
``trace.overhead_ratio``. Every answer is checked against the oracle; a
wrong answer stops the run with exit code 1.

The program is imported from ``src/`` of the checkout. Index files go
to ``.servebench/`` at the checkout root and are removed at the end;
the spans of a traced run are written there as JSON lines. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``, which holds the metrics
``BENCHMARK.json`` lists for the mode; the lines before it print more.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".servebench")

perf = time.perf_counter


def percentile(values, q):
    """Nearest-rank percentile of ``values`` (``0 < q <= 1``)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def _io_totals(session):
    totals = {}
    for pagefile in session.pagefiles:
        for key, value in pagefile.metrics.snapshot().items():
            totals[key] = totals.get(key, 0) + value
    return totals


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _prepare(workload):
    """Inputs and oracle answers, then freeze them out of the cyclic
    garbage collector, so that its passes during set-up and the run do
    not scan the benchmark's own data."""
    workload.make_inputs()
    workload.make_expectations()
    gc.collect()
    gc.freeze()


# -- end-to-end run (--trace 0) ----------------------------------------


def _latency_metrics(samples):
    """Nearest-rank percentiles of each op kind over all its ops."""
    lat = samples.latencies
    metrics = {}
    for op, q, scale, unit in (("contains", 0.5, 1e6, "us"),
                               ("contains", 0.99, 1e6, "us"),
                               ("find_all", 0.5, 1e3, "ms"),
                               ("find_all", 0.9, 1e3, "ms"),
                               ("batch", 0.5, 1e3, "ms"),
                               ("batch", 0.9, 1e3, "ms"),
                               ("extend", 0.5, 1e3, "ms"),
                               ("extend", 0.9, 1e3, "ms")):
        metrics[f"{op}_p{round(q * 100)}_{unit}"] = (
            percentile(lat[op], q) * scale, unit)
    return metrics


def measure(workload, seconds):
    """The timed run: ``workload.sessions`` sessions in a row, each set
    up afresh and run until its share of ``seconds`` is up. Returns
    ``(metrics, samples)`` with metrics ``{name: (value, unit)}``.

    Every session runs the same inputs: on the read mixes the same
    extends, then passes that run every read input once; on
    ``disk-ingest`` the same chunks. The shared host runs the whole
    process up to half again slower for stretches of seconds, so the
    set-ups and the extends, which take a moment each, are spread over
    the run rather than bunched at one end of it."""
    from workloads import DiskIngest, Samples

    _prepare(workload)
    reads = not isinstance(workload, DiskIngest)
    samples = Samples()
    footprints = []
    start = perf()
    for rep in range(workload.sessions):
        gc.collect()
        began = perf()
        session = workload.setup(rep)
        workload.setup_times.append(perf() - began)
        deadline = start + seconds * (rep + 1) / workload.sessions
        if reads:
            # The extends first, then the reads over the extended text.
            samples.merge(workload.run(session, workload.extend_ops()))
            workload.check_extended(session)
            ops = itertools.cycle(workload.ops)
            warm = workload.run(
                session, itertools.islice(ops, workload.warmup_ops()))
            # The result line counts the warm-up ops too: they are
            # checked. At least one pass, so every op kind has samples.
            samples.attempted += warm.attempted
            samples.failed += warm.failed
            samples.merge(workload.run(session, ops, deadline=deadline,
                                       minimum=len(workload.ops)))
        else:
            samples.merge(workload.run(session, deadline=deadline))
        footprints.append(workload.index_bytes(session) / session.chars)
        workload.discard(session)
        session = None

    lat = samples.latencies
    metrics = {
        "setup_s": (statistics.median(workload.setup_times), "s"),
        # Completed ops per second spent inside them, so that neither
        # the answer checks nor the think times count.
        "ops_per_s": (samples.busy_rate(), "1/s"),
        # Checkpoints count as extend time.
        "extend_chars_per_s": (
            samples.chars["extend"]
            / (sum(lat["extend"]) + sum(lat.get("checkpoint", ()))),
            "char/s"),
        "bytes_per_char": (statistics.median(footprints), "B/char"),
        # Each session holds one index; the last is gone before the
        # next set-up starts.
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    metrics.update(_latency_metrics(samples))
    return metrics, samples


# -- traced run (--trace 1) --------------------------------------------


def _run_fixed(workload, session, trace_factory):
    """The traced-phase ops from a fresh session, with
    ``trace_factory()`` installed (when given) around them. Returns
    ``(samples, io_delta, trace, registry)``."""
    from repro.obs import set_registry
    from repro.obs.registry import MetricsRegistry
    from workloads import DiskIngest

    before = _io_totals(session)
    registry = trace = previous = None
    if trace_factory is not None:
        registry = MetricsRegistry(enabled=True)
        previous = set_registry(registry)
        trace = trace_factory()
    try:
        with trace if trace is not None else contextlib.nullcontext():
            if isinstance(workload, DiskIngest):
                samples = workload.run(
                    session, chunks=workload.trace_chunks(), trace=trace)
            else:
                samples = workload.run(session, workload.extend_ops(),
                                       trace=trace)
                workload.check_extended(session)
                samples.merge(workload.run(
                    session, itertools.islice(itertools.cycle(
                        workload.ops), workload.trace_ops()),
                    trace=trace))
    finally:
        if previous is not None:
            set_registry(previous)
    after = _io_totals(session)
    delta = {key: after[key] - before.get(key, 0) for key in after}
    return samples, delta, trace, registry


def measure_layers(workload, seconds, trace_path):
    """Per-layer metrics of the traced phase, ``{name: (value, unit)}``,
    and the combined samples of both phases."""
    from tracing import Instrumentation, attribute, check_covered

    _prepare(workload)
    # Both sessions are set up before any op runs, so no query worker
    # thread exists while the shard build forks its workers.
    sessions = [workload.setup(0), workload.setup(1)]
    plain, _, _, _ = _run_fixed(workload, sessions[0], None)
    workload.teardown(sessions[0])
    samples, io, trace, registry = _run_fixed(
        workload, sessions[1],
        Instrumentation)
    ingested = samples.chars["extend"]
    workload.teardown(sessions[1])
    trace.log.dump(trace_path)

    spans = trace.log.spans
    self_time = attribute(spans)
    check_covered(spans, self_time)
    durations = {}
    for _, _, _, name, start, end in spans:
        durations.setdefault(name, []).append(end - start)

    def is_read(name, layer):
        return name.startswith(layer) and not name.endswith(".extend")

    def self_us(prefix, reads=False):
        """Mean self time (us) of the spans whose name starts so
        (with ``reads``, of the query spans among them)."""
        return _mean([self_time.get(s[0], 0.0) for s in spans
                      if (is_read(s[3], prefix) if reads
                          else s[3].startswith(prefix))]) * 1e6

    shard_ids = {s[0] for s in spans if is_read(s[3], "shard.")}
    fanout = sum(1 for s in spans
                 if s[1] in shard_ids and s[3].startswith("batch."))
    counter = registry.counter
    ops = max(1, samples.completed)
    gets = io.get("buffer_hits", 0) + io.get("buffer_misses", 0)
    reads = io.get("reads", 0)
    resolves = trace.resolves
    entries = sum(r[1] for r in resolves)
    match_chars = sum(m[0] for m in trace.matching)
    kchars = ingested / 1000
    us = 1e6
    metrics = {
        "serve.self_us": (self_us("serve.", reads=True), "us"),
        "shard.fanout": (fanout / len(shard_ids) if shard_ids else 0.0,
                         "count"),
        "shard.self_us": (self_us("shard.", reads=True), "us"),
        "shard.merge_dropped": (
            counter("shard.merge.dropped").value / len(shard_ids)
            if shard_ids else 0.0, "count"),
        "batch.traverse_us": (self_us("batch.traverse"), "us"),
        "batch.steps": (_mean(trace.steps), "count"),
        "batch.resolve_us": (self_us("batch.resolve"), "us"),
        "batch.scan_nodes": (_mean([r[0] for r in resolves]), "count"),
        "batch.link_entries": (_mean([r[1] for r in resolves]), "count"),
        "batch.hit_ratio": (
            sum(r[2] for r in resolves) / entries if entries else 0.0,
            "ratio"),
        "matching.checks_per_char": (
            sum(m[1] for m in trace.matching) / match_chars
            if match_chars else 0.0, "count/char"),
        "matching.link_hops_per_char": (
            sum(m[2] for m in trace.matching) / match_chars
            if match_chars else 0.0, "count/char"),
        "disk.extend_self_us": (self_us("disk.extend"), "us"),
        "disk.checkpoint_ms": (
            _mean(durations.get("disk.checkpoint", ())) * 1e3, "ms"),
        "buffer.gets_per_op": (gets / ops, "count/op"),
        "buffer.hit_rate": (io.get("buffer_hits", 0) / gets
                            if gets else 0.0, "ratio"),
        "buffer.evictions_per_op": (io.get("evictions", 0) / ops,
                                    "count/op"),
        "storage.rwlock.read_wait_us": (
            _mean(durations.get("rwlock.read_wait", ())) * us, "us"),
        "pager.reads_per_op": (reads / ops, "count/op"),
        "pager.sequential_read_ratio": (
            io.get("sequential_reads", 0) / reads if reads else 0.0,
            "ratio"),
        "pager.read_us": (_mean(trace.page_reads) * us, "us"),
        "pager.writes_per_kchar": (
            io.get("writes", 0) / kchars if kchars else 0.0,
            "count/kchar"),
        "pager.write_us": (_mean(trace.page_writes) * us, "us"),
        "pager.read_retries": (io.get("read_retries", 0), "count"),
        "pager.checksum_failures": (io.get("checksum_failures", 0),
                                    "count"),
        "wal.append_us": (self_us("wal.append"), "us"),
        "wal.sync_us": (_mean(durations.get("wal.sync", ())) * us, "us"),
        "wal.bytes_per_char": (
            counter("wal.bytes").value / ingested if ingested else 0.0,
            "B/char"),
        "trace.overhead_ratio": (samples.busy_rate() / plain.busy_rate(),
                                 "ratio"),
    }
    samples.attempted += plain.attempted
    samples.failed += plain.failed
    return metrics, samples


# -- command line ------------------------------------------------------


def _print_table(workload, seed, trace, metrics, samples, listed):
    print(f"workload {workload.name}  seed {seed}  trace {trace}")
    for key, value in workload.describe().items():
        print(f"  {key}: {value}")
    if not trace:
        print("  set-ups (s): " + ", ".join(
            f"{t:.4f}" for t in workload.setup_times))
    ratio = samples.failed / samples.attempted if samples.attempted else 0
    rows = [(name, value, unit, "" if name in listed else
             "  (printed only)")
            for name, (value, unit) in metrics.items()]
    if not trace:
        # Refused, timed-out and failed ops over attempted ones; it is
        # also the ``failed``/``attempted`` pair of the result line.
        rows.append(("error_ratio", ratio, "ratio", "  (printed only)"))
    for name, value, unit, note in rows:
        print(f"  {name:<30} {value:>16.6g} {unit}{note}")
    print(f"  attempted {samples.attempted}, failed {samples.failed}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program source at {SRC}; run from the root of "
              "a source checkout", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from oracles import WrongAnswer
    from tracing import TraceError
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.seconds, workdir)
    try:
        if args.trace:
            trace_path = os.path.join(
                OUT, f"trace-{workload.name}-seed{args.seed}.jsonl")
            metrics, samples = measure_layers(workload, args.seconds,
                                              trace_path)
        else:
            metrics, samples = measure(workload, args.seconds)
    except (WrongAnswer, TraceError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # The result line holds the metrics BENCHMARK.json lists. The tail
    # latencies are printed only: on the shared host they swing with
    # its speed more than the bound a later change is held to.
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    listed = [m["name"]
              for m in spec["per_layer" if args.trace else "end_to_end"]]
    _print_table(workload, args.seed, args.trace, metrics, samples,
                 listed)
    if args.trace:
        print(f"  spans written to {trace_path}")
    print(json.dumps({
        "correct": True,
        "attempted": samples.attempted,
        "failed": samples.failed,
        "metrics": {name: {"value": metrics[name][0],
                           "unit": metrics[name][1]} for name in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
