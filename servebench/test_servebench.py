"""Tests of the served-path benchmark at tiny sizes.

Run from the root of a source checkout::

    python3 -m pytest servebench/test_servebench.py
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from oracles import SubstringIndex, matching_lengths  # noqa: E402
from tracing import TraceError, attribute, check_covered  # noqa: E402
from workloads import (WORKLOADS, DiskIngest, DiskShardCold,  # noqa: E402
                       MemServe)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: Every workload reports every end-to-end metric.
REPORTED = {w["name"]: set(E2E_UNITS) for w in SPEC["workloads"]}
#: Work counts that must repeat exactly for a seed (single client).
COUNTS = ("batch.steps", "batch.scan_nodes", "batch.link_entries",
          "pager.reads_per_op", "buffer.gets_per_op")


def tiny(name, seed, workdir):
    """The workload at a size that runs in a few seconds."""
    if name == "mem-serve":
        return MemServe(seed, 0.3, workdir, base_chars=4000,
                        extend_chunks=8)
    if name == "disk-shard-cold":
        return DiskShardCold(seed, 0.3, workdir, base_chars=4000,
                             extend_chunks=8)
    return DiskIngest(seed, 0.5, workdir, base_chars=2000)


@pytest.fixture
def workdir(tmp_path):
    return str(tmp_path)


def test_every_workload_is_defined():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(REPORTED))
def test_result_line_holds_every_listed_metric(name, monkeypatch, capsys):
    monkeypatch.setitem(WORKLOADS, name,
                        lambda seed, seconds, workdir: tiny(name, seed,
                                                            workdir))
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "1",
                     "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert set(result["metrics"]) == REPORTED[name]
    for key, metric in result["metrics"].items():
        assert metric["unit"] == E2E_UNITS[key], key
        assert metric["value"] > 0, key


@pytest.mark.parametrize("name", sorted(REPORTED))
def test_layer_metrics_emitted_with_units(name, workdir, tmp_path):
    metrics, samples = run.measure_layers(
        tiny(name, 3, workdir), 0.3, str(tmp_path / "spans.jsonl"))
    assert {key: unit for key, (_, unit) in metrics.items()} \
        == LAYER_UNITS
    assert metrics["trace.overhead_ratio"][0] > 0
    assert samples.failed == 0
    assert os.path.getsize(tmp_path / "spans.jsonl") > 0


@pytest.mark.parametrize("name", sorted(REPORTED))
def test_work_counts_repeat_for_a_seed(name, tmp_path):
    runs = []
    for attempt in range(2):
        workdir = str(tmp_path / f"w{attempt}")
        os.makedirs(workdir)
        metrics, _ = run.measure_layers(
            tiny(name, 5, workdir), 0.3, str(tmp_path / "spans.jsonl"))
        runs.append({key: metrics[key][0] for key in COUNTS})
    assert runs[0] == runs[1]
    assert runs[0]["batch.steps"] > 0
    if name == "disk-shard-cold":
        assert runs[0]["pager.reads_per_op"] > 0


def test_no_result_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "servebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "servebench/run.py", "--workload", "mem-serve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def _brute_matching(text, query):
    lengths = []
    for j in range(len(query)):
        k = 0
        while k <= j and query[j - k:j + 1] in text:
            k += 1
        lengths.append(k)
    return lengths


def test_matching_oracle_is_maximal():
    rng = random.Random(7)
    for _ in range(200):
        text = "".join(rng.choice("ACG") for _ in range(rng.randint(1, 40)))
        query = "".join(rng.choice("ACGT")
                        for _ in range(rng.randint(1, 30)))
        index = SubstringIndex(text, k=rng.randint(1, 4))
        assert matching_lengths(index, query) \
            == _brute_matching(text, query)


def test_self_times_sequential_and_parallel():
    # op 1: root 0..10 with child A 1..4 (grandchild 2..3) and B 5..9.
    # op 10: root 0..10 with two parallel children 2..6 and 4..8.
    spans = [
        (1, None, 1, "client.x", 0.0, 10.0),
        (2, 1, 1, "serve.contains", 1.0, 4.0),
        (3, 2, 1, "batch.traverse", 2.0, 3.0),
        (4, 1, 1, "serve.find_all", 5.0, 9.0),
        (10, None, 10, "client.y", 0.0, 10.0),
        (11, 10, 10, "batch.traverse", 2.0, 6.0),
        (12, 10, 10, "batch.traverse", 4.0, 8.0),
    ]
    self_time = attribute(spans)
    assert self_time[1] == pytest.approx(3.0)
    assert self_time[2] == pytest.approx(2.0)
    assert self_time[3] == pytest.approx(1.0)
    assert self_time[4] == pytest.approx(4.0)
    assert self_time[10] == pytest.approx(4.0)
    assert self_time[11] == pytest.approx(3.0)
    assert self_time[12] == pytest.approx(3.0)


def test_span_outside_its_op_fails_the_check():
    with pytest.raises(TraceError):
        attribute([(1, None, 1, "client.x", 0.0, 1.0),
                   (2, 1, 1, "serve.contains", 0.5, 2.0)])
    with pytest.raises(TraceError):
        attribute([(5, None, None, "serve.contains", 0.0, 1.0)])


def test_time_in_no_layer_fails_the_check():
    # Root 0..10 with one layer span 0.5..9.6: 9 % uncovered passes;
    # with the span at 2..9, 30 % is uncovered and fails.
    covered = [(1, None, 1, "client.x", 0.0, 10.0),
               (2, 1, 1, "serve.contains", 0.5, 9.6)]
    check_covered(covered, attribute(covered))
    sparse = [(1, None, 1, "client.x", 0.0, 10.0),
              (2, 1, 1, "serve.contains", 2.0, 9.0)]
    with pytest.raises(TraceError):
        check_covered(sparse, attribute(sparse))


@pytest.mark.xfail(strict=True, reason=(
    "QueryService.contains on a disk index does not take the index's "
    "read lock, so a concurrent extend can shadow a page the reader "
    "holds; disk-ingest's reader calls DiskSpineIndex.contains instead"))
def test_served_disk_contains_holds_read_lock(tmp_path):
    from repro.disk import DiskSpineIndex
    from repro.serve import QueryService

    index = DiskSpineIndex(path=str(tmp_path / "ix.pages"))
    index.extend("ACGTTGCAAC" * 20)
    held = []
    step = index.step

    def watching_step(*args, **kwargs):
        held.append(index.pool.rwlock._readers)
        return step(*args, **kwargs)

    index.step = watching_step
    with QueryService(index, threads=1) as service:
        assert service.contains("GCAACACG")
    index.close()
    assert held and min(held) > 0
