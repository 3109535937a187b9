"""The benchmark's own tests: tiny-scale runs, and checks that do fail.

Every workload runs to its end on the ``tiny`` inputs (a few thousand
triples), traced and untraced, and must report every metric of
``BENCHMARK.json``.  Then each correctness check is shown to fail: the
program is patched, in process, to return a corrupted answer set, to drop
an ingest, or to prune a satisfiable query, and the run must come back
with ``"correct": false``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import common  # noqa: E402
import run  # noqa: E402

common.require_program()
SPEC = common.read_json(os.path.join(ROOT, "BENCHMARK.json"))
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
SEED = 7


def _run_cli(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable,
            os.path.join(BENCH, "run.py"),
            "--workload", workload,
            "--seed", str(SEED),
            "--seconds", "0.2",
            "--trace", str(trace),
            "--scale", "tiny",
        ],
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
        cwd=ROOT,
    )
    assert completed.returncode == 0, completed.stderr[-3000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(workload):
    result = _run_cli(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    wanted = {entry["name"]: entry["unit"] for entry in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_reports_every_per_layer_metric(workload):
    result = _run_cli(workload, trace=1)
    assert result["correct"] is True and result["failed"] == 0
    wanted = {entry["name"]: entry["unit"] for entry in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    if workload == "guarded-read":
        # the traced guarded-read run also times the cluster layer
        for name in ("cluster.ship_s", "cluster.segment_bytes", "cluster.scatter_ms", "cluster.delta_ms"):
            assert result["metrics"][name]["value"] > 0, name


def test_tiny_cluster_run_is_correct():
    # not a gated workload (see README), but it must still run to its end
    result = _run_cli("cluster-scatter", trace=0)
    assert result["correct"] is True and result["failed"] == 0


def _run_in_process(workload: str) -> dict:
    return run.measure(workload, SEED, seconds=0.0, trace=False, scale="tiny", extra_starts=0)


def test_unpatched_in_process_run_is_correct():
    assert _run_in_process("guarded-read")["correct"] is True


def test_corrupted_answer_set_is_caught(monkeypatch):
    from repro.service.service import QueryService

    original = QueryService.answer

    def corrupted(self, *args, **kwargs):
        answer = original(self, *args, **kwargs)
        if len(answer.answers) > 1:
            answer.answers = set(list(answer.answers)[1:])
        return answer

    monkeypatch.setattr(QueryService, "answer", corrupted)
    assert _run_in_process("guarded-read")["correct"] is False


def test_wrongly_pruned_satisfiable_query_is_caught(monkeypatch):
    from repro.service.service import QueryService

    original = QueryService.answer

    def pruning(self, *args, **kwargs):
        answer = original(self, *args, **kwargs)
        answer.pruned = True
        return answer

    monkeypatch.setattr(QueryService, "answer", pruning)
    assert _run_in_process("guarded-read")["correct"] is False


def test_dropped_ingest_is_caught(monkeypatch):
    from repro.service.catalog import CatalogEntry

    original = CatalogEntry.add_triples
    calls = []

    def dropping(self, triples):
        calls.append(1)
        if len(calls) == 2:
            return sum(1 for _ in triples)  # acknowledged, never stored
        return original(self, triples)

    monkeypatch.setattr(CatalogEntry, "add_triples", dropping)
    assert _run_in_process("durable-rw-http")["correct"] is False


def test_dropped_cluster_ingest_fails_read_your_writes(monkeypatch):
    from repro.cluster import ClusterCoordinator

    def dropping(self, name, triples):
        return sum(1 for _ in triples)  # acknowledged, never stored

    monkeypatch.setattr(ClusterCoordinator, "add_triples", dropping)
    assert _run_in_process("cluster-scatter")["correct"] is False


def test_checker_rejects_each_kind_of_wrong_answer():
    record = {"id": "q", "limit": None, "satisfiable": True, "saturated": False}
    limited = dict(record, limit=2)
    empty = {"id": "e", "limit": 10, "satisfiable": False, "saturated": False}
    checker = checks.Checker({"q": [1, 2, 3], "q@final": [1, 2, 3, 4]})
    checker.answer(record, {1, 2, 3}, pruned=False)
    checker.answer(limited, {1, 3}, pruned=False)
    assert checker.ok
    for bad in (
        lambda: checker.answer(record, {1, 2}, pruned=False),  # a row missing
        lambda: checker.answer(record, {1, 2, 3, 9}, pruned=False),  # a row too many
        lambda: checker.answer(limited, {1, 9}, pruned=False),  # outside under a limit
        lambda: checker.answer(record, set(), pruned=True),  # satisfiable but pruned
        lambda: checker.answer(empty, {5}, pruned=False),  # empty by construction
    ):
        before = len(checker.failures)
        bad()
        assert len(checker.failures) > before
    growth = checks.Checker({"q": [1, 2], "q@final": [1, 2, 3]})
    growth.answer(record, {1, 2, 3}, pruned=False, against="@final", mode="within")
    growth.answer(record, {1, 2}, pruned=False, against="@final", mode="within")
    assert growth.failures == ["q: unlimited answers shrank across an ingest"]
