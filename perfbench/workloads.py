"""The three serving workloads, driven through the program's public entry points.

Each workload owns its serving state and exposes the same life cycle:

``setup()``
    N-Triples file on disk → serving state → first answer (``setup_s``).
``warmup()``
    the first pass, with cold caches (``warmup_s``).
``run_pass(number)``
    one whole pass of the workload's fixed operation sequence; every
    operation's latency lands in :attr:`Workload.samples` by class.
``finish()``
    what follows the measured passes (the traced run's extra figures).
``close()``
    stops every thread and process the workload started.

Load is a closed loop with one client and one request in flight.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
from time import perf_counter
from typing import Dict, List, Optional

import checks
import common

GRAPH = "g"
#: Scatter-gather tallies of the cluster's traced passes.
CLUSTER_TALLIES = ("scatter_seconds", "gather_seconds", "scatter_reads", "unsat_shards", "unsat_shards_pruned")


def _parse(text: str):
    from repro.queries.parser import parse_query

    return parse_query(text)


class Workload:
    name = ""
    #: Windows of at least ``min_samples`` reads per class whose samples
    #: a run's latency and throughput figures pool.
    windows = 1

    def __init__(self, inputs_dir: str, scratch: str, tracer=None):
        import inputs

        self.inputs_dir = inputs_dir
        self.scratch = scratch
        self.tracer = tracer
        self.meta = common.read_json(os.path.join(inputs_dir, "meta.json"))
        #: Fewest samples a read class needs in one run (100 at full scale:
        #: its p90 then has ten samples beyond it).
        self.min_samples = inputs.SCALES[self.meta["scale"]]["min_samples"]
        stream = common.read_json(os.path.join(inputs_dir, "streams.json"))[self.name]
        self.records: List[dict] = stream["queries"]
        self.pass_ops: List[list] = stream["pass"]
        self.stream = stream
        self.queries = [_parse(record["sparql"]) for record in self.records]
        #: The query set-up answers first: the stream's first empty query,
        #: so that no seed builds a summary during set-up that another
        #: seed builds during the warm-up.
        self.first = next(i for i, r in enumerate(self.records) if not r["satisfiable"])
        self.checker = checks.Checker(common.read_json(os.path.join(inputs_dir, "expected.json")))
        self.samples: Dict[str, List[float]] = {"sat": [], "unsat": [], "write": []}
        self.op_seconds = 0.0
        self.ops = 0
        self.attempted = 0
        self.failed = 0
        #: Workload-specific per-layer figures (traced run only).
        self.layer: Dict[str, float] = {}
        self.measuring = False
        #: Seconds of the benchmark's own extra work in recorded passes of
        #: the traced run, kept out of the pass walls.
        self.aside_seconds = 0.0
        self.passes = 0
        #: ``exact`` (answer sets) or ``count`` (sizes and flags) checking.
        self.check_mode = "exact"

    # ------------------------------------------------------------------
    def record(self, kind: str, seconds: float) -> None:
        if self.measuring:
            self.samples[kind].append(seconds * 1000.0)
            self.op_seconds += seconds
            self.ops += 1

    def read_class(self, record: dict) -> str:
        return "sat" if record["satisfiable"] else "unsat"

    def check_answer(self, record: dict, answer) -> None:
        """Check a ``QueryAnswer``: its rows in an exact pass, its size and
        pruning flag otherwise."""
        if self.check_mode == "exact":
            digests = checks.term_digests(answer.answers)
        else:
            digests = set(range(len(answer.answers)))
        self.checker.answer(record, digests, answer.pruned, mode=self.check_mode)
        self.note_pruning(record, answer.pruned)

    def tally(self, key: str, amount: float = 1) -> None:
        self.layer[key] = self.layer.get(key, 0) + amount

    def note_pruning(self, record: dict, pruned: bool) -> None:
        """Traced run: how many empty-by-construction reads the guard pruned."""
        if self.tracer is not None and self.tracer.recording and not record["satisfiable"]:
            self.tally("unsat_reads")
            self.tally("unsat_pruned", int(pruned))

    def load_catalog(self):
        """Parse the main graph into a fresh in-memory catalog."""
        from repro.io import ntriples
        from repro.service.catalog import GraphCatalog

        graph = ntriples.load_ntriples(os.path.join(self.inputs_dir, "main_base.nt"))
        catalog = GraphCatalog()
        catalog.register(GRAPH, graph=graph)
        return catalog

    def attempt(self, operation, *args) -> None:
        """Run one operation; an exception counts it as failed."""
        self.attempted += 1
        try:
            operation(*args)
        except Exception as error:  # noqa: BLE001 - counted, reported, run goes on
            self.failed += 1
            self.checker.fail(f"operation failed: {type(error).__name__}: {error}")

    def warmup(self) -> float:
        """The first pass; its seconds without full collections."""
        before = self.counters()
        with common.FullCollections() as collections:
            started = perf_counter()
            self.run_pass(0)
            seconds = perf_counter() - started
        self.warmup_counters = (before, self.counters())
        return seconds - collections.seconds

    def entry(self):
        return self.catalog.entry(GRAPH)

    def counters(self) -> Dict[str, float]:
        """Program counters read around the warm-up pass (traced run):
        deferred index builds and plan-cache lookups."""
        from repro import telemetry

        hits = telemetry.REGISTRY.get("planner.cache.hits")
        misses = telemetry.REGISTRY.get("planner.cache.misses")
        return {
            "index_builds": self.entry().store.index_build_count(),
            "hits": hits.value if hits is not None else 0.0,
            "misses": misses.value if misses is not None else 0.0,
        }

    def peak_rss_kb(self) -> int:
        return common.peak_rss_kb()

    def finish(self) -> None:
        pass

    def close(self) -> None:
        pass

    # traced-run extras
    def explain_fetched(self, entry) -> None:
        """``service.rows_fetched_per_answer`` from ``explain`` traces of
        every distinct satisfiable query (outside any timed region)."""
        from repro.service.planner import ExecutionTrace

        recording = self.tracer.recording
        self.tracer.recording = False
        started = perf_counter()
        evaluator = entry.evaluator_for("hash")
        fetched = answers = 0
        for record, query in zip(self.records, self.queries):
            if not record["satisfiable"] or record.get("saturated"):
                continue
            trace = ExecutionTrace()
            rows = evaluator.evaluate(query, limit=record["limit"], trace=trace)
            fetched += sum(stage.fetched or 0 for stage in trace.stages)
            answers += len(rows)
        self.layer["service.rows_fetched_per_answer"] = fetched / answers if answers else 0.0
        self.aside_seconds += perf_counter() - started
        self.tracer.recording = recording


# ----------------------------------------------------------------------
class GuardedRead(Workload):
    """In-process ``GraphCatalog`` + ``QueryService(kind="weak+strong")``."""

    name = "guarded-read"
    windows = 5

    def setup(self) -> float:
        from repro.service.service import QueryService

        first = self.first
        started = perf_counter()
        self.catalog = self.load_catalog()
        self.service = QueryService(self.catalog, kind="weak+strong")
        self.service.answer(GRAPH, self.queries[first], limit=self.records[first]["limit"])
        return perf_counter() - started

    def _read(self, index: int) -> None:
        record, query = self.records[index], self.queries[index]
        started = perf_counter()
        answer = self.service.answer(GRAPH, query, limit=record["limit"])
        self.record(self.read_class(record), perf_counter() - started)
        self.check_answer(record, answer)

    def run_pass(self, number: int) -> None:
        for _kind, index in self.pass_ops:
            self.attempt(self._read, index)
        self.passes += 1

    def finish(self) -> None:
        if self.tracer is not None:
            self.explain_fetched(self.catalog.entry(GRAPH))
            self.catalog.close()
            self.catalog = None
            self.trace_cluster_layer()

    def trace_cluster_layer(self) -> None:
        """Traced run only: the ``repro.cluster`` layer on this graph.

        A 2-worker coordinator is set up over a fresh catalog of the same
        graph and runs the ``cluster-scatter`` stream twice, the second
        pass recorded; its shipping, scatter, gather and delta figures join
        this run's per-layer metrics.
        """
        cluster = ClusterScatter(self.inputs_dir, self.scratch, self.tracer)
        self.tracer.phase = "cluster"
        try:
            self.tracer.recording = True
            cluster.setup()
            self.tracer.recording = False
            cluster.run_pass(1)
            self.tracer.recording = True
            cluster.run_pass(2)
        finally:
            self.tracer.recording = False
            cluster.close()
        for key, value in cluster.layer.items():
            if key.startswith("cluster.") or key in CLUSTER_TALLIES:
                self.layer[key] = value
        self.attempted += cluster.attempted
        self.failed += cluster.failed
        self.checker.failures.extend(cluster.checker.failures)

    def close(self) -> None:
        catalog = getattr(self, "catalog", None)
        if catalog is not None:
            catalog.close()
            self.catalog = None


# ----------------------------------------------------------------------
class ClusterScatter(Workload):
    """``ClusterCoordinator(workers=2)`` on the shared-memory plane, in process."""

    name = "cluster-scatter"

    def setup(self) -> float:
        from repro.cluster import ClusterCoordinator

        first = self.first
        started = perf_counter()
        self.catalog = self.load_catalog()
        start_began = perf_counter()
        self.coordinator = ClusterCoordinator(self.catalog, workers=2)
        start_seconds = perf_counter() - start_began
        self.coordinator.answer(GRAPH, self.queries[first], limit=self.records[first]["limit"])
        seconds = perf_counter() - started
        ship = self.coordinator.ship_metrics["ship_seconds_total"]
        self.layer["cluster.ship_s"] = ship
        self.layer["cluster.spawn_s"] = max(0.0, start_seconds - ship)
        segments = self.coordinator.status()["shm"].get("segments", [])
        self.layer["cluster.segment_bytes"] = float(sum(s["bytes"] for s in segments))
        return seconds

    def run_pass(self, number: int) -> None:
        markers = self.stream["markers"]
        tag = f"p{number}"
        for kind, index in self.pass_ops:
            if kind == "read":
                self.attempt(self._read, index)
            elif kind == "ingest":
                self.attempt(self._ingest, markers[index]["triples"].replace("{pass}", tag))
            else:
                marker = markers[index]
                self.attempt(self._probe, marker["probe"].replace("{pass}", tag), marker["probe_row"])
        self.passes += 1

    def _read(self, index: int) -> None:
        record, query = self.records[index], self.queries[index]
        traced = self.tracer is not None and self.tracer.recording
        started = perf_counter()
        answer = self.coordinator.answer(GRAPH, query, limit=record["limit"], trace=traced)
        self.record(self.read_class(record), perf_counter() - started)
        if traced and answer.cluster["mode"] == "scatter":
            # the coordinator's own spans of a scatter-gather
            root = answer.query_trace.root
            self.tally("scatter_seconds", root.find("scatter").seconds)
            self.tally("gather_seconds", root.find("gather").seconds)
            self.tally("scatter_reads")
            if not record["satisfiable"]:
                self.tally("unsat_shards", len(answer.cluster["workers"]))
                self.tally("unsat_shards_pruned", answer.cluster["shards_pruned"])
        self.check_answer(record, answer)

    def _ingest(self, text: str) -> None:
        from repro.io import ntriples

        started = perf_counter()
        inserted = self.coordinator.add_triples(GRAPH, ntriples.parse_ntriples(text))
        self.record("write", perf_counter() - started)
        self.checker.equal("rows inserted by one marker batch", inserted, text.count("\n"))

    def _probe(self, text: str, row: List[str]) -> None:
        query = _parse(text)
        started = perf_counter()
        answer = self.coordinator.answer(GRAPH, query)
        self.record("sat", perf_counter() - started)
        self.checker.equal(
            "read-your-writes probe", checks.term_digests(answer.answers), {common.row_digest(row)}
        )

    def peak_rss_kb(self) -> int:
        total = common.peak_rss_kb()
        for worker in self.coordinator.status()["workers"]:
            if worker["pid"] is not None:
                total += common.peak_rss_kb(worker["pid"])
        return total

    def finish(self) -> None:
        if self.tracer is not None:
            self.explain_fetched(self.catalog.entry(GRAPH))

    def close(self) -> None:
        coordinator = getattr(self, "coordinator", None)
        if coordinator is not None:
            coordinator.close()
            self.coordinator = None
        catalog = getattr(self, "catalog", None)
        if catalog is not None:
            catalog.close()
            self.catalog = None


# ----------------------------------------------------------------------
class HttpClient:
    """One persistent HTTP/1.1 connection: the closed-loop client."""

    def __init__(self, port: int):
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def post(self, path: str, body: dict) -> dict:
        payload = json.dumps(body).encode("utf-8")
        self.connection.request(
            "POST", path, body=payload, headers={"Content-Type": "application/json"}
        )
        response = self.connection.getresponse()
        data = response.read()
        if response.status != 200:
            raise RuntimeError(f"HTTP {response.status}: {data[:200]!r}")
        return json.loads(data)

    def close(self) -> None:
        self.connection.close()


class Served:
    """A ``ServerApp`` on a ``ThreadingHTTPServer`` over one catalog file."""

    def __init__(self, catalog):
        from repro.server.http import ServerApp, start_background

        self.catalog = catalog
        self.app = ServerApp(catalog, kind="weak+strong")
        self.server, self.thread = start_background(self.app)
        self.client = HttpClient(self.server.server_address[1])

    def close(self) -> None:
        """The graceful close of ``repro serve``: stop accepting, drain,
        stop executing, checkpoint, close the file."""
        self.client.close()
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=30)
        self.app.drain()
        self.app.close()
        self.catalog.checkpoint()
        self.catalog.close()


class DurableHttp(Workload):
    """``ServerApp`` over ``GraphCatalog.open(file)``, served over HTTP."""

    name = "durable-rw-http"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.batches = common.read_json(os.path.join(self.inputs_dir, "durable_batches.json"))
        self.served: Optional[Served] = None
        self.restarts: List[float] = []
        os.makedirs(self.scratch, exist_ok=True)
        self.path = os.path.join(self.scratch, f"catalog-{os.getpid()}.db")
        self.baseline = self.path + ".baseline"
        self.overheads: List[float] = []
        self.ingest_bytes = 0
        self.input_bytes = os.path.getsize(os.path.join(self.inputs_dir, "durable_base.nt")) + sum(
            len(text.encode("utf-8")) for text in self.batches
        )

    def entry(self):
        return self.served.catalog.entry(GRAPH)

    def _body(self, index: int) -> dict:
        record = self.records[index]
        return {"query": record["sparql"], "limit": record["limit"], "saturated": record["saturated"]}

    def setup(self) -> float:
        from repro.io import ntriples
        from repro.service.catalog import GraphCatalog

        _remove_catalog(self.path)
        started = perf_counter()
        graph = ntriples.load_ntriples(os.path.join(self.inputs_dir, "durable_base.nt"))
        catalog = GraphCatalog.open(self.path)
        catalog.register(GRAPH, graph=graph)
        del graph
        catalog.checkpoint()
        self.served = Served(catalog)
        self.served.client.post(f"/graphs/{GRAPH}/query", self._body(self.first))
        return perf_counter() - started

    def warmup(self) -> float:
        """Every distinct query once on the initial graph (cold plan
        caches, deferred index builds, the first ``G∞`` build), then the
        graceful close that leaves the baseline every pass starts from."""
        before = self.counters()
        with common.FullCollections() as collections:
            started = perf_counter()
            for index in range(len(self.records)):
                self.attempt(self._read, index, "", "exact")
            seconds = perf_counter() - started
        self.warmup_counters = (before, self.counters())
        self.served.close()
        self.served = None
        shutil.copyfile(self.path, self.baseline)
        return seconds - collections.seconds

    def _read(self, index: int, against: str, mode: str) -> None:
        record = self.records[index]
        body = self._body(index)
        comparing = self.tracer is not None and self.tracer.recording and self.tracer.phase == "pass"
        if comparing:
            builds = dict(self.entry().build_counters)
        started = perf_counter()
        payload = self.served.client.post(f"/graphs/{GRAPH}/query", body)
        seconds = perf_counter() - started
        self.record(self.read_class(record), seconds)
        if comparing:
            self._http_overhead(body, seconds, builds)
        self.note_pruning(record, payload["pruned"])
        digests = checks.n3_digests(payload["answers"])
        self.checker.answer(record, digests, payload["pruned"], against=against, mode=mode)

    def _http_overhead(self, body: dict, seconds: float, builds: dict) -> None:
        """Traced run: the same call made in process, unrecorded and kept
        out of the pass wall; what HTTP adds on top of it.  A read that
        built a summary over HTTP is skipped: the repeat would find it
        built."""
        aside = perf_counter()
        self.tracer.recording = False
        if dict(self.entry().build_counters) == builds:
            inner = perf_counter()
            self.served.app.dispatch("POST", f"/graphs/{GRAPH}/query", body)
            self.overheads.append(seconds - (perf_counter() - inner))
        self.tracer.recording = True
        self.aside_seconds += perf_counter() - aside

    def _ingest(self, index: int) -> None:
        text = self.batches[index]
        started = perf_counter()
        payload = self.served.client.post(f"/graphs/{GRAPH}/triples", {"triples": text})
        self.record("write", perf_counter() - started)
        self.checker.equal(f"rows inserted by batch {index}", payload["inserted"], text.count("\n"))
        self.acknowledged += payload["inserted"]
        if self.tracer is not None and self.tracer.recording:
            self.ingest_bytes += len(text.encode("utf-8"))

    def _open(self) -> float:
        """Warm open of the catalog file up to its first HTTP answer."""
        from repro.service.catalog import GraphCatalog

        started = perf_counter()
        self.served = Served(GraphCatalog.open(self.path))
        self.served.client.post(f"/graphs/{GRAPH}/query", self._body(self.first))
        return perf_counter() - started

    def run_pass(self, number: int) -> None:
        _remove_catalog(self.path)
        shutil.copyfile(self.baseline, self.path)
        self.checker.reset_growth()
        self.acknowledged = 0
        self.restarts.append(self._open())
        for kind, index in self.pass_ops:
            if kind == "ingest":
                self.attempt(self._ingest, index)
            else:
                self.attempt(self._read, index, "@final", "within")
        for index in range(len(self.records)):
            self.attempt(self._read, index, "@final", "exact")
        entry = self.served.catalog.entry(GRAPH)
        if self.tracer is not None and self.tracer.recording:
            self.explain_fetched(entry)
        self.served.close()
        self.served = None
        # the run's end: graceful close, then a warm reopen that must
        # rebuild nothing and hold every acknowledged ingest
        self.restarts.append(self._open())
        entry = self.served.catalog.entry(GRAPH)
        self.checker.equal(
            "rows after warm reopen",
            entry.store.statistics().total_rows,
            self.meta["durable_triples"] + self.meta["durable_held_out"],
        )
        self.checker.equal("acknowledged ingest rows", self.acknowledged, self.meta["durable_held_out"])
        for index in range(len(self.records)):
            self.attempt(self._verify_reopened, index)
        self.checker.equal(
            "builds after warm reopen",
            {key: value for key, value in dict(entry.build_counters).items() if value},
            {},
        )
        self.served.close()
        self.served = None
        self.layer["stored_bytes_per_input_byte"] = os.path.getsize(self.path) / self.input_bytes
        self.passes += 1

    def _verify_reopened(self, index: int) -> None:
        record = self.records[index]
        _status, payload = self.served.app.dispatch(
            "POST", f"/graphs/{GRAPH}/query", self._body(index)
        )
        self.checker.answer(
            record, checks.n3_digests(payload["answers"]), payload["pruned"], against="@final"
        )

    def close(self) -> None:
        if self.served is not None:
            self.served.close()
            self.served = None
        for path in (self.path, self.baseline):
            _remove_catalog(path)


def _remove_catalog(path: str) -> None:
    for suffix in ("", "-wal", "-shm", "-journal"):
        try:
            os.remove(path + suffix)
        except FileNotFoundError:
            pass


WORKLOADS = {cls.name: cls for cls in (GuardedRead, DurableHttp, ClusterScatter)}
