"""Serving benchmark: guarded reads, durable read/write over HTTP, 2-worker scatter-gather.

Usage::

    python3 perfbench/run.py --workload guarded-read --seed 1 --seconds 10 --trace 0

One run generates the seed's inputs in a child process (or reuses them),
sets the serving stack up and runs its warm-up pass, then runs whole passes
of the workload's fixed operation sequence for ``--seconds`` (and until it
has the workload's count of windows, below).  Four times, between passes, a
child process sets the stack up and warms it up once more: the throw-away
cold starts behind the median ``setup_s`` and ``warmup_s``.  Every answer
is checked against the ``Term``-level expected answers.  The last line of
standard output is one JSON object: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of ``BENCHMARK.json`` with ``--trace 1``.  The line before it is a
JSON object of host figures (``host.ref_loop_s``) for ``spread.py``.

Statistics.  ``setup_s`` and ``warmup_s`` are medians of the five cold
starts; ``warmup_s`` leaves out full GC collections (see
``common.FullCollections``).  The measured passes are cut into windows of
consecutive passes holding at least 100 samples of each read class; every
latency percentile and the throughput pool the samples of the workload's
first ``windows`` windows (10 passes of ``guarded-read``, 2 of
``durable-rw-http``), so that full GC collections and the host's drift
within a run average out.  The count of windows is fixed per workload, so every run
reports on the same passes; a run goes on past ``--seconds`` until it has
them, and the passes after them are run and checked but not counted.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
from time import perf_counter
from typing import Dict, List, Optional, Sequence

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

#: Throw-away cold starts (set-up and warm-up) per untraced run; with the
#: kept one, ``setup_s`` and ``warmup_s`` are medians of five.
EXTRA_STARTS = 4


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", default="full", help="input scale (tiny: the benchmark's own tests)"
    )
    parser.add_argument(
        "--cold-start",
        action="store_true",
        help="set up and warm up once, print setup_s and warmup_s, exit",
    )
    return parser.parse_args(argv)


def ensure_inputs(seed: int, scale: str) -> str:
    """The inputs of *seed*, generated first in a child process when they
    are missing: no generator state, and no generator peak in ``VmHWM``,
    is ever part of the measuring process."""
    import inputs

    target = inputs.work_dir(seed, scale)
    if not os.path.isfile(os.path.join(target, "meta.json")):
        command = [
            sys.executable,
            os.path.join(common.BENCH_DIR, "inputs.py"),
            "--seed", str(seed),
            "--scale", scale,
        ]
        completed = subprocess.run(command, capture_output=True, text=True, timeout=800, check=False)
        if completed.returncode != 0:
            raise RuntimeError(f"input generation failed: {completed.stderr[-2000:]}")
    return target


def child_cold_start(name: str, seed: int, scale: str) -> Dict[str, float]:
    """One throw-away set-up and warm-up in a fresh process (its heap and
    peak RSS stay out of the measured process)."""
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload", name,
        "--seed", str(seed),
        "--seconds", "0",
        "--scale", scale,
        "--cold-start",
    ]
    completed = subprocess.run(command, capture_output=True, text=True, timeout=170, check=False)
    if completed.returncode != 0:
        raise RuntimeError(f"set-up child failed: {completed.stderr[-2000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


class Windows:
    """Consecutive passes grouped until each read class has enough samples.

    The run's figures pool the samples of the workload's first
    ``workload.windows`` windows, however many the run completes, so that
    every run reports on the same count of passes.
    """

    def __init__(self, workload):
        self.workload = workload
        self.wanted = workload.windows
        self.closed: List[Dict[str, object]] = []
        self._open = self._start = self._mark()

    def _mark(self) -> Dict[str, object]:
        w = self.workload
        mark = {kind: len(samples) for kind, samples in w.samples.items()}
        mark.update(ops=w.ops, op_seconds=w.op_seconds)
        return mark

    def after_pass(self) -> None:
        start = self._open
        end = self._mark()
        if all(end[kind] - start[kind] >= self.workload.min_samples for kind in ("sat", "unsat")):
            self.closed.append({"start": start, "end": end})
            self._open = end

    def complete(self) -> bool:
        return len(self.closed) >= self.wanted

    def percentile(self, kind: str, fraction: float) -> float:
        """One sample class's percentile over the counted windows."""
        end = self.closed[self.wanted - 1]["end"]
        return common.percentile(self.workload.samples[kind][self._start[kind] : end[kind]], fraction)

    def rate(self) -> float:
        """Operations per second of operation time over the counted windows."""
        end = self.closed[self.wanted - 1]["end"]
        return (end["ops"] - self._start["ops"]) / (end["op_seconds"] - self._start["op_seconds"])


def end_to_end(workload, windows: Windows, starts: List[Dict[str, float]]) -> Dict[str, dict]:
    m = common.metric
    return {
        "setup_s": m(common.median([start["setup_s"] for start in starts]), "s"),
        "warmup_s": m(common.median([start["warmup_s"] for start in starts]), "s"),
        "ops_per_s": m(windows.rate(), "1/s"),
        "sat_read_p50_ms": m(windows.percentile("sat", 0.5), "ms"),
        "sat_read_p90_ms": m(windows.percentile("sat", 0.9), "ms"),
        "unsat_read_p50_ms": m(windows.percentile("unsat", 0.5), "ms"),
        "unsat_read_p90_ms": m(windows.percentile("unsat", 0.9), "ms"),
        "peak_rss_mb": m(workload.peak_rss_kb() / 1024.0, "MB"),
    }


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: str = "full",
    extra_starts: int = EXTRA_STARTS,
) -> Dict[str, object]:
    """One run of workload *name*; returns the result object (plus a
    ``host`` entry of figures that are not metrics)."""
    common.require_program()
    import inputs
    import workloads

    if name not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {name!r} (choose from {sorted(workloads.WORKLOADS)})")
    if scale not in inputs.SCALES:
        raise SystemExit(f"unknown scale {scale!r} (choose from {sorted(inputs.SCALES)})")
    inputs_dir = ensure_inputs(seed, scale)
    scratch = os.path.join(common.WORK_DIR, "catalogs")
    cls = workloads.WORKLOADS[name]

    host_before = common.ref_loop_seconds()
    tracer = None
    starts: List[Dict[str, float]] = []
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        extra_starts = 0

    workload = cls(inputs_dir, scratch, tracer)
    try:
        if tracer is not None:
            tracer.recording = True
        setup_s = workload.setup()
        # keep what a server keeps: the parsed graph and every generator
        # structure are gone before anything is timed
        gc.collect()
        if tracer is not None:
            tracer.phase = "warmup"
        warmup_s = workload.warmup()
        if tracer is not None:
            tracer.recording = False
            tracer.phase = "pass"
        walls: Dict[bool, List[float]] = {False: [], True: []}
        windows = Windows(workload)
        number = 1
        measured = 0.0
        share = seconds / (extra_starts + 1)
        while True:
            traced = tracer is not None and number % 2 == 0
            if tracer is not None:
                tracer.recording = traced
            # the warm-up and the first measured pass are checked exactly;
            # later passes of the unchanging graph check answer sizes and
            # pruning flags only (the durable workload checks every pass)
            workload.check_mode = "exact" if number == 1 else "count"
            workload.measuring = True
            aside = workload.aside_seconds
            pass_started = perf_counter()
            workload.run_pass(number)
            # the benchmark's own extra work in a recorded pass is not
            # the program's, nor the tracer's
            walls[traced].append(perf_counter() - pass_started - (workload.aside_seconds - aside))
            workload.measuring = False
            measured += walls[traced][-1]
            windows.after_pass()
            number += 1
            # the throw-away cold starts run between passes (this process idles
            # meanwhile), so the windows sample the host across the run
            while len(starts) < extra_starts and measured >= (len(starts) + 1) * share:
                starts.append(child_cold_start(name, seed, scale))
            done = measured >= seconds and windows.complete()
            if tracer is not None:
                done = done and bool(walls[True]) and bool(walls[False])
            if done:
                break
        while len(starts) < extra_starts:
            starts.append(child_cold_start(name, seed, scale))
        starts.append({"setup_s": setup_s, "warmup_s": warmup_s})
        workload.measuring = False
        if tracer is not None:
            tracer.phase = "finish"
            tracer.recording = True
        workload.finish()
        if tracer is not None:
            tracer.recording = False
            metrics = layer_metrics(workload, tracer, walls)
        else:
            metrics = end_to_end(workload, windows, starts)
    finally:
        workload.close()
        if tracer is not None:
            tracer.remove()
    host = (host_before + common.ref_loop_seconds()) / 2
    if tracer is not None:
        metrics["host.ref_loop_s"] = common.metric(host, "s")
    for failure in workload.checker.failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    return {
        "correct": workload.checker.ok,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": metrics,
        "host": {
            "host.ref_loop_s": host,
            "passes": workload.passes,
            "windows": len(windows.closed),
            "cold_starts": starts,
        },
    }


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
def layer_metrics(workload, tracer, walls) -> Dict[str, dict]:
    t = tracer
    layer = workload.layer
    before, after = workload.warmup_counters
    m = common.metric
    passes = max(1, len(walls[True]))
    lookups = (after["hits"] - before["hits"]) + (after["misses"] - before["misses"])
    guard_steps = t.count("pass", "service.has_answers")
    evaluations = t.count("pass", "service.evaluate")
    ingest_bytes = getattr(workload, "ingest_bytes", 0)
    written = t.written.get(("pass", "server.add_triples"), 0)
    unsat_reads = layer.get("unsat_reads", 0)
    scatter_reads = layer.get("scatter_reads", 0)
    unsat_shards = layer.get("unsat_shards", 0)
    overheads = getattr(workload, "overheads", [])
    restarts = getattr(workload, "restarts", [])
    result = {
        "io.parse_s": m(t.total("setup", "io.load_ntriples"), "s"),
        "io.batch_parse_ms": m(t.mean_ms("pass", "io.parse_ntriples"), "ms"),
        "store.load_s": m(t.total("setup", "store.insert_triples"), "s"),
        "store.index_builds": m(after["index_builds"] - before["index_builds"], "count"),
        "core.weak_snapshot_ms": m(t.mean_ms("pass", "core.weak_snapshot"), "ms"),
        "core.strong_build_ms": m(t.mean_ms("pass", "core.encoded_summarize"), "ms"),
        "core.summary_builds": m(t.count("pass", "core.encoded_summarize") / passes, "count"),
        "schema.saturation_build_s": m(t.total("warmup", "schema.saturator_build"), "s"),
        "schema.saturation_delta_ms": m(t.mean_ms("pass", "schema.saturator_delta"), "ms"),
        "service.register_s": m(t.total("setup", "service.register"), "s"),
        # in memory the profile is built by the first evaluation, which
        # may fall in the warm-up rather than the set-up
        "service.statistics_s": m(
            t.total("setup", "service.statistics_index") + t.total("warmup", "service.statistics_index"),
            "s",
        ),
        "service.guard_ms": m(
            1000.0 * (t.total("pass", "service.pruning_graph") + t.total("pass", "service.has_answers"))
            / guard_steps if guard_steps else 0.0,
            "ms",
        ),
        "service.prune_ratio": m(layer.get("unsat_pruned", 0) / unsat_reads if unsat_reads else 0.0, "ratio"),
        "service.plan_ms": m(
            1000.0 * (t.total("pass", "service.compile") + t.total("pass", "service.plan")) / evaluations
            if evaluations else 0.0,
            "ms",
        ),
        "service.evaluate_ms": m(t.mean_ms("pass", "service.evaluate"), "ms"),
        "service.rows_fetched_per_answer": m(layer.get("service.rows_fetched_per_answer", 0.0), "ratio"),
        "service.plan_cache_hit_ratio": m(
            (after["hits"] - before["hits"]) / lookups if lookups else 0.0, "ratio"
        ),
        "server.checkpoint_s": m(t.total("setup", "server.checkpoint"), "s"),
        "server.warm_open_s": m(t.mean_ms("pass", "server.open") / 1000.0, "s"),
        "server.written_bytes_per_ingest_byte": m(
            written / ingest_bytes if ingest_bytes and written else 0.0, "ratio"
        ),
        "server.write_through_ms": m(t.mean_ms("pass", "server.append_update"), "ms"),
        "server.http_overhead_ms": m(1000.0 * common.median(overheads) if overheads else 0.0, "ms"),
        "restart_s": m(common.median(restarts) if restarts else 0.0, "s"),
        "stored_bytes_per_input_byte": m(layer.get("stored_bytes_per_input_byte", 0.0), "ratio"),
        "cluster.spawn_s": m(layer.get("cluster.spawn_s", 0.0), "s"),
        "cluster.ship_s": m(layer.get("cluster.ship_s", 0.0), "s"),
        "cluster.segment_bytes": m(layer.get("cluster.segment_bytes", 0.0), "B"),
        "cluster.scatter_ms": m(
            1000.0 * layer.get("scatter_seconds", 0.0) / scatter_reads if scatter_reads else 0.0, "ms"
        ),
        "cluster.gather_ms": m(
            1000.0 * layer.get("gather_seconds", 0.0) / scatter_reads if scatter_reads else 0.0, "ms"
        ),
        "cluster.shards_pruned_ratio": m(
            layer.get("unsat_shards_pruned", 0) / unsat_shards if unsat_shards else 0.0, "ratio"
        ),
        "cluster.delta_ms": m(
            1000.0 * common.mean(t.durations("pass", "cluster.delta") + t.durations("cluster", "cluster.delta")),
            "ms",
        ),
        "python.gc_s": m(t.gc_seconds.get("pass", 0.0) / passes, "s"),
        "python.gc_full_collections": m(t.gc_full.get("pass", 0) / passes, "count"),
        "trace.overhead_ratio": m(
            (sum(walls[True]) / len(walls[True])) / (sum(walls[False]) / len(walls[False])), "ratio"
        ),
    }
    return result


def cold_start(name: str, seed: int, scale: str) -> Dict[str, float]:
    common.require_program()
    import workloads

    workload = workloads.WORKLOADS[name](
        ensure_inputs(seed, scale), os.path.join(common.WORK_DIR, "catalogs")
    )
    try:
        setup_s = workload.setup()
        gc.collect()
        return {"setup_s": setup_s, "warmup_s": workload.warmup()}
    finally:
        workload.close()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    try:
        if args.cold_start:
            print(json.dumps(cold_start(args.workload, args.seed, args.scale)))
            return 0
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    except common.SetupError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    finally:
        # the cluster's workers start one; it must not outlive the run
        common.stop_resource_tracker()
    host = result.pop("host")
    print(json.dumps(host))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
