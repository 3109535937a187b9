"""Shared plumbing of the serving benchmark: paths, statistics, host probes.

Every module of the benchmark imports this first.  It puts the checkout's
``src`` directory at the front of ``sys.path`` and refuses to run against
any other copy of :mod:`repro`: the benchmark measures the program of the
checkout it sits in, or nothing.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import statistics
import sys
import time
from typing import Dict, Iterable, List, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Generated inputs and scratch catalogs; ignored by git.
WORK_DIR = os.path.join(BENCH_DIR, ".work")


class SetupError(RuntimeError):
    """The benchmark cannot run here (no program to measure)."""


def require_program() -> None:
    """Import :mod:`repro` from this checkout's ``src`` or raise SetupError."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SetupError(f"no program to measure: {SRC}/repro is missing")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != SRC:
        raise SetupError(f"repro imported from {repro.__file__}, not from {SRC}")


# ----------------------------------------------------------------------
# answers as digests
# ----------------------------------------------------------------------
def row_digest(row: Sequence[str]) -> int:
    """A 63-bit digest of one answer row given as N-Triples term strings.

    Expected answer sets are stored as digests so that a run can check
    thousands of rows per query without keeping the base graph alive.
    """
    data = "\t".join(row).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big") >> 1


def answer_digests(answers: Iterable[Sequence]) -> List[int]:
    """Digests of decoded answer tuples (``Term`` rows)."""
    return [row_digest([term.n3() for term in row]) for row in answers]


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (no interpolation between classes' modes)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, int(-(-fraction * len(ordered) // 1)))  # ceil
    return ordered[min(rank, len(ordered)) - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def quartiles(values: Sequence[float]):
    """``(q1, median, q3)`` as :func:`statistics.quantiles` gives them."""
    if len(values) < 2:
        value = values[0]
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ----------------------------------------------------------------------
# host and process probes
# ----------------------------------------------------------------------
def ref_loop_seconds() -> float:
    """Time a fixed pure-Python loop: the host's drift, next to every time."""
    start = time.perf_counter()
    total = 0
    table = {}
    for index in range(1_600_000):
        total += index * index % 7
        table[index & 1023] = total
    return time.perf_counter() - start


class FullCollections:
    """Seconds spent in full (generation-2) cyclic collections while active.

    ``warmup_s`` leaves them out: the warm-up is one pass, and whether the
    next full collection (~0.2 s on the 110k-triple heap) falls inside it or
    just after it depends on the seed's allocation count, not on the cold
    costs the metric is for.  Full collections stay in the measured passes
    and in ``python.gc_*`` of the traced run.
    """

    def __init__(self):
        self.seconds = 0.0
        self._started = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if info["generation"] != 2:
            return
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._started

    def __enter__(self) -> "FullCollections":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)


def _status_kb(pid: Optional[int], field: str) -> Optional[int]:
    path = f"/proc/{pid or 'self'}/status"
    try:
        with open(path) as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def peak_rss_kb(pid: Optional[int] = None) -> int:
    """Peak resident memory (``VmHWM``) of *pid* (default: this process)."""
    value = _status_kb(pid, "VmHWM")
    if value is None:
        import resource

        value = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return value


def written_chars() -> int:
    """Bytes this process has passed to write calls (``/proc/self/io``)."""
    try:
        with open("/proc/self/io") as handle:
            for line in handle:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def stop_resource_tracker(timeout: float = 60.0) -> None:
    """Stop this process's multiprocessing resource tracker and reap it.

    A spawn-context child (a cluster worker, a generator pool worker) starts
    the tracker as a child of this process, and it would otherwise outlive
    the run: it exits only once this process is gone, unreaped.  Closing its
    pipe makes it release what is still registered and exit; if a holder of
    the pipe keeps it alive past *timeout*, it is killed.
    """
    module = sys.modules.get("multiprocessing.resource_tracker")
    if module is None:
        return
    tracker = module._resource_tracker
    with tracker._lock:
        fd, pid = tracker._fd, tracker._pid
        tracker._fd = tracker._pid = None
    if fd is None:
        return
    os.close(fd)
    if pid is None:
        return
    deadline = time.monotonic() + timeout
    while True:
        try:
            done, _ = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return
        if done:
            return
        if time.monotonic() >= deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            return
        time.sleep(0.01)


def write_json(path: str, payload) -> None:
    """Write *payload* as JSON atomically (temp file + rename)."""
    temporary = f"{path}.tmp{os.getpid()}"
    with open(temporary, "w") as handle:
        json.dump(payload, handle)
    os.replace(temporary, path)


def read_json(path: str):
    with open(path) as handle:
        return json.load(handle)


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}
