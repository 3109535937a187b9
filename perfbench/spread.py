"""Run one workload k times and print each metric's median and quartiles.

Usage::

    python3 perfbench/spread.py --workload cluster-scatter --runs 10 --seconds 8

Run *i* uses seed ``--first-seed + i`` (another seed every run, as the
bounds in ``BENCHMARK.json`` assume).  For every end-to-end metric the
table gives q1, median, q3 and the spread ``(q3 - q1) / median`` next to
its bound, plus ``host.ref_loop_s``: a fixed pure-Python loop timed around
each run, so host drift shows next to every time.  Exit status 1 when a
spread (``setup_s`` excepted) is not below a third of its bound, or when a
run fails or reports a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List, Optional, Sequence

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

BENCHMARK = os.path.join(common.ROOT, "BENCHMARK.json")


def run_once(workload: str, seed: int, seconds: float) -> Dict[str, object]:
    command = [
        sys.executable,
        os.path.join(common.BENCH_DIR, "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    completed = subprocess.run(
        command, capture_output=True, text=True, timeout=900, check=False, cwd=common.ROOT
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"run failed ({completed.returncode}): {completed.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["host"] = json.loads(lines[-2])
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)

    spec = common.read_json(BENCHMARK)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {entry["name"]: entry.get("bound") for entry in spec["end_to_end"]}
    values: Dict[str, List[float]] = {}
    hosts: List[float] = []
    shares = set()
    healthy = True
    for index in range(args.runs):
        seed = args.first_seed + index
        result = run_once(args.workload, seed, seconds)
        hosts.append(result["host"]["host.ref_loop_s"])
        shares.add((result["failed"], result["attempted"]))
        healthy &= bool(result["correct"])
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
        print(
            f"run {index + 1}/{args.runs} seed {seed}: correct={result['correct']} "
            f"attempted={result['attempted']} failed={result['failed']} "
            f"host.ref_loop_s={hosts[-1]:.4f}",
            flush=True,
        )
    print(f"\n{args.workload}: {args.runs} runs, {seconds} s each")
    print(f"{'metric':34s} {'q1':>12s} {'median':>12s} {'q3':>12s} {'spread':>8s} {'bound':>7s}")
    for name, series in list(values.items()) + [("host.ref_loop_s", hosts)]:
        q1, middle, q3 = common.quartiles(series)
        spread = (q3 - q1) / middle if middle else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread >= bound / 3:
            flag = "  <- not below a third of the bound"
            healthy = False
        print(
            f"{name:34s} {q1:12.4f} {middle:12.4f} {q3:12.4f} {spread:8.3f} "
            f"{bound if bound is not None else '':>7}{flag}"
        )
    failed_shares = {failed / attempted for failed, attempted in shares}
    print(f"failed share per run: {sorted(failed_shares)}")
    return 0 if healthy else 1


if __name__ == "__main__":
    sys.exit(main())
