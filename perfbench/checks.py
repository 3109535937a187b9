"""Correctness checks on the program's answers, against the input files.

Every answer is reduced to row digests (:func:`common.row_digest`) and
compared with the ``Term``-level expected answers written by
:mod:`inputs`.  A failed check never raises: it is recorded, and the run
reports ``"correct": false`` with the first few failures on stderr.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

import common


class Checker:
    """Collects check failures for one run."""

    def __init__(self, expected: Dict[str, List[int]]):
        self._expected: Dict[str, Set[int]] = {key: set(rows) for key, rows in expected.items()}
        self.failures: List[str] = []
        #: Last unlimited answer seen per query id (the "answers only grow"
        #: property across ingests).
        self._previous: Dict[str, Set[int]] = {}

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, message: str) -> None:
        self.failures.append(message)

    # ------------------------------------------------------------------
    def answer(
        self,
        record: dict,
        digests: Set[int],
        pruned: bool,
        against: str = "",
        mode: str = "exact",
    ) -> None:
        """Check one answer to the query *record*.

        ``mode="exact"``: equal to the expected set (a subset of the right
        size under a limit).  ``mode="within"``: a subset of the expected
        set (answers seen between ingests, checked against the final
        graph's answers), growing monotonically when unlimited.
        ``mode="count"``: only the answer count and the pruning flag —
        the cheap check of passes between two fully checked ones.
        """
        qid = record["id"]
        limit = record["limit"]
        if not record["satisfiable"]:
            if digests:
                self.fail(f"{qid}: empty by construction, got {len(digests)} answers")
            return
        if pruned:
            self.fail(f"{qid}: satisfiable query was pruned (representativeness)")
        expected = self._expected[qid + against]
        if mode == "count":
            want = len(expected) if limit is None else min(limit, len(expected))
            if len(digests) != want:
                self.fail(f"{qid}: {len(digests)} answers, expected {want}")
            return
        if not digests <= expected:
            extra = len(digests - expected)
            self.fail(f"{qid}: {extra} answers outside the expected set{against}")
            return
        if mode == "within":
            # between the initial and the final graph the answer count lies
            # between the two expected counts (each capped by the limit)
            low = len(self._expected[qid])
            high = len(expected)
            if limit is not None:
                low, high = min(limit, low), min(limit, high)
            if not low <= len(digests) <= high:
                self.fail(f"{qid}: {len(digests)} answers, expected {low}..{high}")
            if limit is None:
                previous = self._previous.get(qid)
                if previous is not None and not previous <= digests:
                    self.fail(f"{qid}: unlimited answers shrank across an ingest")
                self._previous[qid] = digests
            return
        want = len(expected) if limit is None else min(limit, len(expected))
        if len(digests) != want:
            self.fail(f"{qid}: {len(digests)} answers, expected {want}{against}")

    def reset_growth(self) -> None:
        """Forget the monotonicity baseline (a pass restarted from the
        initial graph)."""
        self._previous.clear()

    def equal(self, what: str, got, want) -> None:
        if got != want:
            self.fail(f"{what}: got {got!r}, expected {want!r}")


def term_digests(answers: Iterable) -> Set[int]:
    return set(common.answer_digests(answers))


def n3_digests(rows: Iterable[List[str]]) -> Set[int]:
    return {common.row_digest(row) for row in rows}
