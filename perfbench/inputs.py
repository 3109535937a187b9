"""Input generation: graphs, held-out ingest batches, query streams, answers.

``python3 perfbench/inputs.py --seed N`` writes everything one seed needs
into ``perfbench/.work/<tag>/``; a run only reads those files and
generates them first, in a child process, when they are missing.  Per seed:

* ``main_base.nt`` — a BSBM graph (~110k triples), served by
  ``guarded-read`` and ``cluster-scatter``;
* ``durable_base.nt`` / ``durable_batches.json`` — the smaller BSBM graph
  of ``durable-rw-http`` minus its held-out slice, cut into ~20-triple
  batches of data, type and one schema triple;
* ``streams.json`` — each workload's distinct queries as SPARQL text with
  their ground truth, and the operation sequence of one pass;
* ``expected.json`` — the expected answer set of every satisfiable query
  (and of every durable query on the final graph) as row digests.

Ground truth comes from the ``Term``-level specification only:
``repro.queries.evaluation.evaluate`` on the parsed graph, after
``repro.schema.saturation.saturate`` for saturated queries.  Queries empty
"by construction" are proven empty from disjoint endpoint sets, never by
running them.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import random
import shutil
import sys
import time
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

#: Input make-up per scale.  ``full`` is what the benchmark runs; ``tiny``
#: only drives the benchmark's own tests.
SCALES: Dict[str, Dict[str, int]] = {
    "full": {
        "main_products": 3200,  # ~110k triples
        "durable_products": 900,  # ~31k triples
        "durable_batches": 12,
        "guarded_unsat": 120,
        "guarded_sat_heavy": 12,
        "guarded_sat_limited": 48,
        "guarded_sat_unlimited": 16,
        "cluster_each": 20,
        "cluster_ingest_points": 1,
        "durable_sat": 8,
        "durable_unsat": 8,
        "max_embeddings": 3000,
        "heavy_embeddings": 7000,
        "min_samples": 100,
    },
    "tiny": {
        "main_products": 70,
        "durable_products": 60,
        "durable_batches": 3,
        "guarded_unsat": 12,
        "guarded_sat_heavy": 2,
        "guarded_sat_limited": 6,
        "guarded_sat_unlimited": 3,
        "cluster_each": 3,
        "cluster_ingest_points": 1,
        "durable_sat": 4,
        "durable_unsat": 4,
        "max_embeddings": 150,
        "heavy_embeddings": 600,
        "min_samples": 10,
    },
}

#: Answers per query under a limit (``LIMIT 100``).
LIMIT = 100
#: Entities (offers / reviews) per held-out ingest batch: ~20 triples.
ENTITIES_PER_BATCH = 3
#: Entities per cluster marker ingest (3 triples each), and the marker
#: ingests made back to back at each ingest point of a cluster pass.
MARKERS_PER_BATCH = 2
WRITES_PER_POINT = 4

BSBM_NS = "http://bsbm.example.org/"
MARK_NS = "http://perfbench.example.org/"
#: Bumped whenever the generated files change meaning.
FORMAT = 15


def work_dir(seed: int, scale: str) -> str:
    return os.path.join(common.WORK_DIR, f"seed{seed}-{scale}-v{FORMAT}")


# ----------------------------------------------------------------------
# graph index (one pass; the basis of every by-construction proof)
# ----------------------------------------------------------------------
class GraphIndex:
    def __init__(self, graph):
        from repro.model.terms import URI

        self.subjects: Dict[object, Counter] = {}
        self.objects: Dict[object, Counter] = {}
        for triple in graph.data_triples:
            p = triple.predicate
            self.subjects.setdefault(p, Counter())[triple.subject] += 1
            self.objects.setdefault(p, Counter())[triple.object] += 1
        self.instances: Dict[object, set] = {}
        for triple in graph.type_triples:
            if isinstance(triple.object, URI):
                self.instances.setdefault(triple.object, set()).add(triple.subject)
        self.properties = sorted(self.subjects, key=str)
        self.classes = sorted(self.instances, key=str)


def _bgp(patterns, head, name):
    from repro.queries.bgp import BGPQuery, TriplePattern

    return BGPQuery([TriplePattern(*pattern) for pattern in patterns], head=head, name=name)


def _vars(*names):
    from repro.queries.bgp import Variable

    return [Variable(name) for name in names]


def unsat_candidates(index: GraphIndex, rng: random.Random) -> Dict[str, list]:
    """Empty RBGP joins per family, each proven empty by disjoint sets,
    as ``(scan size, query)`` pairs: the scan size is what a direct
    evaluation would enumerate before finding the join empty."""
    from repro.model.namespaces import RDF_TYPE

    w, x, y, z = _vars("w", "x", "y", "z")
    props = index.properties
    families: Dict[str, list] = {"chain": [], "fork": [], "typed": [], "long_chain": []}
    subjects = {p: set(index.subjects[p]) for p in props}
    objects = {p: set(index.objects[p]) for p in props}
    feeders = {
        first: [p for p in props if p != first and not objects[p].isdisjoint(subjects[first])]
        for first in props
    }
    out_edges = {p: sum(index.subjects[p].values()) for p in props}
    for first in props:
        for second in props:
            if first == second:
                continue
            if objects[first].isdisjoint(subjects[second]):
                scan = out_edges[first]
                families["chain"].append((scan, [[(x, first, y), (y, second, z)], (x, z)]))
                if feeders[first]:
                    feeder = feeders[first][rng.randrange(len(feeders[first]))]
                    families["long_chain"].append(
                        (
                            scan + out_edges[feeder],
                            [[(w, feeder, x), (x, first, y), (y, second, z)], (w,)],
                        )
                    )
            if str(first) < str(second) and subjects[first].isdisjoint(subjects[second]):
                families["fork"].append(
                    (out_edges[first], [[(x, first, y), (x, second, z)], (x,)])
                )
    for cls in index.classes:
        for prop in props:
            if index.instances[cls].isdisjoint(subjects[prop]):
                families["typed"].append(
                    (len(index.instances[cls]), [[(x, RDF_TYPE, cls), (x, prop, y)], (x,)])
                )
    return families


def sat_candidates(index: GraphIndex, low: int, high: int) -> Dict[str, list]:
    """Satisfiable RBGP joins with exact embedding counts in [low, high]."""
    from repro.model.namespaces import RDF_TYPE

    x, y, z, v = _vars("x", "y", "z", "v")
    props = index.properties
    out: Dict[str, list] = {"chain": [], "fork": [], "typed": [], "star": []}

    def meet(left: Counter, right: Counter) -> int:
        if len(left) > len(right):
            left, right = right, left
        return sum(count * right[node] for node, count in left.items() if node in right)

    for first in props:
        for second in props:
            if first == second:
                continue
            size = meet(index.objects[first], index.subjects[second])
            if low <= size <= high:
                out["chain"].append((size, [[(x, first, y), (y, second, z)], (x, z)]))
            if str(first) < str(second):
                size = meet(index.subjects[first], index.subjects[second])
                if low <= size <= high:
                    out["fork"].append((size, [[(x, first, y), (x, second, z)], (y, z)]))
    for cls in index.classes:
        members = sorted(index.instances[cls], key=str)
        usable = []
        for prop in props:
            counts = index.subjects[prop]
            # per-member out-degrees, aligned across properties
            degrees = [counts.get(node, 0) for node in members]
            size = sum(degrees)
            if low <= size <= high:
                out["typed"].append((size, [[(x, RDF_TYPE, cls), (x, prop, y)], (x, y)]))
            if size:
                usable.append((prop, degrees))
        for i, (first, d1) in enumerate(usable):
            for second, d2 in usable[i + 1 :]:
                size = sum(map(int.__mul__, d1, d2))
                if low <= size <= high:
                    out["star"].append(
                        (size, [[(x, RDF_TYPE, cls), (x, first, y), (x, second, z)], (x, y, z)])
                    )
    return out


def _stratified(pool: list, count: int, rng: random.Random) -> Tuple[list, list]:
    """Pick *count* of the ``(size, item)`` pairs of *pool*, one at random
    from each of *count* equal slices of the pool ordered by size, so every
    seed draws the same spread of join sizes; returns ``(picked, rest)``."""
    ordered = sorted(pool, key=lambda pair: pair[0])
    if count >= len(ordered):
        return ordered, []
    picked_at = set()
    for slot in range(count):
        low = slot * len(ordered) // count
        high = max(low + 1, (slot + 1) * len(ordered) // count)
        picked_at.add(rng.randrange(low, high))
    picked = [pair for at, pair in enumerate(ordered) if at in picked_at]
    rest = [pair for at, pair in enumerate(ordered) if at not in picked_at]
    return picked, rest


def _take(pools: Dict[str, list], quotas: Dict[str, int], rng: random.Random) -> List[Tuple[str, list]]:
    """Draw *quotas* of ``(size, item)`` pairs per family, stratified by
    size; a family's shortfall is refilled from the others' leftovers."""
    chosen: List[Tuple[str, list]] = []
    spare: List[Tuple[str, list]] = []
    for family, quota in quotas.items():
        picked, rest = _stratified(list(pools.get(family, [])), quota, rng)
        chosen.extend((family, item) for _size, item in picked)
        spare.extend((size, (family, item)) for size, item in rest)
    missing = sum(quotas.values()) - len(chosen)
    if missing > 0:
        chosen.extend(item for _size, item in _stratified(spare, missing, rng)[0])
    return chosen


# ----------------------------------------------------------------------
# held-out slices
# ----------------------------------------------------------------------
def split_held_out(graph, batches: int, rng: random.Random, schema_batch: int):
    """Remove ``batches * ENTITIES_PER_BATCH`` offers/reviews (all their
    triples) and one ``subClassOf`` triple (added to batch *schema_batch*)
    from *graph*, in place; returns ``(batches as lists of triples, the
    schema triple or None)``."""
    from repro.model.namespaces import RDFS_SUBCLASSOF
    from repro.model.terms import URI

    offer, review = URI(BSBM_NS + "Offer"), URI(BSBM_NS + "Review")
    entities = sorted(
        (t.subject for t in graph.type_triples if t.object in (offer, review)), key=str
    )
    picked = rng.sample(entities, batches * ENTITIES_PER_BATCH)
    out = []
    for b in range(batches):
        group = picked[b * ENTITIES_PER_BATCH : (b + 1) * ENTITIES_PER_BATCH]
        out.append(sorted((t for s in group for t in graph.triples(s, None, None)), key=str))
    # a subclass link below the root, so that saturated answers jump when
    # it arrives
    root = URI(BSBM_NS + "ProductType")
    options = sorted(
        (t for t in graph.schema_triples if t.predicate == RDFS_SUBCLASSOF and t.object != root),
        key=str,
    )
    schema_triple = options[rng.randrange(len(options))] if options else None
    if schema_triple is not None:
        out[schema_batch].append(schema_triple)
    for batch in out:
        for triple in batch:
            graph.discard(triple)
    return out, schema_triple


def _ntriples(triples) -> str:
    from repro.io.ntriples import serialize_ntriples

    return serialize_ntriples(triples)


# ----------------------------------------------------------------------
# expected answers
# ----------------------------------------------------------------------
def expected_for(graph, query, cache: Optional[dict] = None) -> List[int]:
    from repro.queries.evaluation import evaluate

    key = query.to_sparql()
    if cache is not None and key in cache:
        return cache[key]
    digests = sorted(common.answer_digests(evaluate(graph, query)))
    if cache is not None:
        cache[key] = digests
    return digests


def _record(query, family: str, satisfiable: bool, limit, saturated: bool = False) -> dict:
    return {
        "sparql": query.to_sparql(),
        "family": family,
        "satisfiable": satisfiable,
        "limit": limit,
        "saturated": saturated,
    }


# ----------------------------------------------------------------------
# workload streams
# ----------------------------------------------------------------------
def guarded_stream(base, index, sizes, rng, expected, cache, unsat_pool, pools) -> dict:
    from repro.queries.bgp import BGPQuery, TriplePattern
    from repro.model.terms import URI

    x, y = _vars("x", "y")
    unsat_total = sizes["guarded_unsat"]
    misses = max(1, unsat_total // 20)
    rest = unsat_total - misses
    unsat = _take(
        unsat_pool,
        {"chain": rest // 3, "fork": rest // 5, "typed": rest // 3,
         "long_chain": rest - rest // 3 - rest // 5 - rest // 3},
        rng,
    )
    queries = []
    for family, (patterns, head) in unsat:
        queries.append(_record(_bgp(patterns, head, ""), "unsat_" + family, False, LIMIT))
    for i in range(misses):
        absent = URI(f"{MARK_NS}absent/p{i}")
        query = BGPQuery([TriplePattern(x, absent, y)], head=(x,))
        queries.append(_record(query, "unsat_miss", False, LIMIT))
    # heavy joins under a limit: thousands of embeddings behind 100 answers
    heavy = sizes["guarded_sat_heavy"]
    per = heavy // 3
    chosen = _take(
        {k: [pair for pair in v if pair[0] > sizes["max_embeddings"]] for k, v in pools.items()},
        {"chain": per, "fork": per, "typed": heavy - 3 * per, "star": per},
        rng,
    )
    for family, (patterns, head) in chosen:
        queries.append(_record(_bgp(patterns, head, ""), "sat_heavy_" + family, True, LIMIT))
    limited = sizes["guarded_sat_limited"]
    unlimited = sizes["guarded_sat_unlimited"]
    per = (limited + unlimited) // 4
    sat = _take(
        {k: [pair for pair in v if pair[0] <= sizes["max_embeddings"]] for k, v in pools.items()},
        {"chain": per, "fork": per, "typed": per, "star": limited + unlimited - 3 * per},
        rng,
    )
    for position, (family, (patterns, head)) in enumerate(sat):
        query = _bgp(patterns, head, "")
        limit = None if position % ((limited + unlimited) // unlimited) == 0 else LIMIT
        queries.append(_record(query, "sat_" + family, True, limit))
    _name_and_expect(queries, "g", base, expected, cache)
    order = list(range(len(queries)))
    rng.shuffle(order)
    return {"queries": queries, "pass": [["read", i] for i in order]}


def cluster_stream(base, index, sizes, rng, expected, cache, unsat, guarded) -> dict:
    """The cluster's queries: its satisfiable joins are every other light
    subject star and every chain of ``guarded-read`` (their expected answers
    are computed once), asked under a limit; its empty ones are drawn
    afresh."""
    from repro.model.namespaces import RDF_TYPE
    from repro.model.terms import URI

    each = sizes["cluster_each"]
    queries = []
    # subject stars scatter to both shards; chains go to one full replica
    for family, (patterns, head) in _take(unsat, {"fork": each, "typed": each}, rng):
        queries.append(_record(_bgp(patterns, head, ""), "unsat_scatter_" + family, False, LIMIT))
    for family, (patterns, head) in _take(unsat, {"chain": each, "long_chain": each // 2}, rng):
        queries.append(_record(_bgp(patterns, head, ""), "unsat_" + family, False, LIMIT))
    satisfiable = [record for record in guarded["queries"] if record["satisfiable"]]
    stars = [
        record
        for record in satisfiable
        if not record["family"].startswith("sat_heavy") and not record["family"].endswith("chain")
    ]
    for record in stars[::2]:
        family = "sat_scatter_" + record["family"].split("_")[-1]
        queries.append(dict(record, family=family, limit=LIMIT))
    for record in satisfiable:
        if record["family"].endswith("chain"):
            queries.append(dict(record, family="sat_chain", limit=LIMIT))
    # satisfiable constant-subject stars, routed to the owning shard; empty
    # ones are left out: a constant subject makes a query non-RBGP, so it
    # skips the guard and is no read of the guard's path
    a, b = _vars("a", "b")
    subjects = sorted({s for counts in index.subjects.values() for s in counts}, key=str)
    made = 0
    while made < each:
        subject = subjects[rng.randrange(len(subjects))]
        present = [p for p in index.properties if index.subjects[p][subject]]
        if len(present) < 2:
            continue
        first, second = rng.sample(present, 2)
        query = _bgp([(subject, first, a), (subject, second, b)], (a, b), "")
        queries.append(_record(query, "sat_owner_star", True, LIMIT))
        made += 1
    _name_and_expect(queries, "c", base, expected, cache)
    # After an ingest every worker's strong summaries are stale.  A fixed
    # refresh — the largest scattered star (both shards) and two chains
    # (both full replicas, by round-robin) — pays those rebuilds right
    # away, so they land on the same three reads in every pass.
    stars = [i for i, q in enumerate(queries) if q["family"].startswith("sat_scatter")]
    refresh = [max(stars, key=lambda i: len(expected[queries[i]["id"]]))]
    refresh += [i for i, q in enumerate(queries) if q["family"] == "sat_chain"][:2]
    order = list(range(len(queries)))
    rng.shuffle(order)
    ops: List[list] = []
    points = sizes["cluster_ingest_points"]
    spacing = len(order) // (points + 1)
    batch = 0
    for position, query_index in enumerate(order):
        if position and position % spacing == 0 and batch < points * WRITES_PER_POINT:
            for _ in range(WRITES_PER_POINT):
                ops.append(["ingest", batch])
                batch += 1
            ops.append(["probe", batch - 1])
            ops.extend(["read", i] for i in refresh)
        ops.append(["read", query_index])
    # marker batches: fresh subjects on fresh properties, so no other query
    # of the stream changes its answers; ``{pass}`` is filled in per pass
    mark_type = URI(MARK_NS + "Marker")
    markers = []
    for number in range(batch):
        lines = []
        for entity in range(MARKERS_PER_BATCH):
            subject = f"<{MARK_NS}m/{{pass}}/b{number}/e{entity}>"
            lines.append(f"{subject} <{RDF_TYPE}> {mark_type.n3()} .")
            lines.append(f'{subject} <{MARK_NS}seq> "{number}.{entity}" .')
            lines.append(f"{subject} <{MARK_NS}batch> <{MARK_NS}batch{number}> .")
        probe_subject = f"<{MARK_NS}m/{{pass}}/b{number}/e0>"
        markers.append(
            {
                "triples": "\n".join(lines) + "\n",
                "probe": f"SELECT ?c ?s WHERE {{ {probe_subject} <{RDF_TYPE}> ?c . "
                f"{probe_subject} <{MARK_NS}seq> ?s }}",
                "probe_row": [mark_type.n3(), f'"{number}.0"'],
            }
        )
    return {"queries": queries, "pass": ops, "markers": markers}


def durable_stream(graph, batches, schema_triple, sizes, rng, expected) -> dict:
    """The durable workload's queries and cycles.  *graph* is the base
    graph on entry and the final graph (every batch added back) on exit."""
    from repro.model.namespaces import RDF_TYPE
    from repro.model.terms import URI
    from repro.queries.parser import parse_query
    from repro.schema.saturation import saturate

    base = graph
    r, p, o, f, u, c = _vars("r", "p", "o", "f", "u", "c")
    review_for, offered = URI(BSBM_NS + "reviewFor"), URI(BSBM_NS + "offeredProduct")
    held_products = sorted(
        {t.object for batch in batches for t in batch if t.predicate in (review_for, offered)},
        key=str,
    )
    final_types = {}
    for t in base.type_triples:
        final_types.setdefault(t.subject, []).append(t.object)
    product_types = sorted(
        {cls for prod in held_products for cls in final_types.get(prod, [])
         if str(cls) != BSBM_NS + "Product"},
        key=str,
    )
    rng.shuffle(product_types)
    sat = []
    for cls in product_types:
        sat.append((_bgp([(r, review_for, p), (p, RDF_TYPE, cls)], (r,), ""), None, False))
        sat.append((_bgp([(o, offered, p), (p, RDF_TYPE, cls)], (o,), ""), None, False))
    limited = [
        _bgp([(o, URI(BSBM_NS + "vendor"), u), (o, offered, p)], (o, u), ""),
        _bgp([(r, URI(BSBM_NS + "reviewer"), u), (r, review_for, p)], (r, p), ""),
    ]
    saturated = []
    if schema_triple is not None:
        parent = schema_triple.object
        saturated = [
            _bgp([(o, offered, p), (p, RDF_TYPE, parent)], (o,), ""),
            _bgp([(r, review_for, p), (p, RDF_TYPE, parent)], (r,), ""),
        ]
    want = sizes["durable_sat"]
    chosen = [(q, LIMIT, False) for q in limited] + [(q, None, True) for q in saturated]
    chosen += sat[: max(0, want - len(chosen))]
    queries = []
    for query, limit, is_saturated in chosen[:want]:
        family = "sat_saturated" if is_saturated else ("sat_limited" if limit else "sat_join")
        queries.append(_record(query, family, True, limit, is_saturated))
        queries[-1]["id"] = f"d{len(queries) - 1}"

    def expect(suffix: str) -> None:
        saturated = saturate(graph)
        for record in queries:
            query = parse_query(record["sparql"])
            digests = expected_for(saturated if record["saturated"] else graph, query)
            if not digests:
                raise RuntimeError(f"durable query {record['sparql']} has no answer")
            expected[record["id"] + suffix] = digests

    expect("")
    for batch in batches:
        graph.add_all(batch)
    expect("@final")
    # empty on the final graph, hence on every graph of the stream
    index = GraphIndex(graph)
    unsat = _take(unsat_candidates(index, rng), {"chain": want // 2, "typed": want - want // 2}, rng)
    for family, (patterns, head) in unsat:
        queries.append(_record(_bgp(patterns, head, ""), "unsat_" + family, False, LIMIT))
        queries[-1]["id"] = f"d{len(queries) - 1}"
    sat_ids = [i for i, q in enumerate(queries) if q["satisfiable"]]
    unsat_ids = [i for i, q in enumerate(queries) if not q["satisfiable"]]
    ops: List[list] = []
    reads = 4
    for cycle in range(len(batches)):
        ops.append(["ingest", cycle])
        for k in range(reads):
            ops.append(["read", sat_ids[(cycle * reads + k) % len(sat_ids)]])
        for k in range(reads):
            ops.append(["read", unsat_ids[(cycle * reads + k) % len(unsat_ids)]])
    return {"queries": queries, "pass": ops}


def _name_and_expect(queries, prefix, graph, expected, cache) -> None:
    from repro.queries.parser import parse_query

    for position, record in enumerate(queries):
        record["id"] = f"{prefix}{position}"
        if record["satisfiable"]:
            digests = expected_for(graph, parse_query(record["sparql"]), cache)
            if not digests:
                raise RuntimeError(f"query {record['sparql']} has no answer")
            expected[record["id"]] = digests


# ----------------------------------------------------------------------
def durable_inputs(seed: int, scale: str, staging: str) -> dict:
    """The durable workload's files (run in a second process, beside the
    main graph's); returns its stream, expected answers and sizes."""
    common.require_program()
    from repro.datasets.bsbm import generate_bsbm
    from repro.io.ntriples import dump_ntriples

    sizes = SCALES[scale]
    rng = random.Random(f"perfbench-{seed}-durable")
    graph = generate_bsbm(scale=sizes["durable_products"], seed=seed + 1_000_003)
    batches, schema_triple = split_held_out(
        graph, sizes["durable_batches"], rng, sizes["durable_batches"] // 2
    )
    dump_ntriples(graph, os.path.join(staging, "durable_base.nt"))
    common.write_json(
        os.path.join(staging, "durable_batches.json"), [_ntriples(b) for b in batches]
    )
    triples = len(graph)
    expected: Dict[str, List[int]] = {}
    stream = durable_stream(graph, batches, schema_triple, sizes, rng, expected)
    return {
        "stream": stream,
        "expected": expected,
        "durable_triples": triples,
        "durable_held_out": sum(len(b) for b in batches),
    }


def generate(seed: int, scale: str = "full") -> str:
    """Write the inputs of *seed* (idempotent); returns their directory."""
    target = work_dir(seed, scale)
    if os.path.isfile(os.path.join(target, "meta.json")):
        return target
    common.require_program()
    from repro.datasets.bsbm import generate_bsbm
    from repro.io.ntriples import dump_ntriples

    sizes = SCALES[scale]
    started = time.perf_counter()
    staging = f"{target}.tmp{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(staging)
    rng = random.Random(f"perfbench-{seed}")
    expected: Dict[str, List[int]] = {}
    # the two graphs are independent: the durable one is made in a second
    # process meanwhile (the host has two cores and nothing else is running)
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        durable = pool.apply_async(durable_inputs, (seed, scale, staging))
        streams, main_triples = _main_inputs(sizes, seed, rng, staging, expected)
        durable_part = durable.get(timeout=600)
    streams["durable-rw-http"] = durable_part["stream"]
    expected.update(durable_part["expected"])
    common.write_json(os.path.join(staging, "streams.json"), streams)
    common.write_json(os.path.join(staging, "expected.json"), expected)
    common.write_json(
        os.path.join(staging, "meta.json"),
        {
            "seed": seed,
            "scale": scale,
            "format": FORMAT,
            "main_triples": main_triples,
            "durable_triples": durable_part["durable_triples"],
            "durable_held_out": durable_part["durable_held_out"],
            "generation_seconds": time.perf_counter() - started,
        },
    )
    os.makedirs(os.path.dirname(target), exist_ok=True)
    try:
        os.rename(staging, target)
    except OSError:
        # another process finished the same seed first: keep its copy
        shutil.rmtree(staging, ignore_errors=True)
    return target


def _main_inputs(sizes, seed, rng, staging, expected):
    """The main graph's files and the streams of the two workloads on it."""
    from repro.datasets.bsbm import generate_bsbm
    from repro.io.ntriples import dump_ntriples

    main_base = generate_bsbm(scale=sizes["main_products"], seed=seed)
    dump_ntriples(main_base, os.path.join(staging, "main_base.nt"))
    main_index = GraphIndex(main_base)
    cache: Dict[str, List[int]] = {}
    unsat = unsat_candidates(main_index, rng)
    pools = sat_candidates(main_index, 1, sizes["heavy_embeddings"])
    streams = {
        "guarded-read": guarded_stream(
            main_base, main_index, sizes, rng, expected, cache, unsat, pools
        ),
    }
    streams["cluster-scatter"] = cluster_stream(
        main_base, main_index, sizes, rng, expected, cache, unsat, streams["guarded-read"]
    )
    return streams, len(main_base)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    args = parser.parse_args(argv)
    try:
        target = generate(args.seed, args.scale)
    except common.SetupError as error:
        print(f"inputs: {error}", file=sys.stderr)
        return 2
    finally:
        # the spawn pool started one; it must not outlive this process
        common.stop_resource_tracker()
    meta = common.read_json(os.path.join(target, "meta.json"))
    print(target)
    print(meta)
    return 0


if __name__ == "__main__":
    sys.exit(main())
