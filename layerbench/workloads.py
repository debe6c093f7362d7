"""The four seeded workloads: their data, operation streams and oracles.

A workload gives the harness four things:

* ``instance(version)`` — the data at a given version (0 is the initial
  data; later versions are the fresh data an update installs);
* ``warmup()`` — the untimed warm-up reads of set-up;
* ``ops()`` — the operation stream of the closed loop, an iterator of
  :class:`Read` and :class:`Update`, fully determined by the seed;
* ``probe()`` — update/read pairs that measure the first read after a
  data update (only for workloads whose stream has no updates).

Every read carries its expected outcome, computed without the code
under test: the reference calculus evaluator, hand-derived answers, the
stored digests of the reference algebra evaluator, or the safety label
a query has by construction.  The program only ever sees the requests.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.core.parser import parse_query
from repro.core.printer import to_text
from repro.core.schema import DatabaseSchema
from repro.data.generators import random_instance, standard_functions
from repro.data.instance import Instance
from repro.data.relation import Relation
from repro.semantics.eval_calculus import evaluate_query
from repro.service.service import ServiceRequest
from repro.workloads.families import join_chain_query
from repro.workloads.gallery import GALLERY, gallery_instance, standard_gallery_interp
from repro.workloads.random_queries import random_em_allowed_query

HERE = Path(__file__).resolve().parent

# Expected-outcome kinds.
ROWS = "rows"          # exact answer rows (a frozenset)
DIGEST = "digest"      # (row count, sha256) of the reference answer
REFUSED = "refused"    # unsafe by construction: must be refused
REFERENCE = "reference"  # safe; answer checked later by the calculus evaluator


@dataclass(frozen=True)
class Read:
    request: ServiceRequest
    expect: str
    answer: object = None
    #: Data version the read runs against (for deferred checks).
    version: int = 0


@dataclass(frozen=True)
class Update:
    version: int
    #: Relation name -> (arity, rows): the rows are generated before
    #: the timed section, which builds the Instance and installs it.
    relations: dict

    def build(self) -> Instance:
        return Instance({name: Relation(arity, rows)
                         for name, (arity, rows) in self.relations.items()})


def answer_digest(rows) -> tuple[int, str]:
    """Order-independent digest of an answer: row count and the sha256
    of the sorted row reprs."""
    text = "\n".join(sorted(map(repr, rows)))
    return len(rows), hashlib.sha256(text.encode()).hexdigest()


def _relations_of(instance: Instance) -> dict:
    return {name: (instance.relation(name).arity,
                   sorted(instance.relation(name).rows))
            for name in instance.names}


def _sub_rng(seed: int, *labels) -> random.Random:
    return random.Random("/".join(map(str, (seed, *labels))))


def _shuffled_cycle(rng: random.Random, items) -> Iterator:
    """Every item once per block, each block in a seeded order: the mix
    is exact, so the seed changes the order but not the work."""
    block = list(items)
    while True:
        rng.shuffle(block)
        yield from block


def describe_op(op) -> dict:
    """A JSON-ready description of one operation (the stream's bytes)."""
    if isinstance(op, Update):
        return {"update": op.version,
                "relations": {n: [a, [list(r) for r in rows]]
                              for n, (a, rows) in sorted(op.relations.items())}}
    out = {"read": op.request.describe(), "expect": op.expect,
           "version": op.version}
    if op.request.rows:
        out["params"] = [list(r) for r in op.request.rows]
    if op.expect == ROWS:
        out["answer"] = sorted(map(list, op.answer))
    elif op.expect == DIGEST:
        out["answer"] = list(op.answer)
    return out


def stream_bytes(ops, count: int) -> bytes:
    """The first ``count`` operations, serialized canonically."""
    lines = []
    for op, _ in zip(ops, range(count)):
        lines.append(json.dumps(describe_op(op), sort_keys=True))
    return "\n".join(lines).encode()


class Workload:
    """Base class; see the module docstring for the contract."""

    name = ""
    #: Update/read pairs that :meth:`probe` yields.
    probe_pairs = 0

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.seconds = seconds

    def interpretation(self):
        raise NotImplementedError

    def instance(self, version: int) -> Instance:
        raise NotImplementedError

    def warmup(self) -> list[Read]:
        raise NotImplementedError

    def ops(self) -> Iterator:
        raise NotImplementedError

    def probe(self) -> Iterator[tuple[Update, Read]]:
        return iter(())

    def reference(self, read: Read) -> frozenset:
        """Deferred oracle answer for a REFERENCE read."""
        raise NotImplementedError


# -- gallery-warm -------------------------------------------------------------

GALLERY_KEYS = tuple(k for k, e in GALLERY.items() if e.translatable)
EMP_ROWS = 200
EMP_ID_RANGE = 250
EMP_BODY = "EMP(p, s)"
#: Distinct gallery-relation variants the updates rotate through.
GALLERY_VARIANTS = 8
UPDATE_RATE = 0.02


class GalleryWarm(Workload):
    name = "gallery-warm"

    def __init__(self, seed: int, seconds: float):
        super().__init__(seed, seconds)
        self._interp = standard_gallery_interp()
        self._variants = [self._variant(k) for k in range(GALLERY_VARIANTS)]
        # Reference answers per variant, from the calculus evaluator on
        # the gallery relations alone (EMP is not mentioned by any
        # gallery query, and em-allowed queries are domain independent).
        self._oracle = []
        for variant in self._variants:
            inst = Instance({n: Relation(a, rows)
                             for n, (a, rows) in variant.items()})
            self._oracle.append({
                key: frozenset(evaluate_query(
                    parse_query(GALLERY[key].text), inst, self._interp).rows)
                for key in GALLERY_KEYS})

    def _variant(self, k: int) -> dict:
        base = _relations_of(gallery_instance())
        if k == 0:
            return base
        # Not seeded: the variants' answers and costs stay the same
        # across seeds, so seeds differ only in the operation order.
        rng = _sub_rng("fixed", "gallery-variant", k)
        out = {}
        for name, (arity, rows) in sorted(base.items()):
            extra = tuple(rng.randrange(20) for _ in range(arity))
            out[name] = (arity, sorted(set(rows) | {extra}))
        return out

    def _emp_rows(self, version: int) -> dict:
        """EMP as {id: salary}.  Salaries of version v lie in
        [1000 v, 1000 v + 999], so no row of one version is in another."""
        rng = _sub_rng(self.seed, "emp", version)
        return {i: version * 1000 + rng.randrange(1000) for i in range(EMP_ROWS)}

    def _relations(self, version: int, emp: dict) -> dict:
        rels = dict(self._variants[version % GALLERY_VARIANTS])
        rels["EMP"] = (2, sorted(emp.items()))
        return rels

    def interpretation(self):
        return self._interp

    def instance(self, version: int) -> Instance:
        return Update(version, self._relations(version,
                                               self._emp_rows(version))).build()

    def _gallery_read(self, key: str, version: int) -> Read:
        answer = self._oracle[version % GALLERY_VARIANTS][key]
        return Read(ServiceRequest(query=GALLERY[key].text), ROWS, answer,
                    version)

    def _lookup(self, ids: tuple[int, ...], emp: dict, version: int) -> Read:
        answer = frozenset((p, emp[p]) for p in ids if p in emp)
        request = ServiceRequest(params=("p",), head=("s",), body=EMP_BODY,
                                 rows=tuple((p,) for p in ids))
        return Read(request, ROWS, answer, version)

    def warmup(self) -> list[Read]:
        return ([self._gallery_read(k, 0) for k in GALLERY_KEYS]
                + [self._lookup((0, 1), self._emp_rows(0), 0)])

    def ops(self) -> Iterator:
        rng = _sub_rng(self.seed, "ops")
        version = 0
        emp = self._emp_rows(version)
        while True:
            roll = rng.random()
            if roll < UPDATE_RATE:
                version += 1
                emp = self._emp_rows(version)
                yield Update(version, self._relations(version, emp))
            elif roll < 0.5 + UPDATE_RATE / 2:
                yield self._gallery_read(rng.choice(GALLERY_KEYS), version)
            else:
                ids = tuple(rng.randrange(EMP_ID_RANGE)
                            for _ in range(rng.randint(1, 16)))
                yield self._lookup(ids, emp, version)


# -- gallery-3000 -------------------------------------------------------------

SCALE = 3000
UNIVERSE = 4096
#: The E16 scan/join/map subset, verbatim.
E16_QUERIES = {
    "scan-filter": "{ x, y | R2(x, y) & x < 2000 & y > 100 }",
    "scan-filter-neg": "{ x, y | P(x, y) & x < 3000 & ~(y = 7) & x > 10 }",
    "join": "{ x, y, z | R2(x, y) & P(x, z) }",
    "join-filter": "{ x, y, z | R2(x, y) & S2(y, z) & x < 3500 }",
    "tri-join": "{ x, y | R2(x, y) & S(x) & T(y) }",
    "map-reorder": "{ y, x | R2(x, y) & x < 3000 }",
}
#: ex74 returns 2.4M rows at this scale (about 17 s per request).
SCALED_QUERIES = {**{k: GALLERY[k].text for k in GALLERY_KEYS if k != "ex74"},
                  **E16_QUERIES}
#: One block of the stream: every query once and the two-way join
#: twice.  With 15 entries, not 14, the median falls inside one query's
#: latencies instead of on the boundary between two.
SCALED_BLOCK = (*SCALED_QUERIES, "join")
REFERENCE_FILE = HERE / "reference" / "gallery3000.json"


def scaled_relations(n: int = SCALE, universe: int = UNIVERSE,
                     offset: int = 0) -> dict:
    """The gallery relations scaled to ``n`` rows each by deterministic
    affine fills; ``offset`` 0 is the E12/E16 scaled instance, other
    offsets shift every value (the data of a later version)."""
    def fill(*coeffs):
        return sorted({tuple((i * s + o + offset) % universe for s, o in coeffs)
                       for i in range(n)})

    return {
        "R": (1, fill((3, 1))),
        "S": (1, fill((5, 2))),
        "T": (1, fill((7, 3))),
        "R2": (2, fill((3, 0), (11, 8))),
        "S2": (2, fill((3, 0), (11, 8))),
        "P": (2, fill((7, 2), (17, 5))),
        "R3": (3, fill((3, 0), (5, 1), (7, 2))),
        "W": (3, fill((11, 0), (5, 1), (13, 2))),
    }


#: The read timed after each probe update: a pure scan, so its answer
#: can be derived from the rows (:func:`_scan_filter_answer`).
PROBE_KEY = "scan-filter"


def _scan_filter_answer(rels: dict) -> frozenset:
    return frozenset((x, y) for x, y in rels["R2"][1] if x < 2000 and y > 100)


class Gallery3000(Workload):
    name = "gallery-3000"
    probe_pairs = 15

    def __init__(self, seed: int, seconds: float):
        super().__init__(seed, seconds)
        with open(REFERENCE_FILE) as handle:
            stored = json.load(handle)
        if (stored["scale"], stored["universe"]) != (SCALE, UNIVERSE):
            raise ValueError(f"{REFERENCE_FILE} was made for another instance")
        self._digests = {k: tuple(v) for k, v in stored["answers"].items()}
        missing = set(SCALED_QUERIES) - set(self._digests)
        if missing:
            raise ValueError(f"{REFERENCE_FILE} lacks answers for {sorted(missing)}")
        self._interp = standard_gallery_interp()

    def interpretation(self):
        return self._interp

    def _relations(self, version: int) -> dict:
        if version == 0:
            return scaled_relations()
        offset = _sub_rng("fixed", "offset", version).randrange(1, UNIVERSE)
        return scaled_relations(offset=offset)

    def instance(self, version: int) -> Instance:
        return Update(version, self._relations(version)).build()

    def _read(self, key: str) -> Read:
        return Read(ServiceRequest(query=SCALED_QUERIES[key]), DIGEST,
                    self._digests[key])

    def warmup(self) -> list[Read]:
        return [self._read(k) for k in SCALED_QUERIES]

    def ops(self) -> Iterator:
        for key in _shuffled_cycle(_sub_rng(self.seed, "ops"), SCALED_BLOCK):
            yield self._read(key)

    def probe(self):
        for version in range(1, self.probe_pairs + 1):
            rels = self._relations(version)
            yield (Update(version, rels),
                   Read(ServiceRequest(query=E16_QUERIES[PROBE_KEY]), ROWS,
                        _scan_filter_answer(rels), version))


# -- cold-corpus --------------------------------------------------------------

CORPUS_RELATIONS = {"R0": 1, "R1": 2, "R2": 2, "R3": 3, "S0": 1, "S1": 2}
CORPUS_SCHEMA = DatabaseSchema.of(CORPUS_RELATIONS, {"f": 1, "g": 1, "h": 1})
CORPUS_ROWS = 4
CORPUS_UNIVERSE = tuple(range(8))
CORPUS_MODULUS = 11
UNSAFE_RATE = 0.1
#: Distinct queries generated up front per second of the loop (about
#: 1.4 times today's request rate, at least the 1011 reads the p99 tail
#: needs); the closed loop ends early if it uses them all up.
POOL_PER_SECOND = 600
POOL_MIN = 1200
WARMUP_QUERIES = 40
#: The warm-plan read timed after each probe update.
PROBE_QUERY = "{ x, y | (R1(x, y) | S1(x, y)) & ~R0(x) }"

#: Queries that are not em-allowed by construction; ``{n}`` is a fresh
#: suffix, so every text and every name in it is new.
UNSAFE_SHAPES = (
    # q7's fixpoint shape: x is bounded by nothing.
    "{{ x{n} | f{n}(x{n}) = x{n} }}",
    # the second disjunct misses head variable y.
    "{{ x{n}, y{n} | A{n}(x{n}, y{n}) | B{n}(x{n}) }}",
    # a head variable under negation only.
    "{{ x{n} | ~A{n}(x{n}) }}",
)


class ColdCorpus(Workload):
    name = "cold-corpus"
    probe_pairs = 15

    def __init__(self, seed: int, seconds: float):
        super().__init__(seed, seconds)
        self._interp = standard_functions(CORPUS_SCHEMA, modulus=CORPUS_MODULUS)
        self._pool: list[Read] | None = None

    def interpretation(self):
        return self._interp

    def instance(self, version: int) -> Instance:
        # Not seeded by the workload seed: seeds differ only in the
        # query stream, not in the data it runs on.
        return random_instance(CORPUS_SCHEMA, CORPUS_ROWS, CORPUS_UNIVERSE,
                               seed=version)

    def pool(self) -> list[Read]:
        """Warm-up and loop queries: all distinct texts.  The warm-up
        queries are the same for every seed, so set-up does the same
        work whatever the seed; the seed picks the loop's queries."""
        if self._pool is None:
            seen: set[str] = set()
            pool: list[Read] = []
            total = WARMUP_QUERIES + max(
                POOL_MIN, math.ceil(POOL_PER_SECOND * self.seconds))
            warmup_rng = _sub_rng("fixed", "corpus-warmup")
            loop_rng = _sub_rng(self.seed, "corpus")
            while len(pool) < total:
                rng = warmup_rng if len(pool) < WARMUP_QUERIES else loop_rng
                if rng.random() < UNSAFE_RATE:
                    shape = rng.choice(UNSAFE_SHAPES)
                    text = shape.format(n=len(pool))
                    expect = REFUSED
                else:
                    text = to_text(random_em_allowed_query(rng.randrange(2**31)))
                    expect = REFERENCE
                if text in seen:
                    continue
                seen.add(text)
                pool.append(Read(ServiceRequest(query=text), expect))
            self._pool = pool
        return self._pool

    def _probe_read(self, version: int) -> Read:
        read = Read(ServiceRequest(query=PROBE_QUERY), REFERENCE, None, version)
        return Read(read.request, ROWS, self.reference(read), version)

    def warmup(self) -> list[Read]:
        return [self._probe_read(0)] + self.pool()[:WARMUP_QUERIES]

    def ops(self) -> Iterator:
        return iter(self.pool()[WARMUP_QUERIES:])

    def probe(self):
        for version in range(1, self.probe_pairs + 1):
            update = Update(version, _relations_of(self.instance(version)))
            yield update, self._probe_read(version)

    def reference(self, read: Read) -> frozenset:
        query = parse_query(read.request.query)
        return frozenset(evaluate_query(query, self.instance(read.version),
                                        self._interp).rows)


# -- wide-joins ---------------------------------------------------------------

CHAIN_WIDTHS = (8, 12, 16, 20, 24)
#: The chain read timed after each probe update.
PROBE_WIDTH = 16


class WideJoins(Workload):
    name = "wide-joins"
    probe_pairs = 15

    def __init__(self, seed: int, seconds: float):
        super().__init__(seed, seconds)
        self._texts = {n: to_text(join_chain_query(n)) for n in CHAIN_WIDTHS}
        self._answer = self._data(0)[1]

    def interpretation(self):
        return None

    def _data(self, version: int) -> tuple[dict, frozenset]:
        """3-row identity relations over a fresh domain per version, a
        blocking relation B, and the chain's answer: the diagonal pairs
        that B does not block."""
        rng = _sub_rng("fixed", "chain", version)
        domain = [3 * version + i for i in range(3)]
        identity = sorted((d, d) for d in domain)
        blocked = {(rng.choice(domain),) * 2, (domain[0], domain[1])}
        rels = {f"E{i}": (2, identity) for i in range(max(CHAIN_WIDTHS))}
        rels["B"] = (2, sorted(blocked))
        answer = frozenset(row for row in identity if row not in blocked)
        return rels, answer

    def instance(self, version: int) -> Instance:
        return Update(version, self._data(version)[0]).build()

    def _read(self, n: int, answer: frozenset, version: int = 0) -> Read:
        return Read(ServiceRequest(query=self._texts[n]), ROWS, answer, version)

    def warmup(self) -> list[Read]:
        return [self._read(n, self._answer) for n in CHAIN_WIDTHS]

    def ops(self) -> Iterator:
        for n in _shuffled_cycle(_sub_rng(self.seed, "ops"), CHAIN_WIDTHS):
            yield self._read(n, self._answer)

    def probe(self):
        for version in range(1, self.probe_pairs + 1):
            rels, answer = self._data(version)
            yield Update(version, rels), self._read(PROBE_WIDTH, answer, version)


WORKLOADS = {cls.name: cls for cls in (GalleryWarm, Gallery3000,
                                       ColdCorpus, WideJoins)}
