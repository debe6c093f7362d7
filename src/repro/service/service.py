"""The query service: one long-lived object serving many requests.

:class:`QueryService` is the serving layer the ROADMAP's
"same query, millions of requests" workloads run through.  It owns

* the **data** — an instance, an interpretation (defaulting to the
  deterministic :func:`~repro.data.generators.standard_functions`), an
  optional schema and annotation registry;
* a **plan cache** — an LRU of translation outcomes keyed by the
  normalized query (:mod:`repro.service.normalize`), so the safety
  check and the four-step translation run once per distinct query; a
  warm request pays parse + execute only, and an unsafe query's refusal
  is negatively cached the same way;
* **observability** — a metrics registry (request counters, per-phase
  latency histograms, cache hit/miss/eviction counts) and an optional
  span tracer (each request contributes one ``service.request`` span
  tree; warm requests provably contain no ``translate`` span);
* an **executor pool** — :meth:`submit` / :meth:`run_many` fan requests
  over a thread pool with per-request timeouts.

Parameterized requests (``params``/``head``/``body`` instead of
``query``) compile once against a ``Params`` relation and bind the
request's parameter ``rows`` in batch: one plan evaluation answers the
whole batch, each answer row prefixed with its parameter values.

Mutating the service's compilation environment (:meth:`set_schema`,
:meth:`set_annotations`) clears the plan cache *and* the safety-layer
memo tables (:func:`repro.safety.clear_caches`), so a swap can never
serve a stale plan or safety verdict.  :meth:`set_instance` keeps the
cache — plans are data-independent by construction.

Concurrency notes: results are deterministic (set semantics), the
cache's hit/miss counters sum to the number of lookups, and per-request
spans are merged into the service tracer under a lock.  Function-call
counts in reports may interleave across concurrent requests — they
share the interpretation's counters.
"""

from __future__ import annotations

import json
import threading
import time
import traceback
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.algebra.ast import AlgebraExpr
from repro.algebra.printer import to_algebra_text
from repro.core.parser import parse_query
from repro.core.queries import CalculusQuery
from repro.core.schema import DatabaseSchema
from repro.data.generators import standard_functions
from repro.data.instance import Instance
from repro.data.interpretation import Interpretation
from repro.data.relation import Relation
from repro.engine.caches import clear_engine_caches, stats_for
from repro.engine.executor import execute
from repro.engine.stats import InstanceStats
from repro.errors import NotEmAllowedError, ReproError
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NULL_TRACER, SpanTracer
from repro.safety import clear_caches as clear_safety_caches
from repro.service.cache import CachedRefusal, PlanCache
from repro.service.normalize import plan_cache_key
from repro.translate.parameterized import (
    bind_parameters,
    parameterized_query,
    translate_parameterized,
)
from repro.translate.pipeline import TranslationResult, translate_query

__all__ = ["ServiceRequest", "ServiceReport", "QueryService", "load_requests"]


@dataclass(frozen=True, slots=True)
class ServiceRequest:
    """One unit of work for the service.

    Plain form: ``query`` holds the full query text.  Parameterized
    form: ``params`` (parameter names), ``head`` (output variables) and
    ``body`` (formula text) describe an em-allowed-for-params query, and
    ``rows`` are the parameter tuples to bind — the whole batch is
    answered by one plan evaluation.
    """

    query: str | None = None
    params: tuple[str, ...] = ()
    head: tuple[str, ...] = ()
    body: str | None = None
    rows: tuple[tuple, ...] = ()
    timeout_s: float | None = None

    def __post_init__(self) -> None:
        if (self.query is None) == (self.body is None):
            raise ReproError(
                "a request needs exactly one of 'query' (plain) or "
                "'body' with 'params'/'head' (parameterized)")
        if self.body is not None and not self.params:
            raise ReproError("a parameterized request needs parameter names")
        if self.query is not None and (self.params or self.rows):
            raise ReproError(
                "'params'/'rows' only apply to parameterized requests "
                "(give 'body' and 'head' instead of 'query')")
        if not isinstance(self.params, tuple):
            object.__setattr__(self, "params", tuple(self.params))
        if not isinstance(self.head, tuple):
            object.__setattr__(self, "head", tuple(self.head))
        object.__setattr__(self, "rows",
                           tuple(tuple(r) for r in self.rows))

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ServiceRequest":
        """Build a request from a JSON object (the ``repro serve`` wire
        format)."""
        known = {"query", "params", "head", "body", "rows", "timeout_s"}
        unknown = set(payload) - known
        if unknown:
            raise ReproError(
                f"unknown request fields {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}")
        return cls(
            query=payload.get("query"),
            params=tuple(payload.get("params", ())),
            head=tuple(payload.get("head", ())),
            body=payload.get("body"),
            rows=tuple(tuple(r) for r in payload.get("rows", ())),
            timeout_s=payload.get("timeout_s"),
        )

    def describe(self) -> str:
        if self.query is not None:
            return self.query
        head = ", ".join(self.head)
        return (f"{{ {head} | {self.body} }} "
                f"[params: {', '.join(self.params)}; {len(self.rows)} rows]")


@dataclass(slots=True)
class ServiceReport:
    """Everything one request produced.

    ``status`` is ``"ok"``, ``"refused"`` (safety check), ``"error"``
    (parse/evaluation failure, or any other exception raised while
    serving — then ``error`` starts with the exception's type name), or
    ``"timeout"`` (pooled paths only).
    ``cache`` is ``"hit"`` or ``"miss"`` once the plan cache was
    consulted, ``None`` when the request failed before reaching it.
    ``timings`` carries per-phase seconds: ``total_s``, ``parse_s``,
    ``execute_s`` (physical planning and the operator pipeline), and —
    once the executor returned — ``optimize_s`` (the cost-based rewrite
    pass, 0.0 when it is off; not part of ``execute_s``), and — only
    when a translation actually ran — ``translate_s``; a warm request
    has no translation time because no translation happened.
    ``plan_text`` renders ``plan``, the translated plan, in the paper's
    notation when read.
    """

    query: str
    status: str
    cache: str | None = None
    result: Relation | None = None
    error: str | None = None
    plan: AlgebraExpr | None = field(default=None, repr=False)
    timings: dict[str, float] = field(default_factory=dict)
    function_calls: int = 0
    #: Which engine produced the result ("native" or "sqlite").
    backend: str = "native"
    #: Why a requested non-native backend fell back ("" = it did not).
    backend_error: str = ""
    #: The batch representation the native engine ran with.
    batch_repr: str = "tuple"
    #: Why a requested column representation fell back ("" = it did not).
    batch_repr_error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def plan_text(self) -> str | None:
        """The translated plan in the paper's algebra notation (``None``
        when the request produced no plan)."""
        if self.plan is None:
            return None
        return to_algebra_text(self.plan)

    def rows(self) -> list[tuple]:
        """Answer rows in a stable order (empty for failed requests)."""
        if self.result is None:
            return []
        return sorted(self.result.rows, key=repr)

    def to_dict(self) -> dict:
        out: dict = {
            "query": self.query,
            "status": self.status,
            "cache": self.cache,
            "timings": {k: round(v, 6) for k, v in self.timings.items()},
        }
        if self.result is not None:
            out["rows"] = [list(r) for r in self.rows()]
        if self.error is not None:
            out["error"] = self.error
        if self.plan is not None:
            out["plan"] = self.plan_text
        if self.backend != "native":
            out["backend"] = self.backend
        if self.backend_error:
            out["backend_error"] = self.backend_error
        if self.batch_repr != "tuple":
            out["batch_repr"] = self.batch_repr
        if self.batch_repr_error:
            out["batch_repr_error"] = self.batch_repr_error
        return out

    def summary(self) -> str:
        total_ms = self.timings.get("total_s", 0.0) * 1e3
        if self.status == "ok":
            body = f"{len(self.result)} rows"
        else:
            body = self.error or self.status
        cache = f" [{self.cache}]" if self.cache else ""
        return f"{self.status}{cache} {total_ms:.2f} ms: {body}"


class QueryService:
    """A long-lived query server with plan caching and batching."""

    def __init__(self, instance: Instance,
                 interpretation: Interpretation | None = None,
                 schema: DatabaseSchema | None = None,
                 annotations=None,
                 cache_size: int = 256,
                 max_workers: int = 4,
                 default_timeout_s: float | None = None,
                 metrics: MetricsRegistry | None = None,
                 tracer: SpanTracer | None = None,
                 batch_size: int | None = None,
                 optimize: bool | None = None,
                 backend: str | None = None,
                 batch_repr: str | None = None):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.cache = PlanCache(cache_size, metrics=self.metrics)
        self.max_workers = max_workers
        self.default_timeout_s = default_timeout_s
        # Engine rows-per-batch for every execution this service runs;
        # None defers to REPRO_BATCH_SIZE / the engine default.  A bound
        # parameter batch is never re-chunked regardless: it enters the
        # plan as a literal, which the engine emits as one batch.
        self.batch_size = batch_size
        # Cost-based rewrite pass for every execution this service runs;
        # None defers to REPRO_OPTIMIZE / the engine default (on).
        self.optimize = optimize
        # Execution backend for every request; None defers to
        # REPRO_BACKEND / the native engine.  Resolved eagerly so an
        # unknown name fails at construction, not on the first request.
        from repro.backends import resolve_backend
        self.backend = resolve_backend(backend)
        # Batch representation for every execution this service runs;
        # None defers to REPRO_BATCH_REPR / tuple.  Validated eagerly so
        # an unknown name fails at construction; the columnar-
        # availability fallback stays per-run (the executor reports it
        # on each request, CI may toggle REPRO_NO_NUMPY between them).
        from repro.engine.batches import resolve_batch_repr
        if batch_repr is not None:
            resolve_batch_repr(batch_repr)
        self.batch_repr = batch_repr
        self._instance = instance
        # Statistics memo: collected once per instance swap, not per
        # request (backed by the content-addressed engine cache, so
        # swapping back to previously seen data is also free).
        self._instance_stats: InstanceStats | None = None
        self._interpretation = interpretation
        self._schema = schema
        self._annotations = annotations
        self._lock = threading.RLock()
        self._pool: ThreadPoolExecutor | None = None
        # Statement memo: raw request text -> plan-cache key, so a warm
        # request with byte-identical text skips parse + normalization
        # (alpha-variant spellings still normalize onto the same plan).
        # Invalidated with the plan cache — parsing depends on the schema.
        self._text_memo: OrderedDict = OrderedDict()
        self._text_memo_cap = max(1024, 4 * cache_size)
        # Instruments are created once, up front, so concurrent requests
        # only ever mutate existing entries of the registry's dicts.
        for name in ("service.requests", "service.refusals", "service.errors",
                     "service.timeouts", "service.batch_rows",
                     "plan_cache.hits", "plan_cache.misses",
                     "plan_cache.evictions"):
            self.metrics.counter(name)
        for name in ("service.parse", "service.translate", "service.optimize",
                     "service.execute", "service.request"):
            self.metrics.timer(name)

    # -- configuration ------------------------------------------------------

    @property
    def instance(self) -> Instance:
        return self._instance

    @property
    def schema(self) -> DatabaseSchema | None:
        return self._schema

    def set_instance(self, instance: Instance) -> None:
        """Swap the data.  Cached plans survive: a plan mentions relation
        *names* only, so it stays valid across data updates.  The
        statistics memo does not — new data, new statistics."""
        with self._lock:
            self._instance = instance
            self._instance_stats = None

    def instance_stats(self) -> InstanceStats:
        """Statistics of the current instance, collected at most once
        per :meth:`set_instance` (and shared with the engine's
        content-addressed cache)."""
        with self._lock:
            if self._instance_stats is None:
                self._instance_stats = stats_for(self._instance)
            return self._instance_stats

    def set_schema(self, schema: DatabaseSchema | None) -> None:
        """Swap the schema, invalidating every cached plan and verdict.

        The plan cache is cleared *and* keys are fingerprinted with the
        schema, so even a racing request that compiled under the old
        schema cannot be served to a request parsing under the new one.
        The safety layer's own memo tables are cleared too
        (:func:`repro.safety.clear_caches`).
        """
        with self._lock:
            self._schema = schema
            self._text_memo.clear()
            self.cache.clear()
            clear_safety_caches()
            # Term closures depend on the schema's function signatures.
            clear_engine_caches()
            self._instance_stats = None

    def set_annotations(self, annotations) -> None:
        """Swap the annotation registry; same invalidation as
        :meth:`set_schema` (annotations change safety verdicts)."""
        with self._lock:
            self._annotations = annotations
            self._text_memo.clear()
            self.cache.clear()
            clear_safety_caches()
            clear_engine_caches()

    def _current_interp(self, result_schema: DatabaseSchema) -> Interpretation:
        with self._lock:
            if self._interpretation is not None:
                return self._interpretation
        return standard_functions(result_schema)

    # -- the request path ---------------------------------------------------

    def run(self, request: ServiceRequest | str | Mapping,
            rows: Iterable[tuple] | None = None) -> ServiceReport:
        """Serve one request synchronously.

        ``request`` may be a :class:`ServiceRequest`, a plain query
        string, or a JSON-style dict.  ``rows`` is a convenience for
        string requests of parameterized form — not needed when the
        request object already carries them.
        """
        request = self._coerce(request, rows)
        return self._run_inner(request)

    def run_many(self, requests: Iterable[ServiceRequest | str | Mapping],
                 timeout_s: float | None = None) -> list[ServiceReport]:
        """Serve a batch over the thread pool, preserving order.

        Each request gets its own deadline (its ``timeout_s``, else
        ``timeout_s``, else the service default) measured from
        submission; an expired request yields a ``"timeout"`` report
        (the worker keeps running to completion in the background — the
        plan it compiles still lands in the cache).
        """
        coerced = [self._coerce(r) for r in requests]
        pool = self._ensure_pool()
        submitted = time.monotonic()
        futures = [pool.submit(self._run_inner, req) for req in coerced]
        reports: list[ServiceReport] = []
        for req, fut in zip(coerced, futures):
            budget = req.timeout_s
            if budget is None:
                budget = timeout_s if timeout_s is not None else self.default_timeout_s
            wait: float | None = None
            if budget is not None:
                wait = max(0.0, budget - (time.monotonic() - submitted))
            try:
                reports.append(fut.result(wait))
            except _FutureTimeout:
                self._count("service.timeouts")
                reports.append(ServiceReport(
                    query=req.describe(), status="timeout",
                    error=f"request exceeded {budget}s"))
        return reports

    def submit(self, request: ServiceRequest | str | Mapping) -> Future:
        """Enqueue one request on the pool; the future resolves to its
        :class:`ServiceReport`."""
        return self._ensure_pool().submit(self._run_inner, self._coerce(request))

    def close(self) -> None:
        """Shut the executor pool down (idempotent)."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # -- internals ----------------------------------------------------------

    def _coerce(self, request, rows=None) -> ServiceRequest:
        if isinstance(request, ServiceRequest):
            return request
        if isinstance(request, str):
            if rows is not None:
                raise ReproError(
                    "parameter rows need a parameterized ServiceRequest "
                    "(params/head/body), not a plain query string")
            return ServiceRequest(query=request)
        if isinstance(request, Mapping):
            return ServiceRequest.from_dict(request)
        raise ReproError(f"cannot interpret request {request!r}")

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="repro-service")
            return self._pool

    def _count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.metrics.counter(name).inc(n)

    def _observe(self, name: str, seconds: float) -> None:
        with self._lock:
            self.metrics.timer(name).observe(seconds)

    def _parse(self, request: ServiceRequest, schema):
        """Parse a request under ``schema`` into ``(query, None)`` for the
        plain form or ``(None, parameterized_query)`` otherwise."""
        if request.query is not None:
            return parse_query(request.query, schema), None
        return None, parameterized_query(request.params, request.head,
                                         request.body, schema)

    def _run_inner(self, request: ServiceRequest) -> ServiceReport:
        self._count("service.requests")
        tracer = SpanTracer() if self.tracer.enabled else NULL_TRACER
        start = time.perf_counter()
        report = ServiceReport(query=request.describe(), status="ok")
        try:
            with tracer.span("service.request") as span:
                try:
                    self._serve(request, tracer, report)
                except Exception as err:
                    # Anything the layers below did not turn into a
                    # ReproError (a raising scalar function, an engine
                    # bug) fails this request only, never the caller
                    # or the rest of a run_many batch.
                    report.status = "error"
                    report.error = f"{type(err).__name__}: {err}"
                    report.result = None
                    if tracer.enabled:
                        span.attrs["traceback"] = traceback.format_exc()
                if tracer.enabled:
                    span.attrs["status"] = report.status
                    if report.cache:
                        span.attrs["cache"] = report.cache
        finally:
            if tracer.enabled:
                with self._lock:
                    self.tracer.roots.extend(tracer.roots)
        report.timings["total_s"] = time.perf_counter() - start
        self._observe("service.request", report.timings["total_s"])
        if report.status == "refused":
            self._count("service.refusals")
        elif report.status == "error":
            self._count("service.errors")
        return report

    def _serve(self, request: ServiceRequest, tracer: SpanTracer,
               report: ServiceReport) -> None:
        """Fill ``report`` for ``request``."""
        with self._lock:
            schema = self._schema
            annotations = self._annotations
            instance = self._instance

        # Resolve the plan-cache key: the statement memo short-circuits
        # parse + normalization for byte-identical request text.
        parameterized = request.query is None
        if parameterized:
            memo_key = ("p", request.params, request.head, request.body)
        else:
            memo_key = ("q", request.query)
        with self._lock:
            key = self._text_memo.get(memo_key)
        parsed: CalculusQuery | None = None
        pq = None

        t0 = time.perf_counter()
        if key is None:
            try:
                with tracer.span("parse"):
                    parsed, pq = self._parse(request, schema)
                    key_query = pq.as_plain_query() if parameterized else parsed
                    key = plan_cache_key(key_query, schema, annotations,
                                         params=request.params)
            except ReproError as err:
                report.status = "error"
                report.error = str(err)
                return
            finally:
                report.timings["parse_s"] = time.perf_counter() - t0
                self._observe("service.parse", report.timings["parse_s"])
            with self._lock:
                self._text_memo[memo_key] = key
                if len(self._text_memo) > self._text_memo_cap:
                    self._text_memo.popitem(last=False)
        else:
            report.timings["parse_s"] = time.perf_counter() - t0
            self._observe("service.parse", report.timings["parse_s"])

        # Plan cache: one hit or one miss per request.
        outcome = self.cache.get(key)
        if outcome is None:
            report.cache = "miss"
            t1 = time.perf_counter()
            try:
                if parsed is None and pq is None:
                    # Memo knew the key but the plan was evicted: re-parse.
                    parsed, pq = self._parse(request, schema)
                if parameterized:
                    outcome: TranslationResult | CachedRefusal = \
                        translate_parameterized(pq, schema)
                else:
                    outcome = translate_query(parsed, schema=schema,
                                              annotations=annotations,
                                              tracer=tracer)
            except NotEmAllowedError as err:
                outcome = CachedRefusal(str(err))
            except ReproError as err:
                # Translation bugs are not cached: the next request
                # retries rather than pinning the failure.
                report.status = "error"
                report.error = str(err)
                return
            finally:
                report.timings["translate_s"] = time.perf_counter() - t1
                self._observe("service.translate", report.timings["translate_s"])
            self.cache.put(key, outcome)
        else:
            report.cache = "hit"

        if isinstance(outcome, CachedRefusal):
            report.status = "refused"
            report.error = outcome.message
            return

        plan = outcome.plan
        if parameterized:
            plan = bind_parameters(plan, request.rows)
            self._count("service.batch_rows", len(request.rows))

        t2 = time.perf_counter()
        run = None
        try:
            with tracer.span("execute") as span:
                interp = self._current_interp(outcome.schema)
                run = execute(plan, instance, interp, schema=outcome.schema,
                              batch_size=self.batch_size,
                              optimize=self.optimize,
                              backend=self.backend,
                              batch_repr=self.batch_repr, tracer=tracer)
                if tracer.enabled:
                    span.attrs["rows"] = len(run.result)
                    if run.backend != "native":
                        span.attrs["backend"] = run.backend
        except ReproError as err:
            report.status = "error"
            report.error = str(err)
            return
        finally:
            elapsed = time.perf_counter() - t2
            if run is not None:
                report.timings["optimize_s"] = run.optimize_seconds
                self._observe("service.optimize", run.optimize_seconds)
                elapsed -= run.optimize_seconds
            report.timings["execute_s"] = elapsed
            self._observe("service.execute", elapsed)

        report.result = run.result
        report.function_calls = run.function_calls
        report.backend = run.backend
        report.backend_error = run.backend_error
        report.batch_repr = run.batch_repr
        report.batch_repr_error = run.batch_repr_error
        report.plan = outcome.plan

    # -- introspection ------------------------------------------------------

    def stats(self) -> dict:
        """Cache counters plus request totals, JSON-ready."""
        out = self.cache.stats()
        with self._lock:
            for name in ("service.requests", "service.refusals",
                         "service.errors", "service.timeouts",
                         "service.batch_rows"):
                out[name.split(".", 1)[1]] = self.metrics.counter(name).value
        return out


def load_requests(path) -> list[ServiceRequest]:
    """Read a ``repro serve --requests`` file: a JSON array of request
    objects, or ``{"requests": [...]}``."""
    with open(path) as handle:
        payload = json.load(handle)
    if isinstance(payload, Mapping):
        payload = payload.get("requests")
    if not isinstance(payload, list):
        raise ReproError(
            "requests file must be a JSON array of request objects "
            "(or {\"requests\": [...]})")
    return [ServiceRequest.from_dict(entry) for entry in payload]
