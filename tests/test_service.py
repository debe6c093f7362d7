"""Tests for the query service layer: plan caching, batching, the
thread-pooled request paths, and cache-hygiene on schema swaps."""

from __future__ import annotations

import pytest

from repro.algebra.printer import to_algebra_text
from repro.core.schema import DatabaseSchema
from repro.data.instance import Instance
from repro.data.interpretation import Interpretation
from repro.errors import ReproError
from repro.finds.annotations import nonneg_sum_registry
from repro.obs.tracing import SpanTracer
from repro.safety import clear_caches
from repro.safety.bd import _bd_cached, bd
from repro.safety.gen import gen
from repro.semantics.eval_calculus import evaluate_query
from repro.service import (
    CachedRefusal,
    CacheKey,
    PlanCache,
    QueryService,
    ServiceRequest,
    load_requests,
)
from repro.workloads.gallery import (
    GALLERY,
    gallery_instance,
    standard_gallery_interp,
)

FLAGSHIP = "{ x | R(x) & exists y (f(x) = y & ~R(y)) }"
FLAGSHIP_ALPHA = "{ x | R(x) & exists z (f(x) = z & ~R(z)) }"


@pytest.fixture
def service():
    svc = QueryService(gallery_instance(),
                       interpretation=standard_gallery_interp())
    yield svc
    svc.close()


class TestPlanCache:
    def test_hit_miss_accounting(self):
        cache = PlanCache(capacity=4)
        key = CacheKey(schema="s", text="t")
        assert cache.get(key) is None
        cache.put(key, "plan")
        assert cache.get(key) == "plan"
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction_order(self):
        cache = PlanCache(capacity=2)
        a, b, c = (CacheKey(schema="s", text=t) for t in "abc")
        cache.put(a, 1)
        cache.put(b, 2)
        assert cache.get(a) == 1          # refresh a; b is now LRU
        cache.put(c, 3)
        assert cache.evictions == 1
        assert b not in cache and a in cache and c in cache

    def test_rejects_silly_capacity(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)

    def test_clear_keeps_counters(self):
        cache = PlanCache(capacity=2)
        key = CacheKey(schema="s", text="t")
        cache.get(key)
        cache.put(key, 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.misses == 1


class TestWarmPathSkipsTranslation:
    def test_second_request_is_a_pure_cache_hit(self):
        tracer = SpanTracer()
        svc = QueryService(gallery_instance(),
                           interpretation=standard_gallery_interp(),
                           tracer=tracer)
        cold = svc.run(FLAGSHIP)
        warm = svc.run(FLAGSHIP)
        assert cold.cache == "miss" and warm.cache == "hit"
        assert warm.result == cold.result
        # The warm request never entered the translation pipeline:
        assert "translate_s" not in warm.timings
        assert svc.cache.hits == 1 and svc.cache.misses == 1
        # ... and the span trace agrees: one translate span total, and
        # the warm request's span tree contains neither parse nor
        # translate (statement memo + plan cache short-circuit both).
        translate_spans = [s for s in tracer.walk() if s.name == "translate"]
        assert len(translate_spans) == 1
        warm_root = tracer.roots[-1]
        assert warm_root.name == "service.request"
        assert warm_root.attrs.get("cache") == "hit"
        assert {s.name for s in warm_root.walk()} == \
            {"service.request", "execute"}

    def test_alpha_equivalent_spelling_hits_the_same_plan(self, service):
        first = service.run(FLAGSHIP)
        renamed = service.run(FLAGSHIP_ALPHA)
        spaced = service.run(FLAGSHIP.replace(" ", "  "))
        assert first.cache == "miss"
        assert renamed.cache == "hit" and spaced.cache == "hit"
        assert renamed.result == first.result == spaced.result
        assert len(service.cache) == 1

    def test_metrics_flow(self, service):
        service.run(FLAGSHIP)
        service.run(FLAGSHIP)
        snap = service.metrics.snapshot()
        assert snap["service.requests"]["value"] == 2
        assert snap["plan_cache.hits"]["value"] == 1
        assert snap["plan_cache.misses"]["value"] == 1
        assert snap["service.translate"]["count"] == 1
        assert snap["service.execute"]["count"] == 2

    def test_eviction_forces_retranslation(self):
        svc = QueryService(gallery_instance(),
                           interpretation=standard_gallery_interp(),
                           cache_size=1)
        svc.run("{ x | R(x) }")
        svc.run("{ x | S(x) }")          # evicts R's plan
        report = svc.run("{ x | R(x) }")
        assert report.cache == "miss"
        assert svc.cache.evictions >= 1
        assert report.ok


class TestRefusals:
    def test_refusal_is_negatively_cached(self, service):
        first = service.run("{ x | ~R(x) }")
        second = service.run("{ x | ~R(x) }")
        assert first.status == second.status == "refused"
        assert first.cache == "miss" and second.cache == "hit"
        assert "not em-allowed" in first.error
        cached = service.cache.get(service.cache.keys()[0])
        assert isinstance(cached, CachedRefusal)

    def test_parse_error_is_not_cached(self, service):
        report = service.run("{ x | R(x }")
        assert report.status == "error" and report.cache is None
        assert service.cache.misses == 0


class TestParameterizedBatch:
    def test_batch_matches_reference_semantics(self, small_instance,
                                               small_interp):
        svc = QueryService(small_instance, interpretation=small_interp)
        request = ServiceRequest(params=("p",), head=("y",),
                                 body="R2(p, y)", rows=((1,), (3,), (99,)))
        report = svc.run(request)
        assert report.ok
        # Reference: promote params to outputs, evaluate, then restrict.
        from repro.translate.parameterized import parameterized_query
        pq = parameterized_query(["p"], ["y"], "R2(p, y)")
        reference = evaluate_query(pq.as_plain_query(), small_instance,
                                   small_interp)
        expected = {row for row in reference.rows if row[0] in (1, 3, 99)}
        assert report.result.rows == expected

    def test_batch_shares_one_plan(self, small_instance, small_interp):
        svc = QueryService(small_instance, interpretation=small_interp)
        for rows in (((1,),), ((2,), (3,)), ((1,), (2,), (3,))):
            report = svc.run(ServiceRequest(params=("p",), head=("y",),
                                            body="R2(p, y)", rows=rows))
            assert report.ok
        assert svc.cache.misses == 1 and svc.cache.hits == 2

    def test_empty_batch_is_empty_answer(self, small_instance, small_interp):
        svc = QueryService(small_instance, interpretation=small_interp)
        report = svc.run(ServiceRequest(params=("p",), head=("y",),
                                        body="R2(p, y)", rows=()))
        assert report.ok and len(report.result) == 0

    def test_request_validation(self):
        with pytest.raises(ReproError):
            ServiceRequest()                          # neither form
        with pytest.raises(ReproError):
            ServiceRequest(query="{ x | R(x) }", body="R(x)")
        with pytest.raises(ReproError):
            ServiceRequest(body="R2(p, y)", head=("y",))  # no params
        with pytest.raises(ReproError):
            ServiceRequest(query="{ x | R(x) }", params=("p",))


class TestPooledPaths:
    def test_run_many_preserves_order(self, service):
        texts = ["{ x | R(x) }", "{ x | S(x) }", "{ x | R(x) }"]
        reports = service.run_many(texts)
        assert [r.query for r in reports] == texts
        assert [r.cache for r in reports] == ["miss", "miss", "hit"]

    def test_submit_returns_future(self, service):
        future = service.submit(FLAGSHIP)
        report = future.result(timeout=30)
        assert report.ok and report.cache == "miss"

    def test_per_request_timeout(self, small_instance):
        slow_calls = []

        def slow(v):
            import time
            slow_calls.append(v)
            time.sleep(0.05)
            return v

        svc = QueryService(small_instance,
                           interpretation=Interpretation({"f": slow}))
        try:
            reports = svc.run_many(
                [ServiceRequest(query="{ x, y | R(x) & f(x) = y }",
                                timeout_s=0.001)])
            assert reports[0].status == "timeout"
            assert "exceeded" in reports[0].error
            assert svc.stats()["timeouts"] == 1
        finally:
            svc.close()

    def test_close_is_idempotent(self, service):
        service.submit("{ x | R(x) }").result(timeout=30)
        service.close()
        service.close()


class TestCacheHygiene:
    """A schema or annotation swap can never serve a stale verdict."""

    def test_clear_caches_empties_safety_memo_tables(self):
        from repro.core.parser import parse_formula
        gen(parse_formula("R(x)"))
        bd(parse_formula("R(x)"))
        assert gen.cache_info().currsize > 0
        assert _bd_cached.cache_info().currsize > 0
        clear_caches()
        assert gen.cache_info().currsize == 0
        assert _bd_cached.cache_info().currsize == 0

    def test_schema_swap_invalidates_plans(self):
        schema_a = DatabaseSchema.of({"R": 1}, {})
        svc = QueryService(Instance.of(R=[(1,), (2,)]), schema=schema_a,
                           interpretation=Interpretation({}))
        assert svc.run("{ x | R(x) }").ok
        # Under the new schema R is binary: the cached unary plan must
        # not be served — the query is now an arity error.
        svc.set_schema(DatabaseSchema.of({"R": 2}, {}))
        report = svc.run("{ x | R(x) }")
        assert report.status == "error"
        assert "arity" in report.error or "R" in report.error

    def test_annotation_swap_flips_the_safety_verdict_both_ways(self):
        text = "{ u, v, w | R(w) & plus(u, v) = w }"
        instance = Instance.of(R=[(3,)])

        interp = Interpretation(
            {"plus": lambda u, v: u + v},
            enumerators={"plus_decompositions":
                         lambda w: ((u, w - u) for u in range(w + 1))})
        svc = QueryService(instance, interpretation=interp)
        refused = svc.run(text)
        assert refused.status == "refused"

        svc.set_annotations(nonneg_sum_registry())
        accepted = svc.run(text)
        assert accepted.cache == "miss"      # old verdict not reused
        assert accepted.ok
        assert accepted.result.rows == {(0, 3, 3), (1, 2, 3),
                                        (2, 1, 3), (3, 0, 3)}

        svc.set_annotations(None)
        refused_again = svc.run(text)
        assert refused_again.status == "refused"
        assert refused_again.cache == "miss"

    def test_instance_swap_keeps_plans_warm(self, service):
        service.run(FLAGSHIP)
        service.set_instance(gallery_instance().with_relation(
            "R", service.instance.relation("R")))
        report = service.run(FLAGSHIP)
        assert report.cache == "hit"


class TestInstanceStats:
    def test_stats_collected_once_per_instance(self, service):
        first = service.instance_stats()
        again = service.instance_stats()
        assert first is again

    def test_instance_swap_invalidates_stats(self, service):
        before = service.instance_stats()
        service.set_instance(Instance.of(R=[(1,), (2,), (3,)]))
        after = service.instance_stats()
        assert after is not before
        assert after.table("R").rows == 3

    def test_stats_match_direct_collection(self, service):
        from repro.engine.stats import collect_stats
        assert service.instance_stats().tables == \
            collect_stats(service.instance).tables


class TestServiceOptimizeSwitch:
    def test_optimize_off_still_answers_correctly(self):
        svc = QueryService(gallery_instance(),
                           interpretation=standard_gallery_interp(),
                           optimize=False)
        try:
            baseline = svc.run(FLAGSHIP)
            assert baseline.ok
        finally:
            svc.close()
        on = QueryService(gallery_instance(),
                          interpretation=standard_gallery_interp(),
                          optimize=True)
        try:
            tuned = on.run(FLAGSHIP)
            assert tuned.ok
            assert tuned.result == baseline.result
        finally:
            on.close()


class TestServiceBoundaryErrors:
    """A non-ReproError raised while serving fails that request only."""

    @pytest.fixture
    def divide_service(self):
        svc = QueryService(Instance.of(R=[(0,), (1,)]),
                           interpretation=Interpretation(
                               {"f": lambda x: 1 // x}))
        yield svc
        svc.close()

    def test_raising_function_is_an_error_report(self, divide_service):
        report = divide_service.run("{ x, y | R(x) & f(x) = y }")
        assert report.status == "error"
        assert report.error.startswith("ZeroDivisionError")
        assert report.result is None and report.cache == "miss"
        assert divide_service.stats()["errors"] == 1

    def test_traced_error_keeps_its_traceback(self):
        tracer = SpanTracer()
        svc = QueryService(Instance.of(R=[(0,), (1,)]),
                           interpretation=Interpretation(
                               {"f": lambda x: 1 // x}),
                           tracer=tracer)
        try:
            svc.run("{ x, y | R(x) & f(x) = y }")
        finally:
            svc.close()
        root = tracer.roots[-1]
        assert root.attrs["status"] == "error"
        assert "ZeroDivisionError" in root.attrs["traceback"]

    def test_run_many_returns_every_report(self, divide_service):
        reports = divide_service.run_many(
            ["{ x | R(x) }", "{ x, y | R(x) & f(x) = y }", "{ x | R(x) }"])
        assert [r.status for r in reports] == ["ok", "error", "ok"]
        assert reports[0].rows() == [(0,), (1,)] == reports[2].rows()
        assert divide_service.stats()["errors"] == 1

    def test_malformed_requests_still_raise(self, divide_service):
        with pytest.raises(ReproError):
            divide_service.run(42)
        with pytest.raises(ReproError):
            divide_service.run_many([{"query": "{ x | R(x) }", "bogus": 1}])
        assert divide_service.stats()["errors"] == 0


class TestReportFields:
    def test_optimize_time_is_reported_apart_from_execute(self):
        svc = QueryService(gallery_instance(),
                           interpretation=standard_gallery_interp(),
                           optimize=True)
        try:
            timings = svc.run(FLAGSHIP).timings
            snapshot = svc.metrics.snapshot()
        finally:
            svc.close()
        assert timings["optimize_s"] > 0.0
        assert timings["execute_s"] >= 0.0
        assert (timings["optimize_s"] + timings["execute_s"]
                <= timings["total_s"])
        assert snapshot["service.optimize"]["count"] == 1

    def test_optimize_time_is_zero_when_the_pass_is_off(self):
        svc = QueryService(gallery_instance(),
                           interpretation=standard_gallery_interp(),
                           optimize=False)
        try:
            assert svc.run(FLAGSHIP).timings["optimize_s"] == 0.0
        finally:
            svc.close()

    def test_plan_text_renders_the_translated_plan(self, service):
        report = service.run("{ g(f(x)) | R(x) }")
        assert report.plan_text == to_algebra_text(report.plan)
        assert report.plan_text == "project([g(f(@1))], R)"
        assert report.to_dict()["plan"] == report.plan_text
        refused = service.run("{ x | ~R(x) }")
        assert refused.plan_text is None and "plan" not in refused.to_dict()


class TestGalleryAgainstReference:
    def test_cached_answers_match_the_reference_evaluator(self, service):
        interp = standard_gallery_interp()
        for key, entry in GALLERY.items():
            if not entry.translatable:
                continue
            cold = service.run(entry.text)
            warm = service.run(entry.text)
            assert cold.ok and warm.ok, (key, cold.error, warm.error)
            assert cold.result == warm.result, key
            reference = evaluate_query(entry.query, gallery_instance(),
                                       interp)
            assert cold.result == reference, key


class TestRequestFiles:
    def test_load_requests_round_trip(self, tmp_path):
        path = tmp_path / "requests.json"
        path.write_text("""[
          {"query": "{ x | R(x) }"},
          {"params": ["p"], "head": ["y"], "body": "R2(p, y)",
           "rows": [[1], [2]], "timeout_s": 5}
        ]""")
        requests = load_requests(path)
        assert requests[0].query == "{ x | R(x) }"
        assert requests[1].params == ("p",)
        assert requests[1].rows == ((1,), (2,))
        assert requests[1].timeout_s == 5

    def test_load_requests_rejects_non_array(self, tmp_path):
        path = tmp_path / "requests.json"
        path.write_text('{"query": "{ x | R(x) }"}')
        with pytest.raises(ReproError):
            load_requests(path)

    def test_unknown_field_is_an_error(self):
        with pytest.raises(ReproError):
            ServiceRequest.from_dict({"query": "{ x | R(x) }", "qeury": "x"})
