"""Set-up, the closed loop, answer checking and the metrics.

One process, one client, a closed loop: the next operation is sent
only after the previous one has returned.  Requests go through
:meth:`repro.service.QueryService.run` with the production defaults
pinned explicitly (:data:`PINNED`), whatever the environment says.

A *phase* is one service lifetime: set-up (data, service, warm-up
pass), the timed loop, the post-update probe and the deferred oracle
checks.  An untraced run is one phase; a traced run is an untraced
phase followed by a traced phase on the same seed, so the tracing
overhead is measured against the same operation stream.

Every end-to-end time is rescaled to a fixed machine speed by the
probes of a :class:`speed.SpeedClock` taken between operations (see
:mod:`speed`); the info line also gives the wall-clock figures.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from repro.algebra.ast import algebra_size
from repro.analysis.sanitizer import set_verify_plans, verify_plans_enabled
from repro.backends import resolve_backend
from repro.engine.batches import resolve_batch_repr
from repro.engine.caches import clear_engine_caches, engine_cache_info
from repro.engine.rewrite import optimize_enabled
from repro.errors import EvaluationError
from repro.safety import clear_caches as clear_safety_caches
from repro.service import QueryService

from spans import ROOT, SpanRecorder
from speed import SpeedClock
from workloads import (
    DIGEST, REFERENCE, REFUSED, ROWS, WORKLOADS, Read, Update, answer_digest,
)

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE / "spec.json").read_text())

#: Production defaults, passed explicitly to every QueryService.
PINNED = {"batch_size": 1024, "optimize": True, "backend": "native",
          "batch_repr": "tuple"}
#: Variables that would silently select another program.
PINNED_ENV = ("REPRO_BATCH_SIZE", "REPRO_BATCH_REPR", "REPRO_BACKEND",
              "REPRO_OPTIMIZE", "REPRO_NO_NUMPY")
#: Set-ups of an untraced run before the loop and again after it, so
#: that ``setup_s`` (their median) samples the machine at two times.
SETUP_REPEATS = 4
#: Deferred (slow-oracle) answers checked per phase.
DEFERRED_SAMPLE = 32
#: A request slower than this counts as timed out, hence failed.
REQUEST_TIMEOUT_S = 10.0


def pin_settings() -> dict:
    """Clear the environment overrides, keep plan verification at its
    production default (off), and return the resolved settings."""
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    set_verify_plans(False)
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "backend": resolve_backend(PINNED["backend"]),
        "batch_repr": resolve_batch_repr(PINNED["batch_repr"])[0],
        "batch_size": PINNED["batch_size"],
        "optimize": optimize_enabled(PINNED["optimize"]),
        "verify_plans": verify_plans_enabled(),
        "clients": 1,
        "loop": "closed",
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
    }


def tail_percentile(workload_name: str) -> float:
    return SPEC["workloads"][workload_name]["tail_percentile"]


def min_reads(percentile: float) -> int:
    """Samples needed so that at least 10 lie beyond ``percentile``."""
    return math.ceil(10 / (1 - percentile / 100)) + 1


def tail(latencies: list[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Tally:
    """Checks outcomes against expectations; deferred answers go to a
    seeded reservoir sample checked after the loop."""

    rng: random.Random
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    checked: int = 0
    deferred_seen: int = 0
    deferred: list = field(default_factory=list)

    def fail(self, read: Read, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{read.request.describe()[:120]}: {reason}")

    def read(self, read: Read, report, elapsed: float) -> None:
        """Check one outcome: a ServiceReport, or the exception the
        request raised."""
        self.attempted += 1
        if isinstance(report, Exception):
            return self.fail(read, f"raised {report!r}")
        if elapsed > REQUEST_TIMEOUT_S:
            return self.fail(read, f"timed out after {elapsed:.1f} s")
        if read.expect == REFUSED:
            if report.status != "refused":
                self.fail(read, f"unsafe query not refused ({report.status})")
            else:
                self.checked += 1
            return
        if report.status != "ok":
            return self.fail(read, f"{report.status}: {report.error}")
        rows = report.result.rows
        if read.expect == ROWS:
            ok = rows == read.answer
        elif read.expect == DIGEST:
            ok = answer_digest(rows) == tuple(read.answer)
        elif read.expect == REFERENCE:
            self.deferred_seen += 1
            if len(self.deferred) < DEFERRED_SAMPLE:
                self.deferred.append((read, rows))
            else:
                slot = self.rng.randrange(self.deferred_seen)
                if slot < DEFERRED_SAMPLE:
                    self.deferred[slot] = (read, rows)
            return
        else:
            raise ValueError(f"unknown expectation {read.expect!r}")
        if ok:
            self.checked += 1
        else:
            self.fail(read, f"wrong answer ({len(rows)} rows)")

    def check_deferred(self, workload) -> int:
        """Run the slow oracle on the sample; returns how many could not
        be checked (the reference evaluator's enumeration guard)."""
        unverifiable = 0
        for read, rows in self.deferred:
            try:
                expected = workload.reference(read)
            except EvaluationError:
                unverifiable += 1
                continue
            if rows == expected:
                self.checked += 1
            else:
                self.fail(read, f"wrong answer ({len(rows)} rows, "
                                f"reference {len(expected)})")
        return unverifiable


def _serve(service, read: Read) -> tuple[object, tuple[float, float]]:
    """Run one read; returns the report (or the exception it raised)
    and its (start, elapsed seconds)."""
    start = time.perf_counter()
    try:
        report = service.run(read.request)
    except Exception as err:  # a raised request is a failed operation
        report = err
    return report, (start, time.perf_counter() - start)


def _apply(service, update: Update) -> tuple[float, float]:
    start = time.perf_counter()
    service.set_instance(update.build())
    return start, time.perf_counter() - start


@dataclass
class Phase:
    """What one service lifetime measured.  Timings are kept as
    ``(start, elapsed)`` wall-clock pairs and rescaled by ``clock``."""

    #: The timed segments of each set-up.
    setups: list[list[tuple[float, float]]]
    reads: list[tuple[float, float]]
    post_update: list[tuple[float, float]]
    updates: list[tuple[float, float]]
    #: Every operation of the loop, reads and updates.
    loop: list[tuple[float, float]]
    clock: SpeedClock
    tally: Tally
    peak_rss_mb: float
    unverifiable: int
    service_stats: tuple[dict, dict]
    cache_info: tuple[dict, dict]

    @property
    def loop_ops(self) -> int:
        return len(self.loop)

    @cached_property
    def setup_s(self) -> list[float]:
        return [sum(self.clock.scale_all(segments)) for segments in self.setups]

    @cached_property
    def latencies(self) -> list[float]:
        return self.clock.scale_all(self.reads)

    @cached_property
    def post_update_s(self) -> list[float]:
        return self.clock.scale_all(self.post_update)

    @cached_property
    def throughput(self) -> float:
        return self.loop_ops / sum(self.clock.scale_all(self.loop))

    def wall(self) -> dict:
        """The untransformed wall-clock figures, for the info line."""
        return {
            "setup_s": statistics.median(
                sum(e for _, e in segments) for segments in self.setups),
            "req_p50_ms": statistics.median(e for _, e in self.reads) * 1e3,
            "throughput_rps": self.loop_ops / sum(e for _, e in self.loop),
        }


def set_up(workload, tally: Tally, clock: SpeedClock):
    """Fresh caches, data, service and one warm-up pass over the
    workload's queries; returns (service, timed segments).  The clock
    probes between the segments."""
    warmup = workload.warmup()
    clear_safety_caches()
    clear_engine_caches()
    clock.probe()
    start = time.perf_counter()
    service = QueryService(workload.instance(0),
                           interpretation=workload.interpretation(), **PINNED)
    segments = [(start, time.perf_counter() - start)]
    outcomes = []
    for read in warmup:
        clock.probe()
        report, timed = _serve(service, read)
        segments.append(timed)
        outcomes.append((read, report, timed[1]))
    clock.probe()
    for read, report, seconds in outcomes:
        tally.read(read, report, seconds)
    return service, segments


def run_phase(workload, seconds: float, setups: int,
              recorder: SpanRecorder | None = None) -> Phase:
    """One service lifetime, with ``setups`` set-ups before the loop
    (the last one's service runs it) and ``setups - 1`` after it."""
    tally = Tally(random.Random(f"{workload.seed}/sample"))
    clock = SpeedClock()
    timed_setups = []
    for _ in range(setups):
        if timed_setups:
            service.close()
        service, segments = set_up(workload, tally, clock)
        timed_setups.append(segments)

    reads: list[tuple[float, float]] = []
    post_update: list[tuple[float, float]] = []
    updates: list[tuple[float, float]] = []
    loop: list[tuple[float, float]] = []
    needed = min_reads(tail_percentile(workload.name))
    after_update = False
    # Workloads without updates in their stream time the first read
    # after an update with probes spread evenly over the loop (so a
    # burst of machine noise cannot move them all), outside the loop's
    # latency and throughput; each probe then restores the loop's data.
    probes = workload.probe()
    base_instance = service.instance

    def probe() -> None:
        update, read = next(probes)
        if recorder is not None:
            recorder.uninstall()  # per-layer metrics cover loop reads only
        tally.attempted += 1
        clock.probe()
        updates.append(_apply(service, update))
        report, timed = _serve(service, read)
        tally.read(read, report, timed[1])
        post_update.append(timed)
        service.set_instance(base_instance)
        if recorder is not None:
            recorder.install()

    stats_before, cache_before = service.stats(), engine_cache_info()
    if recorder is not None:
        recorder.install()
    try:
        start = time.perf_counter()
        deadline = start + seconds
        count = workload.probe_pairs
        schedule = [start + (i + 0.5) * seconds / count for i in range(count)]
        for op in workload.ops():
            clock.tick()
            now = time.perf_counter()
            if schedule and now >= schedule[0]:
                schedule.pop(0)
                probe()
            if now >= deadline and len(reads) >= needed:
                break
            if isinstance(op, Update):
                timed = _apply(service, op)
                tally.attempted += 1
                updates.append(timed)
                after_update = True
            else:
                report, timed = _serve(service, op)
                tally.read(op, report, timed[1])
                reads.append(timed)
                if after_update:
                    post_update.append(timed)
                    after_update = False
            loop.append(timed)
        for _ in schedule:  # the stream ended early
            probe()
        clock.probe()
    finally:
        if recorder is not None:
            recorder.uninstall()
    stats_after, cache_after = service.stats(), engine_cache_info()
    service.close()
    rss = peak_rss_mb()
    for _ in range(setups - 1):
        extra, segments = set_up(workload, tally, clock)
        extra.close()
        timed_setups.append(segments)
    unverifiable = tally.check_deferred(workload)
    return Phase(timed_setups, reads, post_update, updates, loop, clock,
                 tally, rss, unverifiable, (stats_before, stats_after),
                 (cache_before, cache_after))


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload_name: str, phase: Phase) -> dict:
    pct = tail_percentile(workload_name)
    tail_s, _ = tail(phase.latencies, pct)
    return {
        "setup_s": _metric(statistics.median(phase.setup_s), "s"),
        "req_p50_ms": _metric(statistics.median(phase.latencies) * 1e3, "ms"),
        "req_tail_ms": _metric(tail_s * 1e3, "ms"),
        "throughput_rps": _metric(phase.throughput, "1/s"),
        "peak_rss_mb": _metric(phase.peak_rss_mb, "MB"),
        "post_update_p50_ms": _metric(
            statistics.median(phase.post_update_s) * 1e3, "ms"),
    }


def _extract_run(run, counts) -> None:
    counts["exec.rows"] += run.intermediate_rows
    counts["exec.result_rows"] += len(run.result)
    counts["exec.function_calls"] += run.function_calls
    counts["exec.comparisons"] += run.counters.comparisons
    counts["optimize.rewrites"] += len(run.rewrites)


def _extract_translation(result, counts) -> None:
    counts["translate.rule_apps"] += len(result.trace)


def _extract_plan(plan, counts) -> None:
    counts["simplify.plan_ops"] += algebra_size(plan)


EXTRACTORS = {"execute": _extract_run,
              "translate_query": _extract_translation,
              "simplify": _extract_plan}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(base: Phase, traced: Phase, recorder: SpanRecorder) -> dict:
    """Per-layer metrics of the traced phase, per request unless the
    name says otherwise.  Times are wall-clock, except that
    ``trace.overhead`` compares rescaled throughputs."""
    duration, self_time = recorder.totals()
    counts = recorder.counts
    requests = sum(1 for s in recorder.spans if s[0] == ROOT)
    root = duration.get(ROOT, 0.0)

    def per_req(value: float) -> float:
        return _ratio(value, requests)

    def ms(name: str, table=duration) -> float:
        return per_req(table.get(name, 0.0)) * 1e3

    before, after = traced.service_stats
    lookups = ((after["hits"] - before["hits"])
               + (after["misses"] - before["misses"]))
    c0, c1 = traced.cache_info
    hits = sum(c1[k]["hits"] - c0[k]["hits"] for k in ("stats", "closure"))
    misses = sum(c1[k]["misses"] - c0[k]["misses"] for k in ("stats", "closure"))
    parse_s = sum(duration.get(n, 0.0) for n in ("parse_query", "plan_cache_key"))
    exec_self = self_time.get("execute", 0.0)
    optimize_s = duration.get("optimize_plan", 0.0)
    metrics = {
        "req.ms": (per_req(root) * 1e3, "ms"),
        "service.self_ms": (ms(ROOT, self_time), "ms"),
        "service.self_share": (_ratio(self_time.get(ROOT, 0.0), root), "ratio"),
        "plan_cache.hit_ratio": (
            _ratio(after["hits"] - before["hits"], lookups), "ratio"),
        "plan_cache.evictions": (
            per_req(after["evictions"] - before["evictions"]), "count"),
        "parse.ms": (per_req(parse_s) * 1e3, "ms"),
        "parse.calls_per_req": (
            per_req(sum(1 for s in recorder.spans if s[0] == "parse_query")),
            "count"),
        "safety.ms": (ms("require_em_allowed"), "ms"),
        "safety.refusals": (
            per_req(after["refusals"] - before["refusals"]), "count"),
        "translate.enf_ms": (ms("to_enf"), "ms"),
        "translate.compile_ms": (ms("compile_formula"), "ms"),
        "translate.self_ms": (ms("translate_query", self_time), "ms"),
        "translate.rule_apps": (per_req(counts["translate.rule_apps"]), "count"),
        "frontend.share": (
            _ratio(parse_s + duration.get("translate_query", 0.0), root),
            "ratio"),
        "simplify.ms": (ms("simplify"), "ms"),
        "simplify.plan_ops": (per_req(counts["simplify.plan_ops"]), "count"),
        "optimize.ms": (per_req(optimize_s) * 1e3, "ms"),
        "optimize.share": (_ratio(optimize_s, root), "ratio"),
        "optimize.rewrites": (per_req(counts["optimize.rewrites"]), "count"),
        "stats.estimate_calls": (
            per_req(counts["estimate_cardinality"]), "count"),
        "engine_cache.stats_ms": (ms("stats_for"), "ms"),
        "engine_cache.hit_ratio": (_ratio(hits, hits + misses), "ratio"),
        "plan_build.ms": (ms("build_physical_plan"), "ms"),
        "exec.ms": (per_req(exec_self) * 1e3, "ms"),
        "exec.share": (_ratio(exec_self, root), "ratio"),
        "exec.rows": (per_req(counts["exec.rows"]), "rows"),
        "exec.useful_ratio": (
            _ratio(counts["exec.result_rows"], counts["exec.rows"]), "ratio"),
        "exec.function_calls": (per_req(counts["exec.function_calls"]), "count"),
        "exec.comparisons": (per_req(counts["exec.comparisons"]), "count"),
        "update.ms": (
            statistics.median(e for _, e in traced.updates) * 1e3, "ms"),
        "trace.overhead": (base.throughput / traced.throughput - 1, "ratio"),
    }
    return {name: _metric(value, unit) for name, (value, unit) in metrics.items()}


def layer_checks(workload_name: str, metrics: dict) -> dict:
    """The spec's load checks: does the workload load its layer?"""
    out = {}
    for name, op, bound in SPEC["layer_checks"].get(workload_name, []):
        value = metrics[name]["value"]
        out[f"{name} {op} {bound}"] = (value >= bound if op == ">="
                                       else value <= bound)
    return out


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        spans_dir: Path | None = None) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, info line)."""
    settings = pin_settings()
    workload = WORKLOADS[workload_name](seed, seconds)
    # The benchmark's own data (query pool, reference answers) is made
    # now and frozen out of the cyclic collector, so it does not slow
    # the program's collections.
    workload.warmup()
    gc.collect()
    gc.freeze()
    info = {"workload": workload_name, "seed": seed, "trace": int(trace),
            "settings": settings}
    if not trace:
        phase = run_phase(workload, seconds, SETUP_REPEATS)
        phases = [phase]
        metrics = end_to_end(workload_name, phase)
        pct = tail_percentile(workload_name)
        _, beyond = tail(phase.latencies, pct)
        info["tail"] = {"percentile": pct, "samples": len(phase.latencies),
                        "beyond": beyond}
        info["wall"] = phase.wall()
        info["speed"] = phase.clock.summary()
    else:
        base = run_phase(workload, seconds, 1)
        recorder = SpanRecorder(EXTRACTORS)
        traced = run_phase(workload, seconds, 1, recorder)
        phases = [base, traced]
        metrics = per_layer(base, traced, recorder)
        info["layer_checks"] = layer_checks(workload_name, metrics)
        info["root_mean_ms"] = statistics.mean(
            traced.clock.scale_all(recorder.root_intervals())) * 1e3
        info["untraced_mean_ms"] = statistics.mean(base.latencies) * 1e3
        if spans_dir is not None:
            path = spans_dir / f"spans-{workload_name}-{seed}.json"
            recorder.write(path)
            info["spans_file"] = str(path)
    attempted = sum(p.tally.attempted for p in phases)
    failed = sum(p.tally.failed for p in phases)
    info["failed_frac"] = failed / attempted
    info["failures"] = [f for p in phases for f in p.tally.failures][:5]
    info["checked"] = sum(p.tally.checked for p in phases)
    info["unverifiable"] = sum(p.unverifiable for p in phases)
    info["loop_ops"] = [p.loop_ops for p in phases]
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, info
