"""Per-layer spans recorded from outside the program.

:class:`SpanRecorder` replaces each layer's public entry point, under
the name its caller looks it up by, with a wrapper that records one
span per call: name, start, end, parent span and request id.  A new
request id starts at every ``QueryService.run``.  Spans stay in memory
until :meth:`SpanRecorder.write`.  Functions that are only counted
(``estimate_cardinality``, called hundreds of times per wide-join
request) get a counting wrapper instead.

Nothing under ``src/`` changes; :meth:`SpanRecorder.uninstall` puts
every original back.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict

ROOT = "QueryService.run"

#: (module, attribute, span name).  Each module is the one whose global
#: the caller reads, so the span sits exactly at that call site: the
#: executor's ``optimize_plan``, not ``repro.engine.rewrite``'s.
SPANS = (
    ("repro.service.service", "QueryService.run", ROOT),
    ("repro.service.service", "parse_query", "parse_query"),
    ("repro.service.service", "parameterized_query", "parse_query"),
    ("repro.service.service", "plan_cache_key", "plan_cache_key"),
    ("repro.service.service", "translate_query", "translate_query"),
    ("repro.service.service", "translate_parameterized", "translate_query"),
    ("repro.translate.pipeline", "require_em_allowed", "require_em_allowed"),
    ("repro.translate.pipeline", "to_enf", "to_enf"),
    ("repro.translate.pipeline", "compile_formula", "compile_formula"),
    ("repro.translate.pipeline", "simplify", "simplify"),
    ("repro.service.service", "execute", "execute"),
    ("repro.engine.executor", "optimize_plan", "optimize_plan"),
    ("repro.engine.executor", "stats_for", "stats_for"),
    ("repro.engine.executor", "build_physical_plan", "build_physical_plan"),
)

#: (module, attribute, counter name): calls counted, no span.
COUNTED = (
    ("repro.engine.rewrite", "estimate_cardinality", "estimate_cardinality"),
    ("repro.engine.optimizer", "estimate_cardinality", "estimate_cardinality"),
)


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class SpanRecorder:
    """Records spans and call counts while installed."""

    def __init__(self, extractors=None):
        #: One entry per span: [name, start, end, parent index, request].
        self.spans: list[list] = []
        #: Calls of counted functions, plus whatever the extractors add.
        self.counts: Counter = Counter()
        #: Span name -> function(returned value, counts), for counters
        #: read off results (RunReport, TranslationResult, plans); the
        #: results themselves are not kept.
        self._extractors = dict(extractors or {})
        self._stack: list[int] = []
        self._request = 0
        self._originals: list[tuple] = []

    def _span_wrapper(self, original, name: str):
        spans, stack, counts = self.spans, self._stack, self.counts
        extract = self._extractors.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if name == ROOT:
                self._request += 1
            index = len(spans)
            parent = stack[-1] if stack else -1
            entry = [name, clock(), 0.0, parent, self._request]
            spans.append(entry)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                entry[2] = clock()
                stack.pop()
            if extract is not None:
                extract(result, counts)
            return result

        return wrapper

    def _count_wrapper(self, original, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    def install(self) -> "SpanRecorder":
        for module, attr, name in SPANS:
            owner, leaf = _resolve(module, attr)
            original = getattr(owner, leaf)
            self._originals.append((owner, leaf, original))
            setattr(owner, leaf, self._span_wrapper(original, name))
        for module, attr, name in COUNTED:
            owner, leaf = _resolve(module, attr)
            original = getattr(owner, leaf)
            self._originals.append((owner, leaf, original))
            setattr(owner, leaf, self._count_wrapper(original, name))
        return self

    def uninstall(self) -> None:
        while self._originals:
            owner, leaf, original = self._originals.pop()
            setattr(owner, leaf, original)

    def __enter__(self) -> "SpanRecorder":
        return self.install()

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    # -- analysis -------------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per span name: summed duration and summed self time (duration
        minus the time its child spans cover), in seconds."""
        duration: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            duration[name] += end - start
            if parent >= 0:
                child_time[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            self_time[name] += end - start - covered
        return dict(duration), dict(self_time)

    def root_intervals(self) -> list[tuple[float, float]]:
        """(start, duration) of every root span."""
        return [(start, end - start) for name, start, end, _, _ in self.spans
                if name == ROOT]

    def write(self, path) -> None:
        """Write every span as JSON (columns, to keep the file small)."""
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        payload = {
            "names": names,
            "columns": ["name", "start_s", "end_s", "parent", "request"],
            "spans": [[code[n], round(a, 7), round(b, 7), p, r]
                      for n, a, b, p, r in self.spans],
            "counts": dict(self.counts),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")))
