"""Recompute ``reference/gallery3000.json``: digests of the gallery-3000
answers from the reference algebra evaluator.

The reference is the translated plan *before* the rewrite optimizer,
evaluated by :func:`repro.algebra.evaluator.evaluate` — independent of
the optimizer, the physical planner and the operators that the
benchmark times.  The calculus evaluator cannot be used at this size:
it trips its enumeration guard.  Takes a few minutes; run from the
repository root::

    python3 layerbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.algebra.evaluator import evaluate  # noqa: E402
from repro.core.parser import parse_query  # noqa: E402
from repro.translate.pipeline import translate_query  # noqa: E402

from repro.workloads.gallery import standard_gallery_interp  # noqa: E402
from workloads import (  # noqa: E402
    REFERENCE_FILE, SCALE, SCALED_QUERIES, UNIVERSE, Update, answer_digest,
    scaled_relations,
)


def main() -> int:
    instance = Update(0, scaled_relations()).build()
    interp = standard_gallery_interp()
    answers = {}
    for key, text in SCALED_QUERIES.items():
        t0 = time.perf_counter()
        result = translate_query(parse_query(text))
        rows = evaluate(result.plan, instance, interp, schema=result.schema).rows
        answers[key] = list(answer_digest(rows))
        print(f"{key}: {len(rows)} rows in {time.perf_counter() - t0:.1f} s",
              file=sys.stderr)
    payload = {"scale": SCALE, "universe": UNIVERSE,
               "evaluator": "repro.algebra.evaluator.evaluate on the "
                            "unoptimized translated plan",
               "answers": answers}
    REFERENCE_FILE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
