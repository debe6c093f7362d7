"""Run the layer-attributed service benchmark.

From the repository root::

    python3 layerbench/run.py --workload gallery-warm --seed 1 --seconds 20 --trace 0
    python3 layerbench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs an
untraced phase, then a traced phase on the same seed, and reports the
per-layer metrics (spans are written to ``.layerbench/``).  End-to-end
times are rescaled to a fixed machine speed by probes taken between
operations (see ``speed.py``); the info line gives the wall-clock
figures too.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give
every metric with its unit, the resolved settings and the oracle's
tallies.  The exit code is 1 when any answer or verdict was wrong and 2
when the program to measure is missing.  ``--workload all`` runs each
workload in its own process.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("gallery-warm", "gallery-3000", "cold-corpus", "wide-joins")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _print_metrics(prefix: str, metrics: dict) -> None:
    for name, metric in metrics.items():
        print(f"{prefix}{name} = {metric['value']:.6g} {metric['unit']}")


def run_all(args) -> int:
    """Every workload, each in a fresh process, for one seed."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{name}: failed to run (exit {proc.returncode})",
                  file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        info = json.loads(lines[-2])
        tail = info.get("tail")
        note = (f" (tail p{tail['percentile']:g} of {tail['samples']} samples, "
                f"{tail['beyond']} beyond)" if tail else "")
        print(f"{name}: failed_frac = {info['failed_frac']:.6g}{note}")
        _print_metrics(f"  {name} ", result["metrics"])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"layerbench: no program to measure: {ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    result, info = harness.run(args.workload, args.seed, args.seconds,
                               bool(args.trace), ROOT / ".layerbench")
    _print_metrics("", result["metrics"])
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
