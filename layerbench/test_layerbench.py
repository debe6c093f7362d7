"""Self-tests of the benchmark itself.

Run from the repository root (two to three minutes)::

    python3 -m pytest -q layerbench/test_layerbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run as run_cli  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from repro.data.relation import Relation  # noqa: E402
from repro.service import QueryService  # noqa: E402
from repro.service.service import ServiceReport  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = tuple(workloads.WORKLOADS)


# -- the operation stream -----------------------------------------------------

def _stream(name: str, seed: int) -> bytes:
    workload = workloads.WORKLOADS[name](seed, 1.0)
    ops = workloads.stream_bytes(workload.ops(), 300)
    warm = workloads.stream_bytes(iter(workload.warmup()), 100)
    probe = workloads.stream_bytes(
        (op for pair in workload.probe() for op in pair), 100)
    return b"\n--\n".join((warm, ops, probe))


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_byte_identical_stream(name):
    assert _stream(name, 7) == _stream(name, 7)
    assert _stream(name, 7) != _stream(name, 8)


def test_cold_corpus_texts_are_distinct_and_labelled():
    pool = workloads.ColdCorpus(3, 1.0).pool()
    texts = [read.request.query for read in pool]
    assert len(set(texts)) == len(texts)
    refused = sum(read.expect == workloads.REFUSED for read in pool)
    assert 0.05 < refused / len(pool) < 0.15


# -- the oracle ---------------------------------------------------------------

def _report(rows, status="ok") -> ServiceReport:
    arity = len(next(iter(rows))) if rows else 1
    result = Relation(arity, rows) if status == "ok" else None
    return ServiceReport(query="q", status=status, result=result)


def _first_read(name: str, expect: str, seed: int = 1):
    workload = workloads.WORKLOADS[name](seed, 1.0)
    for op in workload.ops():
        if isinstance(op, workloads.Read) and op.expect == expect:
            return workload, op
    raise AssertionError(f"no {expect} read in {name}")


def _correct_rows(workload, read):
    service = QueryService(workload.instance(read.version),
                           interpretation=workload.interpretation(),
                           **harness.PINNED)
    return set(service.run(read.request).result.rows)


@pytest.mark.parametrize("name,expect", [
    ("gallery-warm", workloads.ROWS),
    ("gallery-3000", workloads.DIGEST),
    ("wide-joins", workloads.ROWS),
    ("cold-corpus", workloads.REFERENCE),
])
def test_corrupted_answer_is_caught(name, expect):
    workload, read = _first_read(name, expect)
    rows = _correct_rows(workload, read)
    good = harness.Tally(harness.random.Random(0))
    good.read(read, _report(rows), 0.001)
    assert good.check_deferred(workload) == 0
    assert (good.attempted, good.failed, good.checked) == (1, 0, 1)

    corrupted = set(rows)
    if corrupted:
        corrupted.pop()
    else:
        corrupted.add((10**6,))
    bad = harness.Tally(harness.random.Random(0))
    bad.read(read, _report(corrupted), 0.001)
    bad.check_deferred(workload)
    assert bad.failed == 1


def test_flipped_verdicts_are_caught():
    workload = workloads.ColdCorpus(1, 1.0)
    unsafe = next(r for r in workload.pool() if r.expect == workloads.REFUSED)
    safe = next(r for r in workload.pool() if r.expect == workloads.REFERENCE)
    tally = harness.Tally(harness.random.Random(0))
    tally.read(unsafe, _report({(1,)}), 0.001)       # accepted: wrong
    tally.read(safe, _report(set(), status="refused"), 0.001)  # refused: wrong
    tally.read(unsafe, _report(set(), status="refused"), 0.001)  # right
    assert (tally.attempted, tally.failed, tally.checked) == (3, 2, 1)


def test_wrong_answer_makes_the_run_fail(monkeypatch, capsys):
    original = QueryService.run
    calls = [0]

    def corrupting_run(self, request, rows=None):
        report = original(self, request, rows)
        calls[0] += 1
        if calls[0] % 50 == 0 and report.ok and len(report.result):
            kept = sorted(report.result.rows)[1:]
            report.result = Relation(report.result.arity, kept)
        return report

    monkeypatch.setattr(QueryService, "run", corrupting_run)
    code = run_cli.main(["--workload", "gallery-warm", "--seed", "1",
                         "--seconds", "0.5", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0


# -- tail percentile ----------------------------------------------------------

def test_tail_counts_samples_beyond():
    samples = [i / 1000 for i in range(1, 1001)]
    value, beyond = harness.tail(samples, 99.0)
    assert value == 0.99 and beyond == 10
    for pct in (90.0, 95.0, 99.0):
        needed = harness.min_reads(pct)
        assert harness.tail(samples[:needed], pct)[1] >= 10


# -- speed rescaling ------------------------------------------------------------

def test_intervals_are_rescaled_by_the_probes_around_them():
    clock = speed.SpeedClock()
    ref = speed.REFERENCE_PROBE_S
    clock.starts = [0.0, 1.0, 2.0]
    clock.costs = [ref, 2 * ref, 2 * ref]
    assert clock.scale(0.5, 0.003) == pytest.approx(0.002)   # mean 1.5 ref
    assert clock.scale(1.5, 0.004) == pytest.approx(0.002)   # slow: halved
    assert clock.scale(2.5, 0.004) == pytest.approx(0.002)   # last probe only
    with pytest.raises(ValueError):
        speed.SpeedClock().scale(0.0, 1.0)


def test_probe_records_its_time():
    clock = speed.SpeedClock()
    clock.probe()
    assert len(clock.costs) == len(clock.starts) == 1
    assert clock.costs[0] > 0


# -- full runs ------------------------------------------------------------------

@pytest.fixture(scope="module")
def untraced():
    return {name: harness.run(name, 3, 0.05, trace=False) for name in NAMES}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    spans = tmp_path_factory.mktemp("spans")
    return {name: harness.run(name, 3, 1.5, trace=True, spans_dir=spans)
            for name in NAMES}


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_is_correct_and_complete(name, untraced):
    result, info = untraced[name]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(result["metrics"])
    for spec in BENCHMARK["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"] and metric["value"] > 0
    # Even a run far shorter than its percentile needs keeps 10 beyond.
    assert info["tail"]["beyond"] >= 10
    assert info["tail"]["samples"] >= harness.min_reads(info["tail"]["percentile"])
    assert info["settings"]["verify_plans"] is False


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_loads_the_workloads_layer(name, traced):
    result, info = traced[name]
    assert result["correct"]
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(result["metrics"])
    for spec in BENCHMARK["per_layer"]:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
    assert info["layer_checks"] and all(info["layer_checks"].values()), \
        info["layer_checks"]
    assert Path(info["spans_file"]).is_file()


@pytest.mark.parametrize("name", NAMES)
def test_root_spans_agree_with_untraced_latency(name, traced):
    result, info = traced[name]
    overhead = result["metrics"]["trace.overhead"]["value"]
    ratio = info["root_mean_ms"] / info["untraced_mean_ms"] - 1
    assert abs(ratio - overhead) <= 0.05, (ratio, overhead)


# -- the contract ---------------------------------------------------------------

def test_benchmark_json_matches_the_spec():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(NAMES)
    assert list(harness.SPEC["workloads"]) == list(NAMES)
    assert list(harness.SPEC["layer_checks"]) == list(NAMES)
    assert tuple(run_cli.WORKLOAD_NAMES) == NAMES
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_environment_cannot_change_the_program(monkeypatch):
    from repro.analysis.sanitizer import set_verify_plans
    for name, value in (("REPRO_BATCH_REPR", "column"), ("REPRO_BACKEND", "sqlite"),
                        ("REPRO_OPTIMIZE", "0"), ("REPRO_BATCH_SIZE", "7"),
                        ("REPRO_NO_NUMPY", "1")):
        monkeypatch.setenv(name, value)
    previous = set_verify_plans(True)
    try:
        settings = harness.pin_settings()
    finally:
        set_verify_plans(previous)
    assert settings["backend"] == "native" and settings["batch_repr"] == "tuple"
    assert settings["optimize"] is True and settings["batch_size"] == 1024
    assert settings["verify_plans"] is False
    assert not any(n in harness.os.environ for n in harness.PINNED_ENV)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "layerbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "layerbench/run.py", "--workload", "gallery-warm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and proc.stdout == ""
