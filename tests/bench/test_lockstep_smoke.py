"""Smoke-run the lockstep benchmark's ``--check`` mode in tier 1.

Exercises the full scalar-vs-batched verification path (output, byte,
message, and plan-digest identity asserts inside ``run_rounds``) plus the
plan-executor guard (bit-identity and charge-identity against the frozen
hand-coded round inside ``run_plan_guard``) on a small input, so an engine
or executor divergence fails the ordinary test run, not just the long
benchmark.  Timings at this size are noise, so no speedup floors or
overhead ceilings are asserted here.
"""

import json

import benchmarks.bench_lockstep as bench
from benchmarks.bench_lockstep import CHECK_DIMENSION, CHECK_WORKERS, run_mode


def test_check_mode_runs_and_reports(capsys, monkeypatch, tmp_path):
    # Check-mode timings are noise: write them to a scratch file and
    # leave the committed record at the repo root untouched.
    committed = bench._JSON_PATH
    before = committed.read_bytes()
    scratch = tmp_path / committed.name
    monkeypatch.setattr(bench, "_JSON_PATH", scratch)
    results = run_mode("check")
    workers = results["workers"]
    assert set(workers) == {str(m) for m in CHECK_WORKERS}
    for entry in workers.values():
        assert entry["old_s"] > 0 and entry["new_s"] > 0
        assert entry["speedup"] > 0
        assert entry["plan_digest"]
    guard = results["plan_guard"]
    assert guard["hand_coded_s"] > 0 and guard["plan_executor_s"] > 0
    assert guard["overhead"] > 0
    assert guard["plan_digest"]
    out = capsys.readouterr().out
    assert f"D={CHECK_DIMENSION}" in out
    assert "plan-executor guard" in out
    assert set(json.loads(scratch.read_text())) == {"check", "check_plan_guard"}
    assert committed.read_bytes() == before
