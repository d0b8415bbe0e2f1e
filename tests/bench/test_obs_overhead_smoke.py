"""Smoke-run the observability overhead benchmark's ``--check`` mode.

Exercises the bare-vs-instrumented-off-vs-tracing comparison machinery on a
small input so an API break in the bench fails tier 1.  Timings at this
size are noise, so no overhead ceiling is asserted here — the < 3% gate
lives in the slow full-mode test.
"""

import json

import benchmarks.bench_obs_overhead as bench
from benchmarks.bench_obs_overhead import (
    CHECK_DIMENSION,
    CHECK_WORKERS,
    run_mode,
)


def test_check_mode_runs_and_reports(capsys, monkeypatch, tmp_path):
    # Check-mode timings are noise: write them to a scratch file and
    # leave the committed record at the repo root untouched.
    committed = bench._JSON_PATH
    before = committed.read_bytes()
    scratch = tmp_path / committed.name
    monkeypatch.setattr(bench, "_JSON_PATH", scratch)
    results = run_mode("check")
    assert set(results) == {str(m) for m in CHECK_WORKERS}
    for entry in results.values():
        assert entry["bare_s"] > 0
        assert entry["off_s"] > 0
        assert entry["traced_s"] > 0
    out = capsys.readouterr().out
    assert f"D={CHECK_DIMENSION}" in out
    assert set(json.loads(scratch.read_text())) == {"check"}
    assert committed.read_bytes() == before
