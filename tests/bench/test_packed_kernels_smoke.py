"""Smoke-run the packed-kernel microbenchmark's ``--check`` mode in tier 1.

Exercises the full old-vs-new verification path (bit-identity asserts inside
``run_kernels``) on a small input so a regression in either pipeline fails
the ordinary test run, not just the long benchmark.  Timings at this size
are noise, so no speedup floors are asserted here.
"""

import json

import benchmarks.bench_packed_kernels as bench
from benchmarks.bench_packed_kernels import CHECK_ELEMS, run_mode


def test_check_mode_runs_and_reports(capsys, monkeypatch, tmp_path):
    # Check-mode timings are noise: write them to a scratch file and
    # leave the committed record at the repo root untouched.
    committed = bench._JSON_PATH
    before = committed.read_bytes()
    scratch = tmp_path / committed.name
    monkeypatch.setattr(bench, "_JSON_PATH", scratch)
    kernels = run_mode("check")
    assert set(kernels) == {
        "hop_merge",
        "pack_unpack",
        "elias_gamma",
        "elias_delta",
    }
    for entry in kernels.values():
        assert entry["old_s"] > 0 and entry["new_s"] > 0
    out = capsys.readouterr().out
    assert f"{CHECK_ELEMS} elements" in out
    assert set(json.loads(scratch.read_text())) == {"check"}
    assert committed.read_bytes() == before
