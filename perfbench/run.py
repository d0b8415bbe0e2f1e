"""Outside-in benchmark of the Marsit simulator.

Usage, from the repository root::

    python3 perfbench/run.py --workload train_mlp_ring_m8 --seed 0 \
        --seconds 20 --trace 0

Workloads are listed in ``BENCHMARK.json`` (and ``workloads.WORKLOADS``).
``--seconds`` sets the fixed work of a run: the number of repeats is
``seconds / REPEAT_S[workload]`` (at least ``MIN_REPEATS``), where
``REPEAT_S`` is one repeat's duration on the reference host, so a run does
the same work on any host and takes about ``--seconds`` there.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repeats, prints the per-layer metrics from the traced
ones plus ``trace.overhead_pct`` (traced over untraced median reference round),
and writes the spans as Chrome trace-event JSON and a self-time table under
``.perfbench/traces/``.

Every count (simulated seconds, wire bytes, sign agreement, accuracy, fault
counters, plan and state digests) must repeat exactly across the repeats of
a run and across runs of one seed with the same code; the first run of a
seed records them under ``.perfbench/state/`` and later runs compare.  A
mismatch or a failed output check prints ``"correct": false`` and exits 1.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

#: One repeat's wall time in seconds on the reference host (2 vCPU x86-64,
#: one BLAS thread); sizes the fixed repeat count from ``--seconds``.
REPEAT_S = {
    "train_mlp_ring_m8": 1.5,
    "baselines_torus_m16_d100k": 2.0,
    "train_mlp_faults_ring_m8": 4.0,
}
MIN_REPEATS = 3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(REPEAT_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _code_digest() -> str:
    """Digest of the simulator and benchmark sources (keys recorded counts)."""
    hasher = hashlib.sha256()
    for base in (ROOT / "src", ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            hasher.update(str(path.relative_to(ROOT)).encode())
            hasher.update(path.read_bytes())
    return hasher.hexdigest()


def _git_sha() -> str:
    """HEAD's commit from ``.git`` without running git; "unknown" outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _manifest(args, repeats: int, rounds: int, code_digest: str, load) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "git_sha": _git_sha(),
        "code_digest": code_digest,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "repeats": repeats,
        "rounds_per_repeat": rounds,
        "loadavg_at_start": list(load),
    }


def _check_recorded(name: str, seed: int, code_digest: str, counts: dict) -> str | None:
    """Compare counts with the first run of this seed and code; record if new."""
    path = OUT / "state" / f"{name}-seed{seed}-{code_digest[:16]}.json"
    current = json.loads(json.dumps(counts))
    if path.is_file():
        recorded = json.loads(path.read_text())
        if recorded != current:
            return f"counts differ from the recorded run of this seed: {recorded} != {current}"
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(current, sort_keys=True))
    tmp.replace(path)
    return None


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    load = os.getloadavg()
    # One BLAS thread, set before numpy loads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    import gc

    import hostspeed
    import spans
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    repeats = max(MIN_REPEATS, round(args.seconds / REPEAT_S[args.workload]))
    if args.trace:
        repeats += repeats % 2  # as many traced repeats as untraced ones
    code_digest = _code_digest()
    manifest = _manifest(args, repeats, workload.rounds, code_digest, load)

    inputs = workload.make_inputs(args.seed)
    recorder = spans.SpanRecorder()
    results = []
    traced_flags = []
    for index in range(repeats):
        traced = bool(args.trace) and index % 2 == 1
        gc.collect()  # the previous repeat's garbage is not this one's cost
        if traced:
            with spans.Instrumentation(recorder):
                results.append(workload.run_repeat(inputs, recorder))
        else:
            results.append(workload.run_repeat(inputs))
        traced_flags.append(traced)
    # Plain-Marsit training runs without a metrics registry; one extra,
    # untimed repeat with a registry reads its sign agreement, and must
    # otherwise reproduce the timed repeats exactly.
    probe = workload.run_repeat(inputs, metrics=True) if workload.registry_probe else None

    errors = [e for result in results for e in result.errors]
    reference = dict(results[0].counts)
    ok = results[0].ok
    for index, result in enumerate(results[1:], start=1):
        if result.counts == reference:
            ok += result.ok
        else:
            errors.append(f"repeat {index} counts {result.counts} != repeat 0 {reference}")
    if probe is not None:
        errors.extend(f"probe: {e}" for e in probe.errors)
        probe_counts = dict(probe.counts)
        reference["sign_match_rate"] = probe_counts.pop("sign_match_rate")
        if probe_counts != results[0].counts:
            errors.append(f"registry probe counts {probe_counts} != {results[0].counts}")
            ok = 0
    mismatch = _check_recorded(args.workload, args.seed, code_digest, reference)
    if mismatch:
        errors.append(mismatch)
        ok = 0
    attempted = sum(r.attempted for r in results)
    untraced = [r for r, t in zip(results, traced_flags) if not t]
    traced = [r for r, t in zip(results, traced_flags) if t]
    untraced_s = [s for r in untraced for s in r.round_s]
    untraced_ref = [s for r in untraced for s in r.round_ref_s]

    if args.trace:
        traced_ref = [s for r in traced for s in r.round_ref_s]
        metrics = spans.layer_metrics(recorder, len(traced_ref))
        faults = reference.get("faults", {})
        for name in ("drops", "retries", "flipped_bits", "recoveries"):
            metrics[f"faults.{name}"] = faults.get(name, 0)
        # Fault decisions per repeat, over every round like the summary counts.
        messages = recorder.names.count("faults.on_message") / len(traced)
        metrics["faults.first_try_share"] = (
            messages / (messages + faults.get("retries", 0)) if messages else 0.0
        )
        metrics["train.final_test_accuracy"] = reference.get("final_test_accuracy", 0.0)
        # Reference times, so a host phase during one kind of repeat does
        # not count as tracing cost.
        metrics["trace.overhead_pct"] = 100.0 * (
            statistics.median(traced_ref) / statistics.median(untraced_ref) - 1.0
        )
        metrics["bench.rounds_per_s"] = len(untraced_s) / sum(untraced_s)
        metrics["bench.round_ms_p50"] = 1e3 * statistics.median(untraced_s)
        metrics["bench.round_ms_p90"] = 1e3 * statistics.quantiles(untraced_s, n=10)[8]
        metrics["bench.round_ref_ms_p90"] = (
            1e3 * statistics.quantiles(untraced_ref, n=10)[8]
        )
        metrics["bench.host_speed"] = hostspeed.KERNELS[workload.probe_kernel][
            1
        ] / statistics.median(p for r in untraced for p in r.probe_s)
        traces = OUT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        stem = traces / f"{args.workload}-seed{args.seed}"
        spans.write_chrome_trace(recorder, f"{stem}.trace.json", manifest)
        Path(f"{stem}.layers.txt").write_text(
            spans.self_time_table(recorder, len(traced_ref))
        )
    else:
        metrics = {
            "round_ref_ms_p50": 1e3 * statistics.median(untraced_ref),
            "setup_s": statistics.median(r.setup_ref_s for r in results),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "sim_s_per_round": reference["sim_s_per_round"],
            "wire_bytes_per_round": reference["wire_bytes_per_round"],
            "sign_match_rate": reference["sign_match_rate"],
            "ok_op_share": ok / attempted,
        }

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        entry["name"]: entry["unit"]
        for entry in spec["per_layer" if args.trace else "end_to_end"]
    }
    if set(units) != set(metrics):
        errors.append(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    correct = not errors
    detail = {
        "manifest": manifest,
        "counts": reference,
        "timed_rounds": sum(len(r.round_s) for r in results),
        "setup_s": [r.setup_s for r in results],
        "setup_ref_s": [r.setup_ref_s for r in results],
        "round_ms": [[round(1e3 * s, 4) for s in r.round_s] for r in results],
        "round_ref_ms": [[round(1e3 * s, 4) for s in r.round_ref_s] for r in results],
        "probe_us": [[round(1e6 * s, 2) for s in r.probe_s] for r in results],
        "errors": errors,
        "metrics": metrics,
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, default=str)
    )
    for error in errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    print("manifest " + json.dumps(manifest))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": attempted - ok,
                "metrics": {
                    name: {"value": value, "unit": units.get(name, "?")}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
