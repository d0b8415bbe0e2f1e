"""In-memory span recording around the simulator's public callables.

The benchmark measures each layer from the outside: :class:`Instrumentation`
replaces a public callable *where its caller looks it up* (a module global,
a class attribute, a registry entry) with a wrapper that records one span
per call, and puts the original back afterwards.  Nothing inside ``src/`` is
edited.

Spans are kept in flat lists (name, start, end, parent, round, count) and
written out only when the run ends: as Chrome trace-event JSON, which opens
in Perfetto, and as a per-layer self-time table.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc
from collections import defaultdict

#: Span-name prefix -> the ``repro`` module whose public callable it wraps.
LAYER_OF_PREFIX = {
    "nn": "repro.nn",
    "train": "repro.train",
    "core": "repro.core.marsit",
    "sign_ops": "repro.core.sign_ops",
    "sched": "repro.sched",
    "allreduce": "repro.allreduce",
    "strategy": "repro.train.strategies",
    "cluster": "repro.comm",
    "faults": "repro.faults",
    "obs": "repro.obs",
    "bench": "(benchmark loop)",
}

_MISSING = object()


class SpanRecorder:
    """Nested host-time spans, tagged with the benchmark round they ran in."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.rounds: list[int] = []
        self.counts: list[int] = []
        self._stack: list[int] = []
        #: Round the program is in; -1 while it is being constructed.
        self.round = -1
        #: Peak traced allocation (bytes) of each probed synchronize call.
        self.alloc_peaks: list[int] = []

    def begin(self, name: str, count: int = 0) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.rounds.append(self.round)
        self.counts.append(count)
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(time.perf_counter_ns())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = time.perf_counter_ns()
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.names[index]!r} closed out of order")
        self._stack.pop()

    def innermost(self) -> str | None:
        """Name of the innermost open span."""
        return self.names[self._stack[-1]] if self._stack else None

    def durations_and_self(self) -> tuple[list[int], list[int]]:
        """Per-span duration and self time, in nanoseconds."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        covered = [0] * len(durations)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += durations[index]
        return durations, [d - c for d, c in zip(durations, covered)]


def _timed(recorder: SpanRecorder, name: str, fn, count=None):
    """``fn`` wrapped in a span; ``count(args, kwargs)`` sizes the call."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.begin(name, count(args, kwargs) if count else 0)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.end(index)

    return wrapper


class Instrumentation:
    """Installs span wrappers on the simulator's public callables.

    Use as a context manager; every patched attribute is restored on exit,
    so untraced repeats in the same process run the original code.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._undo: list = []  # restoring callables, run last-in first-out

    def _patch(self, owner, attr: str, value) -> None:
        original = owner.__dict__.get(attr, _MISSING)
        if original is _MISSING:  # inherited: drop the override again
            self._undo.append(lambda: delattr(owner, attr))
        else:
            self._undo.append(lambda: setattr(owner, attr, original))
        setattr(owner, attr, value)

    def _wrap_method(self, cls, attr: str, name: str, count=None) -> None:
        self._patch(cls, attr, _timed(self.recorder, name, getattr(cls, attr), count))

    def __enter__(self) -> "Instrumentation":
        import dataclasses

        import repro.allreduce as allreduce
        import repro.allreduce.ring as ring
        import repro.core.marsit as marsit
        import repro.sched.executor as executor
        import repro.train.strategies as strategies
        import repro.train.trainer as trainer
        from repro.comm.cluster import Cluster
        from repro.faults.inject import FaultInjector
        from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

        rec = self.recorder

        # repro.train: evaluation, looked up in the trainer's namespace.
        self._patch(trainer, "evaluate", _timed(rec, "train.eval", trainer.evaluate))
        # repro.nn: the trainer's loss object (the model is wrapped by the
        # factory the benchmark passes in, see ``wrap_model``).
        base_loss = trainer.CrossEntropyLoss

        class TimedLoss(base_loss):
            __call__ = _timed(rec, "nn.loss", base_loss.__call__)
            backward = _timed(rec, "nn.loss", base_loss.backward)

        self._patch(trainer, "CrossEntropyLoss", TimedLoss)

        # repro.core.marsit: the synchronizer, with a tracemalloc probe on
        # the first timed round of each traced repeat.
        self._patch(
            marsit.MarsitSynchronizer,
            "synchronize",
            _probed_synchronize(rec, marsit.MarsitSynchronizer.synchronize),
        )

        # repro.sched: the lane-stacked executor both Marsit paths run on,
        # and the sign kernels as the executor module looks them up.
        batched = executor.LaneStackedExecutor
        self._wrap_method(batched, "run_one_bit", "sched.run_one_bit")
        self._wrap_method(batched, "run_full_precision", "sched.run_full_precision")
        self._patch(
            executor,
            "transient_vector_batch",
            _timed(
                rec,
                "sign_ops.transient",
                executor.transient_vector_batch,
                lambda args, kwargs: int(args[0].lengths.sum()),
            ),
        )
        self._patch(
            executor,
            "merge_sign_bits_batch",
            _timed(rec, "sign_ops.merge", executor.merge_sign_bits_batch),
        )

        # repro.allreduce: sign packing, and every registered topology's
        # full-precision callbacks (the baselines reach the torus ones).
        pack = ring.PackedLaneGrid.__dict__["from_sign_matrix"]
        self._patch(
            ring.PackedLaneGrid,
            "from_sign_matrix",
            classmethod(_timed(rec, "allreduce.pack", pack.__func__)),
        )
        for topology_name in allreduce.topology_names():
            entry = allreduce.get_topology(topology_name)
            replaced = {
                field: _timed(rec, f"allreduce.{label}", getattr(entry, field))
                for field, label in (
                    ("mean_allreduce", "mean"),
                    ("signsum_allreduce", "signsum"),
                    ("allgather_scalars", "allgather"),
                )
                if getattr(entry, field) is not None
            }
            self._undo.append(lambda entry=entry: allreduce.register_topology(entry))
            allreduce.register_topology(dataclasses.replace(entry, **replaced))

        # repro.train.strategies: one step of each baseline.
        for cls in (
            strategies.PSGDStrategy,
            strategies.SignSGDMajorityStrategy,
            strategies.EFSignSGDStrategy,
            strategies.SSDMStrategy,
        ):
            self._wrap_method(cls, "step", f"strategy.{cls.name}")

        # repro.comm: bulk and per-message accounting.
        self._wrap_method(
            Cluster, "exchange", "cluster.exchange",
            lambda args, kwargs: len(args[1]),
        )
        self._wrap_method(Cluster, "send", "cluster.send")

        # repro.faults: the injector's per-message and per-step hooks.
        self._wrap_method(FaultInjector, "on_message", "faults.on_message")
        self._wrap_method(FaultInjector, "flip_mask", "faults.flip_mask")
        self._wrap_method(FaultInjector, "finish_step", "faults.finish_step")

        # repro.obs: registry lookups and metric updates.
        for cls, attr in (
            (MetricsRegistry, "counter"),
            (MetricsRegistry, "gauge"),
            (MetricsRegistry, "histogram"),
            (Counter, "inc"),
            (Gauge, "set"),
            (Histogram, "observe"),
        ):
            self._wrap_method(cls, attr, "obs.registry")
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            self._undo.pop()()


def _probed_synchronize(rec: SpanRecorder, fn):
    """The synchronize span; round 1 also records its tracemalloc peak."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        probe = rec.round == 1 and not tracemalloc.is_tracing()
        index = rec.begin("core.synchronize")
        if probe:
            tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            if probe:
                rec.alloc_peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            rec.end(index)

    return wrapper


def wrap_model(recorder: SpanRecorder, model):
    """Give one model instance timed ``forward`` and ``backward``.

    Forwards run by evaluation are recorded as ``nn.eval_forward``, so
    ``nn.grad_ms`` counts only the gradient's forward, loss and backward.
    """
    forward = model.forward
    traced = {
        name: _timed(recorder, name, forward)
        for name in ("nn.forward", "nn.eval_forward")
    }

    def timed_forward(x):
        in_eval = recorder.innermost() == "train.eval"
        return traced["nn.eval_forward" if in_eval else "nn.forward"](x)

    object.__setattr__(model, "forward", timed_forward)
    object.__setattr__(model, "backward", _timed(recorder, "nn.backward", model.backward))
    return model


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def _aggregate(recorder: SpanRecorder):
    """Per span name over timed rounds (round >= 1): total and self
    nanoseconds, calls, and summed call sizes."""
    durations, selfs = recorder.durations_and_self()
    total = defaultdict(int)
    self_total = defaultdict(int)
    calls = defaultdict(int)
    items = defaultdict(int)
    for index, name in enumerate(recorder.names):
        if recorder.rounds[index] < 1:
            continue
        total[name] += durations[index]
        self_total[name] += selfs[index]
        calls[name] += 1
        items[name] += recorder.counts[index]
    return total, self_total, calls, items


def layer_metrics(recorder: SpanRecorder, timed_rounds: int) -> dict[str, float]:
    """Per-round layer figures from the spans of timed rounds.

    ``timed_rounds`` is how many timed rounds the recorder saw in total.
    ``*_ms`` are milliseconds per round, ``*_calls`` calls per round.
    """
    total, self_total, calls, items = _aggregate(recorder)
    per_round = 1.0 / max(timed_rounds, 1)

    def ms(name: str, table=total) -> float:
        return table[name] * 1e-6 * per_round

    return {
        "nn.grad_ms": ms("nn.forward") + ms("nn.loss") + ms("nn.backward"),
        "train.eval_ms": ms("train.eval"),
        "train.other_ms": ms("train.round", self_total),
        "core.synchronize_ms": ms("core.synchronize"),
        "core.synchronize_self_ms": ms("core.synchronize", self_total),
        "core.synchronize_peak_alloc_mb": (
            max(recorder.alloc_peaks) / 2**20 if recorder.alloc_peaks else 0.0
        ),
        "sign_ops.transient_ms": ms("sign_ops.transient"),
        "sign_ops.transient_calls": calls["sign_ops.transient"] * per_round,
        "sign_ops.transient_ns_per_elem": (
            total["sign_ops.transient"] / items["sign_ops.transient"]
            if items["sign_ops.transient"]
            else 0.0
        ),
        "sign_ops.merge_ms": ms("sign_ops.merge"),
        "sign_ops.merge_calls": calls["sign_ops.merge"] * per_round,
        "sched.run_one_bit_ms": ms("sched.run_one_bit"),
        "sched.run_one_bit_self_ms": ms("sched.run_one_bit", self_total),
        "sched.run_full_precision_ms": ms("sched.run_full_precision"),
        "sched.run_full_precision_calls": (
            calls["sched.run_full_precision"] * per_round
        ),
        "allreduce.pack_ms": ms("allreduce.pack"),
        "allreduce.mean_ms": ms("allreduce.mean"),
        "allreduce.signsum_ms": ms("allreduce.signsum"),
        "allreduce.allgather_ms": ms("allreduce.allgather"),
        "strategy.psgd_ms": ms("strategy.psgd"),
        "strategy.signsgd-mv_ms": ms("strategy.signsgd-mv"),
        "strategy.ef-signsgd_ms": ms("strategy.ef-signsgd"),
        "strategy.ssdm_ms": ms("strategy.ssdm"),
        "cluster.exchange_ms": ms("cluster.exchange"),
        "cluster.exchange_calls": calls["cluster.exchange"] * per_round,
        "cluster.exchange_messages": items["cluster.exchange"] * per_round,
        "cluster.send_ms": ms("cluster.send"),
        "cluster.send_calls": calls["cluster.send"] * per_round,
        "faults.on_message_ms": ms("faults.on_message"),
        "faults.flip_mask_ms": ms("faults.flip_mask"),
        "faults.finish_step_ms": ms("faults.finish_step"),
        "obs.registry_calls": calls["obs.registry"] * per_round,
        "obs.registry_ms": ms("obs.registry"),
    }


# ----------------------------------------------------------------------
# exports
# ----------------------------------------------------------------------
#: The Chrome trace holds rounds up to this one; see :func:`write_chrome_trace`.
TRACE_LAST_ROUND = 20


def write_chrome_trace(recorder: SpanRecorder, path, metadata: dict) -> None:
    """Chrome trace-event JSON ("X" events) for Perfetto.

    Holds the set-up and rounds ``<= TRACE_LAST_ROUND`` of the first traced
    repeat (the spans that come before a round ``0`` of a later repeat).
    A whole run's spans would make a file of tens of MB; the metrics use all
    of them.
    """
    exported = []
    seen_round = -1
    for index, round_idx in enumerate(recorder.rounds):
        if round_idx < seen_round and seen_round > 0:
            break  # the next repeat's set-up begins
        seen_round = max(seen_round, round_idx)
        if round_idx <= TRACE_LAST_ROUND:
            exported.append(index)
    origin = recorder.starts[exported[0]] if exported else 0
    events = []
    for index in exported:
        name = recorder.names[index]
        prefix = name.split(".", 1)[0]
        parent = recorder.parents[index]
        events.append(
            {
                "name": name,
                "cat": LAYER_OF_PREFIX.get(prefix, prefix),
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (recorder.starts[index] - origin) / 1e3,
                "dur": (recorder.ends[index] - recorder.starts[index]) / 1e3,
                "args": {
                    "round": recorder.rounds[index],
                    "parent": recorder.names[parent] if parent >= 0 else None,
                    "count": recorder.counts[index],
                },
            }
        )
    with open(path, "w") as handle:
        json.dump(
            {"traceEvents": events, "displayTimeUnit": "ms", "otherData": metadata},
            handle,
        )


def self_time_table(recorder: SpanRecorder, timed_rounds: int) -> str:
    """Per-span-name calls, total and self milliseconds per timed round."""
    total, self_total, calls, _ = _aggregate(recorder)
    per_round = 1.0 / max(timed_rounds, 1)
    lines = [
        f"timed rounds: {timed_rounds}",
        f"{'layer':<24} {'span':<28} {'calls/rd':>10} {'ms/rd':>10} {'self ms/rd':>11}",
    ]
    for name in sorted(self_total, key=self_total.get, reverse=True):
        layer = LAYER_OF_PREFIX.get(name.split(".", 1)[0], "?")
        lines.append(
            f"{layer:<24} {name:<28} {calls[name] * per_round:>10.2f} "
            f"{total[name] * 1e-6 * per_round:>10.3f} "
            f"{self_total[name] * 1e-6 * per_round:>11.3f}"
        )
    return "\n".join(lines) + "\n"
