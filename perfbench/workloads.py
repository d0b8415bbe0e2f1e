"""The three benchmark workloads.

Each workload makes its inputs from the seed (untimed), then runs *repeats*
of fixed work: one repeat builds the program, runs its first round (set-up:
construction plus the round that compiles and digests the plan) and then a
fixed number of timed rounds.  Every repeat of one seed must produce the
same ``counts`` — simulated seconds, wire bytes, sign agreement, accuracy,
fault counters, plan digest and a digest of the final state — so any two
runs of one seed do identical work.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from repro.allreduce import get_topology
from repro.comm.cluster import Cluster
from repro.data import mnist_like, train_test_split
from repro.faults import BitFlip, FaultPlan, LinkJitter, MessageDrop, Straggler, WorkerCrash
from repro.nn.zoo import mlp
from repro.obs import Observability, TrainerCallback
from repro.train import (
    DistributedTrainer,
    EFSignSGDStrategy,
    MarsitStrategy,
    PSGDStrategy,
    SignSGDMajorityStrategy,
    SSDMStrategy,
    TrainConfig,
)

from hostspeed import Stopwatch
from spans import SpanRecorder, wrap_model


@dataclass
class RepeatResult:
    """One repeat: set-up and timed round times, checks and counts.

    ``setup_s`` and ``round_s`` are wall times; the ``_ref_`` twins are the
    same intervals at the reference host speed (see ``hostspeed``).
    """

    setup_s: float
    setup_ref_s: float
    round_s: list[float]
    round_ref_s: list[float]
    probe_s: list[float]
    attempted: int
    ok: int
    counts: dict
    errors: list[str] = field(default_factory=list)


#: Kernel runs per probe on the workload whose rounds take 0.1 s or more.
PROBE_SAMPLES = 9


def _timed(watch: Stopwatch, setup_intervals: int, **fields) -> RepeatResult:
    """A result whose first ``setup_intervals`` intervals are the set-up."""
    watch.close()
    wall, ref = watch.wall_s(), watch.reference_s()
    return RepeatResult(
        setup_s=sum(wall[:setup_intervals]),
        setup_ref_s=sum(ref[:setup_intervals]),
        round_s=wall[setup_intervals:],
        round_ref_s=ref[setup_intervals:],
        probe_s=watch.probes,
        **fields,
    )


def _digest(*arrays: np.ndarray) -> str:
    hasher = hashlib.blake2b(digest_size=12)
    for array in arrays:
        hasher.update(np.ascontiguousarray(array).tobytes())
    return hasher.hexdigest()


# ----------------------------------------------------------------------
# train_mlp_ring_m8 / train_mlp_faults_ring_m8
# ----------------------------------------------------------------------
class _RoundClock(TrainerCallback):
    """Times the trainer's rounds; in traced repeats, records round spans.

    The stopwatch's first interval runs from construction to the end of
    round 0 (the set-up); each later round is one interval.
    """

    def __init__(self, recorder: SpanRecorder | None, kernel: str) -> None:
        self.recorder = recorder
        self.watch = Stopwatch(kernel)
        self._span = -1

    def _end_span(self) -> None:
        if self.recorder is not None and self._span >= 0:
            self.recorder.end(self._span)
            self._span = -1

    def on_round_start(self, round_idx: int, **context) -> None:
        self._end_span()
        if round_idx > 0:
            self.watch.stop()
            self.watch.start()
        recorder = self.recorder
        if recorder is not None:
            recorder.round = round_idx
            self._span = recorder.begin("train.round")

    def finish(self) -> None:
        self._end_span()
        self.watch.stop()


class TrainMLP:
    """The ``quick_train`` MLP (D=2,410) on an M=8 ring with plain Marsit.

    Hyper-parameters are ``quick_train(strategy="marsit", num_workers=8)``'s;
    only the data and the fault plan come from the benchmark seed.  With
    ``faults`` the run also carries a seeded :class:`FaultPlan` (jitter, one
    straggler, 2% retried drops, 1e-3 bit-flips, and a crash that degrades
    the ring to M=7 and forces a full-precision resync) and a metrics
    registry.  The crash comes two thirds of the way in, so the median and
    the p90 round both fall among the M=8 rounds, not on the boundary
    between the M=8 and M=7 populations.
    """

    num_workers = 8
    rounds = 300
    #: Rounds are per-op interpreter overhead (see ``hostspeed``).
    probe_kernel = "interpreter"

    def __init__(self, name: str, faults: bool, min_accuracy: float) -> None:
        self.name = name
        self.faults = faults
        #: Floor on the final test accuracy, below the lowest seen over seeds
        #: 0-59 (0.96 without faults, 0.80 with them), so a numerics
        #: regression fails the run.
        self.min_accuracy = min_accuracy
        #: Without faults no registry is attached, so sign agreement is read
        #: from one extra, untimed repeat that has one.
        self.registry_probe = not faults

    def make_inputs(self, seed: int) -> dict:
        data = mnist_like(num_samples=1200, size=8, noise=0.6, seed=seed)
        train_set, test_set = train_test_split(data, 0.25, seed=seed)
        plan = None
        if self.faults:
            plan = FaultPlan(
                seed=seed,
                events=(
                    LinkJitter(sigma=0.3),
                    Straggler(worker=2, factor=3.0),
                    MessageDrop(prob=0.02),
                    BitFlip(prob=1e-3),
                    WorkerCrash(worker=5, round_idx=2 * self.rounds // 3),
                ),
            )
        return {"seed": seed, "train": train_set, "test": test_set, "plan": plan}

    def run_repeat(
        self, inputs: dict, recorder: SpanRecorder | None = None, metrics: bool = False
    ) -> RepeatResult:
        """One training run; ``metrics`` attaches a registry to read sign agreement."""
        if recorder is not None:
            recorder.round = -1

        def factory():
            model = mlp(64, hidden=(32,), num_classes=10, seed=7)
            return wrap_model(recorder, model) if recorder is not None else model

        rounds = self.rounds
        clock = _RoundClock(recorder, self.probe_kernel)
        observability = (
            Observability.metrics_only() if (self.faults or metrics) else None
        )
        clock.watch.start()
        dimension = mlp(64, hidden=(32,), num_classes=10, seed=7).num_parameters()
        strategy = MarsitStrategy(
            local_lr=0.05,
            global_lr=4e-3,
            num_workers=self.num_workers,
            dimension=dimension,
        )
        config = TrainConfig(
            num_workers=self.num_workers,
            rounds=rounds,
            batch_size=32,
            topology="ring",
            eval_every=max(1, rounds // 10),
            seed=inputs["seed"],
            faults=inputs["plan"],
        )
        trainer = DistributedTrainer(
            factory,
            inputs["train"],
            inputs["test"],
            strategy,
            config,
            callbacks=[clock],
            observability=observability,
        )
        result = trainer.run()
        clock.finish()

        counts = {
            "rounds_run": result.rounds_run,
            "diverged": result.diverged,
            "final_test_accuracy": result.final_accuracy,
            "sim_s_per_round": result.total_sim_time_s / rounds,
            "wire_bytes_per_round": result.total_comm_bytes / rounds,
            "plan_digest": result.plan_digest,
            "params_digest": _digest(trainer.model.flatten_params()),
        }
        if observability is not None:
            gauge = observability.metrics.get("marsit.sign_agreement")
            counts["sign_match_rate"] = gauge.mean() if gauge is not None else None
        if result.fault_summary is not None:
            counters = result.fault_summary["counters"]
            counts["faults"] = {
                name: counters.get(name, 0)
                for name in ("drops", "retries", "flipped_bits", "recoveries")
            }
            counts["active_workers"] = result.fault_summary["active_workers"]

        errors = []
        if result.rounds_run != rounds:
            errors.append(f"ran {result.rounds_run} of {rounds} rounds")
        if result.diverged:
            errors.append("training diverged")
        if not result.final_accuracy >= self.min_accuracy:
            errors.append(f"final accuracy {result.final_accuracy:.3f}")
        if self.faults:
            if counts["faults"]["recoveries"] != 1:
                errors.append("the planned crash did not trigger one recovery")
            if len(counts["active_workers"]) != self.num_workers - 1:
                errors.append("the ring was not degraded to M=7")
        return _timed(
            clock.watch,
            1,
            attempted=rounds,
            ok=0 if errors else result.rounds_run,
            counts=counts,
            errors=errors,
        )


# ----------------------------------------------------------------------
# baselines_torus_m16_d100k
# ----------------------------------------------------------------------
class BaselinesTorus:
    """One ``step`` of PSGD, signSGD-MV, EF-signSGD and SSDM per round.

    4x4 torus, D=100k, ``quick_train``'s learning rates, one cluster per
    strategy.  Every round reuses the seed's gradient matrix; sign agreement
    is signSGD-MV's majority vote against the sign of the exact mean
    gradient, computed outside the timed calls.
    """

    name = "baselines_torus_m16_d100k"
    registry_probe = False
    rows = cols = 4
    num_workers = 16
    dimension = 100_000
    #: 10 timed rounds a repeat; ten repeats give 100 timed rounds and ten
    #: set-up samples.
    rounds = 11
    #: Rounds are numpy passes over 0.8 MB gradient rows (see ``hostspeed``).
    probe_kernel = "numpy"

    def make_inputs(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        grads = rng.standard_normal((self.num_workers, self.dimension))
        grads += 0.5 * rng.standard_normal(self.dimension)
        return {"grads": grads, "mean_sign": grads.mean(axis=0) >= 0}

    def _strategies(self):
        m, d = self.num_workers, self.dimension
        return [
            PSGDStrategy(lr=0.05, num_workers=m),
            SignSGDMajorityStrategy(lr=0.002, num_workers=m),
            EFSignSGDStrategy(lr=0.05, num_workers=m),
            SSDMStrategy(lr=0.1 / math.sqrt(d), num_workers=m),
        ]

    def run_repeat(
        self, inputs: dict, recorder: SpanRecorder | None = None
    ) -> RepeatResult:
        if recorder is not None:
            recorder.round = -1
        grads, mean_sign = inputs["grads"], inputs["mean_sign"]
        # Set-up is two intervals: construction, then round 0.
        watch = Stopwatch(self.probe_kernel, samples=PROBE_SAMPLES)
        watch.start()
        strategies = self._strategies()
        topology = get_topology("torus")
        clusters = [
            Cluster(topology.build(self.num_workers, rows=self.rows, cols=self.cols))
            for _ in strategies
        ]
        watch.stop()

        matches: list[float] = []
        errors: list[str] = []
        ok = 0
        last = []
        for round_idx in range(self.rounds):
            rows = list(grads)
            watch.start()
            if recorder is not None:
                recorder.round = round_idx
                span = recorder.begin("bench.round")
            steps = [
                strategy.step(cluster, rows, round_idx)
                for strategy, cluster in zip(strategies, clusters)
            ]
            if recorder is not None:
                recorder.end(span)
            watch.stop()
            disagree = [
                strategy.name
                for strategy, step in zip(strategies, steps)
                if not all(np.array_equal(step.updates[0], u) for u in step.updates)
            ]
            if disagree:
                errors.append(f"round {round_idx}: per-worker updates differ for {disagree}")
            else:
                ok += 1
            matches.append(float(np.mean((steps[1].updates[0] > 0) == mean_sign)))
            last = [step.updates[0] for step in steps]
        counts = {
            "sim_s_per_round": sum(c.timeline.total for c in clusters) / self.rounds,
            "wire_bytes_per_round": sum(c.total_bytes for c in clusters) / self.rounds,
            "sign_match_rate": float(np.mean(matches)),
            "plan_digest": None,
            "state_digest": _digest(*last),
        }
        return _timed(
            watch, 2, attempted=self.rounds, ok=ok, counts=counts, errors=errors
        )


WORKLOADS = {
    workload.name: workload
    for workload in (
        TrainMLP("train_mlp_ring_m8", faults=False, min_accuracy=0.9),
        BaselinesTorus(),
        TrainMLP("train_mlp_faults_ring_m8", faults=True, min_accuracy=0.7),
    )
}
