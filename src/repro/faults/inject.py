"""The deterministic fault injector the cluster and executors consult.

Determinism contract
--------------------
Every random fault decision is drawn from a generator *keyed by the
decision's logical coordinates* — ``(plan seed, round, kind, step tag,
original link, occurrence index)`` hashed through BLAKE2b into a Philox
key — never from a shared stream.  The scalar engine moves payloads one
message at a time while the lane-stacked engine batches merges before its
bulk exchange, so the two interleave fault queries differently; content
keying makes the answer a pure function of *which* message is asked about,
so both engines see byte-identical faults, timelines, and ``faults.*``
metrics under the same seed (the chaos suite's cross-engine invariant).

Each injector owns one ``Philox`` bit generator and re-keys it for every
decision: the new key, counter 0, an empty buffer — exactly the state a
fresh ``Philox(key=...)`` starts in, at a fraction of its construction
cost.  The re-keyed generator never leaves the injector; callers get
finished draws from private helpers, so nothing can hold it across a
re-key.

Crash remapping: after a recovery the cluster shrinks and re-ranks, but all
fault coordinates stay keyed by the *original* ranks via the injector's
``rank -> original rank`` map — a plan that jitters link ``(3, 4)`` keeps
jittering those two physical machines whatever their current ranks are.

Hook points (all no-ops costing one ``None`` check when no injector is
attached):

- ``Cluster.begin_step``/``exchange`` -> :meth:`FaultInjector.begin_step`
- ``Cluster.send``/``exchange`` per message -> :meth:`on_message`
- ``Cluster.end_step``/``exchange`` makespan -> :meth:`finish_step`
- executors' reduce hops -> :meth:`flip_mask`
- ``MarsitSynchronizer.synchronize`` -> :meth:`begin_round`,
  :meth:`take_new_crashes`, :meth:`set_active`
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from repro.comm.bits import PackedBits
from repro.faults.plan import (
    BitFlip,
    FaultPlan,
    LinkJitter,
    LinkPartition,
    MessageDrop,
    Straggler,
    WorkerCrash,
)

__all__ = ["FaultInjector", "WorkerCrashedError"]


def _decision_key(
    seed: int, round_idx: int, kind: str, tag: str, origin, occ: int
) -> np.ndarray:
    """Philox key of one decision: BLAKE2b of its coordinates' tuple repr.

    The f-string spells out ``repr((seed, round_idx, kind, tag, origin,
    occ))`` element by element, without building the tuple.
    """
    token = f"({seed!r}, {round_idx!r}, {kind!r}, {tag!r}, {origin!r}, {occ!r})"
    digest = hashlib.blake2b(token.encode("ascii"), digest_size=16).digest()
    return np.frombuffer(digest, dtype=np.uint64)


class WorkerCrashedError(RuntimeError):
    """Raised when traffic touches a crashed (un-recovered) worker."""


class FaultInjector:
    """Turns a :class:`~repro.faults.plan.FaultPlan` into per-message decisions.

    One injector serves one cluster (:meth:`bind` is called by
    ``Cluster.attach_faults``).  All state is derived: per-round caches of
    which links carry which fault probabilities, per-round occurrence
    counters, and the monotone dead-worker set.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.counters: dict[str, float] = {}
        self._cluster = None
        self._round = 0
        self._started = False
        self._physical: list[int] = []
        self._dead: set[int] = set()
        self._dead_current: frozenset[int] = frozenset()
        self._new_crashes: list[int] = []
        self._occurrences: dict[tuple, int] = {}
        self._penalty: dict[tuple[int, int], float] = {}
        # per-round caches keyed by *current* (src, dst) cluster ranks
        self._drop: dict[tuple[int, int], tuple[float, str]] = {}
        self._flip: dict[tuple[int, int], float] = {}
        self._jitter: dict[tuple[int, int], float] = {}
        self._slow: dict[tuple[int, int], float] = {}
        self._partitioned: frozenset[tuple[int, int]] = frozenset()
        # One generator for every decision, re-keyed by _rekey.  Counter and
        # buffer are tuples: the state setter reads them word by word, and
        # Python ints are cheaper to read than numpy scalars.
        self._philox = np.random.Philox()
        self._gen = np.random.Generator(self._philox)
        self._fresh_state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": (0, 0)},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def bind(self, cluster) -> None:
        """Attach to a cluster (called by ``Cluster.attach_faults``)."""
        self._cluster = cluster
        self._physical = list(range(cluster.num_workers))
        self.plan.validate(cluster.num_workers)
        self._rebuild_round_caches()

    def begin_round(self, round_idx: int) -> None:
        """Advance to ``round_idx``: activate crashes, refresh link caches.

        Idempotent per round — both the trainer and the synchronizer call it.
        """
        if self._started and round_idx == self._round:
            return
        self._started = True
        self._round = round_idx
        self._occurrences = {}
        for event in self.plan.events:
            if (
                isinstance(event, WorkerCrash)
                and event.round_idx <= round_idx
                and event.worker not in self._dead
            ):
                self._dead.add(event.worker)
                self._new_crashes.append(event.worker)
                self._count("crashes")
        self._refresh_dead_current()
        self._rebuild_round_caches()

    def begin_step(self) -> None:
        """Reset per-step retry penalties (one call per synchronous step)."""
        self._penalty = {}

    @property
    def dead_workers(self) -> frozenset[int]:
        """Original ranks of every worker crashed so far."""
        return frozenset(self._dead)

    def take_new_crashes(self) -> tuple[int, ...]:
        """Original ranks crashed since the last call (recovery trigger)."""
        crashed = tuple(self._new_crashes)
        self._new_crashes = []
        return crashed

    def set_active(self, survivors: list[int]) -> None:
        """Re-rank after recovery: current rank ``i`` is ``survivors[i]``.

        ``survivors`` are *original* ranks; fault coordinates keep using
        them, so decisions survive any number of re-rankings.
        """
        self._physical = list(survivors)
        self._refresh_dead_current()
        self._rebuild_round_caches()

    # ------------------------------------------------------------------
    # per-message and per-step hooks
    # ------------------------------------------------------------------
    def on_message(
        self, tag: str, src: int, dst: int, nbytes: int
    ) -> tuple[int, bool]:
        """Decide one message's fate: ``(extra wire bytes, deliver?)``.

        Retry-mode losses and partitions retransmit: the extra attempts'
        bytes travel the wire (inflating the step's makespan) and each
        failed attempt adds one ``retry_timeout_s`` to the link's step
        penalty.  Timeout-mode losses return ``deliver=False``.
        """
        if src in self._dead_current or dst in self._dead_current:
            raise WorkerCrashedError(
                f"message {src} -> {dst} touches a crashed worker"
            )
        key = (src, dst)
        entry = self._drop.get(key)
        partitioned = key in self._partitioned
        if entry is None and not partitioned:
            return 0, True
        origin = (self._physical[src], self._physical[dst])
        timeout = self.plan.retry_timeout_s
        if partitioned:
            # The link heals within the hop, after the full retry budget.
            failures = self.plan.max_attempts
            self._count("partition_hits")
        else:
            prob, mode = entry
            occ = self._next_occurrence(("drop", tag, origin))
            limit = self.plan.max_attempts
            draws = self._uniforms("drop", tag, origin, occ, limit)
            failures = 0
            while failures < limit and draws[failures] < prob:
                failures += 1
            if failures and mode == "timeout":
                self._count("drops")
                self._count("timeouts")
                self._penalty[key] = self._penalty.get(key, 0.0) + timeout
                return 0, False
        if not failures:
            return 0, True
        self._count("drops", failures)
        self._count("retries", failures)
        extra = failures * nbytes
        self._count("retry_bytes", extra)
        self._count("retry_wait_s", failures * timeout, metric=False)
        self._penalty[key] = self._penalty.get(key, 0.0) + failures * timeout
        return extra, True

    def finish_step(
        self, tag: str, step_bytes: dict[tuple[int, int], int]
    ) -> float:
        """The step's makespan under jitter, stragglers, and retry waits."""
        cluster = self._cluster
        jitter = self._jitter
        slow = self._slow
        penalty = self._penalty
        occ = self._next_occurrence(("step", tag)) if jitter else 0
        elapsed = 0.0
        for key, nbytes in step_bytes.items():
            seconds = cluster._link_transfer_time(key, nbytes)
            factor = slow.get(key)
            if factor is not None:
                seconds *= factor
            sigma = jitter.get(key)
            if sigma is not None:
                origin = (self._physical[key[0]], self._physical[key[1]])
                z = self._normal("jitter", tag, origin, occ)
                seconds *= math.exp(sigma * z)
            wait = penalty.get(key)
            if wait is not None:
                seconds += wait
            if seconds > elapsed:
                elapsed = seconds
        return elapsed

    @property
    def flips_active(self) -> bool:
        """Whether any link carries a bit-flip probability this round."""
        return bool(self._flip)

    def flip_mask(
        self, tag: str, src: int, dst: int, length: int
    ) -> PackedBits | None:
        """XOR mask for one reduce payload, or None when nothing flips."""
        prob = self._flip.get((src, dst))
        if prob is None or length == 0:
            return None
        origin = (self._physical[src], self._physical[dst])
        occ = self._next_occurrence(("flip", tag, origin))
        bits = self._uniforms("flip", tag, origin, occ, length) < prob
        flipped = np.count_nonzero(bits)
        if not flipped:
            return None
        self._count("flipped_messages")
        self._count("flipped_bits", flipped)
        return PackedBits.from_bits(bits)

    # ------------------------------------------------------------------
    # recovery bookkeeping + reporting
    # ------------------------------------------------------------------
    def note_recovery(self, crashed: tuple[int, ...], survivors: list[int]) -> None:
        """Record one degrade-and-resync recovery (called by the synchronizer)."""
        self._count("recoveries")
        self._count("forced_resyncs")
        cluster = self._cluster
        if cluster is not None and cluster._obs_on:
            cluster.obs.tracer.instant(
                "faults.recovery",
                round=self._round,
                crashed=list(crashed),
                survivors=list(survivors),
            )

    def summary(self) -> dict:
        """JSON-ready roll-up for ``TrainResult.fault_summary``."""
        counters = {
            name: (value if name == "retry_wait_s" else int(value))
            for name, value in sorted(self.counters.items())
        }
        return {
            "seed": self.plan.seed,
            "events": len(self.plan.events),
            "counters": counters,
            "dead_workers": sorted(self._dead),
            "active_workers": list(self._physical),
        }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _rekey(self, kind: str, tag: str, origin, occ: int) -> None:
        """Put the generator in the state a fresh ``Philox(key=...)`` has."""
        state = self._fresh_state
        state["state"]["key"] = _decision_key(
            self.plan.seed, self._round, kind, tag, origin, occ
        )
        self._philox.state = state

    def _uniforms(
        self, kind: str, tag: str, origin, occ: int, n: int
    ) -> np.ndarray:
        """The first ``n`` uniforms of one decision's keyed stream."""
        self._rekey(kind, tag, origin, occ)
        return self._gen.random(n)

    def _normal(self, kind: str, tag: str, origin, occ: int) -> float:
        """The first standard normal of one decision's keyed stream."""
        self._rekey(kind, tag, origin, occ)
        return self._gen.standard_normal()

    def _next_occurrence(self, key: tuple) -> int:
        occ = self._occurrences.get(key, 0)
        self._occurrences[key] = occ + 1
        return occ

    def _count(self, name: str, value: float = 1, metric: bool = True) -> None:
        self.counters[name] = self.counters.get(name, 0) + value
        if metric and self._cluster is not None and self._cluster._obs_on:
            registry = self._cluster.obs.metrics
            if registry is not None:
                registry.counter(f"faults.{name}").inc(value)

    def _refresh_dead_current(self) -> None:
        inverse = {orig: cur for cur, orig in enumerate(self._physical)}
        self._dead_current = frozenset(
            inverse[rank] for rank in self._dead if rank in inverse
        )

    def _rebuild_round_caches(self) -> None:
        """Resolve active events onto the cluster's current links."""
        self._drop = {}
        self._flip = {}
        self._jitter = {}
        self._slow = {}
        partitioned = set()
        cluster = self._cluster
        if cluster is None:
            return
        round_idx = self._round
        physical = self._physical
        active = [
            event
            for event in self.plan.events
            if not isinstance(event, WorkerCrash) and event.active(round_idx)
        ]
        if not active:
            self._partitioned = frozenset()
            return
        for key in cluster.links:
            origin = (physical[key[0]], physical[key[1]])
            keep_prob = 1.0
            mode = "retry"
            flip_keep = 1.0
            variance = 0.0
            factor = 1.0
            for event in active:
                if isinstance(event, MessageDrop):
                    if event.links is None or origin in event.links:
                        keep_prob *= 1.0 - event.prob
                        if event.mode == "timeout":
                            mode = "timeout"
                elif isinstance(event, BitFlip):
                    if event.links is None or origin in event.links:
                        flip_keep *= 1.0 - event.prob
                elif isinstance(event, LinkJitter):
                    if event.links is None or origin in event.links:
                        variance += event.sigma * event.sigma
                elif isinstance(event, Straggler):
                    if event.worker in origin:
                        factor *= event.factor
                elif isinstance(event, LinkPartition):
                    if (event.src, event.dst) == origin:
                        partitioned.add(key)
            if keep_prob < 1.0:
                self._drop[key] = (1.0 - keep_prob, mode)
            if flip_keep < 1.0:
                self._flip[key] = 1.0 - flip_keep
            if variance > 0.0:
                self._jitter[key] = math.sqrt(variance)
            if factor != 1.0:
                self._slow[key] = factor
        self._partitioned = frozenset(partitioned)
