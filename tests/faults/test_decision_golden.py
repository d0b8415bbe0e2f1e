"""Golden fault decisions: one fixed plan, pinned on both executors.

The chaos suite proves a build replays *itself*; this file proves a build
makes the *same* decisions as the build that recorded the snapshot.  One
composite :class:`FaultPlan` (jitter, a windowed straggler, retry and
timeout drops, bit-flips and a partition) runs for ``ROUNDS`` rounds on an
M=8 ring, and every observable consequence of its random draws is pinned:
the injector's ``summary()`` counters (``retry_bytes`` among them), the
wire total, the simulated timeline total as ``float.hex``, and a digest of
every flip mask the executor asked for.

Timeout-mode losses are terminal only for the scalar engine (the
lane-stacked engine models the reliable transport), so a scalar round that
loses a message is voided with ``abort_step`` + ``discard_pending`` and the
run moves on; that is why each engine has its own snapshot.

The values were recorded from the injector that built a fresh
``Philox(key=...)`` per decision.  Any change to the keying, the draw order
or the draw kind shows up here.
"""

import hashlib

import numpy as np
import pytest

from repro.comm.cluster import Cluster
from repro.comm.topology import ring_topology
from repro.core.marsit import MarsitConfig, MarsitSynchronizer
from repro.faults import (
    BitFlip,
    FaultInjector,
    FaultPlan,
    LinkJitter,
    LinkPartition,
    MessageDrop,
    Straggler,
)

NUM_WORKERS = 8
DIMENSION = 300
ROUNDS = 20

PLAN = FaultPlan(
    seed=2024,
    events=(
        LinkJitter(sigma=0.25),
        Straggler(worker=3, factor=2.0, first_round=5, last_round=14),
        MessageDrop(prob=0.05),
        MessageDrop(
            prob=0.4, links=((6, 7),), mode="timeout", first_round=8, last_round=9
        ),
        BitFlip(prob=0.01),
        LinkPartition(src=1, dst=2, first_round=12, last_round=13),
    ),
    max_attempts=3,
)

GOLDEN = {
    "scalar": {
        "summary": {
            "seed": 2024,
            "events": 6,
            "counters": {
                "drops": 185,
                "flipped_bits": 269,
                "flipped_messages": 232,
                "partition_hits": 28,
                "retries": 183,
                "retry_bytes": 3112,
                "timeouts": 2,
            },
            "dead_workers": [],
            "active_workers": [0, 1, 2, 3, 4, 5, 6, 7],
        },
        "retry_wait_s": "0x1.2bd3c36113400p-5",
        "total_bytes": 78232,
        "timeline_total": "0x1.5614fb91ff00dp-5",
        "aborted_rounds": [8, 9],
        "flip_digest": "f6367ada7cceda75772cabef146b11ddc554a37c968175cfc4b1ab589732da64",
    },
    "batched": {
        "summary": {
            "seed": 2024,
            "events": 6,
            "counters": {
                "drops": 211,
                "flipped_bits": 304,
                "flipped_messages": 258,
                "partition_hits": 28,
                "retries": 198,
                "retry_bytes": 3187,
                "timeouts": 13,
            },
            "dead_workers": [],
            "active_workers": [0, 1, 2, 3, 4, 5, 6, 7],
        },
        "retry_wait_s": "0x1.4467381d7dbf1p-5",
        "total_bytes": 79347,
        "timeline_total": "0x1.8175963b6690dp-5",
        "aborted_rounds": [],
        "flip_digest": "1181642e20784c847296a690cce5cc830b6a1e229dd377639a3d52f0e871498b",
    },
}


class _RecordingInjector(FaultInjector):
    """Records every flip-mask decision as ``(round, tag, src, dst, mask)``."""

    def __init__(self, plan: FaultPlan) -> None:
        super().__init__(plan)
        self.masks: list[tuple] = []

    def flip_mask(self, tag, src, dst, length):
        mask = super().flip_mask(tag, src, dst, length)
        words = "" if mask is None else mask.words.tobytes().hex()
        self.masks.append((self._round, tag, src, dst, length, words))
        return mask


def _observe(engine: str) -> dict:
    cluster = Cluster(ring_topology(NUM_WORKERS))
    injector = _RecordingInjector(PLAN)
    cluster.attach_faults(injector)
    sync = MarsitSynchronizer(
        MarsitConfig(global_lr=0.25, seed=11, engine=engine, full_precision_every=5),
        NUM_WORKERS,
        DIMENSION,
    )
    rng = np.random.default_rng(3)
    aborted = []
    for round_idx in range(ROUNDS):
        updates = [rng.standard_normal(DIMENSION) for _ in range(NUM_WORKERS)]
        try:
            sync.synchronize(cluster, updates, round_idx)
        except LookupError:
            # A scalar-engine terminal loss: void the round and drain.
            cluster.abort_step()
            cluster.discard_pending()
            aborted.append(round_idx)
    cluster.assert_drained()
    summary = injector.summary()
    retry_wait_s = summary["counters"].pop("retry_wait_s", 0.0)
    # Sorted, so the digest does not depend on the executor's query order.
    masks = sorted(injector.masks)
    flip_digest = hashlib.sha256(repr(masks).encode("ascii")).hexdigest()
    return {
        "summary": summary,
        "retry_wait_s": float(retry_wait_s).hex(),
        "total_bytes": cluster.total_bytes,
        "timeline_total": cluster.timeline.total.hex(),
        "aborted_rounds": aborted,
        "flip_digest": flip_digest,
    }


@pytest.mark.parametrize("engine", sorted(GOLDEN))
def test_fault_decisions_match_the_golden_snapshot(engine):
    assert _observe(engine) == GOLDEN[engine]


def test_the_plan_exercises_every_fault_kind():
    counters = GOLDEN["batched"]["summary"]["counters"]
    for name in ("drops", "retries", "timeouts", "partition_hits", "flipped_bits"):
        assert counters[name] > 0, name
    assert GOLDEN["scalar"]["aborted_rounds"], "no scalar round lost a message"
