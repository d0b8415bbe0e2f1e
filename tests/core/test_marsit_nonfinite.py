"""A non-finite update fails the round loudly and leaves every state alone.

Without the check, ``NaN >= 0`` packs to -1: the round yields a finite
consensus, and the NaN waits in that worker's compensation row until the
next full-precision round spreads it to every worker.
"""

import copy

import numpy as np
import pytest

from repro.comm.cluster import Cluster
from repro.comm.topology import ring_topology, tree_topology
from repro.core.marsit import MarsitConfig, MarsitSynchronizer
from repro.faults import FaultInjector, FaultPlan, LinkJitter, WorkerCrash

M, D = 6, 97


def _snapshot(sync, cluster):
    return (
        sync.state.compensation.copy(),
        [copy.deepcopy(rng.bit_generator.state) for rng in sync.rngs],
        cluster.total_bytes,
        cluster.total_messages,
        {key: (l.bytes_sent, l.messages_sent) for key, l in cluster.links.items()},
        dict(cluster.timeline.seconds),
        sync.active_workers,
    )


def _assert_same(before, after):
    assert np.array_equal(before[0], after[0])
    assert before[1:] == after[1:]


def _warm(engine, topology=None, k_sync=None):
    cluster = Cluster(topology or ring_topology(M))
    sync = MarsitSynchronizer(
        MarsitConfig(
            global_lr=0.1, seed=5, engine=engine, full_precision_every=k_sync
        ),
        M,
        D,
    )
    rng = np.random.default_rng(0)
    for round_idx in (1, 2):
        sync.synchronize(
            cluster, [rng.standard_normal(D) for _ in range(M)], round_idx
        )
    return cluster, sync, rng


@pytest.mark.parametrize("engine", ["scalar", "batched"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_raises_naming_the_rank_and_touches_nothing(engine, bad):
    cluster, sync, rng = _warm(engine)
    updates = [rng.standard_normal(D) for _ in range(M)]
    updates[3][17] = bad
    before = _snapshot(sync, cluster)
    with pytest.raises(ValueError, match=r"non-finite.*rank\(s\) 3$"):
        sync.synchronize(cluster, updates, 3)
    _assert_same(before, _snapshot(sync, cluster))
    # The same round with the bad entry repaired then runs normally.
    updates[3][17] = 0.5
    report = sync.synchronize(cluster, updates, 3)
    assert np.isfinite(report.global_updates[0]).all()


@pytest.mark.parametrize("engine", ["scalar", "batched"])
def test_bad_input_leaves_the_run_on_the_clean_trajectory(engine):
    clean_cluster, clean, rng_clean = _warm(engine, tree_topology(M, arity=2))
    cluster, sync, rng = _warm(engine, tree_topology(M, arity=2))
    updates = [rng.standard_normal(D) for _ in range(M)]
    assert all(
        np.array_equal(a, b)
        for a, b in zip(updates, [rng_clean.standard_normal(D) for _ in range(M)])
    )
    poisoned = [u.copy() for u in updates]
    poisoned[0][0] = np.nan
    poisoned[4][-1] = np.inf
    with pytest.raises(ValueError, match=r"rank\(s\) 0, 4$"):
        sync.synchronize(cluster, poisoned, 3)
    got = sync.synchronize(cluster, updates, 3)
    want = clean.synchronize(clean_cluster, updates, 3)
    assert np.array_equal(got.global_updates[0], want.global_updates[0])
    assert np.array_equal(sync.state.compensation, clean.state.compensation)
    assert cluster.total_bytes == clean_cluster.total_bytes
    assert cluster.timeline.seconds == clean_cluster.timeline.seconds


@pytest.mark.parametrize("engine", ["scalar", "batched"])
def test_full_precision_round_also_refuses(engine):
    cluster, sync, rng = _warm(engine, k_sync=2)
    updates = [rng.standard_normal(D) for _ in range(M)]
    updates[1][:] = np.nan
    before = _snapshot(sync, cluster)
    with pytest.raises(ValueError, match=r"rank\(s\) 1$"):
        sync.synchronize(cluster, updates, 4)
    _assert_same(before, _snapshot(sync, cluster))


@pytest.mark.parametrize("engine", ["scalar", "batched"])
def test_raises_before_fault_hooks_run(engine):
    cluster = Cluster(ring_topology(M))
    injector = FaultInjector(
        FaultPlan(
            seed=1,
            events=(LinkJitter(sigma=0.1), WorkerCrash(worker=2, round_idx=1)),
        )
    )
    cluster.attach_faults(injector)
    sync = MarsitSynchronizer(
        MarsitConfig(global_lr=0.1, seed=5, engine=engine), M, D
    )
    updates = [np.ones(D) for _ in range(M)]
    updates[5][3] = np.nan
    before = _snapshot(sync, cluster)
    counters = dict(injector.counters)
    with pytest.raises(ValueError, match=r"rank\(s\) 5$"):
        sync.synchronize(cluster, updates, 1)
    _assert_same(before, _snapshot(sync, cluster))
    assert dict(injector.counters) == counters
    assert cluster.num_workers == M  # the crash was not applied
