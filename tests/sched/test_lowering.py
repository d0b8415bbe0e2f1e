"""Lowered one-bit plans: what lowering checks once, and how long it lives.

:func:`repro.sched.executor.lower_plan` turns a plan into the per-round
constants of the lane-stacked executor.  It checks, once, what the hop used
to check on every merge (equal received/local lengths, weights >= 1).  The
lowered schedule is cached beside its plan in ``MarsitSynchronizer._plans``
and nowhere else, so it must be collected with its synchronizer.
"""

import gc
import sys
import weakref
from dataclasses import replace

import numpy as np
import pytest

from repro.allreduce import get_topology, one_bit_topology_names
from repro.comm.cluster import Cluster
from repro.comm.topology import ring_topology
from repro.core.marsit import MarsitConfig, MarsitSynchronizer
from repro.sched import LaneStackedExecutor, get_executor
from repro.sched.executor import LoweredPlan, lower_plan
from repro.sched.plan import (
    CompileContext,
    GridSpec,
    Merge,
    MergeSign,
    Output,
    Pack,
    Restack,
    SendRecv,
    SyncPlan,
    Transfer,
    full_precision_plan,
)

CASES = {
    "ring": ({}, 5, 103),
    "torus": ({"rows": 2, "cols": 3}, 6, 101),
    "tree": ({"arity": 2}, 7, 64),
    "halving_doubling": ({}, 8, 37),
}


def _plan(name):
    build_kwargs, num_workers, dimension = CASES[name]
    topology = get_topology(name).build(num_workers, **build_kwargs)
    return get_topology(name).compile_one_bit(
        CompileContext(
            num_workers=num_workers,
            dimension=dimension,
            meta=dict(topology.meta),
        )
    )


def _first_merge(plan):
    pos = next(
        i for i, step in enumerate(plan.steps) if isinstance(step, MergeSign)
    )
    return pos, plan.steps[pos]


def _with_merge(plan, pos, merge):
    steps = list(plan.steps)
    steps[pos] = merge
    return replace(plan, steps=tuple(steps))


def test_every_one_bit_topology_is_covered():
    assert set(CASES) == set(one_bit_topology_names())


@pytest.mark.parametrize("name", sorted(CASES))
def test_precomputed_and_on_the_fly_lowering_agree(name):
    plan = _plan(name)
    _, num_workers, dimension = CASES[name]
    matrix = np.random.default_rng(1).standard_normal((num_workers, dimension))
    topology = get_topology(name).build(num_workers, **CASES[name][0])
    executor = LaneStackedExecutor()
    results = []
    for lowered in (None, executor.lower(plan)):
        cluster = Cluster(topology)
        rngs = [np.random.default_rng(seed) for seed in range(num_workers)]
        final = executor.run_one_bit(plan, cluster, matrix, rngs, lowered=lowered)
        results.append(
            (final.to_bits().tobytes(), cluster.total_bytes, cluster.timeline.total)
        )
    assert results[0] == results[1]
    assert len(final) == dimension


def test_lowered_schedule_must_match_its_plan():
    executor = LaneStackedExecutor()
    plan = _plan("ring")
    other = executor.lower(_plan("tree"))
    matrix = np.zeros((5, 103))
    rngs = [np.random.default_rng(seed) for seed in range(5)]
    with pytest.raises(ValueError, match="another plan"):
        executor.run_one_bit(
            plan, Cluster(ring_topology(5)), matrix, rngs, lowered=other
        )


def test_rejects_merge_of_unequal_lengths():
    # Lane 0 of grid "b" re-splits a 2-bit segment, lane 1 a 1-bit one, so
    # a merge between them would fold copies of different lengths.
    plan = SyncPlan(
        kind="one_bit",
        topology="ring",
        num_workers=2,
        dimension=3,
        grids=(
            GridSpec(name="a", lane_ranks=(0, 1), num_segments=2),
            GridSpec(name="b", lane_ranks=(0, 1), num_segments=1),
        ),
        steps=(
            Pack(grid="a", start=0, stop=3),
            Restack(grid="b", src_grid="a", sources=((0, 0), (1, 1)), parts=1),
            SendRecv(grid="b", tag="x", transfers=(Transfer(0, 1, 0),)),
            MergeSign(
                grid="b",
                waves=((Merge(1, 0, 0, received_weight=1, local_weight=1),),),
                compress_elems=None,
                rng_elems=1,
                bitop_elems=1,
            ),
        ),
        outputs=(Output(grid="b", where="test"),),
    )
    plan.validate()
    with pytest.raises(ValueError, match="different lengths"):
        lower_plan(plan)


@pytest.mark.parametrize("field", ["received_weight", "local_weight"])
def test_rejects_weights_below_one(field):
    plan = _plan("tree")
    pos, merge = _first_merge(plan)
    wave = merge.waves[0]
    broken = replace(
        merge,
        waves=((replace(wave[0], **{field: 0}),) + wave[1:],) + merge.waves[1:],
    )
    with pytest.raises(ValueError, match=">= 1"):
        lower_plan(_with_merge(plan, pos, broken))


def test_only_one_bit_plans_are_lowered():
    with pytest.raises(ValueError, match="one-bit"):
        lower_plan(full_precision_plan("ring", 4, 10))


def _attribute_sizes(objects):
    """``len`` of every sized attribute of each object."""
    sizes = {}
    for owner in objects:
        for attr, value in vars(owner).items():
            try:
                sizes[(repr(owner), attr)] = len(value)
            except TypeError:
                continue
    return sizes


@pytest.mark.parametrize("engine", ["batched", "scalar"])
def test_lowered_schedules_die_with_their_synchronizer(engine):
    modules = [
        sys.modules[name]
        for name in (
            "repro.sched",
            "repro.sched.executor",
            "repro.sched.plan",
            "repro.allreduce",
            "repro.allreduce.ring",
            "repro.core.marsit",
            "repro.core.sign_ops",
        )
    ]
    executors = [get_executor("batched"), get_executor("scalar")]
    watched = modules + executors + [LaneStackedExecutor]

    def one_synchronizer(seed):
        cluster = Cluster(ring_topology(6))
        sync = MarsitSynchronizer(
            MarsitConfig(global_lr=0.1, seed=seed, engine=engine), 6, 500
        )
        rng = np.random.default_rng(seed)
        sync.synchronize(cluster, [rng.standard_normal(500) for _ in range(6)], 1)
        (cached,) = sync._plans.values()
        return cached

    one_synchronizer(0)  # first-use imports and registries settle here
    gc.collect()
    before = _attribute_sizes(watched)
    refs = []
    for seed in range(20):
        plan, _, lowered = one_synchronizer(seed + 1)
        refs.append(weakref.ref(plan))
        if engine == "batched":
            assert isinstance(lowered, LoweredPlan) and lowered.plan is plan
            refs.append(weakref.ref(lowered))
        else:
            assert lowered is None
        del plan, lowered
    gc.collect()
    assert [ref for ref in refs if ref() is not None] == []
    assert _attribute_sizes(watched) == before
