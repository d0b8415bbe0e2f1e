"""The two SyncPlan interpreters.

Both executors run *any* plan; the per-topology knowledge lives entirely in
the compilers (:mod:`repro.allreduce`).  They differ only in how a hop's
merges and transfers are realized:

- :class:`ScalarExecutor` keeps per-lane :class:`~repro.comm.bits.PackedBits`
  segment lists and moves one message at a time through
  ``Cluster.send``/``recv`` — the reference path.
- :class:`LaneStackedExecutor` materializes each grid as a
  :class:`~repro.allreduce.ring.PackedLaneGrid` and executes each hop as one
  fancy-index gather, one batched merge expression, and one bulk
  ``Cluster.exchange`` — the lockstep path.  It runs a :class:`LoweredPlan`,
  which holds every per-round constant of the plan (index arrays, weights,
  exchange tuples, pack layouts) and is built once per plan by
  :func:`lower_plan`.

Both consume identical per-rank RNG streams (a plan's merge *waves* pin the
draw order), apply identical cost-model charges, and emit identical traffic
and wire metrics, so the engines stay bit-for-bit interchangeable — the
invariant ``tests/sched/test_engine_identity.py`` enforces for every
registered topology.

Cost accounting per reduce hop (Section 4.1.1's overlap claim): the sign
extraction and the transient draw for the next segment overlap the
transfer, so only their excess over the transfer makespan is charged; the
post-receive bit merge needs the received bits and is charged in full.
``repro.allreduce`` is imported lazily inside the run methods: the compilers
over there import :mod:`repro.sched.plan` at module scope, and eager imports
here would close the cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.comm.bits import PackedBits, PackedBitsBatch
from repro.comm.cluster import Cluster
from repro.comm.timing import Phase
from repro.core.sign_ops import (
    merge_sign_bits_batch,
    merge_sign_bits_packed,
    transient_vector_batch,
    transient_vector_packed,
)
from repro.sched.plan import (
    Barrier,
    FpAllReduce,
    Gather,
    GridSpec,
    MergeSign,
    Pack,
    Restack,
    SendRecv,
    SyncPlan,
    Unstack,
    plan_segment_lengths,
)

if TYPE_CHECKING:
    from repro.allreduce.ring import SegmentLayout

__all__ = ["LaneStackedExecutor", "LoweredPlan", "ScalarExecutor", "lower_plan"]


class _PlanExecutor:
    """Shared plan walking: barriers, charges, and the full-precision path."""

    name = "?"

    def lower(self, plan: SyncPlan) -> object:
        """Per-plan constants for :meth:`run_one_bit`'s ``lowered`` argument;
        ``None`` when the interpreter walks the plan as it is."""
        return None

    # ------------------------------------------------------------------
    # shared step handling
    # ------------------------------------------------------------------
    def _exec_barrier(self, cluster: Cluster, step: Barrier) -> None:
        tracer = cluster.obs.tracer
        if step.kind == "begin":
            if step.tag is None:
                tracer.begin(step.span, cat="phase")
            else:
                tracer.begin(step.span, cat="phase", tag=step.tag)
            if step.compress_elems is not None:
                # The first outgoing segment's signs must exist before hop 0.
                cluster.charge(
                    Phase.COMPRESSION,
                    cluster.cost_model.compress_time(step.compress_elems),
                )
        elif step.kind == "end":
            tracer.end()
        else:
            raise ValueError(f"unknown barrier kind {step.kind!r}")

    def _charge_hop(
        self, cluster: Cluster, merge: MergeSign, transfer: float
    ) -> None:
        # Sign extraction + transient draw for the next hop overlap the
        # transfer (Section 4.1.1); only the excess is critical path.
        model = cluster.cost_model
        if merge.compress_elems is not None:
            overlapped = model.compress_time(
                merge.compress_elems
            ) + model.rng_time(merge.rng_elems)
        else:
            overlapped = model.rng_time(merge.rng_elems)
        cluster.charge(Phase.COMPRESSION, max(0.0, overlapped - transfer))
        # The merge itself needs the received bits: charged in full.
        cluster.charge(
            Phase.COMPRESSION, model.bitop_time(merge.bitop_elems)
        )

    # ------------------------------------------------------------------
    # full-precision plans
    # ------------------------------------------------------------------
    def run_full_precision(
        self, plan: SyncPlan, cluster: Cluster, vectors: Sequence[np.ndarray]
    ) -> list[np.ndarray]:
        """Execute a ``kind="full_precision"`` plan; returns per-worker means."""
        outputs: list[np.ndarray] | None = None
        for step in plan.steps:
            if isinstance(step, Barrier):
                self._exec_barrier(cluster, step)
            elif isinstance(step, FpAllReduce):
                from repro.allreduce import get_topology

                entry = get_topology(step.topology)
                if entry.mean_allreduce is None:
                    raise ValueError(
                        f"topology {step.topology!r} has no registered "
                        "full-precision mean all-reduce"
                    )
                outputs = entry.mean_allreduce(cluster, vectors)
            else:
                raise TypeError(
                    f"unexpected step {type(step).__name__} in a "
                    "full-precision plan"
                )
        if outputs is None:
            raise ValueError("full-precision plan ran no FpAllReduce step")
        return outputs


class ScalarExecutor(_PlanExecutor):
    """Per-message reference interpreter over PackedBits segment lists.

    It walks the plan as it is, so its ``lowered`` argument is always None.
    """

    name = "scalar"

    def run_one_bit(
        self,
        plan: SyncPlan,
        cluster: Cluster,
        matrix: np.ndarray,
        rngs: Sequence[np.random.Generator],
        verify_consensus: bool = True,
        lowered: None = None,
    ) -> PackedBits:
        from repro.allreduce.ring import split_segments

        specs = {spec.name: spec for spec in plan.grids}
        segs: dict[str, list[list[PackedBits]]] = {}
        steps = plan.steps
        pos = 0
        while pos < len(steps):
            step = steps[pos]
            if isinstance(step, Barrier):
                self._exec_barrier(cluster, step)
            elif isinstance(step, Pack):
                spec = specs[step.grid]
                segs[step.grid] = [
                    [
                        PackedBits.from_signs(part)
                        for part in split_segments(
                            matrix[rank, step.start : step.stop],
                            spec.num_segments,
                            copy=False,
                        )
                    ]
                    for rank in spec.lane_ranks
                ]
            elif isinstance(step, Restack):
                source = segs[step.src_grid]
                segs[step.grid] = [
                    source[src_lane][src_seg].split(step.parts)
                    for src_lane, src_seg in step.sources
                ]
            elif isinstance(step, Unstack):
                source = segs[step.src_grid]
                target = segs[step.grid]
                for lane, (dst_lane, dst_seg) in enumerate(step.targets):
                    target[dst_lane][dst_seg] = PackedBits.concat(source[lane])
            elif isinstance(step, SendRecv):
                merge = steps[pos + 1]
                assert isinstance(merge, MergeSign)
                self._reduce_hop(
                    cluster, specs[step.grid], segs[step.grid], step, merge,
                    rngs,
                )
                pos += 2
                continue
            elif isinstance(step, Gather):
                self._gather_hop(cluster, specs[step.grid], segs[step.grid], step)
            else:
                raise TypeError(
                    f"unexpected step {type(step).__name__} in a one-bit plan"
                )
            pos += 1
        return self._collect(plan, segs, verify_consensus)

    def _reduce_hop(
        self,
        cluster: Cluster,
        spec: GridSpec,
        rows: list[list[PackedBits]],
        send: SendRecv,
        merge: MergeSign,
        rngs: Sequence[np.random.Generator],
    ) -> None:
        """One fused SendRecv + MergeSign hop, one synchronous step."""
        ranks = spec.lane_ranks
        metrics = cluster.obs.metrics
        faults = cluster.faults
        flips = faults is not None and faults.flips_active
        cluster.begin_step()
        for transfer in send.transfers:
            cluster.send(
                ranks[transfer.src_lane],
                ranks[transfer.dst_lane],
                rows[transfer.src_lane][transfer.seg],
                tag=send.tag,
            )
        for wave in merge.waves:
            for entry in wave:
                rank = ranks[entry.dst_lane]
                received: PackedBits = cluster.recv(
                    rank, ranks[entry.src_lane], tag=send.tag
                )
                if flips:
                    # Wire corruption lands on the received copy before the
                    # merge; the mask is keyed by (tag, link), so the
                    # batched engine applies the identical one.
                    mask = faults.flip_mask(
                        send.tag, ranks[entry.src_lane], rank, len(received)
                    )
                    if mask is not None:
                        received = received ^ mask
                local = rows[entry.dst_lane][entry.seg]
                transient = transient_vector_packed(
                    local,
                    received_weight=entry.received_weight,
                    local_weight=entry.local_weight,
                    rng=rngs[rank],
                )
                if metrics is not None:
                    # Disagreeing coordinates are exactly the ones the
                    # transient vector decides (⊙ keeps agreements verbatim).
                    metrics.counter("marsit.transient_draws").inc(
                        (received ^ local).popcount()
                    )
                    metrics.counter("marsit.merged_bits").inc(len(local))
                rows[entry.dst_lane][entry.seg] = merge_sign_bits_packed(
                    received, local, transient
                )
        elapsed = cluster.end_step(tag=send.tag)
        self._charge_hop(cluster, merge, elapsed)

    def _gather_hop(
        self,
        cluster: Cluster,
        spec: GridSpec,
        rows: list[list[PackedBits]],
        step: Gather,
    ) -> None:
        ranks = spec.lane_ranks
        cluster.begin_step()
        for transfer in step.transfers:
            cluster.send(
                ranks[transfer.src_lane],
                ranks[transfer.dst_lane],
                rows[transfer.src_lane][transfer.seg],
                tag=step.tag,
            )
        for transfer in step.transfers:
            rows[transfer.dst_lane][transfer.seg] = cluster.recv(
                ranks[transfer.dst_lane], ranks[transfer.src_lane], tag=step.tag
            )
        cluster.end_step(tag=step.tag)

    def _collect(
        self,
        plan: SyncPlan,
        segs: dict[str, list[list[PackedBits]]],
        verify_consensus: bool,
    ) -> PackedBits:
        pieces: list[PackedBits] = []
        for out in plan.outputs:
            rows = segs[out.grid]
            final = PackedBits.concat(rows[0])
            if verify_consensus:
                for lane in range(1, len(rows)):
                    if not final.equals(PackedBits.concat(rows[lane])):
                        raise AssertionError(
                            f"consensus violated after {out.where}"
                        )
            pieces.append(final)
        if len(pieces) == 1:
            return pieces[0]
        return PackedBits.concat(pieces)


@dataclass(frozen=True)
class _LoweredPack:
    """A ``Pack`` step with its row selection and segment layout resolved."""

    grid: str
    rows: np.ndarray | None  # None: the lanes are the matrix rows in order
    start: int
    stop: int
    layout: SegmentLayout


@dataclass(frozen=True)
class _LoweredWave:
    """One merge wave as index arrays over its grid's ``(lane, seg)`` cells.

    ``lengths`` is shared by the received, local and transient operands
    (lowering checked that they agree), ``rng_ranks[i]`` is the rank whose
    stream row ``i`` draws from, and ``links[i]`` the ``(src rank, dst
    rank, bits)`` a flip mask for row ``i`` is keyed by.
    """

    src: np.ndarray
    dst: np.ndarray
    seg: np.ndarray
    lengths: np.ndarray
    merged_bits: int
    received_weights: int | np.ndarray
    local_weights: int | np.ndarray
    rng_ranks: tuple[int, ...]
    links: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class _LoweredHop:
    """A fused ``SendRecv`` + ``MergeSign`` pair."""

    grid: str
    tag: str
    merge: MergeSign
    exchange: tuple[tuple[int, int, int], ...]
    waves: tuple[_LoweredWave, ...]


@dataclass(frozen=True)
class _LoweredGather:
    """A ``Gather`` step as index arrays plus its exchange tuples."""

    grid: str
    tag: str
    src: np.ndarray
    dst: np.ndarray
    seg: np.ndarray
    moves_lengths: bool  # some destination cell changes its bit count
    exchange: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class LoweredPlan:
    """A one-bit plan with every per-round constant of the lane-stacked
    interpreter computed once.

    Lowering resolves each hop's index arrays, vote weights, drawing ranks
    and ``(src, dst, nbytes)`` exchange tuples, and each ``Pack``'s segment
    layout.  Segment lengths follow from the plan alone
    (:func:`~repro.sched.plan.plan_segment_lengths`), so lowering also
    checks, once, what the hop would otherwise check on every merge: the
    received and local copies of every merge have equal lengths, and every
    vote weight is ``>= 1``.  ``steps`` mirrors ``plan.steps`` with each
    ``SendRecv``/``MergeSign`` pair fused into one ``_LoweredHop``;
    ``Barrier``/``Restack``/``Unstack`` stay as they are.  ``outputs``
    holds, per plan output, the grid, its consensus label and the positions
    of lane 0's data bits in its unpacked ``(segments, width * 64)`` words.
    """

    plan: SyncPlan
    steps: tuple
    outputs: tuple[tuple[str, str, np.ndarray], ...]


def _merge_weights(values: list[int]) -> int | np.ndarray:
    """One int when every lane of a wave votes alike, else one per lane."""
    if min(values) < 1:
        raise ValueError("merge weights must be >= 1")
    if len(set(values)) == 1:
        return int(values[0])
    return np.array(values, dtype=np.int64)


def _index_arrays(
    cells: Sequence[tuple[int, int, int]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(src, dst, seg)`` triples -> three ``int64`` index arrays."""
    table = np.array(cells, dtype=np.int64).reshape(-1, 3)
    return table[:, 0].copy(), table[:, 1].copy(), table[:, 2].copy()


def _exchange(
    ranks: tuple[int, ...], lengths: np.ndarray, transfers
) -> tuple[tuple[int, int, int], ...]:
    return tuple(
        (
            ranks[t.src_lane],
            ranks[t.dst_lane],
            (int(lengths[t.src_lane, t.seg]) + 7) // 8,
        )
        for t in transfers
    )


def lower_plan(plan: SyncPlan) -> LoweredPlan:
    """Lower a one-bit plan for :class:`LaneStackedExecutor` (see
    :class:`LoweredPlan`); raises ``ValueError`` on a plan whose merges
    would fold copies of different lengths or carry a weight below 1."""
    from repro.allreduce.ring import SegmentLayout

    if plan.kind != "one_bit":
        raise ValueError(f"only one-bit plans are lowered, got {plan.kind!r}")
    specs = {spec.name: spec for spec in plan.grids}
    # Bit count of every (lane, seg) cell, tracked step by step, and the
    # word width each grid is built with.
    lengths: dict[str, np.ndarray] = {}
    widths: dict[str, int] = {}
    lowered: list = []
    steps = plan.steps
    pos = 0
    while pos < len(steps):
        step = steps[pos]
        if isinstance(step, Pack):
            spec = specs[step.grid]
            layout = SegmentLayout.build(
                step.stop - step.start, spec.num_segments
            )
            lanes = spec.lane_ranks
            identity = lanes == tuple(range(plan.num_workers))
            lengths[step.grid] = np.tile(layout.lengths, (len(lanes), 1))
            widths[step.grid] = layout.width
            lowered.append(
                _LoweredPack(
                    grid=step.grid,
                    rows=None if identity else np.array(lanes, dtype=np.int64),
                    start=step.start,
                    stop=step.stop,
                    layout=layout,
                )
            )
        elif isinstance(step, Restack):
            source = lengths[step.src_grid]
            lengths[step.grid] = np.array(
                [
                    plan_segment_lengths(
                        int(source[src_lane, src_seg]), step.parts
                    )
                    for src_lane, src_seg in step.sources
                ],
                dtype=np.int64,
            ).reshape(len(step.sources), step.parts)
            longest = int(lengths[step.grid].max(initial=0))
            widths[step.grid] = (longest + 63) // 64
            lowered.append(step)
        elif isinstance(step, Unstack):
            source = lengths[step.src_grid]
            target = lengths[step.grid]
            for lane, (dst_lane, dst_seg) in enumerate(step.targets):
                target[dst_lane, dst_seg] = source[lane].sum()
            lowered.append(step)
        elif isinstance(step, SendRecv):
            merge = steps[pos + 1]
            assert isinstance(merge, MergeSign)
            ranks = specs[step.grid].lane_ranks
            grid_lengths = lengths[step.grid]
            waves = []
            for wave in merge.waves:
                src, dst, seg = _index_arrays(
                    [(m.src_lane, m.dst_lane, m.seg) for m in wave]
                )
                wave_lengths = grid_lengths[dst, seg]
                if not np.array_equal(grid_lengths[src, seg], wave_lengths):
                    raise ValueError(
                        f"MergeSign at step {pos + 1} folds copies of "
                        "different lengths"
                    )
                waves.append(
                    _LoweredWave(
                        src=src,
                        dst=dst,
                        seg=seg,
                        lengths=wave_lengths,
                        merged_bits=int(wave_lengths.sum()),
                        received_weights=_merge_weights(
                            [m.received_weight for m in wave]
                        ),
                        local_weights=_merge_weights(
                            [m.local_weight for m in wave]
                        ),
                        rng_ranks=tuple(ranks[m.dst_lane] for m in wave),
                        links=tuple(
                            (
                                ranks[m.src_lane],
                                ranks[m.dst_lane],
                                int(grid_lengths[m.dst_lane, m.seg]),
                            )
                            for m in wave
                        ),
                    )
                )
            lowered.append(
                _LoweredHop(
                    grid=step.grid,
                    tag=step.tag,
                    merge=merge,
                    exchange=_exchange(ranks, grid_lengths, step.transfers),
                    waves=tuple(waves),
                )
            )
            pos += 2
            continue
        elif isinstance(step, Gather):
            ranks = specs[step.grid].lane_ranks
            grid_lengths = lengths[step.grid]
            exchange = _exchange(ranks, grid_lengths, step.transfers)
            src, dst, seg = _index_arrays(
                [(t.src_lane, t.dst_lane, t.seg) for t in step.transfers]
            )
            moved = grid_lengths[src, seg]
            moves_lengths = not np.array_equal(grid_lengths[dst, seg], moved)
            grid_lengths[dst, seg] = moved
            lowered.append(
                _LoweredGather(
                    grid=step.grid,
                    tag=step.tag,
                    src=src,
                    dst=dst,
                    seg=seg,
                    moves_lengths=moves_lengths,
                    exchange=exchange,
                )
            )
        elif isinstance(step, Barrier):
            lowered.append(step)
        else:
            raise TypeError(
                f"unexpected step {type(step).__name__} in a one-bit plan"
            )
        pos += 1
    outputs = []
    for out in plan.outputs:
        offsets = np.arange(widths[out.grid] * 64)
        data = offsets < lengths[out.grid][0][:, None]
        outputs.append((out.grid, out.where, np.flatnonzero(data)))
    return LoweredPlan(plan=plan, steps=tuple(lowered), outputs=tuple(outputs))


class LaneStackedExecutor(_PlanExecutor):
    """Lockstep interpreter: one batched numpy op per hop over all lanes.

    It runs a :class:`LoweredPlan`; :meth:`lower` builds one, and the caller
    keeps it beside the plan (``MarsitSynchronizer`` caches both), so each
    round only does numpy work.
    """

    name = "batched"

    def lower(self, plan: SyncPlan) -> LoweredPlan:
        return lower_plan(plan)

    def run_one_bit(
        self,
        plan: SyncPlan,
        cluster: Cluster,
        matrix: np.ndarray,
        rngs: Sequence[np.random.Generator],
        verify_consensus: bool = True,
        lowered: LoweredPlan | None = None,
    ) -> PackedBits:
        from repro.allreduce.ring import PackedLaneGrid

        if lowered is None:
            lowered = lower_plan(plan)
        elif lowered.plan is not plan:
            raise ValueError("lowered schedule belongs to another plan")
        grids: dict[str, PackedLaneGrid] = {}
        for step in lowered.steps:
            if isinstance(step, _LoweredHop):
                self._reduce_hop(cluster, grids[step.grid], step, rngs)
            elif isinstance(step, _LoweredGather):
                self._gather_hop(cluster, grids[step.grid], step)
            elif isinstance(step, Barrier):
                self._exec_barrier(cluster, step)
            elif isinstance(step, _LoweredPack):
                if step.rows is None:
                    # Identity lane order: basic slicing keeps this a view
                    # instead of a fancy-index copy of the whole matrix.
                    rows = matrix[:, step.start : step.stop]
                else:
                    rows = matrix[step.rows, step.start : step.stop]
                grids[step.grid] = PackedLaneGrid.from_sign_matrix(
                    rows, step.layout.num_segments, layout=step.layout
                )
            elif isinstance(step, Restack):
                source = grids[step.src_grid]
                grids[step.grid] = PackedLaneGrid.from_packed_rows(
                    [
                        source.row(src_lane, src_seg).split(step.parts)
                        for src_lane, src_seg in step.sources
                    ]
                )
            else:  # Unstack
                source = grids[step.src_grid]
                target = grids[step.grid]
                for lane, (dst_lane, dst_seg) in enumerate(step.targets):
                    target.set_row(
                        dst_lane,
                        dst_seg,
                        PackedBits.concat(source.segments_of(lane)),
                    )
        return self._collect(lowered, grids, verify_consensus)

    def _reduce_hop(
        self,
        cluster: Cluster,
        grid,
        hop: _LoweredHop,
        rngs: Sequence[np.random.Generator],
    ) -> None:
        """One fused hop: batched merges first, then the bulk exchange —
        the lockstep ordering (payload sizes were fixed at lowering)."""
        metrics = cluster.obs.metrics
        faults = cluster.faults
        flips = faults is not None and faults.flips_active
        words = grid.words
        for wave in hop.waves:
            # Fancy indexing copies, so the in-place flips below never
            # touch the grid's own storage.
            received = PackedBitsBatch._trusted(
                words[wave.src, wave.seg], wave.lengths
            )
            local = PackedBitsBatch._trusted(
                words[wave.dst, wave.seg], wave.lengths
            )
            if flips:
                # Same per-(tag, link) masks the scalar engine draws.
                for row, (src, dst, bits) in enumerate(wave.links):
                    mask = faults.flip_mask(hop.tag, src, dst, bits)
                    if mask is not None:
                        received.words[row, : mask.words.size] ^= mask.words
            transient = transient_vector_batch(
                local,
                wave.received_weights,
                wave.local_weights,
                [rngs[rank] for rank in wave.rng_ranks],
            )
            if metrics is not None:
                # Same statistic as the scalar path, batched over lanes.
                disagree = PackedBitsBatch._trusted(
                    received.words ^ local.words, wave.lengths
                )
                metrics.counter("marsit.transient_draws").inc(
                    int(disagree.popcounts().sum())
                )
                metrics.counter("marsit.merged_bits").inc(wave.merged_bits)
            merged = merge_sign_bits_batch(received, local, transient)
            words[wave.dst, wave.seg] = merged.words
        elapsed = cluster.exchange(hop.exchange, tag=hop.tag)
        self._charge_hop(cluster, hop.merge, elapsed)

    def _gather_hop(self, cluster: Cluster, grid, step: _LoweredGather) -> None:
        # Fancy indexing copies, so overlapping src/dst slots are safe.
        grid.words[step.dst, step.seg] = grid.words[step.src, step.seg]
        if step.moves_lengths:
            grid.lengths[step.dst, step.seg] = grid.lengths[step.src, step.seg]
        cluster.exchange(step.exchange, tag=step.tag)

    def _collect(
        self, lowered: LoweredPlan, grids: dict, verify_consensus: bool
    ) -> PackedBits:
        pieces: list[np.ndarray] = []
        for name, where, data in lowered.outputs:
            grid = grids[name]
            if verify_consensus and grid.num_lanes > 1:
                if (grid.lengths != grid.lengths[0]).any() or (
                    grid.words != grid.words[0]
                ).any():
                    raise AssertionError(f"consensus violated after {where}")
            # Lane 0's segments, concatenated: its data bits in order.
            raw = grid.words[0].reshape(-1).view(np.uint8)
            pieces.append(np.unpackbits(raw, bitorder="little")[data])
        if len(pieces) == 1:
            return PackedBits.from_bits(pieces[0])
        return PackedBits.from_bits(np.concatenate(pieces))
