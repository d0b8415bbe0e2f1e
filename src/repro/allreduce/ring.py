"""Ring all-reduce: the classical reduce-scatter + all-gather schedule.

The schedule is the Baidu/Horovod one (paper refs [4, 5]): with ``M`` workers
the vector is split into ``M`` segments; ``M - 1`` reduce steps each move one
segment per worker to its ring successor and fold it into the local copy, so
every worker ends owning one fully reduced segment; ``M - 1`` gather steps
then circulate the owned segments until everyone holds the full result.
Total traffic per worker: ``2 (M - 1) D / M`` elements — the
``2 (M - 1) x D`` weights of Section 3.1 summed over the ring.

``combine`` is pluggable, which is how Marsit's one-bit merge, the
sign-sum integer reduce (with bit-length expansion), and plain float addition
all share this schedule.
"""

from __future__ import annotations

import inspect
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.comm.bits import (
    PackedBits,
    PackedBitsBatch,
    elias_gamma_encode,
    signed_int_bit_width,
    zigzag_encode,
)
from repro.comm.cluster import Cluster, SizedPayload
from repro.comm.timing import Phase
from repro.sched.plan import (
    Barrier,
    CompileContext,
    Gather,
    GridSpec,
    Merge,
    MergeSign,
    Output,
    Pack,
    SendRecv,
    Step,
    SyncPlan,
    Transfer,
    plan_segment_lengths,
)

__all__ = [
    "PackedLaneGrid",
    "SegmentLayout",
    "SizedPayload",
    "compile_ring",
    "cycle_gather_steps",
    "cycle_reduce_steps",
    "lockstep_ring_all_gather",
    "lockstep_ring_reduce_scatter",
    "parallel_ring_all_gather",
    "parallel_ring_reduce_scatter",
    "ring_all_gather",
    "ring_allgather_scalars",
    "ring_allreduce_mean",
    "ring_allreduce_sum",
    "ring_reduce_scatter",
    "signsum_ring_allreduce",
    "split_segments",
]

_WORD_DTYPE = np.dtype("<u8")
_WORD_BITS = 64

Combine = Callable[[Any, Any, int], Any]
"""(received_payload, local_segment, step_index) -> new local segment.

A combine may instead accept four positional arguments
``(received, local, step, rank)``; the schedulers detect this via its
signature and pass the receiving worker's rank, which lets stateful
combiners (per-worker RNG streams, per-rank compensation) drop ad-hoc
call counters.
"""


#: ``inspect.signature`` costs microseconds per call, which adds up when a
#: schedule probes the same combine every all-reduce; the verdict is a pure
#: function of the callable, so memoize it without pinning the callable alive.
_ACCEPTS_RANK_CACHE: "weakref.WeakKeyDictionary[Any, bool]" = (
    weakref.WeakKeyDictionary()
)


def _accepts_rank(combine: Combine) -> bool:
    """True when ``combine`` takes a fourth positional ``rank`` argument."""
    try:
        cached = _ACCEPTS_RANK_CACHE.get(combine)
    except TypeError:  # unhashable / non-weakrefable callables: probe fresh
        cached = None
    if cached is not None:
        return cached
    try:
        parameters = inspect.signature(combine).parameters.values()
    except (TypeError, ValueError):
        return False
    positional = [
        p
        for p in parameters
        if p.kind
        in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD, p.VAR_POSITIONAL)
    ]
    verdict = (
        any(p.kind == p.VAR_POSITIONAL for p in positional)
        or len(positional) >= 4
    )
    try:
        _ACCEPTS_RANK_CACHE[combine] = verdict
    except TypeError:
        pass
    return verdict


def split_segments(
    vector: np.ndarray, num_segments: int, copy: bool = True
) -> list[np.ndarray]:
    """Split a 1-D vector into ``num_segments`` nearly equal segments.

    ``np.array_split`` semantics: the first ``len % num_segments`` segments
    get one extra element, and segments may be empty when
    ``len < num_segments`` (still correct, just zero-byte hops).

    ``copy=False`` returns views into ``vector`` — for callers that
    immediately repack or cast every segment (``PackedBits.from_signs``,
    wire-dtype ``astype``) the defensive copy is pure overhead.
    """
    vector = np.asarray(vector)
    if vector.ndim != 1:
        raise ValueError("split_segments expects a 1-D vector")
    parts = np.array_split(vector, num_segments)
    if not copy:
        return parts
    return [segment.copy() for segment in parts]


def _ring_ranks(cluster: Cluster, ranks: Sequence[int] | None) -> list[int]:
    if ranks is None:
        return list(range(cluster.num_workers))
    return list(ranks)


def parallel_ring_reduce_scatter(
    cluster: Cluster,
    cycles: Sequence[Sequence[int]],
    segments: Sequence[list[list[Any]]],
    combine: Combine,
    tag: str = "rs",
    on_step_end: Callable[[int, float], None] | None = None,
) -> list[list[int]]:
    """Reduce phase over several *disjoint* ring cycles in lockstep.

    All cycles advance one hop per synchronous step, so transfers on
    different rings overlap — e.g. every row of a torus reduce-scatters
    simultaneously, which is where TAR's latency advantage over a flat ring
    comes from.

    Args:
        cycles: ordered rank cycles; must be pairwise disjoint.
        segments: ``segments[c][p][i]`` — segment ``i`` held by the worker at
            position ``p`` of cycle ``c``; mutated in place.
        combine: folds a received payload into the local segment; the step
            index says how many contributions the payload carries (step+1).
            A four-argument combine additionally receives the receiving
            worker's rank.
        on_step_end: called after each synchronous step with
            ``(step, transfer_seconds)`` — the makespan the cluster charged
            for that step's transfers.  Marsit uses it to charge only the
            *excess* of overlapped per-hop work over the receive time.

    Returns:
        ``owned[c][p]``: fully reduced segment index per cycle position.
    """
    sizes = [len(cycle) for cycle in cycles]
    if len(set(sizes)) > 1:
        raise ValueError("all cycles must have equal length")
    if not cycles:
        return []
    size = sizes[0]
    for cycle, cycle_segments in zip(cycles, segments):
        if any(len(worker_segments) != size for worker_segments in cycle_segments):
            raise ValueError("each worker must hold exactly cycle-length segments")
    with_rank = _accepts_rank(combine)
    for step in range(size - 1):
        cluster.begin_step()
        for cycle_idx, cycle in enumerate(cycles):
            for pos in range(size):
                send_idx = (pos - step) % size
                cluster.send(
                    cycle[pos],
                    cycle[(pos + 1) % size],
                    segments[cycle_idx][pos][send_idx],
                    tag=f"{tag}:{step}",
                )
        for cycle_idx, cycle in enumerate(cycles):
            for pos in range(size):
                recv_idx = (pos - 1 - step) % size
                payload = cluster.recv(
                    cycle[pos], cycle[(pos - 1) % size], tag=f"{tag}:{step}"
                )
                local = segments[cycle_idx][pos][recv_idx]
                if with_rank:
                    merged = combine(payload, local, step, cycle[pos])
                else:
                    merged = combine(payload, local, step)
                segments[cycle_idx][pos][recv_idx] = merged
        elapsed = cluster.end_step(tag=f"{tag}:{step}")
        if on_step_end is not None:
            on_step_end(step, elapsed)
    return [[(pos + 1) % size for pos in range(size)] for _ in cycles]


def parallel_ring_all_gather(
    cluster: Cluster,
    cycles: Sequence[Sequence[int]],
    segments: Sequence[list[list[Any]]],
    tag: str = "ag",
) -> None:
    """Gather phase over several disjoint ring cycles in lockstep.

    Assumes the ownership layout of :func:`parallel_ring_reduce_scatter`
    (position ``p`` owns segment ``(p + 1) % size``); mutates in place.
    """
    if not cycles:
        return
    size = len(cycles[0])
    for step in range(size - 1):
        cluster.begin_step()
        for cycle_idx, cycle in enumerate(cycles):
            for pos in range(size):
                send_idx = (pos + 1 - step) % size
                cluster.send(
                    cycle[pos],
                    cycle[(pos + 1) % size],
                    segments[cycle_idx][pos][send_idx],
                    tag=f"{tag}:{step}",
                )
        for cycle_idx, cycle in enumerate(cycles):
            for pos in range(size):
                recv_idx = (pos - step) % size
                payload = cluster.recv(
                    cycle[pos], cycle[(pos - 1) % size], tag=f"{tag}:{step}"
                )
                segments[cycle_idx][pos][recv_idx] = payload
        cluster.end_step(tag=f"{tag}:{step}")


@dataclass(frozen=True)
class SegmentLayout:
    """Where :meth:`PackedLaneGrid.from_sign_matrix` reads each bit from.

    A pure function of ``(dimension, num_segments)``: ``lengths`` are the
    ``np.array_split`` segment lengths, ``width`` the words of the longest
    one, and ``index[s, j]`` the matrix column that becomes bit ``j`` of
    segment ``s`` — or ``dimension``, a zero column, for padding bits.
    """

    dimension: int
    lengths: np.ndarray
    width: int
    index: np.ndarray

    @property
    def num_segments(self) -> int:
        return self.lengths.size

    @classmethod
    def build(cls, dimension: int, num_segments: int) -> "SegmentLayout":
        if num_segments < 1:
            raise ValueError("num_segments must be >= 1")
        lengths = np.array(
            plan_segment_lengths(dimension, num_segments), dtype=np.int64
        )
        width = (int(lengths.max()) + _WORD_BITS - 1) // _WORD_BITS
        starts = np.cumsum(lengths) - lengths
        offsets = np.arange(width * _WORD_BITS, dtype=np.int64)
        index = np.where(
            offsets < lengths[:, None], starts[:, None] + offsets, dimension
        )
        return cls(dimension, lengths, width, index)


@dataclass
class PackedLaneGrid:
    """Mutable ``(lanes, segments, width)`` stack of packed bit segments.

    The lockstep engine's working set: lane ``l`` is one (cycle, position)
    pair of a parallel ring schedule, and ``words[l, s]`` holds segment ``s``
    of that lane's vector in :class:`~repro.comm.bits.PackedBits` word layout
    (zero-padded to the shared ``width``).  A synchronous step then gathers
    one ``(lanes, width)`` plane with a single fancy index, merges it with
    one batched expression, and scatters it back — no per-worker Python.

    ``lengths[l, s]`` is the logical bit count of each segment; padding words
    past a segment's data are zero, so any row prefix is a valid
    :class:`~repro.comm.bits.PackedBits` and :meth:`row` can return a
    zero-copy view.
    """

    words: np.ndarray
    lengths: np.ndarray

    def __post_init__(self) -> None:
        self.words = np.ascontiguousarray(self.words, dtype=_WORD_DTYPE)
        self.lengths = np.asarray(self.lengths, dtype=np.int64)
        if self.words.ndim != 3:
            raise ValueError("PackedLaneGrid words must be 3-D")
        if self.lengths.shape != self.words.shape[:2]:
            raise ValueError("lengths must be (lanes, segments)")

    @property
    def num_lanes(self) -> int:
        return self.words.shape[0]

    @property
    def num_segments(self) -> int:
        return self.words.shape[1]

    @property
    def width(self) -> int:
        return self.words.shape[2]

    @classmethod
    def from_sign_matrix(
        cls,
        matrix: np.ndarray,
        num_segments: int,
        layout: "SegmentLayout | None" = None,
    ) -> "PackedLaneGrid":
        """Pack a ``(lanes, D)`` sign matrix, split like :func:`split_segments`.

        One ``>= 0`` pass over the whole matrix and one ``np.packbits``
        through the layout's gather index (all lanes and segments at once);
        segment boundaries follow ``np.array_split`` semantics so the grid
        lines up bit-for-bit with the scalar path's per-worker segment
        lists.  ``>= 0`` maps ``-0.0`` to bit 1 and NaN to bit 0.
        ``layout`` is the precomputed :class:`SegmentLayout` for ``(D,
        num_segments)``; it is built on the spot when omitted.
        """
        matrix = np.asarray(matrix)
        if matrix.ndim != 2:
            raise ValueError("from_sign_matrix expects a 2-D matrix")
        lanes, dim = matrix.shape
        if layout is None:
            layout = SegmentLayout.build(dim, num_segments)
        elif (layout.dimension, layout.num_segments) != (dim, num_segments):
            raise ValueError(
                f"layout for ({layout.dimension}, {layout.num_segments}) "
                f"cannot pack ({dim}, {num_segments})"
            )
        # Column ``dim`` is the zero bit every padding slot gathers.
        signs = np.empty((lanes, dim + 1), dtype=np.bool_)
        np.greater_equal(matrix, 0, out=signs[:, :dim])
        signs[:, dim] = False
        packed = np.packbits(
            signs.take(layout.index, axis=1), axis=-1, bitorder="little"
        )
        if packed.size:
            words = packed.view(_WORD_DTYPE)
        else:  # a zero-size byte array cannot be viewed as words
            words = np.zeros((lanes, num_segments, layout.width), _WORD_DTYPE)
        lengths = np.broadcast_to(layout.lengths, (lanes, num_segments)).copy()
        return cls(words=words, lengths=lengths)

    @classmethod
    def from_packed_rows(
        cls, rows: Sequence[Sequence[PackedBits]]
    ) -> "PackedLaneGrid":
        """Stack per-lane :class:`PackedBits` segment lists into one grid."""
        lanes = len(rows)
        if not lanes:
            raise ValueError("at least one lane required")
        segs = len(rows[0])
        if any(len(row) != segs for row in rows):
            raise ValueError("every lane must hold the same segment count")
        lengths = np.array(
            [[part.length for part in row] for row in rows], dtype=np.int64
        )
        width = (
            int(lengths.max()) + _WORD_BITS - 1
        ) // _WORD_BITS if lengths.size else 0
        words = np.zeros((lanes, segs, width), dtype=_WORD_DTYPE)
        for lane, row in enumerate(rows):
            for seg, part in enumerate(row):
                if not isinstance(part, PackedBits):
                    raise TypeError(f"expected PackedBits, got {type(part)!r}")
                words[lane, seg, : part.words.size] = part.words
        return cls(words=words, lengths=lengths)

    def row(self, lane: int, seg: int) -> PackedBits:
        """Segment ``(lane, seg)`` as a zero-copy :class:`PackedBits` view."""
        length = int(self.lengths[lane, seg])
        num_words = (length + _WORD_BITS - 1) // _WORD_BITS
        return PackedBits(words=self.words[lane, seg, :num_words], length=length)

    def segments_of(self, lane: int) -> list[PackedBits]:
        """All of one lane's segments, in order, as zero-copy views."""
        return [self.row(lane, seg) for seg in range(self.num_segments)]

    def set_row(self, lane: int, seg: int, packed: PackedBits) -> None:
        """Replace segment ``(lane, seg)``, re-zeroing the padding words."""
        if packed.words.size > self.width:
            raise ValueError(
                f"segment of {packed.length} bits exceeds grid width"
            )
        self.words[lane, seg, : packed.words.size] = packed.words
        self.words[lane, seg, packed.words.size :] = 0
        self.lengths[lane, seg] = packed.length


#: Lockstep combine: (received_batch, local_batch, step, receiving_ranks)
#: -> merged batch.  One call merges every lane of a synchronous step.
BatchCombine = Callable[
    [PackedBitsBatch, PackedBitsBatch, int, Sequence[int]], PackedBitsBatch
]


def _lockstep_lanes(
    cycles: Sequence[Sequence[int]], grid: PackedLaneGrid
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """Shared lane bookkeeping for the lockstep schedules.

    Lane order is cycle-major: lane ``c * size + p`` is position ``p`` of
    cycle ``c`` — the same flattening :meth:`PackedLaneGrid.from_sign_matrix`
    assumes when the caller stacks vectors rank-by-rank.
    """
    sizes = {len(cycle) for cycle in cycles}
    if len(sizes) > 1:
        raise ValueError("all cycles must have equal length")
    size = next(iter(sizes))
    num_cycles = len(cycles)
    lanes = num_cycles * size
    if grid.num_lanes != lanes or grid.num_segments != size:
        raise ValueError(
            f"grid of {grid.num_lanes}x{grid.num_segments} does not match "
            f"{num_cycles} cycles of length {size}"
        )
    pos = np.tile(np.arange(size), num_cycles)
    base = np.repeat(np.arange(num_cycles) * size, size)
    src_lane = base + (pos - 1) % size
    ranks = [rank for cycle in cycles for rank in cycle]
    return size, pos, src_lane, np.arange(lanes), ranks


def lockstep_ring_reduce_scatter(
    cluster: Cluster,
    cycles: Sequence[Sequence[int]],
    grid: PackedLaneGrid,
    combine: BatchCombine,
    tag: str = "rs",
    on_step_end: Callable[[int, float], None] | None = None,
) -> list[list[int]]:
    """Batched :func:`parallel_ring_reduce_scatter` over a packed lane grid.

    Same schedule, same ownership result, same traffic accounting — but each
    synchronous step is one fancy-index gather, one ``combine`` over a
    :class:`~repro.comm.bits.PackedBitsBatch`, one scatter, and one bulk
    :meth:`~repro.comm.cluster.Cluster.exchange`, independent of worker
    count.  ``combine`` receives the receiving ranks in lane order so
    stateful combiners (per-rank RNG streams) stay bit-identical to the
    scalar path.
    """
    if not cycles:
        return []
    size, pos, src_lane, lane_idx, ranks = _lockstep_lanes(cycles, grid)
    rank_arr = np.asarray(ranks)
    src_rank = rank_arr[src_lane]
    for step in range(size - 1):
        seg = (pos - 1 - step) % size
        received = PackedBitsBatch._trusted(
            grid.words[src_lane, seg], grid.lengths[src_lane, seg]
        )
        local = PackedBitsBatch._trusted(
            grid.words[lane_idx, seg], grid.lengths[lane_idx, seg]
        )
        merged = combine(received, local, step, ranks)
        grid.words[lane_idx, seg] = merged.words
        grid.lengths[lane_idx, seg] = merged.lengths
        nbytes = (received.lengths + 7) // 8
        elapsed = cluster.exchange(
            [
                (int(src_rank[i]), int(rank_arr[i]), int(nbytes[i]))
                for i in range(lane_idx.size)
            ],
            tag=f"{tag}:{step}",
        )
        if on_step_end is not None:
            on_step_end(step, elapsed)
    return [[(p + 1) % size for p in range(size)] for _ in cycles]


def lockstep_ring_all_gather(
    cluster: Cluster,
    cycles: Sequence[Sequence[int]],
    grid: PackedLaneGrid,
    tag: str = "ag",
) -> None:
    """Batched :func:`parallel_ring_all_gather` over a packed lane grid.

    Assumes the ownership layout of :func:`lockstep_ring_reduce_scatter`
    (position ``p`` owns segment ``(p + 1) % size``); mutates the grid in
    place, circulating whole word rows with fancy-index copies.
    """
    if not cycles:
        return
    size, pos, src_lane, lane_idx, ranks = _lockstep_lanes(cycles, grid)
    rank_arr = np.asarray(ranks)
    src_rank = rank_arr[src_lane]
    for step in range(size - 1):
        seg = (pos - step) % size
        moved_words = grid.words[src_lane, seg]
        moved_lengths = grid.lengths[src_lane, seg]
        grid.words[lane_idx, seg] = moved_words
        grid.lengths[lane_idx, seg] = moved_lengths
        nbytes = (moved_lengths + 7) // 8
        cluster.exchange(
            [
                (int(src_rank[i]), int(rank_arr[i]), int(nbytes[i]))
                for i in range(lane_idx.size)
            ],
            tag=f"{tag}:{step}",
        )


def cycle_reduce_steps(
    grid: str,
    num_cycles: int,
    size: int,
    base_weight: int,
    segment_elems: int,
    tag: str,
) -> list[Step]:
    """Compile the reduce-scatter phase of disjoint lockstep ring cycles.

    The SyncPlan mirror of :func:`parallel_ring_reduce_scatter` under the
    Marsit ``⊙`` combine: ``size - 1`` fused SendRecv/MergeSign hops, each a
    single wave in cycle-major lane order (lane ``c * size + p``), preceded
    by the phase barrier that pre-charges the first segment's sign pack.
    Position ``p`` merges segment ``(p - 1 - step) % size`` from its ring
    predecessor with weights ``(step + 1) * base_weight : base_weight``.
    """
    steps: list[Step] = [
        Barrier(
            kind="begin",
            span="reduce-scatter",
            tag=tag,
            compress_elems=segment_elems,
        )
    ]
    for step_idx in range(size - 1):
        transfers = []
        merges = []
        for cycle in range(num_cycles):
            base = cycle * size
            for pos in range(size):
                seg = (pos - 1 - step_idx) % size
                transfers.append(
                    Transfer(
                        src_lane=base + (pos - 1) % size,
                        dst_lane=base + pos,
                        seg=seg,
                    )
                )
                merges.append(
                    Merge(
                        dst_lane=base + pos,
                        src_lane=base + (pos - 1) % size,
                        seg=seg,
                        received_weight=(step_idx + 1) * base_weight,
                        local_weight=base_weight,
                    )
                )
        steps.append(
            SendRecv(grid=grid, tag=f"{tag}:{step_idx}", transfers=tuple(transfers))
        )
        steps.append(
            MergeSign(
                grid=grid,
                waves=(tuple(merges),),
                compress_elems=segment_elems,
                rng_elems=segment_elems,
                bitop_elems=segment_elems,
            )
        )
    steps.append(Barrier(kind="end", span="reduce-scatter"))
    return steps


def cycle_gather_steps(
    grid: str, num_cycles: int, size: int, tag: str
) -> list[Step]:
    """Compile the all-gather phase of disjoint lockstep ring cycles.

    Mirrors :func:`parallel_ring_all_gather`'s ownership walk: at step ``s``
    position ``p`` receives segment ``(p - s) % size`` from its predecessor.
    """
    steps: list[Step] = [Barrier(kind="begin", span="all-gather", tag=tag)]
    for step_idx in range(size - 1):
        transfers = []
        for cycle in range(num_cycles):
            base = cycle * size
            for pos in range(size):
                transfers.append(
                    Transfer(
                        src_lane=base + (pos - 1) % size,
                        dst_lane=base + pos,
                        seg=(pos - step_idx) % size,
                    )
                )
        steps.append(
            Gather(grid=grid, tag=f"{tag}:{step_idx}", transfers=tuple(transfers))
        )
    steps.append(Barrier(kind="end", span="all-gather"))
    return steps


def compile_ring(context: CompileContext) -> SyncPlan:
    """Compile the one-bit RAR round (Figure 2's R and G periods).

    With ``segment_elems`` set, delegates to the segmented-ring compiler
    (paper ref [25]) — one independent ring pass per fixed-size chunk.
    """
    if context.segment_elems is not None:
        from repro.allreduce.segmented import compile_segmented_ring

        return compile_segmented_ring(context)
    size = context.num_workers
    dimension = context.dimension
    seg_elems = max(plan_segment_lengths(dimension, size), default=0)
    steps: list[Step] = [Pack(grid="ring", start=0, stop=dimension)]
    steps += cycle_reduce_steps("ring", 1, size, 1, seg_elems, "m-rs")
    steps += cycle_gather_steps("ring", 1, size, "m-ag")
    return SyncPlan(
        kind="one_bit",
        topology="ring",
        num_workers=size,
        dimension=dimension,
        grids=(
            GridSpec(
                name="ring", lane_ranks=tuple(range(size)), num_segments=size
            ),
        ),
        steps=tuple(steps),
        outputs=(Output(grid="ring", where="gather phase"),),
    )


def ring_allgather_scalars(cluster: Cluster, values: list[float]) -> np.ndarray:
    """All-gather one scalar per worker around the ring (``M - 1`` steps)."""
    num = cluster.num_workers
    if len(values) != num:
        raise ValueError(f"expected {num} scalars, got {len(values)}")
    if num == 1:
        return np.array(values, dtype=np.float64)
    known = [{rank: np.float64(values[rank])} for rank in range(num)]
    for step in range(num - 1):
        cluster.begin_step()
        for rank in range(num):
            origin = (rank - step) % num
            cluster.send(
                rank, (rank + 1) % num, float(known[rank][origin]), tag="scal"
            )
        for rank in range(num):
            origin = (rank - 1 - step) % num
            known[rank][origin] = cluster.recv(
                rank, (rank - 1) % num, tag="scal"
            )
        cluster.end_step()
    return np.array([known[0][rank] for rank in range(num)])


def ring_reduce_scatter(
    cluster: Cluster,
    segments: list[list[Any]],
    combine: Combine,
    ranks: Sequence[int] | None = None,
    tag: str = "rs",
) -> list[int]:
    """Run the reduce phase over one ring of ``ranks``.

    Args:
        cluster: the simulated cluster (sends must follow topology edges).
        segments: ``segments[p][i]`` is the ``i``-th segment held by the
            worker at ring position ``p``; mutated in place.
        combine: folds a received payload into the local segment.  The step
            index tells stateful combiners how many contributions the
            received segment already carries (``step + 1``).
        ranks: the ordered ring cycle; defaults to all workers ``0..M-1``.

    Returns:
        ``owned[p]``: the segment index fully reduced at ring position ``p``.
    """
    cycle = _ring_ranks(cluster, ranks)
    return parallel_ring_reduce_scatter(
        cluster, [cycle], [segments], combine, tag=tag
    )[0]


def ring_all_gather(
    cluster: Cluster,
    segments: list[list[Any]],
    ranks: Sequence[int] | None = None,
    tag: str = "ag",
) -> None:
    """Run the gather phase: circulate owned segments until all are shared.

    Assumes the ownership layout produced by :func:`ring_reduce_scatter`
    (position ``p`` owns segment ``(p + 1) % size``); mutates ``segments``.
    """
    cycle = _ring_ranks(cluster, ranks)
    parallel_ring_all_gather(cluster, [cycle], [segments], tag=tag)


def _add_combine(received: Any, local: np.ndarray, step: int) -> np.ndarray:
    return np.asarray(received, dtype=local.dtype) + local


def ring_allreduce_sum(
    cluster: Cluster,
    vectors: list[np.ndarray],
    ranks: Sequence[int] | None = None,
    wire_dtype: np.dtype = np.dtype(np.float32),
) -> list[np.ndarray]:
    """Full-precision ring all-reduce; returns the per-worker sums.

    Floats travel as ``wire_dtype`` (FP32 by default, matching the paper's
    non-compressed baseline) but accumulate in float64 locally.
    """
    cycle = _ring_ranks(cluster, ranks)
    size = len(cycle)
    if len(vectors) != size:
        raise ValueError("one vector per ring position required")
    if size == 1:
        return [np.asarray(vectors[0], dtype=np.float64).copy()]

    def to_wire(segment: np.ndarray) -> np.ndarray:
        return np.asarray(segment, dtype=wire_dtype)

    segments = [
        [to_wire(seg) for seg in split_segments(vector, size, copy=False)]
        for vector in vectors
    ]
    ring_reduce_scatter(cluster, segments, _add_combine, ranks=cycle)
    ring_all_gather(cluster, segments, ranks=cycle)
    return [
        np.concatenate([np.asarray(seg, dtype=np.float64) for seg in worker])
        for worker in segments
    ]


def ring_allreduce_mean(
    cluster: Cluster,
    vectors: list[np.ndarray],
    ranks: Sequence[int] | None = None,
    wire_dtype: np.dtype = np.dtype(np.float32),
) -> list[np.ndarray]:
    """Ring all-reduce returning per-worker means."""
    sums = ring_allreduce_sum(cluster, vectors, ranks=ranks, wire_dtype=wire_dtype)
    scale = 1.0 / len(sums)
    return [total * scale for total in sums]


def signsum_ring_allreduce(
    cluster: Cluster,
    sign_vectors: list[np.ndarray],
    ranks: Sequence[int] | None = None,
    charge_compression: bool = True,
    elias_coded: bool = False,
) -> list[np.ndarray]:
    """Ring all-reduce of integer sign sums with bit-length expansion.

    This is the linear SSDM-under-MAR baseline of Section 3.1: workers
    all-reduce the coordinate-wise *sum of signs*.  A partial sum over ``m``
    workers lies in ``[-m, +m]`` and is charged
    ``ceil(log2(m + 1)) + 1`` bits per element on the wire
    (:func:`signed_int_bit_width`), so the message grows every hop up to
    ``~log2(M)`` bits — never back down to one bit.

    Args:
        sign_vectors: per-worker ``{-1, +1}`` vectors.
        charge_compression: charge sign-extraction time to the timeline.
        elias_coded: charge each hop at the exact Elias-gamma entropy code
            of the zigzagged partial sums (the Section 5 "Elias coding to
            compact the transmission message" baseline) instead of the fixed
            expanded width.  Shorter on average (small sums dominate) but
            still strictly more than one bit per element.

    Returns:
        Per-worker integer sum vectors (all equal).
    """
    cycle = _ring_ranks(cluster, ranks)
    size = len(cycle)
    if len(sign_vectors) != size:
        raise ValueError("one sign vector per ring position required")
    for vector in sign_vectors:
        array = np.asarray(vector)
        if array.size and not ((array == -1) | (array == 1)).all():
            raise ValueError("sign vectors must be over {-1, +1}")
    if charge_compression:
        total_elements = sum(int(np.asarray(v).size) for v in sign_vectors)
        cluster.charge(
            Phase.COMPRESSION, cluster.cost_model.compress_time(total_elements)
        )
    if size == 1:
        return [np.asarray(sign_vectors[0], dtype=np.int64).copy()]

    def wrap(segment: np.ndarray, contributors: int) -> SizedPayload:
        segment = np.asarray(segment, dtype=np.int64)
        if elias_coded and segment.size:
            # A sum of m iid signs lives on {-m, -m+2, ..., m} with a
            # binomial peak at 0; re-index by half-steps from the mode so
            # the common values get the short gamma codes.
            half_steps = (segment + contributors) // 2 - contributors // 2
            _, coded_bits = elias_gamma_encode(zigzag_encode(half_steps))
            nbytes = (coded_bits + 7) // 8
        else:
            bits = signed_int_bit_width(contributors)
            nbytes = (bits * int(segment.size) + 7) // 8
        return SizedPayload(value=segment, nbytes=nbytes)

    segments: list[list[Any]] = [
        [
            wrap(seg, 1)
            for seg in split_segments(
                np.asarray(vec, dtype=np.int64), size, copy=False
            )
        ]
        for vec in sign_vectors
    ]

    def combine(received: SizedPayload, local: SizedPayload, step: int) -> SizedPayload:
        merged = received.value + local.value
        return wrap(merged, step + 2)

    ring_reduce_scatter(cluster, segments, combine, ranks=cycle)
    ring_all_gather(cluster, segments, ranks=cycle)
    return [
        np.concatenate([seg.value for seg in worker_segments])
        for worker_segments in segments
    ]
