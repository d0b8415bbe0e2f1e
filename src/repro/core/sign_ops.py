"""The Marsit bit-wise merge operator (paper Eq. 2 and Section 4.1.1).

Sign vectors are bit vectors with the convention ``1 == +1``, ``0 == -1``.
When a worker that has already folded in ``a`` workers' signs (the received
vector ``v``) meets a local vector ``v*`` representing ``b`` workers, the
merged bit is

    ``v ⊙ v* = (v AND v*) OR ((v XOR v*) AND r)``

with the transient vector ``r`` drawn *before* ``v`` arrives (it depends only
on ``v*``), which is what lets compression overlap reception:

    ``P(r_j = 1) = b / (a + b)``  where ``v*_j = 1``
    ``P(r_j = 1) = a / (a + b)``  where ``v*_j = 0``

Eq. (2) is the special case ``a = m - 1, b = 1``.  Induction over hops gives
the exact invariant tested in this package:

    ``P(merged_j = 1) = (a p_j + b q_j) / (a + b)``

where ``p_j``/``q_j`` are the +1 fractions represented by ``v``/``v*`` —
i.e. the final bit is an unbiased one-bit sample of the *mean sign* across
all contributing workers, with no decompression anywhere.

The packed fast path (:func:`transient_vector_packed`,
:func:`merge_sign_bits_packed`) runs the same algebra 64 elements per
``uint64`` word on :class:`~repro.comm.bits.PackedBits` operands, consuming
the identical RNG stream so packed and unpacked hops are bit-for-bit equal
under a shared seed.

The lane-stacked batch path (:func:`transient_vector_batch`,
:func:`merge_sign_bits_batch`) widens that once more: a whole synchronous
step's merges — one lane per (cycle, position) pair — execute as single
numpy expressions over a :class:`~repro.comm.bits.PackedBitsBatch`, again
consuming per-rank RNG streams identical to the scalar path, so all three
tiers are bit-for-bit interchangeable.

Padding contract of the batch kernels: every bit past a lane's length is
zero in every operand and in every result.  :func:`transient_vector_batch`
keeps it without any masking pass.  Its uniforms buffer is exactly
``width * 64`` columns wide, and the unused columns hold ``1.0``.  That
value is never below either threshold, because ``b/(a+b)`` and ``a/(a+b)``
are both < 1 when ``a, b >= 1`` (and the comparison is strict).  So both
threshold masks are zero there, ``local & below_local`` is zero, and the
all-ones padding of ``~local`` meets a zero ``below_other``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.comm.bits import PackedBits, PackedBitsBatch

__all__ = [
    "expected_merge_probability",
    "merge_sign_bits",
    "merge_sign_bits_batch",
    "merge_sign_bits_packed",
    "transient_vector",
    "transient_vector_batch",
    "transient_vector_packed",
]


def _validate_bits(bits: np.ndarray, name: str) -> np.ndarray:
    array = np.asarray(bits)
    if array.ndim != 1:
        raise ValueError(f"{name} must be 1-D")
    if (
        array.size
        and array.dtype not in (np.uint8, np.bool_)
        and not bool(((array == 0) | (array == 1)).all())
    ):
        raise ValueError(f"{name} must contain only 0/1 values")
    return array.astype(np.uint8)


def transient_vector(
    local_bits: np.ndarray,
    received_weight: int,
    local_weight: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw the transient vector ``r`` of Eq. (2), generalized to weights.

    Args:
        local_bits: the local sign bits ``v*`` (0/1).
        received_weight: ``a`` — workers already folded into the incoming
            vector.  Eq. (2) uses ``a = m - 1``.
        local_weight: ``b`` — workers represented by ``local_bits``
            (1 in RAR's reduce phase; a whole row's worth in TAR's column
            phase).
        rng: source of randomness; the draw happens *before* reception.

    Returns:
        A 0/1 ``uint8`` vector: where ``v*_j = 1``, ``P(r_j = 1) = b/(a+b)``;
        where ``v*_j = 0``, ``P(r_j = 1) = a/(a+b)``.
    """
    local = _validate_bits(local_bits, "local_bits")
    if received_weight < 1 or local_weight < 1:
        raise ValueError("weights must be >= 1")
    total = received_weight + local_weight
    keep_local = local_weight / total
    uniforms = rng.random(local.size)
    probs = np.where(local == 1, keep_local, 1.0 - keep_local)
    return (uniforms < probs).astype(np.uint8)


def merge_sign_bits(
    received_bits: np.ndarray,
    local_bits: np.ndarray,
    transient: np.ndarray,
) -> np.ndarray:
    """Apply ``v ⊙ v* = (v AND v*) OR ((v XOR v*) AND r)`` bit-wise.

    Pure bit logic — no decompression, no floats; agreement keeps the common
    bit, disagreement resolves to the pre-drawn transient bit.
    """
    received = _validate_bits(received_bits, "received_bits")
    local = _validate_bits(local_bits, "local_bits")
    trans = _validate_bits(transient, "transient")
    if not received.size == local.size == trans.size:
        raise ValueError("all bit vectors must share one length")
    return (received & local) | ((received ^ local) & trans)


def transient_vector_packed(
    local_bits: PackedBits,
    received_weight: int,
    local_weight: int,
    rng: np.random.Generator,
) -> PackedBits:
    """Packed-word :func:`transient_vector`: same draw, 64 bits per op.

    Consumes the identical RNG stream — one ``rng.random(length)`` batch —
    so the result is bit-for-bit equal to the unpacked reference under a
    shared seed.  The per-element select ``probs = where(v*, b/(a+b),
    a/(a+b))`` becomes two packed threshold masks muxed by the local word:
    ``r = (v* & [u < b/(a+b)]) | (~v* & [u < a/(a+b)])``.  The draw still
    depends only on ``v*``, preserving the overlap-with-reception property.
    """
    if received_weight < 1 or local_weight < 1:
        raise ValueError("weights must be >= 1")
    keep_local = local_weight / (received_weight + local_weight)
    uniforms = rng.random(len(local_bits))
    below_local = PackedBits.from_bits(uniforms < keep_local)
    below_other = PackedBits.from_bits(uniforms < 1.0 - keep_local)
    return (local_bits & below_local) | (local_bits.invert() & below_other)


def merge_sign_bits_packed(
    received_bits: PackedBits,
    local_bits: PackedBits,
    transient: PackedBits,
) -> PackedBits:
    """``v ⊙ v* = (v AND v*) OR ((v XOR v*) AND r)`` on ``uint64`` words."""
    if not len(received_bits) == len(local_bits) == len(transient):
        raise ValueError("all bit vectors must share one length")
    return (received_bits & local_bits) | (
        (received_bits ^ local_bits) & transient
    )


def transient_vector_batch(
    local_bits: PackedBitsBatch,
    received_weights: int | np.ndarray,
    local_weights: int | np.ndarray,
    rngs: Sequence[np.random.Generator],
) -> PackedBitsBatch:
    """Lane-stacked :func:`transient_vector_packed`: one draw call per lane,
    one vectorized threshold-and-pack for the whole synchronous step.

    ``rngs[i]`` is lane ``i``'s generator (the receiving rank's stream); each
    lane draws exactly ``lengths[i]`` uniforms into one shared matrix, so the
    per-rank streams are *identical* to the scalar path's
    ``rng.random(length)`` calls and batched and scalar engines stay
    bit-for-bit interchangeable under a shared seed.  Weights may be scalars
    (every lane at the same hop, the ring schedules) or per-lane arrays (the
    tree reduce, where subtree sizes differ).

    The uniforms matrix is exactly ``width * 64`` columns wide, and the
    columns past each lane's length hold ``1.0`` (see the module docstring),
    so both threshold masks come out of one ``np.packbits`` already in word
    layout with zero padding.
    """
    lanes = local_bits.num_lanes
    if len(rngs) != lanes:
        raise ValueError("one generator per lane required")
    if type(received_weights) is int and type(local_weights) is int:
        # Python ints divide exactly like the int64 arrays below.
        if lanes and (received_weights < 1 or local_weights < 1):
            raise ValueError("weights must be >= 1")
        keep_local = local_weights / (received_weights + local_weights)
    else:
        received = np.asarray(received_weights, dtype=np.int64)
        local_w = np.asarray(local_weights, dtype=np.int64)
        if lanes and (received.min() < 1 or local_w.min() < 1):
            raise ValueError("weights must be >= 1")
        keep_local = local_w / (received + local_w)
        if keep_local.ndim:
            if keep_local.shape != (lanes,):
                raise ValueError("weights must be scalars or one per lane")
            keep_local = keep_local[:, None]
    lengths = local_bits.lengths
    width = local_bits.width
    if not lanes or not width:
        return PackedBitsBatch._trusted(
            np.zeros((lanes, width), dtype=local_bits.words.dtype), lengths
        )
    sizes = lengths.tolist()
    columns = width * 64
    uniforms = np.empty((lanes, columns))
    # Padding first (from the shortest lane on), then each lane's draw
    # overwrites its own prefix.
    uniforms[:, min(sizes) :] = 1.0
    for lane, n in enumerate(sizes):
        if n:
            rngs[lane].random(out=uniforms[lane, :n])
    below = np.empty((2, lanes, columns), dtype=np.bool_)
    np.less(uniforms, keep_local, out=below[0])
    np.less(uniforms, 1.0 - keep_local, out=below[1])
    below_local, below_other = np.packbits(
        below, axis=-1, bitorder="little"
    ).view(local_bits.words.dtype)
    local = local_bits.words
    return PackedBitsBatch._trusted(
        (local & below_local) | (~local & below_other), lengths
    )


def merge_sign_bits_batch(
    received_bits: PackedBitsBatch,
    local_bits: PackedBitsBatch,
    transient: PackedBitsBatch,
) -> PackedBitsBatch:
    """``v ⊙ v* = (v AND v*) OR ((v XOR v*) AND r)`` over a whole lane stack.

    One batched word-matrix expression merges every (cycle, position) lane of
    a synchronous step at once — the lockstep engine's per-step workhorse.
    The three operands must share one word shape and one lengths vector; the
    lane-stacked executor passes the same lengths array to all three, so the
    length check is an identity test on its hot path.
    """
    received = received_bits.words
    local = local_bits.words
    trans = transient.words
    lengths = local_bits.lengths
    if not received.shape == local.shape == trans.shape:
        raise ValueError("batch shape/length mismatch")
    if not (received_bits.lengths is lengths is transient.lengths) and not (
        np.array_equal(received_bits.lengths, lengths)
        and np.array_equal(transient.lengths, lengths)
    ):
        raise ValueError("batch shape/length mismatch")
    return PackedBitsBatch._trusted(
        (received & local) | ((received ^ local) & trans), lengths
    )


def expected_merge_probability(
    received_prob: np.ndarray | float,
    local_prob: np.ndarray | float,
    received_weight: int,
    local_weight: int,
) -> np.ndarray:
    """The invariant the merge preserves: the weighted mean +1 probability.

    Used by tests and the theory module to check unbiasedness:
    ``E[merged] = (a p + b q) / (a + b)``.
    """
    total = received_weight + local_weight
    return (
        received_weight * np.asarray(received_prob, dtype=np.float64)
        + local_weight * np.asarray(local_prob, dtype=np.float64)
    ) / total
