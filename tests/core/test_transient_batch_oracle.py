"""The lean ``transient_vector_batch`` against its previous implementation.

The oracle below is the kernel as it stood before the single-``packbits``
rewrite: draw into a ``(lanes, max_len)`` buffer, pack each threshold mask
through ``PackedBitsBatch.from_bit_matrix`` (which masks columns past each
lane's length), and mux with ``invert()``.  The lean kernel must give the
same words, keep every padding bit zero, and leave every generator in the
same state, for ragged lanes (including empty ones), word widths wider than
the lanes need, and scalar or per-lane weights.
"""

import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.bits import PackedBitsBatch
from repro.core.sign_ops import transient_vector_batch


def oracle_transient_vector_batch(local_bits, received_weights, local_weights, rngs):
    lanes = local_bits.num_lanes
    if len(rngs) != lanes:
        raise ValueError("one generator per lane required")
    received = np.broadcast_to(
        np.asarray(received_weights, dtype=np.int64), (lanes,)
    )
    local_w = np.broadcast_to(np.asarray(local_weights, dtype=np.int64), (lanes,))
    if lanes and (received.min() < 1 or local_w.min() < 1):
        raise ValueError("weights must be >= 1")
    lengths = local_bits.lengths
    max_len = int(lengths.max()) if lengths.size else 0
    uniforms = np.empty((lanes, max_len))
    for lane in range(lanes):
        n = int(lengths[lane])
        if n:
            rngs[lane].random(out=uniforms[lane, :n])
    keep_local = (local_w / (received + local_w))[:, None]
    width = local_bits.width
    below_local = PackedBitsBatch.from_bit_matrix(
        uniforms < keep_local, lengths, width=width
    )
    below_other = PackedBitsBatch.from_bit_matrix(
        uniforms < 1.0 - keep_local, lengths, width=width
    )
    return (local_bits & below_local) | (local_bits.invert() & below_other)


@st.composite
def transient_cases(draw):
    lanes = draw(st.integers(1, 6))
    lengths = draw(
        st.lists(
            st.one_of(st.integers(0, 3), st.integers(0, 200)),
            min_size=lanes,
            max_size=lanes,
        )
    )
    needed = (max(lengths) + 63) // 64
    width = needed + draw(st.integers(0, 2))
    if draw(st.booleans()):
        received = draw(st.integers(1, 63))
        local = draw(st.integers(1, 63))
    else:
        weights = st.lists(st.integers(1, 63), min_size=lanes, max_size=lanes)
        received = np.array(draw(weights), dtype=np.int64)
        local = np.array(draw(weights), dtype=np.int64)
    seed = draw(st.integers(0, 2**32 - 1))
    return lengths, width, received, local, seed


@settings(max_examples=150, deadline=None)
@given(transient_cases())
def test_lean_kernel_matches_oracle_word_for_word(case):
    lengths, width, received, local_w, seed = case
    lanes = len(lengths)
    rng = np.random.default_rng(seed)
    bits = rng.random((lanes, max(lengths, default=0))) < 0.5
    local = PackedBitsBatch.from_bit_matrix(
        bits, lengths=np.array(lengths, dtype=np.int64), width=width
    )
    rngs = [np.random.default_rng([seed, lane]) for lane in range(lanes)]
    clones = copy.deepcopy(rngs)

    got = transient_vector_batch(local, received, local_w, rngs)
    expected = oracle_transient_vector_batch(local, received, local_w, clones)

    assert got.words.shape == expected.words.shape == (lanes, width)
    assert np.array_equal(got.words, expected.words)
    assert np.array_equal(got.lengths, expected.lengths)
    # Re-validating through the constructor rejects any set padding bit.
    PackedBitsBatch(words=got.words.copy(), lengths=got.lengths.copy())
    for used, reference in zip(rngs, clones):
        assert used.bit_generator.state == reference.bit_generator.state


def test_all_empty_lanes_draw_nothing():
    local = PackedBitsBatch.from_bit_matrix(
        np.zeros((3, 0), dtype=np.uint8), width=1
    )
    rngs = [np.random.default_rng(lane) for lane in range(3)]
    before = [rng.bit_generator.state for rng in rngs]
    out = transient_vector_batch(local, 2, 1, rngs)
    assert out.words.shape == (3, 1) and not out.words.any()
    assert [rng.bit_generator.state for rng in rngs] == before
