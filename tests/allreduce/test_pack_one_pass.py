"""``PackedLaneGrid.from_sign_matrix`` packs in one pass, exactly as the
per-segment packing it replaced.

The reference packs each ``np.array_split`` segment on its own with
``PackedBitsBatch.from_sign_matrix`` and copies it into a zero grid.  The
one-pass pack must give the same words and lengths for short and empty
segments (``D < segments``), an empty slice (a zero-size pack),
non-contiguous column slices, ``-0.0`` (bit 1) and NaN (bit 0).
"""

import numpy as np
import pytest

from repro.allreduce.ring import PackedLaneGrid, SegmentLayout
from repro.comm.bits import PackedBitsBatch


def per_segment_pack(matrix: np.ndarray, num_segments: int) -> PackedLaneGrid:
    lanes, dim = matrix.shape
    base, extra = divmod(dim, num_segments)
    seg_lengths = np.full(num_segments, base, dtype=np.int64)
    seg_lengths[:extra] += 1
    width = (int(seg_lengths.max()) + 63) // 64
    words = np.zeros((lanes, num_segments, width), dtype=np.dtype("<u8"))
    lengths = np.broadcast_to(seg_lengths, (lanes, num_segments)).copy()
    start = 0
    for seg, seg_len in enumerate(seg_lengths):
        if seg_len:
            batch = PackedBitsBatch.from_sign_matrix(
                matrix[:, start : start + seg_len]
            )
            words[:, seg, : batch.width] = batch.words
        start += seg_len
    return PackedLaneGrid(words=words, lengths=lengths)


def assert_same_grid(got: PackedLaneGrid, expected: PackedLaneGrid) -> None:
    assert got.words.shape == expected.words.shape
    assert got.words.dtype == expected.words.dtype
    assert np.array_equal(got.words, expected.words)
    assert np.array_equal(got.lengths, expected.lengths)


SEGMENTS = [1, 2, 3, 7, 8, 16]


@pytest.mark.parametrize("num_segments", SEGMENTS)
@pytest.mark.parametrize("dim_kind", ["1", "3", "M-1", "M", "M+1", "2410", "65537"])
def test_matches_per_segment_packing(num_segments, dim_kind):
    dim = {
        "1": 1,
        "3": 3,
        "M-1": num_segments - 1,
        "M": num_segments,
        "M+1": num_segments + 1,
        "2410": 2410,
        "65537": 65537,
    }[dim_kind]
    lanes = 3
    matrix = np.random.default_rng(dim * 31 + num_segments).standard_normal(
        (lanes, dim)
    )
    got = PackedLaneGrid.from_sign_matrix(matrix, num_segments)
    assert_same_grid(got, per_segment_pack(matrix, num_segments))


@pytest.mark.parametrize("num_segments", [1, 4, 16])
def test_empty_slice_is_a_zero_size_pack(num_segments):
    matrix = np.zeros((5, 10))[:, 4:4]
    got = PackedLaneGrid.from_sign_matrix(matrix, num_segments)
    assert got.words.shape == (5, num_segments, 0)
    assert_same_grid(got, per_segment_pack(matrix, num_segments))


def test_fewer_columns_than_segments_leaves_empty_segments():
    matrix = np.array([[1.0, -1.0, 2.0], [-3.0, 0.5, -0.5]])
    got = PackedLaneGrid.from_sign_matrix(matrix, 5)
    assert got.lengths.tolist() == [[1, 1, 1, 0, 0]] * 2
    assert not got.words[:, 3:].any()
    assert_same_grid(got, per_segment_pack(matrix, 5))


@pytest.mark.parametrize("num_segments", [1, 3, 8])
def test_non_contiguous_column_slices(num_segments):
    full = np.random.default_rng(3).standard_normal((6, 700))
    for matrix in (full[:, 13:611], full[::2, 5:405], full[:, ::3]):
        assert not matrix.flags.c_contiguous
        got = PackedLaneGrid.from_sign_matrix(matrix, num_segments)
        assert_same_grid(got, per_segment_pack(matrix, num_segments))


def test_negative_zero_packs_to_one_and_nan_to_zero():
    matrix = np.array([[-0.0, np.nan, 0.0, -1.0, np.inf, -np.inf, np.nan, -0.0]])
    got = PackedLaneGrid.from_sign_matrix(matrix, 2)
    bits = [got.row(0, seg).to_bits().tolist() for seg in range(2)]
    assert bits == [[1, 0, 1, 0], [1, 0, 0, 1]]
    assert_same_grid(got, per_segment_pack(matrix, 2))


def test_precomputed_layout_matches_and_is_checked():
    matrix = np.random.default_rng(4).standard_normal((4, 301))
    layout = SegmentLayout.build(301, 4)
    assert_same_grid(
        PackedLaneGrid.from_sign_matrix(matrix, 4, layout=layout),
        per_segment_pack(matrix, 4),
    )
    with pytest.raises(ValueError, match="layout"):
        PackedLaneGrid.from_sign_matrix(matrix[:, :300], 4, layout=layout)
    with pytest.raises(ValueError, match="layout"):
        PackedLaneGrid.from_sign_matrix(matrix, 5, layout=layout)


def test_rejects_bad_shapes():
    with pytest.raises(ValueError, match="2-D"):
        PackedLaneGrid.from_sign_matrix(np.zeros(4), 2)
    with pytest.raises(ValueError, match="num_segments"):
        PackedLaneGrid.from_sign_matrix(np.zeros((2, 4)), 0)
