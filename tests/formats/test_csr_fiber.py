"""Tests for the CSR-derived fiber-tree compression."""

import numpy as np
import pytest

from repro.formats.convert import compress_ifmap, compress_vector
from repro.formats.csr_fiber import (
    CompressedIfmap,
    CompressedIfmapBuilder,
    CompressedVector,
    index_dtype,
)
from repro.types import TensorShape


class TestIndexDtype:
    def test_supported_widths(self):
        assert index_dtype(1) == np.uint8
        assert index_dtype(2) == np.uint16
        assert index_dtype(4) == np.uint32

    def test_unsupported_width(self):
        with pytest.raises(ValueError):
            index_dtype(3)


class TestCompressedIfmap:
    def test_nnz_and_firing_rate(self, rng):
        dense = rng.random((4, 4, 8)) < 0.25
        compressed = compress_ifmap(dense)
        assert compressed.nnz == int(np.count_nonzero(dense))
        assert compressed.firing_rate == pytest.approx(np.count_nonzero(dense) / dense.size)

    def test_spatial_slice_matches_dense(self, rng):
        dense = rng.random((5, 6, 10)) < 0.4
        compressed = compress_ifmap(dense)
        for row in range(5):
            for col in range(6):
                expected = np.nonzero(dense[row, col])[0]
                assert np.array_equal(compressed.spatial_slice(row, col), expected)

    def test_spike_counts_shape_and_sum(self, rng):
        dense = rng.random((3, 7, 4)) < 0.5
        compressed = compress_ifmap(dense)
        counts = compressed.spike_counts()
        assert counts.shape == (3, 7)
        assert counts.sum() == compressed.nnz

    def test_spatial_slice_bounds_check(self, rng):
        compressed = compress_ifmap(rng.random((2, 2, 2)) < 0.5)
        with pytest.raises(IndexError):
            compressed.spatial_slice(2, 0)

    def test_footprint_formula(self, rng):
        dense = rng.random((4, 4, 16)) < 0.3
        compressed = compress_ifmap(dense, index_bytes=2)
        expected = compressed.nnz * 2 + (16 + 1) * 2
        assert compressed.footprint_bytes() == expected

    def test_invalid_s_ptr_rejected(self):
        shape = TensorShape(2, 2, 4)
        with pytest.raises(ValueError, match="non-decreasing"):
            CompressedIfmap(
                shape=shape,
                c_idcs=np.array([0, 1], dtype=np.uint16),
                s_ptr=np.array([0, 2, 1, 2, 2]),
            )

    def test_s_ptr_must_match_c_idcs_length(self):
        shape = TensorShape(1, 2, 4)
        with pytest.raises(ValueError, match="must equal len"):
            CompressedIfmap(
                shape=shape,
                c_idcs=np.array([0], dtype=np.uint16),
                s_ptr=np.array([0, 1, 3]),
            )

    def test_out_of_range_channel_rejected(self):
        shape = TensorShape(1, 1, 2)
        with pytest.raises(ValueError, match="out of range"):
            CompressedIfmap(
                shape=shape,
                c_idcs=np.array([5], dtype=np.uint16),
                s_ptr=np.array([0, 1]),
            )


class TestCompressedVector:
    def test_round_trip_properties(self):
        vector = compress_vector(np.array([1, 0, 0, 1, 1, 0], dtype=bool))
        assert vector.length == 6
        assert vector.nnz == 3
        assert vector.firing_rate == pytest.approx(0.5)
        assert vector.footprint_bytes() == 3 * 2 + 2

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError, match="duplicates"):
            CompressedVector(length=4, idcs=np.array([1, 1], dtype=np.uint16))

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            CompressedVector(length=4, idcs=np.array([4], dtype=np.uint16))


class TestCompressedIfmapBuilder:
    def test_builder_matches_direct_compression(self, rng):
        dense = rng.random((3, 3, 5)) < 0.5
        builder = CompressedIfmapBuilder(shape=TensorShape(3, 3, 5))
        for row, col, channel in zip(*np.nonzero(dense)):
            builder.add_spike(int(row), int(col), int(channel))
        built = builder.finalize()
        direct = compress_ifmap(dense)
        assert np.array_equal(built.c_idcs, direct.c_idcs)
        assert np.array_equal(built.s_ptr, direct.s_ptr)

    def test_rejects_out_of_range_channel(self):
        builder = CompressedIfmapBuilder(shape=TensorShape(2, 2, 3))
        with pytest.raises(ValueError):
            builder.add_spike(0, 0, 3)
