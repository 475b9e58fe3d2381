"""Round-trip and property-based tests for the format conversions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats.convert import (
    compress_ifmap,
    compress_vector,
    decompress_ifmap,
    decompress_vector,
)


@st.composite
def dense_spike_maps(draw):
    """Random boolean HWC spike maps of modest size."""
    height = draw(st.integers(1, 8))
    width = draw(st.integers(1, 8))
    channels = draw(st.integers(1, 16))
    rate = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    return rng.random((height, width, channels)) < rate


class TestRoundTrips:
    @settings(max_examples=60, deadline=None)
    @given(dense=dense_spike_maps())
    def test_csr_round_trip_is_lossless(self, dense):
        assert np.array_equal(decompress_ifmap(compress_ifmap(dense)), dense)

    @settings(max_examples=60, deadline=None)
    @given(
        length=st.integers(1, 512),
        rate=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_vector_round_trip_is_lossless(self, length, rate, seed):
        dense = np.random.default_rng(seed).random(length) < rate
        assert np.array_equal(decompress_vector(compress_vector(dense)), dense)

    @settings(max_examples=40, deadline=None)
    @given(dense=dense_spike_maps())
    def test_nnz_consistent_across_formats(self, dense):
        assert compress_ifmap(dense).nnz == int(np.count_nonzero(dense))

    @settings(max_examples=40, deadline=None)
    @given(dense=dense_spike_maps())
    def test_compressed_never_exceeds_worst_case(self, dense):
        compressed = compress_ifmap(dense)
        shape = compressed.shape
        worst_case = (shape.numel + shape.spatial_size + 1) * compressed.index_bytes
        assert compressed.footprint_bytes() <= worst_case


class TestEdgeCases:
    def test_compress_rejects_non_binary(self):
        with pytest.raises(ValueError):
            compress_ifmap(np.full((2, 2, 2), 3.0))

    def test_compress_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            compress_ifmap(np.zeros((2, 2), dtype=bool))

    def test_vector_requires_1d(self):
        with pytest.raises(ValueError):
            compress_vector(np.zeros((2, 2), dtype=bool))

    def test_all_ones_map(self):
        dense = np.ones((2, 3, 4), dtype=bool)
        compressed = compress_ifmap(dense)
        assert compressed.nnz == 24
        assert np.array_equal(decompress_ifmap(compressed), dense)

    def test_c_idcs_sorted_within_each_position(self, rng):
        dense = rng.random((4, 4, 12)) < 0.6
        compressed = compress_ifmap(dense)
        for row in range(4):
            for col in range(4):
                idcs = compressed.spatial_slice(row, col)
                assert np.all(np.diff(idcs.astype(np.int64)) > 0)
