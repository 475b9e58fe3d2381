"""Tests for the memory-footprint model (Figure 3a)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats.convert import compress_ifmap
from repro.formats.footprint import aer_footprint_bytes, csr_footprint_bytes
from repro.types import TensorShape


class TestClosedFormFormulas:
    def test_csr_footprint(self):
        shape = TensorShape(4, 4, 8)
        assert csr_footprint_bytes(shape, nnz=10) == 10 * 2 + (16 + 1) * 2

    def test_aer_footprint(self):
        assert aer_footprint_bytes(10) == 10 * 3 * 2

    def test_csr_rejects_nnz_above_numel(self):
        with pytest.raises(ValueError):
            csr_footprint_bytes(TensorShape(1, 1, 4), nnz=5)

    def test_negative_nnz_rejected(self):
        with pytest.raises(ValueError):
            aer_footprint_bytes(-1)


class TestFootprintReport:
    def test_report_from_dense_matches_formulas(self, rng):
        # Figure 3a costs CSR with the closed form; it must equal the bytes
        # of the real compressed structure for the same map.
        dense = rng.random((6, 6, 32)) < 0.3
        compressed = compress_ifmap(dense)
        nnz = int(np.count_nonzero(dense))
        assert compressed.nnz == nnz
        assert compressed.footprint_bytes() == csr_footprint_bytes(compressed.shape, nnz)

    @settings(max_examples=50, deadline=None)
    @given(
        channels=st.integers(8, 512),
        spatial=st.integers(2, 32),
        rate=st.floats(0.02, 0.9),
    )
    def test_csr_beats_aer_at_any_realistic_sparsity(self, channels, spatial, rate):
        """The CSR format is never larger than AER for non-degenerate maps."""
        shape = TensorShape(spatial, spatial, channels)
        nnz = int(shape.numel * rate)
        # With 16-bit fields, CSR stores 1 index/spike + pointers; AER stores
        # 3 fields/spike.  As long as there is at least ~1 spike per two
        # spatial positions the CSR representation wins.
        if nnz >= shape.spatial_size:
            assert csr_footprint_bytes(shape, nnz) < aer_footprint_bytes(nnz)

    def test_reduction_close_to_paper_for_typical_layer(self):
        """For a mid-network layer the reduction is in the ~2-4x band of Fig. 3a."""
        shape = TensorShape(18, 18, 256)
        nnz = int(shape.numel * 0.25)
        reduction = aer_footprint_bytes(nnz) / csr_footprint_bytes(shape, nnz)
        assert 2.0 < reduction < 4.0
