"""Tests for the NumPy golden-reference layer arithmetic."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.snn import reference
from repro.snn.reference import (
    avgpool2d_hwc,
    conv2d_hwc,
    conv_output_size,
    im2row,
    linear,
    maxpool2d_hwc,
    pad_hwc,
)


class TestGeometry:
    def test_conv_output_size_same_padding(self):
        assert conv_output_size(32, 3, 1, 1) == 32

    def test_conv_output_size_stride(self):
        assert conv_output_size(8, 2, 2, 0) == 4

    def test_conv_output_size_rejects_empty_output(self):
        with pytest.raises(ValueError):
            conv_output_size(2, 5, 1, 0)

    def test_pad_hwc(self):
        x = np.ones((2, 2, 3))
        padded = pad_hwc(x, 1)
        assert padded.shape == (4, 4, 3)
        assert padded[0].sum() == 0
        assert padded[1:3, 1:3].sum() == 12


class TestIm2Row:
    def test_shape(self, rng):
        x = rng.random((6, 6, 4))
        rows = im2row(x, (3, 3), stride=1, padding=1)
        assert rows.shape == (36, 3 * 3 * 4)

    def test_row_content_matches_patch(self, rng):
        x = rng.random((5, 5, 2))
        rows = im2row(x, (3, 3), stride=1, padding=0)
        # Output position (1, 1) corresponds to the central 3x3 patch.
        expected = x[1:4, 1:4, :].reshape(-1)
        assert np.allclose(rows[1 * 3 + 1], expected)


class TestConv2d:
    def test_identity_kernel(self, rng):
        x = rng.random((5, 5, 1))
        weights = np.zeros((3, 3, 1, 1))
        weights[1, 1, 0, 0] = 1.0
        out = conv2d_hwc(x, weights, stride=1, padding=1)
        assert np.allclose(out[..., 0], x[..., 0])

    def test_matches_explicit_sum(self, rng):
        x = rng.random((4, 4, 3))
        weights = rng.random((3, 3, 3, 2))
        out = conv2d_hwc(x, weights, stride=1, padding=1)
        padded = pad_hwc(x, 1)
        oy, ox, oc = 2, 1, 1
        expected = np.sum(padded[oy : oy + 3, ox : ox + 3, :] * weights[:, :, :, oc])
        assert out[oy, ox, oc] == pytest.approx(expected)

    def test_boolean_spikes_accepted(self, rng):
        spikes = rng.random((4, 4, 3)) < 0.5
        weights = rng.random((3, 3, 3, 2))
        out = conv2d_hwc(spikes, weights, padding=1)
        assert out.shape == (4, 4, 2)

    def test_channel_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            conv2d_hwc(rng.random((4, 4, 3)), rng.random((3, 3, 2, 2)))


class TestLinearAndPooling:
    def test_linear_matches_matmul(self, rng):
        x = rng.random(12)
        weights = rng.random((12, 5))
        assert np.allclose(linear(x, weights), x @ weights)

    def test_linear_flattens_hwc_input(self, rng):
        x = rng.random((2, 2, 3))
        weights = rng.random((12, 4))
        assert np.allclose(linear(x, weights), x.reshape(-1) @ weights)

    def test_linear_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            linear(rng.random(5), rng.random((4, 2)))

    def test_maxpool_on_spikes_is_logical_or(self):
        spikes = np.zeros((4, 4, 1), dtype=bool)
        spikes[0, 1, 0] = True
        pooled = maxpool2d_hwc(spikes, 2, 2)
        assert pooled.shape == (2, 2, 1)
        assert pooled[0, 0, 0]
        assert not pooled[1, 1, 0]

    def test_avgpool_values(self):
        x = np.arange(16, dtype=float).reshape(4, 4, 1)
        pooled = avgpool2d_hwc(x, 2, 2)
        assert pooled[0, 0, 0] == pytest.approx((0 + 1 + 4 + 5) / 4)


class TestEventSparseOps:
    """The event-sparse kernels vs their dense counterparts, both dtypes."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sparse_conv_matches_dense_on_spike_input(self, rng, dtype):
        from repro.snn.reference import conv2d_hwc_batch, conv2d_hwc_batch_sparse

        spikes = (rng.random((3, 8, 8, 4)) < 0.1).astype(dtype)
        weights = rng.standard_normal((3, 3, 4, 6)).astype(dtype)
        dense = conv2d_hwc_batch(spikes, weights, 1, 1, dtype=dtype)
        sparse = conv2d_hwc_batch_sparse(spikes, weights, 1, 1, dtype=dtype)
        assert sparse.shape == dense.shape
        assert sparse.dtype == np.dtype(dtype)
        np.testing.assert_allclose(sparse, dense, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sparse_linear_matches_dense_on_spike_input(self, rng, dtype):
        from repro.snn.reference import linear_batch, linear_batch_sparse

        spikes = (rng.random((4, 64)) < 0.05).astype(dtype)
        weights = rng.standard_normal((64, 10)).astype(dtype)
        dense = linear_batch(spikes, weights, dtype=dtype)
        sparse = linear_batch_sparse(spikes, weights, dtype=dtype)
        assert sparse.shape == dense.shape
        assert sparse.dtype == np.dtype(dtype)
        np.testing.assert_allclose(sparse, dense, rtol=1e-5, atol=1e-5)

    def test_without_scipy_both_kernels_fall_back(self, rng, monkeypatch):
        """With scipy missing, conv takes the dense route and linear gathers rows."""
        spikes = (rng.random((2, 6, 6, 3)) < 0.2).astype(np.float64)
        weights = rng.standard_normal((3, 3, 3, 5))
        flat = (rng.random((3, 40)) < 0.1).astype(np.float64)
        fc_weights = rng.standard_normal((40, 7))
        monkeypatch.setattr(reference, "_scipy_sparse", lambda: None)
        np.testing.assert_array_equal(
            reference.conv2d_hwc_batch_sparse(spikes, weights, 1, 1, dtype=np.float64),
            reference.conv2d_hwc_batch(spikes, weights, 1, 1, dtype=np.float64),
        )
        np.testing.assert_allclose(
            reference.linear_batch_sparse(flat, fc_weights, dtype=np.float64),
            reference.linear_batch(flat, fc_weights, dtype=np.float64),
            rtol=1e-12, atol=1e-12,
        )

    def test_importing_the_cli_leaves_scipy_unloaded(self):
        """scipy is imported by the event-sparse kernels on first use only."""
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        ))
        probe = "import sys, repro.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        completed = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "[]"

    def test_sparse_conv_empty_input_is_all_zero(self, rng):
        from repro.snn.reference import conv2d_hwc_batch_sparse

        spikes = np.zeros((2, 6, 6, 3), dtype=np.float32)
        weights = rng.standard_normal((3, 3, 3, 5)).astype(np.float32)
        out = conv2d_hwc_batch_sparse(spikes, weights, 1, 1, dtype=np.float32)
        assert out.shape == (2, 6, 6, 5)
        assert not out.any()

    def test_spike_density(self):
        from repro.snn.reference import spike_density

        x = np.zeros((4, 4))
        x[0, 0] = 1.0
        assert spike_density(x) == pytest.approx(1 / 16)
        assert spike_density(np.zeros((0, 3))) == 0.0
