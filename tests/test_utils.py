"""Tests for :mod:`repro.utils`."""

import numpy as np
import pytest

from repro.types import Precision
from repro.utils.quantize import dtype_for, quantization_error, quantize
from repro.utils.rng import make_rng, spawn_rngs


class TestQuantize:
    def test_fp64_is_identity(self, rng):
        values = rng.normal(size=100)
        assert np.array_equal(quantize(values, Precision.FP64), values)

    def test_fp16_matches_numpy_half(self, rng):
        values = rng.normal(size=100)
        expected = values.astype(np.float16).astype(np.float32)
        assert np.array_equal(quantize(values, Precision.FP16), expected)

    def test_fp8_is_idempotent(self, rng):
        values = rng.normal(size=200)
        once = quantize(values, Precision.FP8)
        twice = quantize(once, Precision.FP8)
        assert np.allclose(once, twice)

    def test_fp8_preserves_zero_and_sign(self):
        out = quantize(np.array([0.0, -1.5, 2.25]), Precision.FP8)
        assert out[0] == 0.0
        assert out[1] < 0
        assert out[2] > 0

    def test_fp8_error_larger_than_fp16_error(self, rng):
        values = rng.normal(size=1000)
        assert quantization_error(values, Precision.FP8) > quantization_error(
            values, Precision.FP16
        )

    def test_quantization_error_zero_for_empty(self):
        assert quantization_error(np.array([]), Precision.FP8) == 0.0

    def test_dtype_for(self):
        assert dtype_for(Precision.FP64) == np.float64
        assert dtype_for(Precision.FP16) == np.float16
        assert dtype_for(Precision.FP8) == np.float32


class TestRng:
    def test_make_rng_passthrough(self):
        generator = np.random.default_rng(3)
        assert make_rng(generator) is generator

    def test_make_rng_from_seed_is_deterministic(self):
        assert make_rng(7).integers(0, 100, 5).tolist() == make_rng(7).integers(0, 100, 5).tolist()

    def test_spawn_rngs_independent_and_stable(self):
        first = spawn_rngs(11, 3)
        second = spawn_rngs(11, 5)
        # The first three generators are identical regardless of the count.
        for a, b in zip(first, second):
            assert a.integers(0, 1000, 4).tolist() == b.integers(0, 1000, 4).tolist()

    def test_spawn_rngs_rejects_negative_count(self):
        with pytest.raises(ValueError):
            spawn_rngs(1, -1)
