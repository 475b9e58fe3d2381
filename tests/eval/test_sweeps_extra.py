"""Additional tests for the ablation sweeps (optimization breakdown, strided indirect)."""

import math

import pytest

from repro.eval.sweeps import optimization_ablation
from repro.session import Session


class TestOptimizationAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return optimization_ablation(batch_size=1, seed=9)

    def test_variants_present(self, result):
        variants = [row["variant"] for row in result.rows]
        assert any("baseline" in v for v in variants)
        assert any("+SA" in v for v in variants)
        assert any("FP8" in v for v in variants)
        assert any("stealing" in v for v in variants)

    def test_each_optimization_helps(self, result):
        headline = result.headline
        assert headline["sa_speedup"] > 4.0
        assert headline["fp8_speedup"] > headline["sa_speedup"]
        assert headline["stealing_gain"] >= 1.0

    def test_energy_decreases_with_each_step(self, result):
        rows = [row for row in result.rows if not math.isnan(row["energy_mj"])]
        energies = [row["energy_mj"] for row in rows]
        assert energies == sorted(energies, reverse=True)


class TestStridedIndirectSweep:
    @pytest.fixture(scope="class")
    def result(self):
        return Session().run("strided_indirect", rates=(0.05, 0.2, 0.4), seed=9)

    def test_extension_always_helps(self, result):
        for row in result.rows:
            assert row["additional_speedup"] >= 1.0
            assert row["strided_indirect_fpu_util"] >= row["spikestream_fpu_util"]

    def test_headline_band(self, result):
        # The projected gain is modest (index fetch amortization), well below 2x.
        assert 1.05 < result.headline["max_additional_speedup"] < 1.6
