"""Tests for the activity-based energy model."""

import numpy as np
import pytest

from repro.arch.trace import ClusterStats, CoreStats
from repro.energy.model import EnergyModel, EnergyReport
from repro.energy.params import DEFAULT_ENERGY, EnergyParams
from repro.types import Precision


def _stats(cycles=1_000_000.0, fp_fraction=0.1, cores=8, label="layer"):
    core_stats = [
        CoreStats(
            core_id=i,
            int_instructions=cycles * 0.6,
            fp_instructions=cycles * fp_fraction,
            total_cycles=cycles,
            fpu_busy_cycles=cycles * fp_fraction,
            spm_accesses=cycles * 0.2,
        )
        for i in range(cores)
    ]
    return ClusterStats(core_stats=core_stats, total_cycles=cycles, dma_bytes=1e6, label=label)


class TestEnergyParams:
    def test_fp_energy_decreases_with_precision(self):
        params = DEFAULT_ENERGY
        assert params.fp_instruction_pj(Precision.FP64) > params.fp_instruction_pj(Precision.FP16)
        assert params.fp_instruction_pj(Precision.FP16) > params.fp_instruction_pj(Precision.FP8)

    def test_mac_costs_more_than_add(self):
        params = DEFAULT_ENERGY
        assert params.fp_instruction_pj(Precision.FP16, is_mac=True) > params.fp_instruction_pj(
            Precision.FP16
        )


class TestEnergyModel:
    def test_energy_positive_and_power_reasonable(self):
        model = EnergyModel()
        report = model.layer_energy(_stats(), Precision.FP16, streaming=False)
        assert report.energy_j > 0
        # Cluster power must be in the hundreds-of-milliwatts regime of Fig. 4.
        assert 0.05 < report.power_w < 1.0

    def test_breakdown_sums_to_total(self):
        model = EnergyModel()
        report = model.layer_energy(_stats(), Precision.FP16, streaming=True)
        assert sum(report.breakdown_j.values()) == pytest.approx(report.energy_j)

    def test_streaming_adds_ssr_power(self):
        model = EnergyModel()
        base = model.layer_energy(_stats(), Precision.FP16, streaming=False)
        stream = model.layer_energy(_stats(), Precision.FP16, streaming=True)
        assert stream.breakdown_j["ssr"] > 0
        assert base.breakdown_j["ssr"] == 0
        assert stream.energy_j > base.energy_j

    def test_higher_utilization_raises_power(self):
        """SpikeStream's power is higher than the baseline's because the FPU is busier."""
        model = EnergyModel()
        idle = model.layer_energy(_stats(fp_fraction=0.08), Precision.FP16, streaming=False)
        busy = model.layer_energy(_stats(fp_fraction=0.5), Precision.FP16, streaming=True)
        assert busy.power_w > idle.power_w

    def test_fp8_cheaper_than_fp16_at_same_activity(self):
        model = EnergyModel()
        fp16 = model.layer_energy(_stats(), Precision.FP16, streaming=True)
        fp8 = model.layer_energy(_stats(), Precision.FP8, streaming=True)
        assert fp8.energy_j < fp16.energy_j

    def test_mac_layer_costs_more(self):
        model = EnergyModel()
        plain = model.layer_energy(_stats(fp_fraction=0.5), Precision.FP16, streaming=True)
        mac = model.layer_energy(_stats(fp_fraction=0.5), Precision.FP16, streaming=True,
                                 uses_mac=True)
        assert mac.energy_j > plain.energy_j

    def test_background_scales_with_runtime(self):
        model = EnergyModel()
        short = model.layer_energy(_stats(cycles=1e5), Precision.FP16, streaming=False)
        long = model.layer_energy(_stats(cycles=1e7), Precision.FP16, streaming=False)
        assert long.breakdown_j["background"] > short.breakdown_j["background"]

    def test_report_units(self):
        report = EnergyReport(label="x", energy_j=2e-3, runtime_s=1e-2, breakdown_j={})
        assert report.energy_mj == pytest.approx(2.0)
        assert report.power_w == pytest.approx(0.2)
        assert report.as_dict()["runtime_ms"] == pytest.approx(10.0)

    def test_zero_runtime_power(self):
        report = EnergyReport(label="x", energy_j=0.0, runtime_s=0.0, breakdown_j={})
        assert report.power_w == 0.0

    def test_custom_coefficients_respected(self):
        cheap = EnergyModel(params=EnergyParams(integer_instruction_pj=1.0))
        default = EnergyModel()
        stats = _stats()
        assert (
            cheap.layer_energy(stats, Precision.FP16, False).energy_j
            < default.layer_energy(stats, Precision.FP16, False).energy_j
        )
