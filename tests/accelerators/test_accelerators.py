"""Tests for the analytical neuromorphic accelerator models and the Fig. 5 comparison."""

import pytest

from repro.accelerators.base import AcceleratorModel, synaptic_operations
from repro.accelerators.comparison import (
    compare_accelerators,
    layer6_synaptic_operations,
    soa_accelerators,
)
from repro.accelerators.loihi import LOIHI
from repro.accelerators.lsmcore import LSMCORE
from repro.accelerators.neurorvcore import NEURORVCORE
from repro.accelerators.odin import ODIN
from repro.types import TensorShape


class TestAcceleratorModel:
    def test_latency_and_energy_scale_linearly(self):
        model = AcceleratorModel(
            name="test", peak_gsop=10, precision_bits=8, technology_nm=28,
            energy_per_sop_pj=10, efficiency=0.5,
        )
        assert model.latency_s(1e9) == pytest.approx(0.2)
        assert model.energy_j(1e9) == pytest.approx(0.01)
        assert model.latency_s(2e9) == pytest.approx(2 * model.latency_s(1e9))

    def test_validation(self):
        with pytest.raises(ValueError):
            AcceleratorModel("x", peak_gsop=0, precision_bits=4, technology_nm=28,
                             energy_per_sop_pj=1)
        with pytest.raises(ValueError):
            AcceleratorModel("x", peak_gsop=1, precision_bits=4, technology_nm=28,
                             energy_per_sop_pj=1, efficiency=1.5)
        with pytest.raises(ValueError):
            LOIHI.latency_s(-1)

    def test_paper_parameters(self):
        assert LOIHI.peak_gsop == 37.5 and LOIHI.technology_nm == 14
        assert ODIN.peak_gsop == pytest.approx(0.038) and ODIN.technology_nm == 28
        assert LSMCORE.peak_gsop == 400 and LSMCORE.technology_nm == 40
        assert NEURORVCORE.peak_gsop == 128 and NEURORVCORE.technology_nm == 28
        assert len(soa_accelerators()) == 4


class TestSynapticOperations:
    def test_formula(self):
        ops = synaptic_operations(
            output_shape=TensorShape(8, 8, 512),
            kernel_size=3,
            in_channels=512,
            firing_rate=0.1,
            timesteps=1,
        )
        assert ops == pytest.approx(64 * 9 * 512 * 0.1 * 512)

    def test_timesteps_scale(self):
        one = layer6_synaptic_operations(timesteps=1)
        five_hundred = layer6_synaptic_operations(timesteps=500)
        assert five_hundred == pytest.approx(500 * one)

    def test_validation(self):
        with pytest.raises(ValueError):
            synaptic_operations(TensorShape(2, 2, 2), 3, 4, firing_rate=1.5)
        with pytest.raises(ValueError):
            synaptic_operations(TensorShape(2, 2, 2), 3, 4, firing_rate=0.5, timesteps=0)


class TestComparison:
    @pytest.fixture(scope="class")
    def entries(self):
        return compare_accelerators(timesteps=500, batch_size=1, seed=0)

    def _by_name(self, entries):
        return {entry.name: entry for entry in entries}

    def test_all_seven_systems_present(self, entries):
        names = {entry.name for entry in entries}
        assert names == {
            "Loihi", "ODIN", "LSMCore", "NeuroRVcore",
            "Baseline FP16", "SpikeStream FP16", "SpikeStream FP8",
        }

    def test_ranking_matches_paper(self, entries):
        """LSMCore fastest, ODIN slowest SoA, baseline the slowest cluster variant."""
        by_name = self._by_name(entries)
        soa_latencies = {n: by_name[n].latency_ms for n in ("Loihi", "ODIN", "LSMCore", "NeuroRVcore")}
        assert min(soa_latencies, key=soa_latencies.get) == "LSMCore"
        assert max(soa_latencies, key=soa_latencies.get) == "ODIN"
        # The baseline is the slowest system apart from ODIN (whose 0.038 GSOP
        # peak puts it orders of magnitude behind everything else).
        assert by_name["Baseline FP16"].latency_ms == max(
            e.latency_ms for e in entries if e.name != "ODIN"
        )
        assert (
            by_name["SpikeStream FP8"].latency_ms
            < by_name["SpikeStream FP16"].latency_ms
            < by_name["Baseline FP16"].latency_ms
        )
        ranked = sorted(entries, key=lambda e: e.latency_ms)
        assert ranked[0].name == "LSMCore"
        assert ranked[1].name in ("SpikeStream FP8", "NeuroRVcore")

    def test_lsmcore_most_efficient_soa(self, entries):
        by_name = self._by_name(entries)
        soa_energy = [by_name[n].energy_mj for n in ("Loihi", "ODIN", "NeuroRVcore")]
        assert all(by_name["LSMCore"].energy_mj < e for e in soa_energy)

    def test_exclude_snitch_option(self):
        entries = compare_accelerators(include_snitch=False)
        assert len(entries) == 4

    def test_entry_as_dict(self, entries):
        row = entries[0].as_dict()
        assert {"system", "latency_ms", "energy_mj", "peak_gsop", "technology_nm"} <= set(row)
