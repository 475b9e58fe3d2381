"""Tests for the cluster and cost-model parameters."""

import pytest

from repro.arch.params import ClusterParams, CostModelParams, DEFAULT_CLUSTER, DEFAULT_COSTS


class TestClusterParams:
    def test_defaults_match_paper_architecture(self):
        params = DEFAULT_CLUSTER
        assert params.num_worker_cores == 8
        assert params.clock_hz == 1.0e9
        assert params.spm_bytes == 128 * 1024
        assert params.spm_banks == 32
        assert params.icache_bytes == 8 * 1024
        assert params.dma_bus_bits == 512
        assert params.num_stream_registers == 3
        assert params.num_indirect_stream_registers == 2
        assert params.max_affine_dims == 4

    def test_indirect_cannot_exceed_total_srs(self):
        with pytest.raises(ValueError):
            ClusterParams(num_stream_registers=2, num_indirect_stream_registers=3)

    def test_spm_must_divide_into_banks(self):
        with pytest.raises(ValueError):
            ClusterParams(spm_bytes=100, spm_banks=32)

    def test_positive_core_count_required(self):
        with pytest.raises(ValueError):
            ClusterParams(num_worker_cores=0)


class TestCostModelParams:
    def test_baseline_listing_has_eight_instructions(self):
        assert DEFAULT_COSTS.baseline_spva_instrs_per_element == 8

    def test_baseline_cycles_include_stalls(self):
        costs = DEFAULT_COSTS
        assert costs.baseline_cycles_per_element == pytest.approx(
            costs.baseline_spva_instrs_per_element + costs.baseline_spva_stall_cycles_per_element
        )

    def test_streaming_cheaper_than_baseline_per_element(self):
        assert DEFAULT_COSTS.streaming_cycles_per_element < DEFAULT_COSTS.baseline_cycles_per_element

    def test_streaming_at_least_one_cycle(self):
        with pytest.raises(ValueError):
            CostModelParams(streaming_cycles_per_element=0.5)

    @pytest.mark.parametrize("name", CostModelParams.INTEGRAL_INSTRUCTION_COUNTS)
    def test_instruction_counts_must_be_whole_numbers(self, name):
        """The batched kernels' order-free per-core sums need integral metrics."""
        value = getattr(DEFAULT_COSTS, name)
        with pytest.raises(ValueError, match=name):
            CostModelParams(**{name: value + 0.5})
        assert getattr(CostModelParams(**{name: float(value + 1)}), name) == value + 1

    def test_non_instruction_coefficients_may_be_fractional(self):
        costs = CostModelParams(dense_baseline_instrs_per_mac=3.3, atomic_operation_cycles=4.5)
        assert costs.dense_baseline_instrs_per_mac == 3.3

    def test_dense_baseline_cycles(self):
        costs = DEFAULT_COSTS
        assert costs.dense_baseline_cycles_per_mac == pytest.approx(
            costs.dense_baseline_instrs_per_mac + costs.dense_baseline_stall_cycles_per_mac
        )

    def test_ideal_per_element_speedup_in_paper_band(self):
        """Baseline/streaming per-element ratio should sit near the paper's ~7x ideal."""
        ratio = DEFAULT_COSTS.baseline_cycles_per_element / DEFAULT_COSTS.streaming_cycles_per_element
        assert 6.0 <= ratio <= 9.0
