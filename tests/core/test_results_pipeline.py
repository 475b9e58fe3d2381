"""Tests for the inference pipeline and its result records."""

import numpy as np
import pytest

from repro.config import baseline_config, spikestream_config
from repro.core.pipeline import SpikeStreamInference
from repro.core.results import InferenceResult, LayerResult, speedup
from repro.types import Precision


def _layer_result(name="conv2", cycles=(100.0, 110.0), kernel="conv", streaming=True):
    n = len(cycles)
    return LayerResult(
        name=name,
        kernel=kernel,
        precision=Precision.FP16,
        streaming=streaming,
        cycles=np.asarray(cycles),
        fpu_utilization=np.full(n, 0.5),
        ipc=np.full(n, 0.7),
        energy_j=np.full(n, 1e-5),
        power_w=np.full(n, 0.2),
        dma_bytes=np.full(n, 1000.0),
    )


class TestLayerResult:
    def test_mean_and_std(self):
        result = _layer_result(cycles=(100.0, 200.0))
        assert result.mean_cycles == 150.0
        assert result.std_cycles == pytest.approx(50.0)
        assert result.mean_runtime_s == pytest.approx(150e-9)
        assert result.batch_size == 2

    def test_inconsistent_lengths_rejected(self):
        with pytest.raises(ValueError):
            LayerResult(
                name="x", kernel="conv", precision=Precision.FP16, streaming=True,
                cycles=np.array([1.0, 2.0]),
                fpu_utilization=np.array([0.5]),
                ipc=np.array([0.5]),
                energy_j=np.array([1.0]),
                power_w=np.array([1.0]),
                dma_bytes=np.array([1.0]),
            )

    def test_as_dict_keys(self):
        d = _layer_result().as_dict()
        assert {"layer", "mean_cycles", "mean_fpu_utilization", "mean_power_w"} <= set(d)


class TestInferenceResult:
    def _result(self):
        config = spikestream_config(batch_size=2)
        return InferenceResult(
            config=config,
            layers=[
                _layer_result("conv1", (1000.0, 1000.0), kernel="encode"),
                _layer_result("conv2", (2000.0, 2200.0)),
                _layer_result("fc1", (500.0, 450.0), kernel="fc"),
            ],
        )

    def test_totals(self):
        result = self._result()
        assert result.total_cycles == pytest.approx(1000 + 2100 + 475)
        assert result.total_runtime_s == pytest.approx(result.total_cycles * 1e-9)
        assert result.total_energy_j == pytest.approx(3e-5)

    def test_layer_lookup_and_grouping(self):
        result = self._result()
        assert result.layer("conv2").name == "conv2"
        with pytest.raises(KeyError):
            result.layer("missing")
        assert [l.name for l in result.conv_layers] == ["conv1", "conv2"]

    def test_network_utilization_is_cycle_weighted(self):
        result = self._result()
        assert result.network_fpu_utilization == pytest.approx(0.5)

    def test_summary_keys(self):
        summary = self._result().summary()
        assert {"total_runtime_ms", "total_energy_mj", "network_fpu_utilization"} <= set(summary)

    def test_speedup_helper(self):
        result = self._result()
        assert speedup(result, result) == pytest.approx(1.0)
        assert speedup(None, result) == 1.0


class TestStatisticalPipeline:
    @pytest.fixture(scope="class")
    def engine(self):
        return SpikeStreamInference(spikestream_config(batch_size=2, seed=7))

    def test_runs_full_svgg11(self, engine):
        result = engine.run_statistical(batch_size=2)
        assert len(result.layers) == 11
        assert result.total_cycles > 0
        assert all(layer.batch_size == 2 for layer in result.layers)

    def test_deterministic_given_seed(self, engine):
        a = engine.run_statistical(batch_size=2, seed=5)
        b = engine.run_statistical(batch_size=2, seed=5)
        assert a.total_cycles == pytest.approx(b.total_cycles)

    def test_different_seeds_vary(self, engine):
        a = engine.run_statistical(batch_size=2, seed=5)
        b = engine.run_statistical(batch_size=2, seed=6)
        assert a.total_cycles != pytest.approx(b.total_cycles, rel=1e-9)

    def test_layer_subset_runs(self, engine):
        plans = [p for p in engine.optimizer.plan_svgg11() if p.name == "conv6"]
        result = engine.run_statistical(plans=plans, batch_size=2)
        assert result.layer_names == ["conv6"]

    def test_timesteps_scale_cycles_linearly(self, engine):
        plans = [p for p in engine.optimizer.plan_svgg11() if p.name == "conv6"]
        one = engine.run_statistical(plans=plans, batch_size=1, seed=3, timesteps=1)
        ten = engine.run_statistical(plans=plans, batch_size=1, seed=3, timesteps=10)
        assert ten.total_cycles == pytest.approx(10 * one.total_cycles, rel=1e-6)
        assert ten.layer("conv6").mean_fpu_utilization == pytest.approx(
            one.layer("conv6").mean_fpu_utilization
        )

    def test_firing_rate_override_changes_runtime(self, engine):
        plans = [p for p in engine.optimizer.plan_svgg11({"conv6": 0.05}) if p.name == "conv6"]
        sparse = engine.run_statistical(plans=plans, batch_size=1, seed=2)
        plans = [p for p in engine.optimizer.plan_svgg11({"conv6": 0.4}) if p.name == "conv6"]
        dense = engine.run_statistical(plans=plans, batch_size=1, seed=2)
        assert dense.total_cycles > sparse.total_cycles

    def test_baseline_slower_than_spikestream(self):
        base = SpikeStreamInference(baseline_config(batch_size=2, seed=1)).run_statistical(batch_size=2)
        stream = SpikeStreamInference(spikestream_config(batch_size=2, seed=1)).run_statistical(batch_size=2)
        assert base.total_cycles > stream.total_cycles

    def test_run_layer_argument_validation(self, engine):
        plans = engine.optimizer.plan_svgg11()
        conv_plan = plans[1]
        fc_plan = plans[-1]
        with pytest.raises(ValueError, match="spike_counts"):
            engine.run_layer(conv_plan)
        with pytest.raises(ValueError, match="nnz"):
            engine.run_layer(fc_plan)


class TestFunctionalPipeline:
    def test_functional_run_on_tiny_network(self, tiny_network, rng):
        config = spikestream_config(batch_size=2, seed=3)
        engine = SpikeStreamInference(config)
        frames = [rng.random((8, 8, 3)) for _ in range(2)]
        result = engine.run_functional(tiny_network, frames)
        assert result.layer_names == ["conv1", "conv2", "fc1"]
        assert all(layer.batch_size == 2 for layer in result.layers)
        assert result.total_cycles > 0

    def test_functional_baseline_vs_streaming(self, tiny_network, rng):
        frames = [rng.random((8, 8, 3))]
        base = SpikeStreamInference(baseline_config(batch_size=1)).run_functional(tiny_network, frames)
        stream = SpikeStreamInference(spikestream_config(batch_size=1)).run_functional(
            tiny_network, frames
        )
        assert base.total_cycles > stream.total_cycles
