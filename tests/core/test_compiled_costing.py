"""The compiled batch-1 costing path: equivalence, shared memos, kernel calls.

Every layer's frame-independent costing state is compiled once per
configuration and memoised by value (the kernels' costers, the energy steps,
the S-VGG11 plans).  These tests hold the compiled path to the per-frame
reference loop under drawn configurations, alternate configurations so a
memo keyed on too little would show, race two threads on cleared memos,
check that a mutated plan never reaches the memo, and pin that the engine
still calls each kernel once per layer through ``repro.core.pipeline``.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.params import DEFAULT_COSTS, ClusterParams, CostModelParams
from repro.config import baseline_config, spikestream_config
from repro.core import optimizer, pipeline
from repro.core.pipeline import SpikeStreamInference, concat_workloads
from repro.energy import model as energy_model
from repro.kernels import conv, encode, fc
from repro.types import Precision, StreamKind

_OTHER_COSTS = CostModelParams(
    streaming_cycles_per_element=1.85,
    stream_startup_cycles=2.5,
    rf_overhead_int_instrs=15,
    activation_int_instrs_per_group=9,
    fc_setup_int_instrs=6,
    icache_capacity_miss_rate=0.002,
    dma_setup_cycles=25.0,
    dma_bytes_per_cycle=32.0,
    atomic_operation_cycles=6.0,
)

_CONFIGS = {
    "fp16": lambda: spikestream_config(Precision.FP16),
    "fp8": lambda: spikestream_config(Precision.FP8),
    "baseline": lambda: baseline_config(Precision.FP16),
}

_LAYERS = ("conv2", "conv3", "conv4", "conv5", "conv6", "conv7", "conv8", "fc1", "fc2", "fc3")


def _clear_memos():
    for memo in (
        conv._conv_coster,
        fc._fc_coster,
        encode._encode_row,
        energy_model._batch_steps,
        optimizer._svgg11_plans,
    ):
        memo.cache_clear()


class TestCompiledMatchesReference:
    @settings(max_examples=25, deadline=None)
    @given(
        config=st.sampled_from(sorted(_CONFIGS)),
        batch=st.integers(1, 5),
        timesteps=st.integers(1, 4),
        cores=st.integers(1, 8),
        rates=st.dictionaries(
            st.sampled_from(_LAYERS), st.sampled_from([0.0, 0.05, 0.3, 1.0]), max_size=3
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_run_statistical_matches_the_per_frame_loop(
        self, config, batch, timesteps, cores, rates, seed
    ):
        """Both cost models in turn, on a cluster of up to 8 cores: each
        run must equal the reference loop under its own configuration."""
        cluster = ClusterParams(num_worker_cores=cores)
        for costs in (DEFAULT_COSTS, _OTHER_COSTS, DEFAULT_COSTS):
            engine = SpikeStreamInference(_CONFIGS[config](), cluster=cluster, costs=costs)
            options = dict(batch_size=batch, timesteps=timesteps, firing_rates=rates, seed=seed)
            assert engine.run_statistical(**options).identical_to(
                engine.run_statistical_reference(**options)
            )


class TestSharedMemos:
    def test_two_threads_on_cleared_memos_match_their_oracles(self):
        """Two threads race on freshly cleared memos under a 1 us switch
        interval, alternating precision and cost model; every run must
        equal the reference computed beforehand."""
        variants = [
            (name, costs) for name in ("fp16", "fp8") for costs in (DEFAULT_COSTS, _OTHER_COSTS)
        ]
        seeds = (3, 4)
        expected = {
            (name, costs, seed): SpikeStreamInference(
                _CONFIGS[name](), costs=costs
            ).run_statistical_reference(batch_size=1, seed=seed)
            for name, costs in variants
            for seed in seeds
        }
        failures = []

        def run(offset):
            try:
                for call in range(12):
                    name, costs = variants[(offset + call) % len(variants)]
                    seed = seeds[call % len(seeds)]
                    engine = SpikeStreamInference(_CONFIGS[name](), costs=costs)
                    result = engine.run_statistical(batch_size=1, seed=seed)
                    if not result.identical_to(expected[(name, costs, seed)]):
                        failures.append((offset, call))
            except Exception as error:  # surfaced through the failure list
                failures.append(error)

        _clear_memos()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(offset,)) for offset in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


class TestPlanIsolation:
    def test_a_mutated_plan_never_reaches_the_next_caller(self):
        engine = SpikeStreamInference(spikestream_config())
        before = engine.run_statistical(batch_size=2, seed=5)
        pristine = [(p.name, p.firing_rate, p.spec.name, list(p.stream_kinds))
                    for p in engine.optimizer.plan_svgg11()]
        plans = engine.optimizer.plan_svgg11()
        plans[1].firing_rate = 0.99
        plans[1].spec.out_channels = 3
        plans[1].stream_kinds.append(StreamKind.AFFINE)
        plans[2].spec.name = "renamed"
        plans.pop()
        for fresh in (engine.optimizer.plan_svgg11(), engine.optimizer.shared_svgg11_plans()):
            assert [(p.name, p.firing_rate, p.spec.name, list(p.stream_kinds))
                    for p in fresh] == pristine
            assert fresh[1].spec.out_channels == 128
        after = SpikeStreamInference(spikestream_config()).run_statistical(batch_size=2, seed=5)
        assert after.identical_to(before)

    def test_unknown_rate_names_raise_after_a_memo_hit(self):
        engine = SpikeStreamInference(spikestream_config())
        engine.optimizer.plan_svgg11({"conv3": 0.2})
        for _ in range(2):
            with pytest.raises(ValueError, match="conv_3"):
                engine.optimizer.plan_svgg11({"conv3": 0.2, "conv_3": 0.2})


class TestKernelBindings:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Count the layer names each kernel binding of the pipeline sees."""
        seen = {}
        for name in ("conv_layer_perf_batch", "fc_layer_perf_batch", "encode_layer_perf_batch"):
            original = getattr(pipeline, name)

            def counted(spec, *args, _original=original, _name=name, **kwargs):
                seen.setdefault(_name, []).append(spec.name)
                return _original(spec, *args, **kwargs)

            monkeypatch.setattr(pipeline, name, counted)
        return seen

    def test_each_kernel_is_called_once_per_layer(self, calls):
        engine = SpikeStreamInference(spikestream_config())
        plans = engine.optimizer.plan_svgg11()
        engine.run_statistical(batch_size=1, seed=2)
        expected = {
            "encode_layer_perf_batch": ["conv1"],
            "conv_layer_perf_batch": [f"conv{i}" for i in range(2, 9)],
            "fc_layer_perf_batch": ["fc1", "fc2", "fc3"],
        }
        assert calls == expected
        calls.clear()
        engine.run_workloads(concat_workloads(
            [engine.statistical_workloads(plans, 1, seed) for seed in (3, 4, 5)]
        ))
        assert calls == expected
        calls.clear()
        workloads = engine.statistical_workloads(plans, 2, 6)
        for work in workloads:
            result = engine.run_workloads([work])
            assert result.layer_names == [work.plan.name]
        assert calls == expected

    def test_single_layer_runs_match_the_whole_network(self):
        """Layers costed one at a time (grouped alone) give the rows they
        give when costed together (grouped with their peers)."""
        engine = SpikeStreamInference(spikestream_config(Precision.FP8))
        plans = engine.optimizer.plan_svgg11()
        workloads = engine.statistical_workloads(plans, 3, 8)
        whole = engine.run_workloads(workloads, timesteps=2)
        for work, layer in zip(workloads, whole.layers):
            alone = engine.run_workloads([work], timesteps=2).layers[0]
            assert alone.identical_to(layer)
            for metric in ("cycles", "energy_j", "power_w"):
                assert np.array_equal(getattr(alone, metric), getattr(layer, metric))
