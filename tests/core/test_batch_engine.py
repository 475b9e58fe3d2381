"""Equivalence tests for the vectorized batch execution engine.

The batch engine (`run_statistical` and the kernels' ``*_perf_batch`` entry
points) must reproduce the per-frame reference loop **bit-for-bit** for the
same seed: every per-frame metric array of the resulting
:class:`~repro.core.results.InferenceResult`, at every layer, compared with
exact equality (no tolerances).
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.arch.params import DEFAULT_COSTS, ClusterParams, CostModelParams
from repro.arch.trace import BatchClusterStats, ClusterStats, CoreStats
from repro.config import baseline_config, spikestream_config
from repro.core.layer_mapping import KernelKind
from repro.core.pipeline import SpikeStreamInference
from repro.energy.model import EnergyModel
from repro.kernels.conv import (
    ConvLayerSpec,
    _conv_coster,
    conv_layer_perf,
    conv_layer_perf_batch,
    window_sum,
    window_sum_batch,
)
from repro.kernels.encode import EncodeLayerSpec, encode_layer_perf, encode_layer_perf_batch
from repro.kernels.fc import FcLayerSpec, fc_layer_perf, fc_layer_perf_batch
from repro.kernels.scheduler import (
    SMALL_BATCH,
    workload_stealing_schedule,
    workload_stealing_schedule_batch,
)
from repro.types import Precision, TensorShape

_METRICS = ("cycles", "fpu_utilization", "ipc", "energy_j", "power_w", "dma_bytes")


def assert_results_identical(a, b):
    """Exact (bit-for-bit) equality of two InferenceResults."""
    assert a.layer_names == b.layer_names
    for layer_a, layer_b in zip(a.layers, b.layers):
        for metric in _METRICS:
            va, vb = getattr(layer_a, metric), getattr(layer_b, metric)
            assert np.array_equal(va, vb), (
                f"layer {layer_a.name!r} metric {metric!r} differs"
            )
    assert a.identical_to(b)  # the public equality helper agrees


def assert_stats_identical(a, b):
    """Exact equality of two ClusterStats (all core counters and aggregates)."""
    assert a.label == b.label
    assert a.total_cycles == b.total_cycles
    assert a.dma_cycles == b.dma_cycles
    assert a.dma_bytes == b.dma_bytes
    assert a.dma_exposed_cycles == b.dma_exposed_cycles
    assert len(a.core_stats) == len(b.core_stats)
    for core_a, core_b in zip(a.core_stats, b.core_stats):
        assert vars(core_a) == vars(core_b)


class TestBatchScheduler:
    def test_matches_per_frame_schedules(self):
        rng = np.random.default_rng(3)
        costs = rng.integers(1, 50, size=(5, 37)).astype(np.float64)
        batched = workload_stealing_schedule_batch(costs, num_cores=4, atomic_cost_cycles=3.0)
        for frame in range(costs.shape[0]):
            scalar = workload_stealing_schedule(costs[frame], 4, atomic_cost_cycles=3.0)
            assert batched.frame_assignments(frame) == scalar.assignments
            assert np.array_equal(batched.core_busy_cycles[frame], scalar.core_busy_cycles)
            assert np.array_equal(batched.core_finish_cycles[frame], scalar.core_finish_cycles)
            assert np.array_equal(
                batched.atomic_operations_per_core[frame], scalar.atomic_operations_per_core
            )
            assert batched.makespans[frame] == scalar.makespan

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            workload_stealing_schedule_batch(np.ones((2, 3)), num_cores=0)
        with pytest.raises(ValueError):
            workload_stealing_schedule_batch(np.ones(3), num_cores=2)
        with pytest.raises(ValueError):
            workload_stealing_schedule_batch(-np.ones((2, 3)), num_cores=2)
        for bad in (np.nan, np.inf, -np.inf):
            costs = np.array([[5.0, 1.0, 2.0, 3.0, 4.0, 6.0], [5.0, bad, 1.0, 2.0, 3.0, 4.0]])
            with pytest.raises(ValueError, match="finite"):
                workload_stealing_schedule_batch(costs, num_cores=2)


def assert_schedule_matches_heap(batched, costs, num_cores, atomic):
    """Every frame of a batched schedule equals the heap's, bit for bit."""
    assert batched.core_of_item.shape == costs.shape
    for frame, row in enumerate(costs):
        scalar = workload_stealing_schedule(row, num_cores, atomic_cost_cycles=atomic)
        assert batched.frame_assignments(frame) == scalar.assignments
        for name in ("core_busy_cycles", "core_finish_cycles", "atomic_operations_per_core"):
            assert getattr(batched, name)[frame].tobytes() == getattr(scalar, name).tobytes(), name


_ATOMIC_COSTS = st.sampled_from([0.0, 0.5, 3.0, 1.0 / 3.0])


class TestBatchSchedulerProperties:
    """The closed form, the per-frame heap and the loop across frames all
    reproduce :func:`workload_stealing_schedule` exactly; batch sizes run to
    3x :data:`SMALL_BATCH` so both sides of the crossover are drawn."""

    @settings(max_examples=60, deadline=None)
    @given(
        batch=st.integers(1, 3 * SMALL_BATCH),
        items=st.integers(0, 60),
        cores=st.integers(1, 9),
        atomic=_ATOMIC_COSTS,
        high=st.sampled_from([0, 1, 3, 1000]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_integer_costs_with_ties(self, batch, items, cores, atomic, high, seed):
        costs = np.random.default_rng(seed).integers(0, high + 1, size=(batch, items))
        costs = costs.astype(np.float64)
        batched = workload_stealing_schedule_batch(costs, cores, atomic_cost_cycles=atomic)
        assert_schedule_matches_heap(batched, costs, cores, atomic)

    @settings(max_examples=60, deadline=None)
    @given(
        batch=st.integers(1, 3 * SMALL_BATCH),
        items=st.integers(0, 60),
        cores=st.integers(1, 9),
        atomic=_ATOMIC_COSTS,
        scale=st.sampled_from([0.0, 1e-300, 1e-3, 1.0, 7.25, 1e6, 1e12]),
        mixed=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_uniform_rows(self, batch, items, cores, atomic, scale, mixed, seed):
        """Rows of one repeated cost, down to zero cost with zero atomic cost,
        where ties never rotate and the closed form must fall back."""
        rng = np.random.default_rng(seed)
        costs = np.repeat(scale * rng.integers(0, 4, size=(batch, 1)), items, axis=1)
        if mixed and items:
            costs[rng.random(batch) < 0.5, -1] += 1.0
        batched = workload_stealing_schedule_batch(costs, cores, atomic_cost_cycles=atomic)
        assert_schedule_matches_heap(batched, costs, cores, atomic)


class TestBatchWindowSum:
    def test_matches_per_frame_window_sum(self):
        rng = np.random.default_rng(7)
        values = rng.random((4, 10, 12))
        for kernel, stride in ((3, 1), (2, 2)):
            batched = window_sum_batch(values, kernel, stride)
            for frame in range(values.shape[0]):
                assert np.array_equal(batched[frame], window_sum(values[frame], kernel, stride))

    def test_rejects_non_3d(self):
        with pytest.raises(ValueError):
            window_sum_batch(np.ones((4, 4)), 2, 1)

    @settings(max_examples=60, deadline=None)
    @given(
        batch=st.integers(1, 4),
        height=st.integers(1, 14),
        width=st.integers(1, 14),
        kernel=st.integers(1, 4),
        stride=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_matches_per_frame(self, batch, height, width, kernel, stride, seed):
        assume(kernel <= height and kernel <= width)
        values = np.random.default_rng(seed).random((batch, height, width)) * 100.0
        batched = window_sum_batch(values, kernel, stride)
        for frame in range(batch):
            expected = window_sum(values[frame], kernel, stride)
            assert batched[frame].shape == expected.shape
            assert batched[frame].tobytes() == expected.tobytes()


class TestBatchKernels:
    def _conv_spec(self):
        return ConvLayerSpec(
            name="conv", input_shape=TensorShape(8, 8, 64), in_channels=64,
            out_channels=128, kernel_size=3, stride=1, padding=1,
        )

    @pytest.mark.parametrize("streaming", [False, True])
    def test_conv_batch_matches_scalar(self, streaming):
        spec = self._conv_spec()
        rng = np.random.default_rng(5)
        counts = rng.binomial(64, 0.2, size=(3, 10, 10)).astype(np.float64)
        batched = conv_layer_perf_batch(spec, counts, Precision.FP16, streaming=streaming)
        assert batched.batch_size == 3
        for frame in range(3):
            scalar = conv_layer_perf(spec, counts[frame], Precision.FP16, streaming=streaming)
            assert_stats_identical(batched.frame(frame), scalar)

    def test_conv_batch_respects_core_count(self):
        spec = self._conv_spec()
        counts = np.full((2, 10, 10), 8.0)
        params = ClusterParams(num_worker_cores=2)
        batched = conv_layer_perf_batch(
            spec, counts, Precision.FP16, streaming=True, params=params, num_active_cores=2
        )
        scalar = conv_layer_perf(
            spec, counts[0], Precision.FP16, streaming=True, params=params, num_active_cores=2
        )
        assert batched.num_cores == 2
        assert_stats_identical(batched.frame(0), scalar)

    def test_conv_batch_shape_validation(self):
        spec = self._conv_spec()
        with pytest.raises(ValueError, match="spike_counts"):
            conv_layer_perf_batch(spec, np.ones((3, 9, 9)), Precision.FP16, streaming=True)

    @pytest.mark.parametrize("bad", [-1.0, 0.5, 3.25])
    def test_conv_batch_rejects_non_integral_or_negative_counts(self, bad):
        """The batched reduction is exact only for whole, non-negative counts."""
        spec = self._conv_spec()
        counts = np.full((2, 10, 10), 4.0)
        counts[1, 3, 4] = bad
        with pytest.raises(ValueError, match="non-negative integers"):
            conv_layer_perf_batch(spec, counts, Precision.FP16, streaming=True)

    def test_fc_batch_matches_scalar(self):
        spec = FcLayerSpec(name="fc", in_features=512, out_features=256)
        nnz = [0, 17, 512]
        batched = fc_layer_perf_batch(spec, nnz, Precision.FP16, streaming=True)
        for frame, count in enumerate(nnz):
            scalar = fc_layer_perf(spec, count, Precision.FP16, streaming=True)
            assert_stats_identical(batched.frame(frame), scalar)

    def test_fc_batch_validates_nnz(self):
        spec = FcLayerSpec(name="fc", in_features=16, out_features=8)
        with pytest.raises(ValueError):
            fc_layer_perf_batch(spec, [4, 17], Precision.FP16, streaming=True)
        with pytest.raises(ValueError):
            fc_layer_perf_batch(spec, [[1, 2]], Precision.FP16, streaming=True)

    def test_encode_batch_replicates_independent_copies(self):
        from repro.kernels.encode import EncodeLayerSpec

        spec = EncodeLayerSpec(
            name="conv1", input_shape=TensorShape(8, 8, 3), in_channels=3, out_channels=16
        )
        batched = encode_layer_perf_batch(spec, 3, Precision.FP16, streaming=True)
        scalar = encode_layer_perf(spec, Precision.FP16, streaming=True)
        assert batched.batch_size == 3
        for frame in range(3):
            assert_stats_identical(batched.frame(frame), scalar)
        # Independent copies: mutating one frame's counters must not leak.
        copy = batched.frame(1)
        copy.core_stats[0].total_cycles += 1.0
        assert batched.frame(0).core_stats[0].total_cycles == scalar.core_stats[0].total_cycles
        # The frames share one broadcast row, so it must refuse in-place writes.
        with pytest.raises(ValueError):
            batched.core_cycles[1, 0] += 1.0


class TestBatchClusterStats:
    """The columnar metrics agree with each frame's :class:`ClusterStats`."""

    def _stats(self, streaming):
        spec = ConvLayerSpec(
            name="conv", input_shape=TensorShape(6, 6, 32), in_channels=32, out_channels=24,
        )
        counts = np.random.default_rng(9).binomial(32, 0.25, size=(11, 8, 8)).astype(float)
        counts[4] = 0.0  # one frame without spikes
        return conv_layer_perf_batch(spec, counts, Precision.FP8, streaming=streaming)

    @pytest.mark.parametrize("streaming", [False, True])
    def test_derived_metrics_match_frames(self, streaming):
        stats = self._stats(streaming)
        model = EnergyModel()
        energy = model.batch_energy_j(stats, Precision.FP8, streaming, uses_mac=False)
        for frame in range(stats.batch_size):
            single = stats.frame(frame)
            assert stats.fpu_utilization[frame] == single.fpu_utilization
            assert stats.ipc[frame] == single.ipc
            assert stats.total_int_instructions[frame] == single.total_int_instructions
            assert stats.total_fp_instructions[frame] == single.total_fp_instructions
            assert stats.total_spm_accesses[frame] == single.total_spm_accesses
            assert stats.total_core_cycles[frame] == single.total_core_cycles
            assert stats.runtime_seconds(1e9)[frame] == single.runtime_seconds(1e9)
            report = model.layer_energy(single, Precision.FP8, streaming, uses_mac=False)
            assert energy[frame] == report.energy_j

    def test_zero_cycle_frame_has_zero_ratios(self):
        stats = BatchClusterStats.repeat(ClusterStats(core_stats=[CoreStats(i) for i in range(3)]), 2)
        assert stats.fpu_utilization.tolist() == [0.0, 0.0] == [stats.frame(0).fpu_utilization] * 2
        assert stats.ipc.tolist() == [0.0, 0.0] == [stats.frame(1).ipc] * 2

    def test_repeat_round_trips_and_is_read_only(self):
        single = self._stats(True).frame(3)
        repeated = BatchClusterStats.repeat(single, 4)
        assert (repeated.batch_size, repeated.num_cores) == (4, single.num_cores)
        for frame in range(4):
            assert_stats_identical(repeated.frame(frame), single)
        for name in BatchClusterStats.CORE_FIELDS + BatchClusterStats.CLUSTER_FIELDS:
            assert not getattr(repeated, name).flags.writeable


_INTEGER_COUNT_CASES = dict(
    batch=st.integers(1, 3 * SMALL_BATCH),
    cores=st.integers(1, 9),
    precision=st.sampled_from([Precision.FP8, Precision.FP16, Precision.FP64]),
    streaming=st.booleans(),
)

#: A second cost model: most coefficients the conv and FC kernels read
#: differ from the default (instruction counts stay whole numbers).
_OTHER_COSTS = CostModelParams(
    baseline_spva_instrs_per_element=7,
    baseline_spva_stall_cycles_per_element=3.5,
    streaming_cycles_per_element=1.85,
    stream_setup_int_instrs=7,
    stream_startup_cycles=2.5,
    strided_indirect_cycles_per_element=1.3,
    spva_address_calc_int_instrs=5,
    rf_overhead_int_instrs=15,
    group_overhead_int_instrs=3,
    activation_int_instrs_per_group=9,
    output_unpack_extra_iterations_fp8=3,
    dense_streaming_cycles_per_mac=1.7,
    fc_setup_int_instrs=6,
    icache_miss_penalty_cycles=22.0,
    icache_capacity_miss_rate=0.002,
    dma_setup_cycles=25.0,
    dma_bytes_per_cycle=32.0,
    atomic_operation_cycles=6.0,
)


class TestBatchKernelProperties:
    """``*_perf_batch(...).frame(i)`` equals the scalar kernel on frame ``i``,
    field for field, over integer counts, batch sizes on both sides of
    :data:`SMALL_BATCH` and core counts above and below the item count."""

    @settings(max_examples=60, deadline=None)
    @given(
        **_INTEGER_COUNT_CASES,
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(1, 6),
        channels=st.integers(1, 24),
        out_channels=st.integers(1, 40),
        density=st.sampled_from([0.0, 0.05, 0.3, 1.0, None]),
        kernel=st.integers(1, 3),
        stride=st.integers(1, 3),
        padding=st.integers(0, 2),
        strided_indirect=st.booleans(),
        costs=st.sampled_from([DEFAULT_COSTS, _OTHER_COSTS]),
        data=st.data(),
    )
    def test_conv_frames_match_scalar(
        self, batch, cores, precision, streaming, seed, size, channels, out_channels,
        density, kernel, stride, padding, strided_indirect, costs, data,
    ):
        """``density=None`` draws every count uniformly from
        ``0..in_channels``; ``active`` cores may be fewer than the cluster's."""
        assume(size + 2 * padding >= kernel)
        spec = ConvLayerSpec(
            name="conv", input_shape=TensorShape(size, size, channels),
            in_channels=channels, out_channels=out_channels,
            kernel_size=kernel, stride=stride, padding=padding,
        )
        padded = spec.padded_input_shape
        rng = np.random.default_rng(seed)
        if density is None:
            counts = rng.integers(0, channels + 1, size=(batch, size, size))
        else:
            counts = rng.binomial(channels, density, size=(batch, size, size))
        counts = np.pad(counts.astype(np.float64), ((0, 0), (padding,) * 2, (padding,) * 2))
        assert counts.shape[1:] == (padded.height, padded.width)
        params = ClusterParams(num_worker_cores=cores)
        active = data.draw(st.one_of(st.none(), st.integers(1, cores)), label="active")
        options = dict(
            params=params, costs=costs, num_active_cores=active,
            strided_indirect=strided_indirect and streaming,
        )
        # Prime the memo with the same geometry under the other cost model
        # and the other strided switch: the call under test must not reuse
        # either entry.
        other_costs = _OTHER_COSTS if costs is DEFAULT_COSTS else DEFAULT_COSTS
        for primed in (
            dict(options, costs=other_costs),
            dict(options, strided_indirect=streaming and not options["strided_indirect"]),
        ):
            conv_layer_perf_batch(spec, counts[:1], precision, streaming=streaming, **primed)
        batched = conv_layer_perf_batch(spec, counts, precision, streaming=streaming, **options)
        assert batched.batch_size == batch
        for frame in range(batch):
            scalar = conv_layer_perf(spec, counts[frame], precision, streaming=streaming, **options)
            assert_stats_identical(batched.frame(frame), scalar)

    @settings(max_examples=40, deadline=None)
    @given(
        **_INTEGER_COUNT_CASES,
        in_features=st.integers(1, 600),
        out_features=st.integers(1, 300),
        costs=st.sampled_from([DEFAULT_COSTS, _OTHER_COSTS]),
        data=st.data(),
    )
    def test_fc_frames_match_scalar(
        self, batch, cores, precision, streaming, in_features, out_features, costs, data
    ):
        spec = FcLayerSpec(name="fc", in_features=in_features, out_features=out_features)
        nnz = data.draw(
            st.lists(st.integers(0, in_features), min_size=batch, max_size=batch)
        )
        active = data.draw(st.one_of(st.none(), st.integers(1, cores)), label="active")
        options = dict(
            params=ClusterParams(num_worker_cores=cores), costs=costs, num_active_cores=active
        )
        batched = fc_layer_perf_batch(spec, nnz, precision, streaming=streaming, **options)
        assert batched.batch_size == batch
        for frame, count in enumerate(nnz):
            scalar = fc_layer_perf(spec, count, precision, streaming=streaming, **options)
            assert_stats_identical(batched.frame(frame), scalar)

    def test_alternating_configurations_match_their_oracles(self):
        """The kernels memoise per-layer costing state by configuration;
        calls that alternate two cost models, two core counts and a switch
        (strided-indirect for conv, streaming for FC and encode) in one
        process must each match the scalar kernel under their own
        configuration."""
        conv = ConvLayerSpec(
            name="conv", input_shape=TensorShape(5, 5, 12), in_channels=12, out_channels=20
        )
        fc = FcLayerSpec(name="fc", in_features=300, out_features=70)
        encode = EncodeLayerSpec(
            name="enc", input_shape=TensorShape(6, 6, 3), in_channels=3, out_channels=16
        )
        padded = conv.padded_input_shape
        rng = np.random.default_rng(5)
        for round_index in range(3):
            for costs in (DEFAULT_COSTS, _OTHER_COSTS):
                for cores in (8, 3):
                    for switch in (False, True):
                        options = dict(params=ClusterParams(num_worker_cores=cores), costs=costs)
                        counts = np.pad(
                            rng.integers(0, 13, size=(2, 5, 5)).astype(np.float64),
                            ((0, 0), (1, 1), (1, 1)),
                        )
                        assert counts.shape[1:] == (padded.height, padded.width)
                        batched = conv_layer_perf_batch(
                            conv, counts, Precision.FP16, streaming=True,
                            strided_indirect=switch, **options,
                        )
                        for frame in range(2):
                            assert_stats_identical(
                                batched.frame(frame),
                                conv_layer_perf(
                                    conv, counts[frame], Precision.FP16, streaming=True,
                                    strided_indirect=switch, **options,
                                ),
                            )
                        nnz = rng.integers(0, 301, size=2)
                        batched = fc_layer_perf_batch(
                            fc, nnz, Precision.FP8, streaming=switch, **options
                        )
                        for frame, count in enumerate(nnz):
                            assert_stats_identical(
                                batched.frame(frame),
                                fc_layer_perf(
                                    fc, int(count), Precision.FP8, streaming=switch, **options
                                ),
                            )
                        assert_stats_identical(
                            encode_layer_perf_batch(
                                encode, 1, Precision.FP16, streaming=switch, **options
                            ).frame(0),
                            encode_layer_perf(
                                encode, Precision.FP16, streaming=switch, **options
                            ),
                        )


class TestCompiledCosterThreads:
    def test_threads_sharing_the_memo_match_their_oracles(self):
        """Four threads (more than the 2-CPU host's cores) race on the
        kernels' memo under a short switch interval, cycling through eight
        configurations from a cleared memo; every call must complete and
        equal the scalar kernel under its own configuration."""
        spec = ConvLayerSpec(
            name="conv", input_shape=TensorShape(4, 4, 10), in_channels=10, out_channels=12
        )
        counts = np.pad(
            np.random.default_rng(9).integers(0, 11, size=(2, 4, 4)).astype(np.float64),
            ((0, 0), (1, 1), (1, 1)),
        )
        configs = [
            dict(costs=costs, params=ClusterParams(num_worker_cores=cores),
                 strided_indirect=strided)
            for costs in (DEFAULT_COSTS, _OTHER_COSTS)
            for cores in (8, 3)
            for strided in (False, True)
        ]
        expected = [
            [conv_layer_perf(spec, frame, Precision.FP16, streaming=True, **config)
             for frame in counts]
            for config in configs
        ]
        calls = 40

        def run(offset):
            for call in range(calls):
                index = (offset + call) % len(configs)
                batched = conv_layer_perf_batch(
                    spec, counts, Precision.FP16, streaming=True, **configs[index]
                )
                for frame, oracle in enumerate(expected[index]):
                    assert_stats_identical(batched.frame(frame), oracle)
            return calls

        _conv_coster.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(run, offset) for offset in range(4)]
                # result() re-raises whatever a thread raised, mismatch or not.
                completed = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert completed == [calls] * 4


class TestEngineEquivalence:
    """The vectorized engine reproduces the per-frame loop bit-for-bit."""

    @pytest.mark.parametrize(
        "config",
        [
            spikestream_config(Precision.FP16, batch_size=5, seed=11),
            spikestream_config(Precision.FP8, batch_size=4, seed=11),
            baseline_config(Precision.FP16, batch_size=4, seed=11),
        ],
        ids=["spikestream-fp16", "spikestream-fp8", "baseline-fp16"],
    )
    def test_full_svgg11_identical(self, config):
        engine = SpikeStreamInference(config)
        vectorized = engine.run_statistical(batch_size=config.batch_size, seed=config.seed)
        reference = engine.run_statistical_reference(
            batch_size=config.batch_size, seed=config.seed
        )
        assert_results_identical(vectorized, reference)

    def test_multi_timestep_identical(self):
        engine = SpikeStreamInference(spikestream_config(batch_size=3, seed=2))
        vectorized = engine.run_statistical(batch_size=3, seed=2, timesteps=4)
        reference = engine.run_statistical_reference(batch_size=3, seed=2, timesteps=4)
        assert_results_identical(vectorized, reference)

    @pytest.mark.parametrize(
        "config,timesteps",
        [
            (spikestream_config(Precision.FP16, batch_size=24, seed=13), 1),
            (spikestream_config(Precision.FP8, batch_size=24, seed=13), 4),
            (baseline_config(Precision.FP16, batch_size=24, seed=13), 1),
        ],
        ids=["spikestream-fp16", "spikestream-fp8-t4", "baseline-fp16"],
    )
    def test_batches_past_small_batch_identical(self, config, timesteps):
        """At 3x :data:`SMALL_BATCH` frames the conv schedules run through the
        loop across frames and every reduction spans many frames at once."""
        assert config.batch_size >= 3 * SMALL_BATCH
        engine = SpikeStreamInference(config)
        vectorized = engine.run_statistical(
            batch_size=config.batch_size, seed=config.seed, timesteps=timesteps
        )
        reference = engine.run_statistical_reference(
            batch_size=config.batch_size, seed=config.seed, timesteps=timesteps
        )
        assert_results_identical(vectorized, reference)

    def test_layer_subset_identical(self):
        engine = SpikeStreamInference(spikestream_config(batch_size=4, seed=8))
        plans = [
            p for p in engine.optimizer.plan_svgg11()
            if p.kernel in (KernelKind.CONV, KernelKind.FC)
        ][:3]
        vectorized = engine.run_statistical(plans=plans, batch_size=4, seed=8)
        reference = engine.run_statistical_reference(plans=plans, batch_size=4, seed=8)
        assert_results_identical(vectorized, reference)

    def test_firing_rate_override_identical(self):
        engine = SpikeStreamInference(spikestream_config(batch_size=3, seed=6))
        vectorized = engine.run_statistical(
            batch_size=3, seed=6, firing_rates={"conv6": 0.35}
        )
        reference = engine.run_statistical_reference(
            batch_size=3, seed=6, firing_rates={"conv6": 0.35}
        )
        assert_results_identical(vectorized, reference)
