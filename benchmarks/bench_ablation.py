"""Ablation benchmarks: contribution of each SpikeStream design choice.

These go beyond the paper's figures and quantify the design decisions called
out in DESIGN.md: the streaming acceleration itself, the FP8 SIMD lanes, the
workload-stealing scheduler, sensitivity to firing rate, strong scaling with
core count and the per-SpVA stream-length behaviour.
"""

from conftest import BENCH_SEED, publish

from repro.eval.sweeps import optimization_ablation


def test_ablation_optimizations(benchmark):
    """Baseline vs +SA vs +FP8, plus workload stealing vs a static partition."""
    result = benchmark(optimization_ablation, batch_size=2, seed=BENCH_SEED)
    publish(result, columns=["variant", "runtime_ms", "energy_mj", "fpu_util", "speedup_vs_baseline"])
    assert result.headline["sa_speedup"] > 4.0
    assert result.headline["fp8_speedup"] > result.headline["sa_speedup"]
    assert result.headline["stealing_gain"] >= 1.0


def test_ablation_firing_rate_sweep(benchmark, bench_session):
    """Runtime and speedup of conv6 as the ifmap firing rate varies."""
    result = benchmark(bench_session.run, "firing_rate",
                       rates=(0.05, 0.1, 0.2, 0.4), seed=BENCH_SEED)
    publish(result, columns=["firing_rate", "baseline_cycles", "spikestream_cycles", "speedup",
                             "spikestream_fpu_util"])
    cycles = [row["spikestream_cycles"] for row in result.rows]
    assert cycles == sorted(cycles)


def test_ablation_core_count_sweep(benchmark, bench_session):
    """Strong scaling of the SpikeStream conv kernel from 1 to 8 cores."""
    result = benchmark(bench_session.run, "core_count",
                       core_counts=(1, 2, 4, 8), seed=BENCH_SEED)
    publish(result, columns=["cores", "cycles", "fpu_util", "parallel_efficiency"])
    assert result.headline["efficiency_at_8_cores"] > 0.5


def test_ablation_precision_sweep(benchmark, bench_session):
    """End-to-end runtime/energy across FP32, FP16 and FP8."""
    result = benchmark(bench_session.run, "precision", batch_size=2, seed=BENCH_SEED)
    publish(result, columns=["precision", "simd_width", "runtime_ms", "energy_mj", "fpu_util"])
    runtimes = {row["precision"]: row["runtime_ms"] for row in result.rows}
    assert runtimes["fp8"] < runtimes["fp16"] < runtimes["fp32"]


def test_ablation_strided_indirect_extension(benchmark, bench_session):
    """Projected gain of the strided-indirect SSR extension (paper future work)."""
    result = benchmark(bench_session.run, "strided_indirect",
                       rates=(0.05, 0.1, 0.2, 0.4), seed=BENCH_SEED)
    publish(result, columns=["firing_rate", "spikestream_cycles", "strided_indirect_cycles",
                             "additional_speedup", "strided_indirect_fpu_util"])
    assert result.headline["max_additional_speedup"] > 1.05


def test_ablation_stream_length_sweep(benchmark, bench_session):
    """Per-SpVA streaming speedup as a function of stream length."""
    result = benchmark(bench_session.run, "stream_length", lengths=(1, 4, 16, 64, 256))
    publish(result, columns=["stream_length", "baseline_cycles", "streaming_cycles", "speedup"])
    assert result.rows[-1]["speedup"] > result.rows[0]["speedup"]
