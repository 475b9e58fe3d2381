"""Figure 5: latency and energy comparison with SoA neuromorphic accelerators.

The workload is the sixth convolutional layer of S-VGG11 executed for 500
timesteps, as in Section IV-C of the paper.
"""

from conftest import BENCH_SEED, publish


def test_fig5_accelerator_comparison(benchmark, bench_session):
    """Loihi / ODIN / LSMCore / NeuroRVcore vs the three Snitch-cluster variants."""
    result = benchmark(
        bench_session.run, "accelerator_comparison",
        timesteps=500, batch_size=2, seed=BENCH_SEED,
    )
    publish(
        result,
        columns=[
            "system",
            "latency_ms",
            "energy_mj",
            "peak_gsop",
            "technology_nm",
            "precision_bits",
        ],
    )
    headline = result.headline
    # Paper: LSMCore 46.08 ms, SpikeStream FP8 217.14 ms (4.71x slower than
    # LSMCore, 2.38x faster than Loihi) and 3.46x less energy than LSMCore.
    assert 20 < headline["lsmcore_latency_ms"] < 100
    assert 100 < headline["spikestream_fp8_latency_ms"] < 500
    assert 3.0 < headline["fp8_slowdown_vs_lsmcore"] < 7.0
    assert 1.5 < headline["fp8_speedup_vs_loihi"] < 3.5
    assert 2.0 < headline["fp8_energy_gain_vs_lsmcore"] < 6.0
