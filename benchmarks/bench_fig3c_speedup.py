"""Figure 3c: per-layer speedups of SpikeStream FP16 over the baseline and FP8 over FP16."""

from conftest import publish


def test_fig3c_speedups(benchmark, bench_session, svgg11_variants):
    """SpikeStream FP16 vs baseline FP16 and SpikeStream FP8 vs FP16, per layer."""
    result = benchmark(bench_session.run, "speedup", variants=svgg11_variants)
    publish(
        result,
        columns=[
            "layer",
            "speedup_fp16_over_baseline",
            "speedup_fp8_over_fp16",
            "speedup_fp8_over_baseline",
        ],
    )
    headline = result.headline
    # Paper: 5.62x average FP16 speedup with deep layers approaching the 7x
    # ideal, and an FP8-over-FP16 speedup below the ideal 2x.
    assert 4.5 < headline["network_speedup_fp16_over_baseline"] < 7.0
    assert headline["peak_layer_speedup_fp16_over_baseline"] < 8.5
    assert 1.3 < headline["network_speedup_fp8_over_fp16"] <= 2.0
