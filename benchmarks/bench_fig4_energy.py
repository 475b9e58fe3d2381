"""Figure 4: per-layer energy and power for the three evaluated variants."""

from conftest import publish


def test_fig4_energy_and_power(benchmark, bench_session, svgg11_variants):
    """Energy and average power per layer for baseline FP16, SpikeStream FP16 and FP8."""
    result = benchmark(bench_session.run, "energy", variants=svgg11_variants)
    publish(
        result,
        columns=[
            "layer",
            "energy_mj_baseline",
            "energy_mj_spikestream_fp16",
            "energy_mj_spikestream_fp8",
            "power_w_baseline",
            "power_w_spikestream_fp16",
            "power_w_spikestream_fp8",
        ],
    )
    headline = result.headline
    # Paper: ~0.13 / 0.23 / 0.22 W average power on layers 2-8 and
    # energy-efficiency gains of 3.25x (FP16) and 5.67x (FP8).
    assert 0.08 < headline["mean_power_baseline_conv2_to_8"] < 0.20
    assert 0.18 < headline["mean_power_spikestream_fp16_conv2_to_8"] < 0.32
    assert 2.0 < headline["energy_gain_fp16_over_baseline"] < 4.5
    assert 4.0 < headline["energy_gain_fp8_over_baseline"] < 8.0
