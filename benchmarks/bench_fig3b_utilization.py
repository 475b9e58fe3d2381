"""Figure 3b: per-layer FPU utilization and IPC, baseline vs SpikeStream (FP16)."""

from conftest import publish


def test_fig3b_fpu_utilization_and_ipc(benchmark, bench_session, svgg11_variants):
    """FPU utilization and per-core IPC for both FP16 code variants across S-VGG11."""
    result = benchmark(bench_session.run, "utilization", variants=svgg11_variants)
    publish(
        result,
        columns=[
            "layer",
            "fpu_util_baseline",
            "fpu_util_spikestream",
            "ipc_baseline",
            "ipc_spikestream",
        ],
    )
    headline = result.headline
    # Paper: network-average utilization rises from 9.28 % to 52.3 %, and the
    # spike-encoding first layer from 24.8 % to 53.1 %.
    assert headline["network_fpu_util_spikestream"] > 4 * headline["network_fpu_util_baseline"]
    assert 0.45 < headline["encode_fpu_util_spikestream"] < 0.62
