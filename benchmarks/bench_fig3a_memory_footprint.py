"""Figure 3a: ifmap memory footprint (AER vs CSR) and firing activity per layer."""

from conftest import BENCH_BATCH_SIZE, BENCH_SEED, publish


def test_fig3a_memory_footprint(benchmark, bench_session):
    """Average footprint of every S-VGG11 conv-layer ifmap under both formats."""
    result = benchmark(
        bench_session.run, "memory_footprint",
        batch_size=max(BENCH_BATCH_SIZE, 16), seed=BENCH_SEED,
    )
    publish(
        result,
        columns=[
            "layer",
            "ifmap_shape",
            "firing_rate_mean",
            "aer_bytes_mean",
            "csr_bytes_mean",
            "reduction",
        ],
    )
    # Shape check: the CSR-derived format wins on every spiking layer and the
    # average reduction lands in the band around the paper's 2.75x.
    assert all(row["reduction"] > 1.5 for row in result.rows[1:])
    assert 2.0 < result.headline["mean_csr_over_aer_reduction"] < 4.0
