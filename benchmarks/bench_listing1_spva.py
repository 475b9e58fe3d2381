"""Listing 1 micro-benchmark: baseline vs streaming SpVA inner loop.

Runs both inner-loop variants on the instruction-level executor across a
range of stream lengths, checking the 8-instructions-per-element baseline mix
and the asymptotic speedup of the SSR + frep version.
"""

from conftest import publish


def test_listing1_spva_microbenchmark(benchmark, bench_session):
    """Cycle counts of Listing 1b vs Listing 1c over increasing stream lengths."""
    result = benchmark(
        bench_session.run, "spva_microbenchmark",
        stream_lengths=(1, 2, 4, 8, 16, 32, 64, 128),
    )
    publish(
        result,
        columns=[
            "stream_length",
            "baseline_cycles",
            "streaming_cycles",
            "speedup",
            "baseline_fpu_util",
            "streaming_fpu_util",
        ],
    )
    headline = result.headline
    assert 5.0 < headline["asymptotic_speedup"] < 9.0
    assert abs(headline["baseline_instructions_per_element"] - 8) < 0.5
