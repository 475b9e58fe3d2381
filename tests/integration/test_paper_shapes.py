"""Integration: the headline results of the paper hold in shape.

Every band lives once, in :data:`repro.eval.claims.PAPER_CLAIMS`; the
parametrised test below checks each band-bearing claim at every (batch,
seed) pair the figure tests have used, through the ``fidelity`` scenario.
The plain tests after it check orderings and relations between quantities
that are not headline bands.  The substrate is a behavioral model, not the
authors' RTL testbed, so a band bounds a result's shape, not its digits.
"""

import pytest

from repro.eval.claims import PAPER_CLAIMS
from repro.eval.experiments import energy_experiment, speedup_experiment, utilization_experiment
from repro.session import Session

#: (batch, seed) pairs: those of the earlier per-figure checks plus the
#: report default.
PAIRS = [(1, 0), (2, 7), (2, 11), (2, 2025), (3, 42), (4, 1), (4, 2025), (8, 42), (16, 2025)]


@pytest.fixture(scope="module")
def session():
    with Session() as session:
        yield session


@pytest.fixture(scope="module")
def model_values(session):
    """``(batch, seed) -> {claim id: model value}``, one fidelity run per pair."""
    cache = {}

    def values(batch_size, seed):
        if (batch_size, seed) not in cache:
            result = session.run("fidelity", batch_size=batch_size, seed=seed)
            cache[batch_size, seed] = {row["id"]: row["model"] for row in result.rows}
        return cache[batch_size, seed]

    return values


@pytest.mark.parametrize("batch_size, seed", PAIRS)
@pytest.mark.parametrize("claim", [c for c in PAPER_CLAIMS if c.banded], ids=lambda c: c.id)
def test_claim_within_band(claim, batch_size, seed, model_values):
    value = model_values(batch_size, seed)[claim.id]
    low, high = claim.band
    where = f"{claim.id} ({claim.key}) = {value:.4g} at batch {batch_size}, seed {seed}"
    if low is not None:
        assert value > low, f"{where} is not above {low}"
    if high is not None:
        assert value < high, f"{where} is not below {high}"


@pytest.fixture(scope="module")
def variants(session):
    return session.run_variants(batch_size=3, seed=42)


class TestFigure3bShape:
    def test_utilization_jump(self, variants):
        result = utilization_experiment(variants=variants)
        # Figure 3b: SpikeStream lifts network FPU utilization more than 4x.
        assert (result.headline["network_fpu_util_spikestream"]
                > 4.0 * result.headline["network_fpu_util_baseline"])

    def test_second_layer_has_lowest_spikestream_conv_utilization_gainers(self, variants):
        """Deeper conv layers gain more utilization than the early short-stream layers."""
        result = utilization_experiment(variants=variants)
        conv_rows = [r for r in result.rows if r["layer"].startswith("conv")][1:]
        early = conv_rows[0]["fpu_util_spikestream"]
        deep = max(r["fpu_util_spikestream"] for r in conv_rows[1:6])
        assert deep >= early - 0.05


class TestFigure3cShape:
    def test_deep_layers_faster_than_early_layers(self, variants):
        result = speedup_experiment(variants=variants)
        rows = {r["layer"]: r["speedup_fp16_over_baseline"] for r in result.rows}
        assert rows["conv4"] > rows["conv1"]
        assert rows["conv3"] > 5.0


class TestFigure4Shape:
    def test_power_and_energy_relations(self, variants):
        headline = energy_experiment(variants=variants).headline
        base_power = headline["mean_power_baseline_conv2_to_8"]
        ss16_power = headline["mean_power_spikestream_fp16_conv2_to_8"]
        ss8_power = headline["mean_power_spikestream_fp8_conv2_to_8"]
        # SpikeStream draws more power than the baseline (higher utilization)
        # but FP8 draws slightly less than FP16 (clock-gated narrow slices).
        assert ss16_power > base_power
        assert ss8_power < ss16_power
        assert 1.4 < ss16_power / base_power < 2.6

    def test_first_layer_has_highest_power(self, variants):
        """Figure 4: the dense matmul encoding layer draws the most power."""
        result = energy_experiment(variants=variants)
        first = result.rows[0]
        others = result.rows[1:8]
        assert all(first["power_w_spikestream_fp16"] >= r["power_w_spikestream_fp16"] for r in others)
