"""Tests for the registered sweeps, run through ``Session.run``."""

import pytest

from repro.eval.runner import SWEEPS
from repro.plan import point_seed
from repro.session import Session
from repro.types import Precision


def run_registered(name, jobs=1, backend="process", **params):
    """Collect one registered sweep on a fresh session."""
    with Session(jobs=jobs, backend=backend) as session:
        return session.run(name, **params)


class TestPointSeed:
    def test_deterministic_and_order_independent(self):
        a = point_seed(2025, "firing_rate", {"rate": 0.1, "precision": "fp16"})
        b = point_seed(2025, "firing_rate", {"precision": "fp16", "rate": 0.1})
        assert a == b
        assert a == point_seed(2025, "firing_rate", {"rate": 0.1, "precision": "fp16"})

    def test_compute_params_share_one_data_seed(self):
        # Every precision must run the same random batch, and every core
        # count must cost the same spike-count map.
        precision = SWEEPS["precision"]
        assert precision.task_seed(2025, {"precision": "fp16"}) == \
            precision.task_seed(2025, {"precision": "fp8"})
        core_count = SWEEPS["core_count"]
        assert core_count.task_seed(2025, {"cores": 2, "rate": 0.3, "precision": "fp16"}) == \
            core_count.task_seed(2025, {"cores": 8, "rate": 0.3, "precision": "fp16"})
        # Data-shaping parameters still separate the streams.
        firing_rate = SWEEPS["firing_rate"]
        assert firing_rate.task_seed(2025, {"rate": 0.1, "precision": "fp16"}) != \
            firing_rate.task_seed(2025, {"rate": 0.2, "precision": "fp16"})

    def test_varies_with_inputs(self):
        base = point_seed(2025, "firing_rate", {"rate": 0.1})
        assert base != point_seed(2026, "firing_rate", {"rate": 0.1})
        assert base != point_seed(2025, "strided_indirect", {"rate": 0.1})
        assert base != point_seed(2025, "firing_rate", {"rate": 0.2})


class TestRunSweep:
    def test_available_sweeps_registered(self):
        assert {"firing_rate", "core_count", "precision", "stream_length",
                "strided_indirect"} <= set(SWEEPS)
        assert all(name == spec.name for name, spec in SWEEPS.items())

    def test_unknown_sweep_rejected(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            run_registered("nope")

    def test_misspelled_point_kwarg_rejected(self):
        with pytest.raises(TypeError):
            run_registered("firing_rate", rate=(0.1,))  # typo for rates=
        with pytest.raises(TypeError):
            run_registered("core_count", rates=(0.1,))  # wrong sweep's kwarg

    def test_serial_run_produces_rows_and_headline(self):
        result = run_registered("stream_length", jobs=1, lengths=(1, 8, 64))
        assert [row["stream_length"] for row in result.rows] == [1, 8, 64]
        assert "asymptotic_speedup" in result.headline

    def test_parallel_matches_serial(self):
        serial = run_registered("firing_rate", jobs=1, seed=7, rates=(0.05, 0.2, 0.4))
        threaded = run_registered("firing_rate", jobs=3, backend="thread", seed=7,
                                  rates=(0.05, 0.2, 0.4))
        assert serial.rows == threaded.rows
        assert serial.headline == threaded.headline

    def test_point_results_independent_of_subset(self):
        full = run_registered("firing_rate", seed=9, rates=(0.05, 0.2, 0.4))
        subset = run_registered("firing_rate", seed=9, rates=(0.2,))
        assert subset.rows[0] == full.rows[1]

    def test_core_count_shares_data_across_points(self):
        result = run_registered("core_count", seed=5, core_counts=(1, 2, 8))
        rows = result.rows
        # Same spike-count map at every core count: busy work can only shrink.
        assert rows[0]["cycles"] > rows[-1]["cycles"]
        assert rows[0]["parallel_efficiency"] == 1.0  # exact at the 1-core anchor
        assert 0.4 < rows[-1]["parallel_efficiency"] <= 1.05
        assert "efficiency_at_8_cores" in result.headline

    def test_core_count_without_one_core_uses_explicit_reference(self):
        # Regression: efficiency was once anchored to the *first* entry
        # (scaled by its own core count), so a (2, 4, 8) sweep reported the
        # 2-core point as perfectly efficient.  The 1-core anchor is now
        # evaluated separately (same data seed) when the points lack it.
        subset = run_registered("core_count", seed=5, core_counts=(2, 4, 8))
        full = run_registered("core_count", seed=5, core_counts=(1, 2, 4, 8))
        assert "efficiency_at_8_cores" in subset.headline
        for row_subset, row_full in zip(subset.rows, full.rows[1:]):
            assert row_subset["parallel_efficiency"] == pytest.approx(
                row_full["parallel_efficiency"]
            )
        # Real stealing overhead: no multi-core point is perfectly efficient.
        assert all(row["parallel_efficiency"] < 1.0 for row in subset.rows)

    def test_worker_exception_propagates_without_serial_rerun(self, capsys):
        # A bad point parameter is the caller's error, not a pool failure:
        # it must raise instead of triggering the serial fallback.
        with pytest.raises(ValueError):
            run_registered("firing_rate", jobs=2, backend="thread", rates=(0.1, -5.0))
        assert "pool failed" not in capsys.readouterr().err

    def test_runner_results_named_distinctly_from_sequential_sweeps(self):
        # Exported JSON/CSV results carry this name; it must stay stable.
        result = run_registered("stream_length", lengths=(4,))
        assert result.name == "parallel_stream_length_sweep"

    def test_process_backend_smoke(self):
        result = run_registered("stream_length", jobs=2, backend="process",
                                lengths=(1, 8, 64, 256))
        assert len(result.rows) == 4
        speedups = [row["speedup"] for row in result.rows]
        assert speedups == sorted(speedups)

    @pytest.mark.parametrize("name, params", [
        ("precision", {}),
        ("firing_rate", {"rates": (0.1,)}),
        ("core_count", {"core_counts": (2,)}),
        ("strided_indirect", {"rates": (0.1,)}),
        ("functional_batch", {"frame_counts": (1,)}),
    ])
    def test_precision_members_and_names_give_identical_rows(self, name, params):
        keyword = next(key for key, axis in SWEEPS[name].kwarg_axes.items()
                       if axis == "precision")
        # Only a batched sweep accepts a batch size (Session.run rejects it
        # elsewhere).
        size = {"batch_size": 1} if SWEEPS[name].batched else {}
        members = run_registered(name, seed=6, **size, **params,
                                 **{keyword: (Precision.FP8, Precision.FP16)})
        names = run_registered(name, seed=6, **size, **params,
                               **{keyword: ("fp8", "fp16")})
        assert members.rows == names.rows
        assert members.headline == names.headline
