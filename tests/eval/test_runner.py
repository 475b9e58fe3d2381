"""Tests for the parallel sweep runner and its results cache."""

import json

import pytest

from repro.eval.runner import (
    ResultsCache,
    SWEEPS,
    available_sweeps,
    point_seed,
    run_sweep,
)


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


class TestResultsCache:
    def test_in_memory_roundtrip(self):
        cache = ResultsCache()
        key = ResultsCache.key("firing_rate", {"rate": 0.1}, 2025, 4)
        assert cache.get(key) is None
        cache.put(key, {"speedup": 5.0})
        assert cache.get(key) == {"speedup": 5.0}
        assert cache.hits == 1 and cache.misses == 1

    def test_file_persistence(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = ResultsCache(path)
        key = ResultsCache.key("stream_length", {"length": 8}, 2025, 4)
        cache.put(key, {"speedup": 3.0})
        cache.save()
        reloaded = ResultsCache(path)
        assert reloaded.get(key) == {"speedup": 3.0}
        assert json.loads(path.read_text())  # valid JSON on disk

    def test_malformed_cache_entries_dropped_with_warning(self, tmp_path, capsys):
        path = tmp_path / "cache.json"
        good_key = ResultsCache.key("stream_length", {"length": 2}, 0, 0)
        path.write_text(json.dumps({good_key: {"stream_length": 2, "speedup": 2.0},
                                    "bad": "truncated"}))
        cache = ResultsCache(path)
        assert "warning" in capsys.readouterr().err
        assert len(cache) == 1
        assert cache.get(good_key) == {"stream_length": 2, "speedup": 2.0}
        assert cache.get("bad") is None

    def test_corrupt_cache_file_ignored_with_warning(self, tmp_path, capsys):
        path = tmp_path / "cache.json"
        path.write_text("NOT JSON{{{")
        cache = ResultsCache(path)  # must not raise
        assert len(cache) == 0
        assert "warning" in capsys.readouterr().err
        result = run_sweep("stream_length", cache=cache, lengths=(2,))
        assert result.rows[0]["stream_length"] == 2
        reloaded = ResultsCache(path)  # save() overwrote the corrupt file
        assert len(reloaded) == 1

    def test_key_distinguishes_config(self):
        base = ResultsCache.key("precision", {"precision": "fp16"}, 1, 4)
        assert base != ResultsCache.key("precision", {"precision": "fp16"}, 2, 4)
        assert base != ResultsCache.key("precision", {"precision": "fp16"}, 1, 8)
        assert base != ResultsCache.key("precision", {"precision": "fp8"}, 1, 4)


class TestRunSweep:
    def test_available_sweeps_registered(self):
        assert {"firing_rate", "core_count", "precision", "stream_length",
                "strided_indirect"} <= set(available_sweeps())
        assert all(name in SWEEPS for name in available_sweeps())

    def test_unknown_sweep_rejected(self):
        with pytest.raises(KeyError, match="unknown sweep"):
            run_sweep("nope")

    def test_misspelled_point_kwarg_rejected(self):
        with pytest.raises(TypeError):
            run_sweep("firing_rate", rate=(0.1,))  # typo for rates=
        with pytest.raises(TypeError):
            run_sweep("core_count", rates=(0.1,))  # wrong sweep's kwarg

    def test_serial_run_produces_rows_and_headline(self):
        result = run_sweep("stream_length", jobs=1, lengths=(1, 8, 64))
        assert [row["stream_length"] for row in result.rows] == [1, 8, 64]
        assert "asymptotic_speedup" in result.headline

    def test_parallel_matches_serial(self):
        serial = run_sweep("firing_rate", jobs=1, seed=7, rates=(0.05, 0.2, 0.4))
        threaded = run_sweep("firing_rate", jobs=3, backend="thread", seed=7,
                             rates=(0.05, 0.2, 0.4))
        assert serial.rows == threaded.rows
        assert serial.headline == threaded.headline

    def test_point_results_independent_of_subset(self):
        full = run_sweep("firing_rate", seed=9, rates=(0.05, 0.2, 0.4))
        subset = run_sweep("firing_rate", seed=9, rates=(0.2,))
        assert subset.rows[0] == full.rows[1]

    def test_core_count_shares_data_across_points(self):
        result = run_sweep("core_count", seed=5, core_counts=(1, 2, 8))
        rows = result.rows
        # Same spike-count map at every core count: busy work can only shrink.
        assert rows[0]["cycles"] > rows[-1]["cycles"]
        assert rows[0]["parallel_efficiency"] == pytest.approx(1.0)
        assert 0.4 < rows[-1]["parallel_efficiency"] <= 1.05
        assert "efficiency_at_8_cores" in result.headline

    def test_core_count_without_one_core_uses_explicit_reference(self):
        # Mirrors the core_count_sweep fix: the 1-core anchor is evaluated
        # separately (same data seed) when the requested points lack it.
        subset = run_sweep("core_count", seed=5, core_counts=(2, 8))
        full = run_sweep("core_count", seed=5, core_counts=(1, 2, 8))
        assert "efficiency_at_8_cores" in subset.headline
        for row_subset, row_full in zip(subset.rows, full.rows[1:]):
            assert row_subset["parallel_efficiency"] == pytest.approx(
                row_full["parallel_efficiency"]
            )

    def test_worker_exception_propagates_without_serial_rerun(self, capsys):
        # A bad point parameter is the caller's error, not a pool failure:
        # it must raise instead of triggering the serial fallback.
        with pytest.raises(ValueError):
            run_sweep("firing_rate", jobs=2, backend="thread", rates=(0.1, -5.0))
        assert "pool failed" not in capsys.readouterr().err

    def test_runner_results_named_distinctly_from_sequential_sweeps(self):
        result = run_sweep("stream_length", lengths=(4,))
        assert result.name == "parallel_stream_length_sweep"

    def test_cache_skips_reexecution(self, tmp_path):
        cache = ResultsCache(tmp_path / "cache.json")
        first = run_sweep("stream_length", cache=cache, lengths=(1, 16))
        assert cache.misses == 2 and cache.hits == 0
        second = run_sweep("stream_length", cache=cache, lengths=(1, 16))
        assert cache.hits == 2
        assert first.rows == second.rows

    def test_cache_ignores_knobs_a_sweep_does_not_consume(self, tmp_path):
        cache = ResultsCache(tmp_path / "cache.json")
        # stream_length is deterministic: a different --seed must still hit.
        run_sweep("stream_length", cache=cache, seed=1, lengths=(4,))
        run_sweep("stream_length", cache=cache, seed=99, lengths=(4,))
        assert cache.hits == 1
        # firing_rate never runs full-network inference: --batch must not miss.
        run_sweep("firing_rate", cache=cache, seed=1, batch_size=2, rates=(0.1,))
        run_sweep("firing_rate", cache=cache, seed=1, batch_size=64, rates=(0.1,))
        assert cache.hits == 2

    def test_unpersistable_cache_warns_instead_of_crashing(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        cache = ResultsCache(blocker / "cache.json")
        result = run_sweep("stream_length", cache=cache, lengths=(2,))
        assert result.rows[0]["stream_length"] == 2  # results still delivered
        assert "could not persist" in capsys.readouterr().err

    def test_core_count_anchor_goes_through_cache(self, tmp_path):
        cache = ResultsCache(tmp_path / "cache.json")
        run_sweep("core_count", seed=5, core_counts=(2, 4), cache=cache)
        assert cache.misses == 3  # two points + the 1-core anchor
        cache.hits = cache.misses = 0
        run_sweep("core_count", seed=5, core_counts=(2, 4), cache=cache)
        assert cache.hits == 3 and cache.misses == 0  # anchor cached too

    def test_finalize_failure_still_persists_computed_rows(self, tmp_path, monkeypatch):
        import dataclasses

        from repro.eval import runner as runner_mod

        def exploding_finalize(rows, tasks, run_cached):
            raise RuntimeError("finalize blew up")

        broken = dataclasses.replace(SWEEPS["stream_length"], finalize=exploding_finalize)
        monkeypatch.setitem(runner_mod.SWEEPS, "stream_length", broken)
        cache = ResultsCache(tmp_path / "cache.json")
        with pytest.raises(RuntimeError, match="finalize blew up"):
            run_sweep("stream_length", cache=cache, lengths=(1, 8))
        # The freshly computed sweep rows must have reached the disk cache.
        reloaded = ResultsCache(tmp_path / "cache.json")
        assert len(reloaded) == 2

    def test_cache_persists_across_runner_instances(self, tmp_path):
        path = tmp_path / "cache.json"
        run_sweep("stream_length", cache=ResultsCache(path), lengths=(4,))
        reloaded = ResultsCache(path)
        result = run_sweep("stream_length", cache=reloaded, lengths=(4,))
        assert reloaded.hits == 1 and reloaded.misses == 0
        assert result.rows[0]["stream_length"] == 4

    def test_process_backend_smoke(self):
        result = run_sweep("stream_length", jobs=2, backend="process",
                           lengths=(1, 8, 64, 256))
        assert len(result.rows) == 4
        speedups = [row["speedup"] for row in result.rows]
        assert speedups == sorted(speedups)
