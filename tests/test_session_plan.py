"""Tests for Session.run_plan streaming, process-pool sessions, store eviction."""

import pytest

from repro.backends import ThreadBackend
from repro.core.pipeline import SpikeStreamInference
from repro.config import spikestream_config
from repro.eval.runner import SWEEPS
from repro.plan import ParameterSpace, PlanRow, SweepSpec
from repro.session import (
    SCENARIOS,
    ResultStore,
    Session,
    _parse_cache_limit,
    register_sweep,
)


# --------------------------------------------------------------------------- #
# Streaming run_plan
# --------------------------------------------------------------------------- #
_STREAM_CALLS = []


def _slow_point(task):
    _STREAM_CALLS.append(task["n"])
    return {"n": task["n"], "tripled": task["n"] * 3}


_STREAM_SPEC = SweepSpec(
    name="triple",
    space=ParameterSpace.grid(n=(1, 2, 3, 4)),
    point=_slow_point,
    row_schema=("n", "tripled"),
    kwarg_axes={"ns": "n"},
    seeded=False,
)


class TestRunPlan:
    def test_streams_rows_before_completion(self):
        # The acceptance check: consuming the iterator mid-sweep must show
        # that later points have not run yet — run_plan streams, it does
        # not return a final list.
        _STREAM_CALLS.clear()
        with Session() as session:
            stream = session.run_plan(_STREAM_SPEC)
            first = next(stream)
            assert isinstance(first, PlanRow)
            assert first.index == 0 and first.row == {"n": 1, "tripled": 3}
            assert _STREAM_CALLS == [1], "run_plan ran ahead of the consumer"
            rest = list(stream)
        assert [row.index for row in rest] == [1, 2, 3]
        assert _STREAM_CALLS == [1, 2, 3, 4]

    def test_accepts_registered_names_and_rejects_unknown(self):
        with Session() as session:
            rows = sorted(session.run_plan("stream_length", lengths=(2, 8)),
                          key=lambda row: row.index)
            assert [row.row["stream_length"] for row in rows] == [2, 8]
            with pytest.raises(KeyError, match="unknown sweep"):
                next(session.run_plan("bogus"))

    def test_rows_enter_session_sweep_cache(self):
        with Session() as session:
            list(session.run_plan(_STREAM_SPEC))
            assert len(session.sweep_cache) == 4
            rerun = list(session.run_plan(_STREAM_SPEC))
        assert all(row.cached for row in rerun)

    def test_run_spec_collects_canonical_result(self):
        with Session() as session:
            result = session.run_spec(_STREAM_SPEC)
        assert [row["tripled"] for row in result.rows] == [3, 6, 9, 12]
        assert result.name == "parallel_triple_sweep"

    def test_process_session_matches_serial_rows(self):
        with Session() as serial_session:
            serial = serial_session.run("firing_rate", seed=21, rates=(0.1, 0.3))
        with Session(jobs=2, backend="process") as process_session:
            parallel = process_session.run("firing_rate", seed=21, rates=(0.1, 0.3))
            assert process_session.pool_launches == 1  # the shared pool ran it
        assert serial.rows == parallel.rows
        assert serial.headline == parallel.headline

    def test_run_plan_explicit_backend_object(self):
        with Session() as session:
            rows = sorted(
                session.run_plan(_STREAM_SPEC, backend=ThreadBackend(2)),
                key=lambda row: row.index,
            )
        assert [row.row["n"] for row in rows] == [1, 2, 3, 4]


class TestRegisterSweep:
    def test_registered_sweep_reachable_via_session_run(self):
        spec = SweepSpec(
            name="registered_triple",
            space=ParameterSpace.grid(n=(2, 4)),
            point=_slow_point,
            row_schema=("n", "tripled"),
            kwarg_axes={"ns": "n"},
            seeded=False,
            description="test-only sweep",
        )
        try:
            register_sweep(spec)
            with Session() as session:
                assert "registered_triple" in session.scenarios()
                info = session.describe("registered_triple")
                assert info["kind"] == "sweep"
                assert "ns" in info["params"]
                result = session.run("registered_triple")
            assert [row["tripled"] for row in result.rows] == [6, 12]
        finally:
            SWEEPS.pop("registered_triple", None)
            SCENARIOS.pop("registered_triple", None)


# --------------------------------------------------------------------------- #
# Result-store eviction
# --------------------------------------------------------------------------- #
class TestResultStoreEviction:
    def _result(self, seed=3):
        engine = SpikeStreamInference(spikestream_config(batch_size=1, seed=seed))
        return engine.run_statistical(batch_size=1, seed=seed)

    def test_max_entries_evicts_least_recently_used(self):
        store = ResultStore(max_entries=2)
        result = self._result()
        store.put("a", result)
        store.put("b", result)
        store.get("a")  # refresh: "b" becomes the LRU victim
        store.put("c", result)
        assert len(store) == 2
        assert "a" in store and "c" in store and "b" not in store
        assert store.evictions == 1

    def test_max_bytes_bounds_footprint(self):
        result = self._result()
        store = ResultStore(max_bytes=1)  # smaller than any result
        store.put("a", result)
        assert len(store) == 0 and store.evictions == 1
        roomy = ResultStore(max_bytes=10**9)
        roomy.put("a", result)
        assert len(roomy) == 1 and roomy.total_bytes > 0

    def test_disk_backed_eviction_reloads_from_disk(self, tmp_path):
        store = ResultStore(tmp_path, max_entries=1)
        result = self._result()
        store.put("a", result)
        store.put("b", result)  # evicts "a" from memory, file remains
        assert len(store) == 1
        assert store.get("a") is not None  # transparently reloaded
        assert store.hits == 1

    def test_unbounded_store_skips_size_accounting(self):
        store = ResultStore()
        store.put("a", self._result())
        assert store.total_bytes == 0 and store.evictions == 0

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError, match="max_entries"):
            ResultStore(max_entries=0)
        with pytest.raises(ValueError, match="max_bytes"):
            ResultStore(max_bytes=0)


class TestCacheLimitKnob:
    def test_parse_cache_limit(self):
        assert _parse_cache_limit(None) == (None, None, None)
        assert _parse_cache_limit(100) == (100, None, None)
        assert _parse_cache_limit("250") == (250, None, None)
        assert _parse_cache_limit("64MB") == (None, 64 * 1024**2, None)
        assert _parse_cache_limit("512 kb") == (None, 512 * 1024, None)
        assert _parse_cache_limit("1.5gb") == (None, int(1.5 * 1024**3), None)
        assert _parse_cache_limit("disk:64MB") == (None, None, 64 * 1024**2)
        assert _parse_cache_limit("250,disk:64MB") == (250, None, 64 * 1024**2)
        with pytest.raises(ValueError, match="cache_limit"):
            _parse_cache_limit("lots")

    def test_session_cache_limit_bounds_store(self):
        with Session(cache_limit=1) as session:
            assert session.store.max_entries == 1
            first = session.run_inference(batch_size=1, seed=1)
            second = session.run_inference(batch_size=1, seed=2)
            assert len(session.store) == 1
            assert session.store.evictions >= 1
        assert first is not None and second is not None

    def test_session_cache_limit_bytes(self):
        with Session(cache_limit="100MB") as session:
            assert session.store.max_bytes == 100 * 1024**2
            assert session.store.max_entries is None
