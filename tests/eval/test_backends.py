"""Tests for the pluggable execution backends."""

import os

import pytest

from repro.backends import (
    ExecutorBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    make_backend,
)
from repro.plan import ParameterSpace, SweepSpec, collect_plan
from repro.session import Session


def _square_point(task):
    return {"n": task["n"], "squared": task["n"] ** 2}


def _fragile_point(task):
    if task["n"] < 0:
        raise ValueError("negative point")
    return {"n": task["n"], "squared": task["n"] ** 2}


SPEC = SweepSpec(
    name="square",
    space=ParameterSpace.grid(n=(1, 2, 3, 4, 5)),
    point=_square_point,
    row_schema=("n", "squared"),
    kwarg_axes={"ns": "n"},
    seeded=False,
)


def _die_once_point(task):
    """Kill the pool worker on the first point any process evaluates.

    Creating the marker file is atomic, so exactly one evaluation exits;
    every later one — in a surviving worker or in the serial retry —
    computes the row normally.
    """
    try:
        os.close(os.open(task["marker"], os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return _square_point(task)
    os._exit(3)


def _dying_spec(marker):
    return SweepSpec(
        name="square_dies_once",
        space=ParameterSpace.grid(n=(1, 2, 3, 4, 5, 6), marker=(str(marker),)),
        point=_die_once_point,
        row_schema=("n", "squared"),
        seeded=False,
    )


def _tasks(count=5):
    return [{"n": n, "seed": 0, "batch": 0} for n in range(1, count + 1)]


class TestMakeBackend:
    def test_resolution_precedence(self):
        assert isinstance(make_backend("serial"), SerialBackend)
        assert isinstance(make_backend("thread", jobs=2), ThreadBackend)
        assert isinstance(make_backend("process", jobs=2), ProcessBackend)
        # jobs=1 degrades pool kinds to serial (historical runner semantics).
        assert isinstance(make_backend("thread", jobs=1), SerialBackend)

    def test_executor_wins_over_pool_kinds(self):
        class FakeExecutor:
            pass

        backend = make_backend("process", jobs=4, executor=FakeExecutor())
        assert isinstance(backend, ExecutorBackend)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("gpu", jobs=2)
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("net")  # rejected even when jobs=1 would run serially


class TestStreamingBackends:
    @pytest.mark.parametrize("backend", [
        SerialBackend(), ThreadBackend(3), ProcessBackend(2)
    ], ids=["serial", "thread", "process"])
    def test_every_index_exactly_once(self, backend):
        seen = dict(backend.execute(_square_point, _tasks()))
        assert sorted(seen) == [0, 1, 2, 3, 4]
        assert seen[2] == {"n": 3, "squared": 9}

    def test_point_error_propagates_without_fallback(self, capsys):
        backend = ThreadBackend(2)
        tasks = [{"n": 1}, {"n": -5}, {"n": 3}]
        with pytest.raises(ValueError, match="negative point"):
            list(backend.execute(_fragile_point, tasks))
        assert "pool failed" not in capsys.readouterr().err

    def test_process_point_error_propagates(self, capsys):
        backend = ProcessBackend(2)
        with pytest.raises(ValueError, match="negative point"):
            list(backend.execute(_fragile_point, [{"n": 1}, {"n": -5}, {"n": 3}]))
        assert "pool failed" not in capsys.readouterr().err

    def test_point_oserror_is_a_point_error_not_infra(self, capsys):
        # A point reading a missing file must propagate immediately — it is
        # the point's error, not a dead pool, and must never trigger the
        # serial fallback (it would just fail deterministically again after
        # recomputing everything).
        def missing_file_point(task):
            raise FileNotFoundError(f"no dataset for n={task['n']}")

        with pytest.raises(FileNotFoundError):
            list(ThreadBackend(2).execute(missing_file_point, _tasks(3)))
        assert "pool failed" not in capsys.readouterr().err


class TestDeadPoolWorker:
    """A pool worker killed mid-sweep costs time, never rows."""

    def _expected_and_armed(self, marker):
        spec = _dying_spec(marker)
        marker.touch()  # disarmed: the serial reference must not exit
        expected = collect_plan(spec, SerialBackend(), seed=0, batch_size=0)
        marker.unlink()  # armed: the first pool worker to run a point dies
        return spec, expected

    def test_process_backend_reruns_the_lost_points(self, tmp_path, capsys):
        spec, expected = self._expected_and_armed(tmp_path / "died")
        result = collect_plan(spec, ProcessBackend(2), seed=0, batch_size=0)
        assert (tmp_path / "died").exists()  # a worker really exited
        assert result.rows == expected.rows
        assert "process pool failed" in capsys.readouterr().err

    def test_session_shared_pool_degrades_to_serial(self, tmp_path):
        spec, expected = self._expected_and_armed(tmp_path / "died")
        with Session(jobs=2, backend="process") as session:
            result = session.run_spec(spec)
            assert (tmp_path / "died").exists()
            assert result.rows == expected.rows
            assert session.shared_executor() is None
