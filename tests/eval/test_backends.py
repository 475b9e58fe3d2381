"""Tests for point dispatch (serial or onto an executor) and session pools."""

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import pytest

from repro.backends import execute
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


@pytest.fixture
def thread_pool():
    with ThreadPoolExecutor(max_workers=2) as pool:
        yield pool


class TestStreamingBackends:
    @pytest.mark.parametrize("pool_cls", [
        None, lambda: ThreadPoolExecutor(max_workers=3),
        lambda: ProcessPoolExecutor(max_workers=2),
    ], ids=["serial", "thread", "process"])
    def test_every_index_exactly_once(self, pool_cls):
        pool = pool_cls() if pool_cls is not None else None
        try:
            seen = dict(execute(_square_point, _tasks(), pool))
        finally:
            if pool is not None:
                pool.shutdown()
        assert sorted(seen) == [0, 1, 2, 3, 4]
        assert seen[2] == {"n": 3, "squared": 9}

    def test_point_error_propagates_without_fallback(self, thread_pool, capsys):
        tasks = [{"n": 1}, {"n": -5}, {"n": 3}]
        with pytest.raises(ValueError, match="negative point"):
            list(execute(_fragile_point, tasks, thread_pool))
        assert "pool failed" not in capsys.readouterr().err

    def test_process_point_error_propagates(self, capsys):
        with ProcessPoolExecutor(max_workers=2) as pool:
            with pytest.raises(ValueError, match="negative point"):
                list(execute(_fragile_point, [{"n": 1}, {"n": -5}, {"n": 3}], pool))
        assert "pool failed" not in capsys.readouterr().err

    def test_point_oserror_is_a_point_error_not_infra(self, thread_pool, capsys):
        # A point reading a missing file must propagate immediately — it is
        # the point's error, not a dead pool, and must never trigger the
        # serial fallback (it would just fail deterministically again after
        # recomputing everything).
        def missing_file_point(task):
            raise FileNotFoundError(f"no dataset for n={task['n']}")

        with pytest.raises(FileNotFoundError):
            list(execute(missing_file_point, _tasks(3), thread_pool))
        assert "pool failed" not in capsys.readouterr().err


def _collect(rows):
    """A streamed plan's rows in canonical order."""
    return [plan_row.row for plan_row in sorted(rows, key=lambda row: row.index)]


class TestDeadPoolWorker:
    """A pool worker killed mid-sweep costs time, never rows."""

    def _expected_and_armed(self, marker):
        spec = _dying_spec(marker)
        marker.touch()  # disarmed: the serial reference must not exit
        expected = collect_plan(spec, seed=0, batch_size=0)
        marker.unlink()  # armed: the first pool worker to run a point dies
        return spec, expected

    def test_process_backend_reruns_the_lost_points(self, tmp_path, capsys):
        spec, expected = self._expected_and_armed(tmp_path / "died")
        with Session(jobs=2, backend="process") as session:
            rows = _collect(session.run_plan(spec, seed=0, batch_size=0))
        assert (tmp_path / "died").exists()  # a worker really exited
        assert rows == expected.rows
        assert "shared pool failed" in capsys.readouterr().err

    def test_session_shared_pool_degrades_to_serial(self, tmp_path):
        spec, _ = self._expected_and_armed(tmp_path / "died")
        with Session(jobs=2, backend="process") as session:
            _collect(session.run_plan(spec, seed=0, batch_size=0))
            assert (tmp_path / "died").exists()
            assert session.shared_executor() is None

    def test_broken_session_builds_no_new_pool(self, tmp_path, monkeypatch):
        # A session whose shared pool broke runs every later sweep serially;
        # it must never build a fresh private pool per sweep.
        spec, _ = self._expected_and_armed(tmp_path / "died")
        serial = Session().run("firing_rate", seed=3, rates=(0.1, 0.3))
        with Session(jobs=2, backend="process") as session:
            _collect(session.run_plan(spec, seed=0, batch_size=0))
            assert (tmp_path / "died").exists()

            def no_new_pool(self, *args, **kwargs):
                raise AssertionError("a degraded session built a pool")

            monkeypatch.setattr(ProcessPoolExecutor, "__init__", no_new_pool)
            result = session.run("firing_rate", seed=3, rates=(0.1, 0.3))
            assert session.pool_launches == 1
        assert result.rows == serial.rows
        assert result.headline == serial.headline
