"""Runtime lock tracing: order cycles, guarded state, and the live serve path.

The deterministic half builds small lock graphs by hand and asserts the
tracer's verdicts; the ``smoke``-marked half imports the shared checks
from ``tools/smoke.py`` (the same code CI's smoke gate runs): the full
static rule set must be clean on the repository, and a lock-traced
:class:`~repro.serve.server.InferenceServer` must survive 32 concurrent
mixed-mode requests with no ordering or guard violations.
"""

from __future__ import annotations

import importlib.util
import threading
from pathlib import Path

import pytest

from repro.lint import (
    GuardedMapping,
    LockOrderError,
    LockTracer,
    UnguardedAccessError,
    instrument_server,
)

_SMOKE_PATH = Path(__file__).resolve().parents[2] / "tools" / "smoke.py"


def _load_smoke():
    spec = importlib.util.spec_from_file_location("repro_tools_smoke_lint", _SMOKE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracer():
    return LockTracer()


# --------------------------------------------------------------------------- #
# Lock-order detection
# --------------------------------------------------------------------------- #
def test_consistent_order_is_clean(tracer):
    a, b = tracer.lock("a"), tracer.lock("b")
    for _ in range(3):
        with a:
            with b:
                pass
    assert tracer.edges() == {"a": ("b",)}
    tracer.assert_clean()


def test_inverted_lock_pair_raises(tracer):
    a, b = tracer.lock("a"), tracer.lock("b")
    with a:
        with b:
            pass
    with pytest.raises(LockOrderError, match="cycle"):
        with b:
            with a:
                pass
    assert tracer.violations


def test_inverted_pair_across_threads_detected():
    # The graph is global: thread 1 takes a -> b, thread 2 takes b -> a.
    tracer = LockTracer(raise_on_cycle=False)
    a, b = tracer.lock("a"), tracer.lock("b")

    def first_order():
        with a:
            with b:
                pass

    worker = threading.Thread(target=first_order)
    worker.start()
    worker.join()
    with b:
        with a:
            pass
    assert tracer.violations
    with pytest.raises(AssertionError, match="cycle"):
        tracer.assert_clean()


def test_cycle_detection_releases_the_inner_lock(tracer):
    # After a rejected acquisition the lock must not be left held.
    a, b = tracer.lock("a"), tracer.lock("b")
    with a:
        with b:
            pass
    with pytest.raises(LockOrderError):
        with b:
            with a:
                pass
    # Both locks are free again: a plain valid acquisition succeeds.
    with a:
        pass


def test_three_lock_cycle_detected(tracer):
    a, b, c = tracer.lock("a"), tracer.lock("b"), tracer.lock("c")
    with a:
        with b:
            pass
    with b:
        with c:
            pass
    with pytest.raises(LockOrderError, match="cycle"):
        with c:
            with a:
                pass


def test_reentrant_acquisition_records_no_self_edge(tracer):
    lock = tracer.rlock("r")
    with lock:
        with lock:
            pass
    assert "r" not in tracer.edges().get("r", ())
    tracer.assert_clean()


def test_condition_on_traced_lock_round_trips(tracer):
    import time

    lock = tracer.lock("cond")
    condition = threading.Condition(lock)
    released = []

    def waiter():
        with condition:
            released.append(condition.wait(timeout=5))

    worker = threading.Thread(target=waiter)
    worker.start()
    # Keep notifying until the waiter wakes: a single notify could land
    # before the waiter enters wait().
    deadline = time.monotonic() + 5
    while worker.is_alive() and time.monotonic() < deadline:
        with condition:
            condition.notify_all()
        time.sleep(0.01)
    worker.join(timeout=5)
    assert not worker.is_alive()
    assert released == [True]
    tracer.assert_clean()
    assert tracer.acquire_count >= 2


# --------------------------------------------------------------------------- #
# Guarded shared state
# --------------------------------------------------------------------------- #
def test_guarded_mapping_allows_access_under_lock(tracer):
    lock = tracer.rlock("store")
    guarded = tracer.guard_mapping({}, lock, "store._memory")
    with lock:
        guarded["key"] = 1
        assert guarded["key"] == 1
        assert "key" in guarded
        assert len(guarded) == 1
        assert list(guarded.items()) == [("key", 1)]
    tracer.assert_clean()


def test_guarded_mapping_rejects_unguarded_access(tracer):
    lock = tracer.rlock("store")
    guarded = tracer.guard_mapping({"key": 1}, lock, "store._memory")
    with pytest.raises(UnguardedAccessError, match="store._memory"):
        guarded["key"]
    # Recorded on the tracer too, so a swallowed exception still fails.
    with pytest.raises(AssertionError):
        tracer.assert_clean()


def test_guarded_mapping_rejects_unguarded_method_call(tracer):
    lock = tracer.rlock("store")
    guarded = tracer.guard_mapping({"key": 1}, lock, "store._memory")
    with pytest.raises(UnguardedAccessError):
        guarded.get("key")
    assert isinstance(guarded, GuardedMapping)


def test_guarded_mapping_is_per_thread(tracer):
    # The *holder* may access; another thread without the lock may not.
    lock = tracer.rlock("store")
    guarded = tracer.guard_mapping({}, lock, "store._memory")
    outcome = {}

    def intruder():
        try:
            guarded["key"] = 2
            outcome["raised"] = False
        except UnguardedAccessError:
            outcome["raised"] = True

    with lock:
        guarded["key"] = 1
        worker = threading.Thread(target=intruder)
        worker.start()
        worker.join()
    assert outcome["raised"] is True


# --------------------------------------------------------------------------- #
# The real serve path, lock-traced (shared with tools/smoke.py)
# --------------------------------------------------------------------------- #
@pytest.fixture
def traced_server():
    """A live InferenceServer with every lock traced (the test fixture the
    issue asks for: serve tests opt into lock tracing by depending on this)."""
    from repro.serve import InferenceServer

    server = InferenceServer(workers=2, max_batch=8, max_wait_ms=20)
    tracer = instrument_server(server)
    try:
        yield server, tracer
    finally:
        server.close()


@pytest.mark.smoke
@pytest.mark.usefixtures("shared_repo_lint")
def test_lint_repo_is_clean():
    _load_smoke().lint_repo_check()


@pytest.mark.smoke
def test_locktrace_serve_32_concurrent_requests():
    _load_smoke().locktrace_serve_check()


def test_traced_server_fixture_stays_clean(traced_server):
    from repro.config import spikestream_config

    server, tracer = traced_server
    config = spikestream_config(batch_size=1, timesteps=1, seed=53)
    futures = [
        server.submit_statistical(config=config, batch_size=1, seed=53 + index)
        for index in range(4)
    ]
    for future in futures:
        assert future.result(timeout=120) is not None
    tracer.assert_clean()
    assert tracer.acquire_count > 0
