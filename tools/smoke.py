"""CI smoke check: tier-1 tests, sweep, examples, backends, engines, serving, store.

Runs the repository's tier-1 pytest suite, exercises ``repro.cli run
--scenario`` on a sweep end-to-end (stream-length sweep, two workers, JSON
output, machine-readable payload), runs every script under ``examples/`` as
a subprocess (each must exit 0), runs one declarative
:class:`~repro.plan.SweepSpec` through EVERY execution backend
(serial / thread / process) asserting bit-for-bit row equality,
checks the batched *functional* engine against its per-frame reference loop
(bit-for-bit, on a small SVGG-style network), drives the ``repro.serve``
inference service with 32 concurrent mixed-mode requests asserting every
response equals the corresponding direct Session call, serves the same
frames under the FP64-dense reference and FP32 event-sparse golden-model
policies asserting store isolation, telemetry and the documented accuracy
bounds (the *precision matrix*), and finally runs one
scenario through a persistent :class:`repro.session.Session` twice,
runs the distributed serving tier (a lock-traced ``repro.net``
coordinator, two worker OS processes, one rigged to die mid-batch)
asserting rescue plus bit-for-bit equality with direct Session calls,
asserting that the second run is served from the result store (hit counter
> 0) with results equal to the cold run.  The final ``check`` step runs the
repository's own static-analysis gate (``repro.lint`` — the full AST rule
set must come back clean over src/tools/benchmarks/examples) and a
lock-traced mini serve session (every serve/session lock swapped for
:class:`~repro.lint.locktrace.TracedLock` via
:func:`~repro.lint.locktrace.instrument_server`, 32 concurrent mixed-mode
requests, then ``assert_clean`` — no lock-order cycles, no unguarded
shared-state access).  Exits non-zero on the first failure, so it can gate
CI directly::

    python tools/smoke.py

The backend-matrix, functional-equivalence, serving, precision-matrix and
check steps are also wired into the tier-1 pytest flow as fast
``smoke``-marked tests (``tests/eval/test_backend_matrix.py`` imports
:func:`backend_matrix_check`, ``tests/core/test_functional_batch.py``
imports :func:`functional_equivalence_check`,
``tests/serve/test_serve_smoke.py`` imports
:func:`serve_equivalence_check`, ``tests/serve/test_precision_serve.py``
imports :func:`precision_matrix_check`, ``tests/net/test_cluster_smoke.py``
imports :func:`cluster_check`, ``tests/obs/test_obs_smoke.py`` imports
:func:`obs_trace_check`, ``tests/lint/test_locktrace.py``
imports :func:`lint_repo_check` and :func:`locktrace_serve_check`), so
every plain ``pytest`` run covers them and ``pytest -m smoke`` runs them
alone.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
import time
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _env_with_src() -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}:{existing}" if existing else src
    return env


def run_tier1_tests() -> int:
    """The repository's tier-1 verify command."""
    print("== tier-1 tests ==", flush=True)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q"],
        cwd=REPO_ROOT,
        env=_env_with_src(),
    )
    return proc.returncode


def run_fast_sweep() -> int:
    """One fast sweep through the parallel runner, validated as JSON."""
    print("== fast sweep (repro.cli run --scenario stream_length) ==", flush=True)
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "run",
            "--scenario", "stream_length", "--jobs", "2", "--backend", "thread",
            "--format", "json",
        ],
        cwd=REPO_ROOT,
        env=_env_with_src(),
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return proc.returncode
    try:
        payload = json.loads(proc.stdout)
    except json.JSONDecodeError as error:
        print(f"sweep output is not valid JSON: {error}", file=sys.stderr)
        return 1
    if not payload.get("rows") or "asymptotic_speedup" not in payload.get("headline", {}):
        print("sweep output is missing rows or headline", file=sys.stderr)
        return 1
    print(f"sweep ok: {len(payload['rows'])} rows, "
          f"asymptotic_speedup={payload['headline']['asymptotic_speedup']:.3g}")
    return 0


def run_examples() -> int:
    """Every ``examples/*.py`` script as a subprocess; each must exit 0."""
    scripts = sorted((REPO_ROOT / "examples").glob("*.py"))
    print(f"== examples ({len(scripts)} scripts) ==", flush=True)
    for script in scripts:
        proc = subprocess.run(
            [sys.executable, str(script)],
            cwd=REPO_ROOT,
            env=_env_with_src(),
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            print(f"example {script.name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
    print(f"examples ok: {len(scripts)} scripts exited 0")
    return 0


#: (label, Session keyword arguments) of every pool kind the matrix check
#: exercises.
BACKEND_MATRIX = (
    ("serial", {"backend": "serial"}),
    ("thread", {"backend": "thread", "jobs": 2}),
    ("process", {"backend": "process", "jobs": 2}),
)


def backend_matrix_check(sweep: str = "stream_length", **point_kwargs) -> None:
    """One SweepSpec through every pool kind; rows must be bit-for-bit equal.

    Importable (used by the ``smoke``-marked tier-1 test) and raising
    ``AssertionError`` on the first divergence so failures name the backend.
    """
    if str(REPO_ROOT / "src") not in sys.path:
        sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.session import Session

    point_kwargs = point_kwargs or {"lengths": (1, 4, 16, 64)}
    reference = None
    for label, kwargs in BACKEND_MATRIX:
        with Session(**kwargs) as session:
            result = session.run(sweep, seed=17, **point_kwargs)
        if reference is None:
            reference = (label, result)
            continue
        ref_label, ref = reference
        assert result.rows == ref.rows, (
            f"backend {label} rows diverge from {ref_label}"
        )
        assert result.headline == ref.headline, (
            f"backend {label} headline diverges from {ref_label}"
        )


def run_backend_matrix() -> int:
    """The backend matrix as a smoke step (prints a summary, returns a code)."""
    print("== backend matrix (one SweepSpec through every backend) ==", flush=True)
    try:
        backend_matrix_check()
    except AssertionError as error:
        print(f"backend matrix failed: {error}", file=sys.stderr)
        return 1
    print("backend matrix ok: " + ", ".join(label for label, _ in BACKEND_MATRIX))
    return 0


def functional_equivalence_check(batch: int = 3, timesteps: int = 2, seed: int = 23) -> None:
    """Batched functional engine vs per-frame loop on a small SVGG network.

    Importable (used by the ``smoke``-marked tier-1 test in
    ``tests/core/test_functional_batch.py``) and raising ``AssertionError``
    on divergence.  Runs the SpikeStream FP16 and baseline variants so both
    kernel flavours are covered, multi-timestep, bit-for-bit.
    """
    if str(REPO_ROOT / "src") not in sys.path:
        sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.config import baseline_config, spikestream_config
    from repro.core.pipeline import SpikeStreamInference
    from repro.eval.sweeps import functional_network
    from repro.snn.datasets import SyntheticCIFAR10
    from repro.types import TensorShape

    network = functional_network(seed)
    frames, _ = SyntheticCIFAR10(
        seed=seed, image_shape=TensorShape(16, 16, 3)
    ).sample(batch)
    for config in (
        spikestream_config(batch_size=batch, timesteps=timesteps, seed=seed),
        baseline_config(batch_size=batch, timesteps=timesteps, seed=seed),
    ):
        engine = SpikeStreamInference(config)
        vectorized = engine.run_functional(network, frames)
        reference = engine.run_functional_reference(network, frames)
        assert vectorized.identical_to(reference), (
            f"functional batch engine diverges from the per-frame loop "
            f"(streaming={config.streaming_enabled})"
        )
        assert vectorized.layers[0].batch_size == batch * timesteps


def run_functional_equivalence() -> int:
    """The functional-engine check as a smoke step (summary + return code)."""
    print("== functional engine (batched vs per-frame reference) ==", flush=True)
    try:
        functional_equivalence_check()
    except AssertionError as error:
        print(f"functional equivalence failed: {error}", file=sys.stderr)
        return 1
    print("functional engine ok: bit-for-bit vs reference, "
          "spikestream + baseline, 2 timesteps")
    return 0


def serve_equivalence_check(requests: int = 32, seed: int = 31) -> None:
    """Concurrent mixed-mode serving vs direct Session calls, bit-for-bit.

    Importable (used by the ``smoke``-marked tier-1 test in
    ``tests/serve/test_serve_smoke.py``) and raising ``AssertionError`` on
    divergence.  Starts an in-process
    :class:`~repro.serve.server.InferenceServer`, fires ``requests``
    concurrent requests alternating statistical and functional mode (small
    SVGG-style network, so the whole check stays fast), and asserts every
    response equals what a direct :meth:`Session.run_inference` /
    :meth:`Session.run_functional` call produces for the same parameters —
    the micro-batcher must be invisible to callers.
    """
    if str(REPO_ROOT / "src") not in sys.path:
        sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.config import spikestream_config
    from repro.eval.sweeps import functional_network
    from repro.serve import InferenceServer
    from repro.session import Session
    from repro.snn.datasets import SyntheticCIFAR10
    from repro.types import TensorShape

    config = spikestream_config(batch_size=1, timesteps=2, seed=seed)
    network = functional_network(seed)
    frames, _ = SyntheticCIFAR10(
        seed=seed, image_shape=TensorShape(16, 16, 3)
    ).sample(requests)

    with InferenceServer(workers=2, max_batch=8, max_wait_ms=20) as server:
        futures = []
        for index in range(requests):
            if index % 2 == 0:
                futures.append(("statistical", index, server.submit_statistical(
                    config=config, batch_size=1, seed=seed + index,
                )))
            else:
                futures.append(("functional", index, server.submit_functional(
                    network, frames[index:index + 1], config=config,
                )))
        served = [(mode, index, future.result(timeout=120))
                  for mode, index, future in futures]
        queued_depth_after = server.queue.depth()

    assert queued_depth_after == 0, "drained server left requests queued"
    # An independent session (no shared store) recomputes every request solo.
    reference_session = Session()
    for mode, index, result in served:
        if mode == "statistical":
            expected = reference_session.run_inference(
                config, batch_size=1, seed=seed + index
            )
        else:
            expected = reference_session.run_functional(
                network, frames[index:index + 1], config=config
            )
        assert result.identical_to(expected), (
            f"served {mode} request {index} diverges from the direct Session call"
        )


def run_serve_smoke() -> int:
    """The serving check as a smoke step (summary + return code)."""
    print("== serve (32 concurrent mixed-mode requests vs direct Session) ==",
          flush=True)
    try:
        serve_equivalence_check()
    except AssertionError as error:
        print(f"serve equivalence failed: {error}", file=sys.stderr)
        return 1
    print("serve ok: 32 mixed statistical/functional requests, "
          "micro-batched, bit-for-bit vs direct calls")
    return 0


def precision_matrix_check(frames_count: int = 8, seed: int = 41) -> None:
    """FP64-dense vs FP32 event-sparse served through ``repro.serve``.

    Importable (used by the ``smoke``-marked tier-1 test in
    ``tests/serve/test_precision_serve.py``) and raising ``AssertionError``
    on the first violation.  Submits the same frames to one
    :class:`~repro.serve.server.InferenceServer` under the FP64-dense
    reference policy and the FP32 event-sparse fast policy, then asserts
    the serving-layer contract (the two policies never share a result-store
    entry; both per-policy request counters appear in the telemetry
    snapshot) and the documented golden-model accuracy bound (classification
    agreement >=
    :data:`~repro.snn.numerics.CLASSIFICATION_AGREEMENT_BOUND`, per-layer
    spike-count deviation <=
    :data:`~repro.snn.numerics.SPIKE_COUNT_TOLERANCE`).
    """
    if str(REPO_ROOT / "src") not in sys.path:
        sys.path.insert(0, str(REPO_ROOT / "src"))
    import numpy as np

    from repro.config import spikestream_config
    from repro.eval.sweeps import functional_network
    from repro.serve import InferenceServer
    from repro.snn.datasets import SyntheticCIFAR10
    from repro.snn.numerics import (
        CLASSIFICATION_AGREEMENT_BOUND,
        REFERENCE,
        SPIKE_COUNT_TOLERANCE,
        NumericsPolicy,
    )
    from repro.types import TensorShape

    config = spikestream_config(batch_size=1, timesteps=1, seed=seed)
    network = functional_network(seed)
    frames, _ = SyntheticCIFAR10(
        seed=seed, image_shape=TensorShape(16, 16, 3)
    ).sample(frames_count)
    fast = NumericsPolicy("fp32", "event_sparse")

    with InferenceServer(workers=2, max_batch=8, max_wait_ms=20) as server:
        reference_future = server.submit_functional(network, frames, config=config)
        fast_future = server.submit_functional(
            network, frames, config=config, numerics=fast
        )
        reference_future.result(timeout=120)
        fast_future.result(timeout=120)
        stats = server.stats()
        entries = server.session.store.stats()["entries"]

    assert entries >= 2, (
        "fp64-dense and fp32-event_sparse requests shared one store entry"
    )
    for policy_key in (REFERENCE.key(), fast.key()):
        counter = f"serve.numerics.requests.{policy_key}"
        assert stats.get(counter, 0) >= 1, f"telemetry is missing {counter}"

    # Accuracy bound of the fast policy vs the golden reference, on the same
    # frames the server just costed.
    reference_activity = network.forward_batch(frames, policy=REFERENCE)
    fast_activity = network.forward_batch(frames, policy=fast)
    for index in network.weighted_layers:
        reference_count = sum(
            float(record.output_spikes.sum())
            for record in reference_activity.for_layer(index)
        )
        fast_count = sum(
            float(record.output_spikes.sum())
            for record in fast_activity.for_layer(index)
        )
        deviation = abs(fast_count - reference_count) / max(reference_count, 1.0)
        assert deviation <= SPIKE_COUNT_TOLERANCE, (
            f"layer {index} spike count deviates {deviation:.3f} "
            f"(> {SPIKE_COUNT_TOLERANCE}) under fp32-event_sparse"
        )
    agreement = float(np.mean(
        network.predict_batch(frames, policy=REFERENCE)
        == network.predict_batch(frames, policy=fast)
    ))
    assert agreement >= CLASSIFICATION_AGREEMENT_BOUND, (
        f"classification agreement {agreement:.3f} below "
        f"{CLASSIFICATION_AGREEMENT_BOUND} under fp32-event_sparse"
    )


def run_precision_matrix() -> int:
    """The precision matrix as a smoke step (summary + return code)."""
    print("== precision matrix (fp64-dense vs fp32-event_sparse via serve) ==",
          flush=True)
    try:
        precision_matrix_check()
    except AssertionError as error:
        print(f"precision matrix failed: {error}", file=sys.stderr)
        return 1
    print("precision matrix ok: distinct store entries per policy, "
          "telemetry counters present, agreement/spike-count bounds met")
    return 0


def run_session_store_check() -> int:
    """One scenario through a persistent Session twice; the rerun must hit.

    The first ``session.run`` simulates the S-VGG11 variants and persists
    each whole ``InferenceResult`` under ``cache_dir``; the second run with
    an identical configuration fingerprint must be served from the result
    store (hit counter > 0) and produce identical rows.
    """
    print("== session result store (scenario run served from cache) ==", flush=True)
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.session import Session

    with tempfile.TemporaryDirectory() as cache_dir:
        with Session(cache_dir=cache_dir) as session:
            first = session.run("speedup", batch_size=2, seed=321)
            misses = session.store.misses
            second = session.run("speedup", batch_size=2, seed=321)
        if session.store.hits <= 0:
            print("second scenario run did not hit the result store", file=sys.stderr)
            return 1
        if session.store.misses != misses:
            print("second scenario run re-simulated despite the store", file=sys.stderr)
            return 1
        if first.rows != second.rows or first.headline != second.headline:
            print("store-served scenario result differs from the cold run", file=sys.stderr)
            return 1
        # A brand-new session must be served from the persisted files too.
        with Session(cache_dir=cache_dir) as fresh:
            third = fresh.run("speedup", batch_size=2, seed=321)
        if fresh.store.hits <= 0 or fresh.store.misses != 0:
            print("fresh session did not reuse the persisted result store", file=sys.stderr)
            return 1
        if third.rows != first.rows:
            print("persisted result store returned different rows", file=sys.stderr)
            return 1
    print(f"session store ok: {session.store.hits} hit(s) in-session, "
          f"{fresh.store.hits} hit(s) from disk")
    return 0


def lint_repo_check() -> None:
    """The full static-analysis rule set must come back clean on the repo.

    Importable (used by the ``smoke``-marked tier-1 test in
    ``tests/lint/test_locktrace.py``) and raising ``AssertionError`` with
    every finding listed, so a violating commit names its own lines.
    """
    if str(REPO_ROOT / "src") not in sys.path:
        sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.lint import check_project

    result = check_project(root=REPO_ROOT)
    assert result.passed, (
        f"repro.lint found {len(result.findings)} violation(s):\n"
        + "\n".join(finding.format() for finding in result.findings)
    )


def locktrace_serve_check(requests: int = 32, seed: int = 47) -> None:
    """A lock-traced serve session must finish with a clean tracer.

    Importable (used by the ``smoke``-marked tier-1 test) and raising
    ``AssertionError`` on any recorded violation.  Swaps every lock of a
    live :class:`~repro.serve.server.InferenceServer` (queue, metrics,
    result store, close lock) for
    :class:`~repro.lint.locktrace.TracedLock` via
    :func:`~repro.lint.locktrace.instrument_server`, wraps the store's
    backing dict in a :class:`~repro.lint.locktrace.GuardedMapping`, fires
    ``requests`` concurrent mixed statistical/functional requests, and
    asserts both that the responses are sane and that the tracer saw no
    lock-order cycle and no store access without the store lock held.
    """
    if str(REPO_ROOT / "src") not in sys.path:
        sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.config import spikestream_config
    from repro.eval.sweeps import functional_network
    from repro.lint.locktrace import instrument_server
    from repro.serve import InferenceServer
    from repro.snn.datasets import SyntheticCIFAR10
    from repro.types import TensorShape

    config = spikestream_config(batch_size=1, timesteps=1, seed=seed)
    network = functional_network(seed)
    frames, _ = SyntheticCIFAR10(
        seed=seed, image_shape=TensorShape(16, 16, 3)
    ).sample(requests)

    with InferenceServer(workers=2, max_batch=8, max_wait_ms=20) as server:
        tracer = instrument_server(server)
        futures = []
        for index in range(requests):
            if index % 2 == 0:
                futures.append(server.submit_statistical(
                    config=config, batch_size=1, seed=seed + index,
                ))
            else:
                futures.append(server.submit_functional(
                    network, frames[index:index + 1], config=config,
                ))
        results = [future.result(timeout=120) for future in futures]
        stats = server.stats()

    assert len(results) == requests and all(r is not None for r in results), (
        "lock-traced serve session dropped responses"
    )
    assert stats.get("serve.completed", 0) >= requests, (
        f"completed counter {stats.get('serve.completed')} < {requests}"
    )
    tracer.assert_clean()
    # The instrumented run must actually have exercised the traced locks.
    assert tracer.acquire_count > 0, (
        "locktrace instrumented a server but saw no lock acquisitions"
    )


def cluster_check(seed: int = 53) -> None:
    """Distributed serving (2 worker processes) vs direct Session, bit-for-bit.

    Importable (used by the ``smoke``-marked tier-1 test in
    ``tests/net/test_cluster_smoke.py``) and raising ``AssertionError`` on
    the first violation.  Starts a lock-traced
    :class:`~repro.net.coordinator.Coordinator`
    (:func:`~repro.lint.locktrace.instrument_coordinator`) and two real
    worker OS processes (:func:`~repro.net.worker.spawn_worker`) — the
    first rigged to die mid-batch (``chaos_exit_after=0``), so the check
    proves the whole failure story, not just the happy path:

    1. a first wave of statistical requests lands on the doomed worker,
       which hard-exits mid-batch; the coordinator rescues the in-flight
       batch (``net.rescues``/``net.workers_lost``) and the healthy worker
       completes every future — none lost, all before the deadline;
    2. a second mixed statistical/functional wave runs through the healthy
       worker;
    3. two further functional waves carry a **big-FC network** whose weight
       matrix sits far above the wire's blob threshold: the weights must
       cross each link exactly once (``__need_blob__`` traffic and
       ``net.blob`` misses stay flat across the second wave) and the
       per-request dispatch bytes of that second wave must be at least 5x
       smaller than the same request pickled whole;
    4. every response must be bit-for-bit identical to a direct
       :class:`~repro.session.Session` call, and the lock tracer must come
       back clean (no order cycles, no unguarded link-table access).
    """
    if str(REPO_ROOT / "src") not in sys.path:
        sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.config import spikestream_config
    from repro.eval.sweeps import functional_network
    from repro.lint.locktrace import instrument_coordinator
    from repro.net import Coordinator, spawn_worker
    from repro.net.coordinator import HEARTBEAT_INTERVAL_S
    from repro.session import Session
    from repro.snn.datasets import SyntheticCIFAR10
    from repro.snn.layers import (
        Flatten, SpikingConv2d, SpikingLinear, SpikingMaxPool2d,
    )
    from repro.snn.network import SpikingNetwork
    from repro.snn.neuron import LIFParameters
    from repro.types import TensorShape

    config = spikestream_config(batch_size=1, timesteps=1, seed=seed)
    network = functional_network(seed)
    frames, _ = SyntheticCIFAR10(
        seed=seed, image_shape=TensorShape(16, 16, 3)
    ).sample(4)

    coordinator = Coordinator(
        max_batch=4, max_wait_ms=10, liveness_timeout_s=1.5,
        default_deadline_s=120.0,
    )
    tracer = instrument_coordinator(coordinator)
    processes = []
    served = []
    try:
        # Wave 1: only the doomed worker is connected, so it receives (and
        # dies on) the first batch; the healthy worker then rescues it.
        processes.append(spawn_worker(
            coordinator.address, worker_id="smoke-doomed", chaos_exit_after=0
        ))
        assert coordinator.wait_for_workers(1, timeout=120), (
            "the first worker process never registered"
        )
        wave1 = [
            ("statistical", index,
             coordinator.submit_statistical(config=config, seed=seed + index))
            for index in range(4)
        ]
        processes.append(spawn_worker(
            coordinator.address, worker_id="smoke-healthy"
        ))
        served.extend(
            (mode, index, future.result(timeout=240))
            for mode, index, future in wave1
        )
        # Wave 2: mixed statistical/functional through the healthy worker.
        wave2 = []
        for index in range(4):
            if index % 2 == 0:
                wave2.append(("statistical", 10 + index,
                              coordinator.submit_statistical(
                                  config=config, seed=seed + 10 + index)))
            else:
                wave2.append(("functional", index,
                              coordinator.submit_functional(
                                  network, frames[index:index + 1],
                                  config=config)))
        served.extend(
            (mode, index, future.result(timeout=240))
            for mode, index, future in wave2
        )

        # Waves 3 and 4: a network whose FC weights (512x128 float64 =
        # 512 KB) dwarf the blob threshold.  The weights must cross the
        # healthy worker's link once — wave 4 re-uses the digest.
        lif = LIFParameters(alpha=0.9, v_threshold=0.25)
        big_network = SpikingNetwork([
            SpikingConv2d(3, 8, kernel_size=3, padding=1, lif=lif,
                          encodes_input=True, name="conv1"),
            SpikingMaxPool2d(name="pool1"),
            Flatten(name="flatten"),
            SpikingLinear(8 * 8 * 8, 128, lif=lif, name="big-fc"),
            SpikingLinear(128, 10, lif=lif, name="out", is_output=True),
        ], input_shape=TensorShape(16, 16, 3), name="big-fc-net")
        big_network.initialize(seed)
        big_frames, _ = SyntheticCIFAR10(
            seed=seed + 100, image_shape=TensorShape(16, 16, 3)
        ).sample(8)

        def _big_wave(offset):
            futures = [
                coordinator.submit_functional(
                    big_network, big_frames[offset + i:offset + i + 1],
                    config=config,
                )
                for i in range(4)
            ]
            return [future.result(timeout=240) for future in futures]

        def _settle(predicate, timeout=10.0):
            end = time.monotonic() + timeout
            while time.monotonic() < end and not predicate():
                time.sleep(0.05)

        big_served = [("big-fc", index, result)
                      for index, result in enumerate(_big_wave(0))]
        # Worker-side blob counters travel on heartbeats; wait for the
        # wave-3 miss to be visible before snapshotting the plateau.
        _settle(lambda: coordinator.stats()["net.blob"]["misses"] >= 1)
        after_wave3 = coordinator.stats()
        assert after_wave3["net.blob"]["misses"] >= 1, (
            "the big-FC weights never took the blob path"
        )

        big_served += [("big-fc", 4 + index, result)
                       for index, result in enumerate(_big_wave(4))]
        time.sleep(3 * HEARTBEAT_INTERVAL_S)
        after_wave4 = coordinator.stats()
        assert (after_wave4["net.blob"]["misses"]
                == after_wave3["net.blob"]["misses"]), (
            "the second big-FC wave re-missed blobs the workers already hold"
        )
        need_blob_key = "__need_blob__"
        assert (
            after_wave4["net.bytes"]["received_by_kind"].get(need_blob_key, 0)
            == after_wave3["net.bytes"]["received_by_kind"].get(need_blob_key, 0)
        ), "the second big-FC wave still requested blob bytes"

        # And the dedup must show up as wire savings: wave-4 dispatch
        # traffic per request must be >= 5x smaller than the same single
        # request pickled whole, which carries the weights every time.
        wave4_batch_bytes = (
            after_wave4["net.bytes"]["sent_by_kind"].get("batch", 0)
            - after_wave3["net.bytes"]["sent_by_kind"].get("batch", 0)
        )
        pickled_request_bytes = len(pickle.dumps({
            "mode": "functional", "config": config,
            "network": big_network, "frames": big_frames[4:5],
        }))
        assert wave4_batch_bytes / 4 * 5 <= pickled_request_bytes, (
            f"big-FC dispatch costs {wave4_batch_bytes / 4:.0f} B/request "
            f"on the wire — not even 5x below the {pickled_request_bytes} B "
            f"of the request pickled whole"
        )
        served.extend(big_served)
        stats = coordinator.stats()
    finally:
        coordinator.close()
        for process in processes:
            try:
                process.wait(timeout=60)
            except Exception:
                process.kill()

    assert stats["net.workers_lost"] >= 1, (
        "the rigged worker's death was never detected"
    )
    assert stats["net.rescues"] >= 1, (
        "the killed worker's in-flight batch was never rescued"
    )
    assert stats["net.dispatches"] >= 2, "the cluster dispatched too little"
    reference = Session()
    try:
        for mode, index, result in served:
            assert result is not None, f"{mode} request {index} was lost"
            if mode == "statistical":
                expected = reference.run_inference(
                    config, batch_size=1, seed=seed + index
                )
            elif mode == "big-fc":
                expected = reference.run_functional(
                    big_network, big_frames[index:index + 1], config=config
                )
            else:
                expected = reference.run_functional(
                    network, frames[index:index + 1], config=config
                )
            assert result.identical_to(expected), (
                f"distributed {mode} request {index} diverges from the "
                f"direct Session call"
            )
    finally:
        reference.close()
    tracer.assert_clean()
    assert tracer.acquire_count > 0, (
        "locktrace instrumented a coordinator but saw no lock acquisitions"
    )


def obs_trace_check(requests: int = 32, seed: int = 59) -> None:
    """A traced mixed-mode cluster wave must export complete, nested traces.

    Importable (used by the ``smoke``-marked tier-1 test in
    ``tests/obs/test_obs_smoke.py``) and raising ``AssertionError`` on the
    first violation.  Starts a :class:`~repro.net.coordinator.Coordinator`
    with an enabled :class:`~repro.obs.Tracer` and two in-process
    :class:`~repro.net.worker.NetWorker` threads, fires ``requests``
    alternating statistical/functional requests, and asserts every request
    produced exactly one **completed** trace that

    * passes :func:`~repro.obs.well_nested` (one root, no orphans, every
      child inside its parent, every follow-from resolvable),
    * accounts the full path — ``queue_wait``, ``dispatch`` and the
      worker's remote ``worker_execute``/``engine_pass`` spans all stitch
      under the root on the coordinator's clock,
    * and renders to Chrome ``trace_event`` JSON that serializes as-is.
    """
    if str(REPO_ROOT / "src") not in sys.path:
        sys.path.insert(0, str(REPO_ROOT / "src"))
    import threading

    from repro.config import spikestream_config
    from repro.eval.sweeps import functional_network
    from repro.net import Coordinator, NetWorker
    from repro.obs import Tracer, to_chrome, well_nested
    from repro.snn.datasets import SyntheticCIFAR10
    from repro.types import TensorShape

    config = spikestream_config(batch_size=1, timesteps=1, seed=seed)
    network = functional_network(seed)
    frames, _ = SyntheticCIFAR10(
        seed=seed, image_shape=TensorShape(16, 16, 3)
    ).sample(requests)

    coordinator = Coordinator(
        max_batch=8, max_wait_ms=10, liveness_timeout_s=5.0,
        tracer=Tracer(enabled=True, capacity=max(requests, 256)),
    )
    workers = []
    try:
        for index in range(2):
            worker = NetWorker(coordinator.address, worker_id=f"obs-{index}")
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            workers.append((worker, thread))
        assert coordinator.wait_for_workers(2, timeout=120)
        futures = []
        for index in range(requests):
            if index % 2 == 0:
                futures.append(coordinator.submit_statistical(
                    config=config, batch_size=1, seed=seed + index,
                ))
            else:
                futures.append(coordinator.submit_functional(
                    network, frames[index:index + 1], config=config,
                ))
        for future in futures:
            assert future.result(timeout=240) is not None
        traces = coordinator.tracer.completed()
        stats = coordinator.tracer.stats()
    finally:
        coordinator.close()
        for worker, thread in workers:
            thread.join(timeout=30)

    assert len(traces) == requests, (
        f"{requests} requests must complete {requests} traces, "
        f"got {len(traces)} (stats: {stats})"
    )
    assert stats["open_spans"] == 0, f"unfinished spans left: {stats}"
    for trace in traces:
        error = well_nested(trace)
        assert error is None, f"malformed trace: {error}"
        names = [span["name"] for span in trace["spans"]]
        for stage in ("request", "queue_wait", "dispatch",
                      "worker_execute", "engine_pass"):
            assert stage in names, (
                f"trace is missing its {stage!r} span (has {sorted(names)})"
            )
    document = to_chrome(traces)
    json.dumps(document)  # must load in chrome://tracing / Perfetto as-is
    assert len(document["traceEvents"]) >= requests * 5


def run_obs() -> int:
    """The tracing check as a smoke step (summary + return code)."""
    print("== obs (32 traced mixed-mode cluster requests, nested traces) ==",
          flush=True)
    try:
        obs_trace_check()
    except AssertionError as error:
        print(f"obs trace check failed: {error}", file=sys.stderr)
        return 1
    print("obs ok: every request exported one complete well-nested trace "
          "with queue/dispatch/worker stages on one timeline")
    return 0


def run_cluster() -> int:
    """The distributed-serving check as a smoke step."""
    print("== cluster (2 worker processes, chaos kill, vs direct Session) ==",
          flush=True)
    try:
        cluster_check()
    except AssertionError as error:
        print(f"cluster check failed: {error}", file=sys.stderr)
        return 1
    print("cluster ok: killed worker rescued, mixed-mode waves bit-for-bit "
          "vs direct calls, lock-traced coordinator clean")
    return 0


def run_check() -> int:
    """Static analysis + lock-traced serving as one smoke step."""
    print("== check (repro.lint clean run + lock-traced serve session) ==",
          flush=True)
    try:
        lint_repo_check()
    except AssertionError as error:
        print(f"lint gate failed: {error}", file=sys.stderr)
        return 1
    try:
        locktrace_serve_check()
    except AssertionError as error:
        print(f"locktrace serve check failed: {error}", file=sys.stderr)
        return 1
    print("check ok: full rule set clean, 32 lock-traced mixed-mode "
          "requests with no ordering or guard violations")
    return 0


def main() -> int:
    for step in (run_tier1_tests, run_fast_sweep, run_examples, run_backend_matrix,
                 run_functional_equivalence, run_serve_smoke,
                 run_precision_matrix, run_cluster, run_obs,
                 run_session_store_check, run_check):
        code = step()
        if code != 0:
            return code
    print("smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
