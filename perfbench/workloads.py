"""The three workloads: set-up, timed passes, output checks and metrics.

Every workload runs the same way:

1. **Set-up**, :data:`SETUP_REPEATS` times (``setup_s`` is the median).  A
   set-up builds everything the workload needs — session, network and its
   fingerprint, server, worker process — and warms it up by serving the
   canonical requests of :mod:`perfbench.catalog`.  Their results give the
   ``sim_*`` metrics, must repeat exactly across the set-ups, and must equal
   a direct :class:`repro.session.Session` run.  Only the last set-up is kept.
2. **A timed pass** over inputs made from ``--seed``, in :data:`ROUNDS`
   rounds spread over the run.  A serving round sends a fixed-rate open-loop
   chunk (latency, from each request's due time) and then a burst of
   simultaneous requests (``throughput_fps``, frames over the bursts' total
   time: the host's slow spells make burst times bimodal, and a median of
   a few bursts would jump between the modes).  An
   ``offline-b128`` round runs :data:`BATCHES_PER_ROUND` batch-128 runs back
   to back (latency per run; throughput from the median run).
3. **Output checks**, outside the timed window: every response against a
   direct engine run of the same request, a seeded sample against a fresh
   ``Session`` and against the per-frame reference loops.

Host times are scaled to the reference host (:mod:`perfbench.host`): the
calibration unit is timed before and after every set-up, fixed-rate chunk,
burst and offline round, and the times measured in between are multiplied
by ``REFERENCE_UNIT_MS / unit``, with the mean of the two units.  The
unscaled figures go to the result file.

A traced run (``traced=True``) makes four one-round passes of a quarter of
the length on one context, untraced, traced, traced, untraced, with the
timing shims of :mod:`perfbench.shims` installed only during the traced
ones, followed by a replay that times ``core`` per layer and the ``snn``
golden ops on the recorded inputs.  It reports the per-layer metrics and the
tracing overhead (traced against untraced passes of the same run).
"""

from __future__ import annotations

import contextlib
import gc
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import catalog, host
from .loadgen import PhaseReport, percentile, run_phase
from .shims import Recorder, installed

__all__ = ["Outcome", "WORKLOAD_CLASSES", "make_workload"]

SETUP_REPEATS = 3
#: Requests each serving pass completes in its fixed-rate chunks, so that
#: ten lie beyond p90.  ``offline-b128`` runs at least a tenth as many
#: batch-128 runs.
MIN_PHASE_REQUESTS = 100
#: Per-pass minimum in traced runs, whose latencies feed no bounded metric.
MIN_TRACED_REQUESTS = 30
#: Share of ``--seconds`` given to the fixed-rate chunks; bursts get the rest.
RATE_SHARE = 0.8
#: Rounds of an untraced pass, and the fewest fixed-rate requests a round
#: sends (smaller passes make fewer rounds).
ROUNDS = 10
MIN_ROUND_REQUESTS = 10
BATCHES_PER_ROUND = 3
#: Which passes of a traced run have the shims installed.
TRACE_ORDER = (False, True, True, False)
FUTURE_TIMEOUT_S = 120.0


@dataclass
class Outcome:
    """Everything one benchmark run produced."""

    metrics: Dict[str, float] = field(default_factory=dict)
    #: Host-time metrics before scaling to the reference host.
    raw_metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    phases: List[dict] = field(default_factory=list)
    trace_file: Optional[str] = None

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


@dataclass
class Pass:
    """One timed pass: the inputs it sent, their results, what it measured.

    ``latencies_ms`` (fixed-rate requests that succeeded, or batch-128 runs)
    and ``frames_per_s`` are scaled to the reference host round by round;
    ``raw`` holds the same figures unscaled.
    """

    payloads: list
    results: list
    latencies_ms: List[float]
    frames_per_s: float
    raw: Dict[str, float]
    start: float
    end: float
    peak_rss_mb: float
    summaries: List[dict]
    reports: List[PhaseReport] = field(default_factory=list)
    lateness_ms: List[float] = field(default_factory=list)

    def phase_summaries(self, label: str) -> List[dict]:
        return [dict(summary, phase=f"{label}:{summary['phase']}")
                for summary in self.summaries]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


class _Calibration:
    """Scale factors to the reference host for consecutive phases of work.

    The calibration unit is timed before the first phase and after every
    phase; a phase's factor uses the mean of the units timed just before
    and just after it.
    """

    def __init__(self):
        self.last_ms = host.unit_ms()

    def scale(self) -> float:
        """Call right after a phase: that phase's factor."""
        unit_ms = host.unit_ms()
        factor = 2.0 * host.REFERENCE_UNIT_MS / (self.last_ms + unit_ms)
        self.last_ms = unit_ms
        return factor


def _sim_metrics(results) -> Dict[str, float]:
    """End-to-end modelled-hardware figures, averaged over canonical results."""
    return {
        "sim_cycles_per_frame": float(np.mean([r.total_cycles for r in results])),
        "sim_fpu_util": float(np.mean([r.network_fpu_utilization for r in results])),
        "sim_energy_uj_per_frame": float(np.mean([r.total_energy_j for r in results])) * 1e6,
    }


def _sim_layer_metrics(results) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    for layer in catalog.LAYERS:
        metrics[f"sim.{layer}.cycles"] = float(
            np.mean([r.layer(layer).mean_cycles for r in results]))
        metrics[f"sim.{layer}.fpu_util"] = float(
            np.mean([r.layer(layer).mean_fpu_utilization for r in results]))
    return metrics


class Workload:
    """Shared driver; subclasses supply set-up, inputs and expectations."""

    name = ""

    def __init__(self, seed: int, seconds: float, root: Path,
                 min_requests: int = MIN_PHASE_REQUESTS):
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self.seed = seed
        self.seconds = seconds
        self.root = root
        self.min_requests = min_requests

    # -- subclass surface ---------------------------------------------------
    def build(self, recorder: Optional[Recorder] = None):
        raise NotImplementedError

    def warm_up(self, ctx) -> list:
        raise NotImplementedError

    def close(self, ctx) -> None:
        raise NotImplementedError

    def timed_pass(self, ctx, pass_id: int, seconds: float, min_requests: int,
                   rounds: int = ROUNDS) -> Pass:
        raise NotImplementedError

    def expected(self, ctx, payloads: list) -> list:
        raise NotImplementedError

    def spot_checks(self, ctx, payloads: list, results: list) -> List[str]:
        raise NotImplementedError

    def canonical_expected(self, ctx) -> list:
        raise NotImplementedError

    def replay(self, ctx, recorder: Recorder, window: tuple) -> None:
        raise NotImplementedError

    def traced_context(self, ctx, recorder: Recorder):
        """The context the traced run's passes use (default: ``ctx``)."""
        return ctx

    def snapshot(self, ctx) -> dict:
        """Program telemetry read before the traced run's passes."""
        return {}

    def telemetry_metrics(self, ctx, before: dict) -> Dict[str, float]:
        """Per-layer metrics from program telemetry over the passes."""
        return {}

    # -- the run ------------------------------------------------------------
    def _retire(self, ctx) -> None:
        """Close ``ctx`` on a background thread, joined by :meth:`run`.

        ``Coordinator.close`` idles for seconds (its accept thread only
        notices the closed listener at a join timeout); overlapping that
        wait with the next step keeps runs short without changing what is
        timed.
        """
        thread = threading.Thread(target=self.close, args=(ctx,),
                                  name="perfbench-close", daemon=True)
        thread.start()
        self._closers.append(thread)

    def _setups(self):
        setup_s: List[float] = []
        raw_s: List[float] = []
        canonical_runs: List[list] = []
        calibration = _Calibration()
        for repeat in range(SETUP_REPEATS):
            if self._live is not None:
                self._retire(self._live)
                self._live = None
                gc.collect()
                calibration.scale()  # the unit just before this set-up
            started = time.monotonic()
            self._live = self.build()
            canonical_runs.append(self.warm_up(self._live))
            raw_s.append(time.monotonic() - started)
            setup_s.append(raw_s[-1] * calibration.scale())
        return setup_s, raw_s, canonical_runs

    def _check_canonical(self, ctx, canonical_runs: List[list],
                         outcome: Outcome) -> list:
        last = canonical_runs[-1]
        for repeat, run in enumerate(canonical_runs[:-1]):
            if len(run) != len(last) or not all(
                a.identical_to(b) for a, b in zip(run, last)
            ):
                outcome.problems.append(
                    f"sim self-check: canonical results of set-up {repeat} "
                    "differ from the last set-up")
        for index, (got, want) in enumerate(zip(last, self.canonical_expected(ctx))):
            if not got.identical_to(want):
                outcome.problems.append(
                    f"canonical request {index} differs from a direct Session run")
        return last

    def _check_pass(self, ctx, bench_pass: Pass, outcome: Outcome, label: str) -> None:
        expected = self.expected(ctx, bench_pass.payloads)
        outcome.attempted += len(bench_pass.payloads)
        for index, (got, want) in enumerate(zip(bench_pass.results, expected)):
            if got is None:
                outcome.failed += 1
            elif not want.identical_to(got):
                outcome.failed += 1
                outcome.problems.append(
                    f"{label} request {index}: response differs from the direct engine run")
        outcome.problems.extend(
            f"{label}: {problem}"
            for problem in self.spot_checks(ctx, bench_pass.payloads, bench_pass.results)
        )
        for report in bench_pass.reports:
            outcome.problems.extend(f"{label}: {error}" for error in report.errors[:5])
        outcome.phases.extend(bench_pass.phase_summaries(label))

    def run(self, traced: bool = False) -> Outcome:
        outcome = Outcome()
        self._live = None
        self._closers: List[threading.Thread] = []
        try:
            try:
                setup_s, raw_setup_s, canonical_runs = self._setups()
                if traced:
                    passes, trace = self._traced_passes(self._live)
                else:
                    rounds = max(1, min(ROUNDS, self.min_requests // MIN_ROUND_REQUESTS))
                    passes = {"pass": self.timed_pass(
                        self._live, 0, self.seconds, self.min_requests, rounds)}
            finally:
                if self._live is not None:
                    self._retire(self._live)
            ctx = self._live
            canonical = self._check_canonical(ctx, canonical_runs, outcome)
            for label, bench_pass in passes.items():
                self._check_pass(ctx, bench_pass, outcome, label)
        finally:
            for thread in self._closers:
                thread.join()
        if traced:
            outcome.metrics = self._finish_trace(ctx, trace, passes, outcome)
            outcome.metrics.update(_sim_layer_metrics(canonical))
            return outcome
        main = passes["pass"]
        outcome.metrics = {
            "setup_s": _median(setup_s),
            "latency_p50_ms": percentile(main.latencies_ms, 50),
            "latency_p90_ms": percentile(main.latencies_ms, 90),
            "throughput_fps": main.frames_per_s,
            "success_frac": (outcome.attempted - outcome.failed) / max(outcome.attempted, 1),
            "peak_rss_mb": main.peak_rss_mb,
        }
        outcome.metrics.update(_sim_metrics(canonical))
        outcome.raw_metrics = dict(main.raw, setup_s=_median(raw_setup_s))
        return outcome

    def _traced_passes(self, ctx):
        """The four passes of :data:`TRACE_ORDER`, then the replay; returns
        the passes and the trace state."""
        recorder = Recorder(f"perfbench-{self.name}-seed{self.seed}")
        trace = _TraceState(recorder, *(recorder.new_id() for _ in range(3)))
        recorder.parent = trace.pass_id
        ctx = self._live = self.traced_context(ctx, recorder)
        seconds = self.seconds / len(TRACE_ORDER)
        minimum = min(self.min_requests, MIN_TRACED_REQUESTS)
        passes: Dict[str, Pass] = {}
        before = self.snapshot(ctx)
        for index, shimmed in enumerate(TRACE_ORDER):
            label = f"{'traced' if shimmed else 'untraced'}{index}"
            with installed(recorder) if shimmed else contextlib.nullcontext():
                passes[label] = self.timed_pass(ctx, index, seconds, minimum, rounds=1)
        trace.metrics = self.telemetry_metrics(ctx, before)
        shimmed = [p for shim, p in zip(TRACE_ORDER, passes.values()) if shim]
        trace.window = (min(p.start for p in shimmed), max(p.end for p in shimmed))
        with installed(recorder):
            recorder.parent = trace.replay_id
            replay_start = time.monotonic()
            self.replay(ctx, recorder, trace.window)
            trace.replay = (replay_start, time.monotonic())
        return passes, trace

    def _finish_trace(self, ctx, trace: "_TraceState", passes: Dict[str, Pass],
                      outcome: Outcome) -> Dict[str, float]:
        """Per-layer metrics of a traced run; writes its spans as JSONL."""
        from repro.obs.export import read_jsonl

        recorder = trace.recorder
        worker_spans = getattr(ctx, "worker_spans", None)
        if worker_spans and os.path.exists(worker_spans):
            low, high = trace.window
            with open(worker_spans) as handle:
                recorder.spans.extend(
                    span for record in read_jsonl(handle) for span in record["spans"]
                    if span["start"] >= low and span["end"] <= high
                )
            os.remove(worker_spans)
        metrics = dict(trace.metrics)
        metrics.update(_span_metrics(recorder, trace.window, trace.replay))
        traced = [p for shim, p in zip(TRACE_ORDER, passes.values()) if shim]
        untraced = [p for shim, p in zip(TRACE_ORDER, passes.values()) if not shim]
        metrics["harness.lateness_ms.p90"] = percentile(
            [late for p in traced for late in p.lateness_ms], 90)
        base = percentile([lat for p in untraced for lat in p.latencies_ms], 50)
        shimmed = percentile([lat for p in traced for lat in p.latencies_ms], 50)
        metrics["harness.trace_overhead_pct"] = 100.0 * (shimmed / base - 1.0) if base else 0.0
        outcome.trace_file = str(trace.write(self.root / ".bench_out"))
        return metrics


class _TraceState:
    """The recorder of a traced run, its span ids and its two windows."""

    def __init__(self, recorder: Recorder, root_id: str, pass_id: str, replay_id: str):
        self.recorder = recorder
        self.root_id = root_id
        self.pass_id = pass_id
        self.replay_id = replay_id
        self.window = (0.0, 0.0)
        self.replay = (0.0, 0.0)
        self.metrics: Dict[str, float] = {}

    def write(self, directory: Path) -> Path:
        """Write the spans under a root, a pass and a replay span, each
        stretched to cover its children, as ``repro.obs.export`` JSONL."""
        from repro.obs.export import to_jsonl

        recorder = self.recorder
        spans = list(recorder.spans)

        def cover(parent_id: str, low: float, high: float):
            for span in spans:
                if span["parent_id"] == parent_id:
                    low, high = min(low, span["start"]), max(high, span["end"])
            return low, high

        pass_window = cover(self.pass_id, *self.window)
        replay_window = cover(self.replay_id, *self.replay)
        root = recorder.record("perfbench", min(pass_window[0], replay_window[0]),
                               max(pass_window[1], replay_window[1]),
                               span_id=self.root_id)
        recorder.record("pass", *pass_window, parent=root, span_id=self.pass_id)
        recorder.record("replay", *replay_window, parent=root, span_id=self.replay_id)
        directory.mkdir(exist_ok=True)
        path = directory / f"trace-{recorder.trace_id}.jsonl"
        with open(path, "w") as handle:
            to_jsonl([{"spans": recorder.spans}], handle)
        return path


def _span_metrics(recorder: Recorder, window: tuple, replay: tuple) -> Dict[str, float]:
    """Per-layer metrics from the spans of the traced passes and the replay."""
    metrics: Dict[str, float] = {}
    for layer in catalog.LAYERS:
        metrics[f"kernels.{layer}.ms"] = _median(recorder.durations_ms(f"kernels.{layer}", *window))
        metrics[f"core.{layer}.ms"] = _median(recorder.durations_ms(f"core.{layer}", *replay))
        metrics[f"snn.{layer}.dense_ms"] = _median(recorder.durations_ms(f"snn.{layer}.dense", *replay))
    for layer in catalog.SPARSE_LAYERS:
        metrics[f"snn.{layer}.sparse_ms"] = _median(recorder.durations_ms(f"snn.{layer}.sparse", *replay))
    metrics["core.workloads_ms"] = _median(recorder.durations_ms("core.workloads", *replay))
    metrics["snn.forward_ms"] = _median(recorder.durations_ms("snn.forward_batch", *window))
    frames = [span["attrs"]["frames"] for span in recorder.spans_named("serve.collect", *window)]
    metrics["serve.batch_frames.mean"] = float(np.mean(frames)) if frames else 0.0
    metrics["serve.collect_ms.p50"] = _median(recorder.durations_ms("serve.collect", *window))
    metrics["serve.execute_ms.p50"] = _median(recorder.durations_ms("serve.execute", *window))
    waits = recorder.samples.get("serve.queue_wait_ms", [])
    metrics["serve.queue_wait_ms.p50"] = _median(waits)
    hits = [span["attrs"]["hit"] for span in recorder.spans_named("session.store.get", *window)]
    metrics["session.store.hit_frac"] = float(np.mean(hits)) if hits else 0.0
    return metrics


def _replay_costing(engine, recorder: Recorder, workloads, timesteps: int) -> None:
    """Time ``run_workloads`` on each layer's workload alone."""
    for work in workloads:
        with recorder.span(f"core.{work.plan.name}", batch=_work_batch(work)):
            engine.run_workloads([work], timesteps=timesteps)


def _work_batch(work) -> int:
    if work.counts is not None:
        return int(work.counts.shape[0])
    if work.nnz is not None:
        return len(work.nnz)
    return int(work.batch)


# --------------------------------------------------------------------------- #
# Serving workloads
# --------------------------------------------------------------------------- #
@dataclass
class ServeContext:
    session: object
    server: object
    network: object = None
    canonical_frames: object = None
    worker: object = None
    worker_spans: Optional[str] = None


class ServingWorkload(Workload):
    """Rounds of an open-loop fixed-rate chunk and a burst, through an
    ``InferenceServer``."""

    rate_hz = 0.0
    burst_size = 0

    def payloads(self, pass_id: int, count: int) -> list:
        raise NotImplementedError

    def submit(self, ctx: ServeContext, payload):
        raise NotImplementedError

    def build(self, recorder: Optional[Recorder] = None) -> ServeContext:
        from repro.serve import InferenceServer
        from repro.session import Session

        session = Session()
        server = InferenceServer(session, workers=2, max_queue=4096)
        return ServeContext(session=session, server=server)

    def close(self, ctx: ServeContext) -> None:
        ctx.server.close()
        ctx.session.close()

    def timed_pass(self, ctx, pass_id: int, seconds: float, min_requests: int,
                   rounds: int = ROUNDS) -> Pass:
        rate_count = max(min_requests, round(self.rate_hz * RATE_SHARE * seconds))
        chunk = -(-rate_count // rounds)
        payloads = self.payloads(pass_id, rounds * (chunk + self.burst_size))
        reports: List[PhaseReport] = []
        summaries: List[dict] = []
        latencies: List[float] = []
        raw_latencies: List[float] = []
        lateness: List[float] = []
        frames = burst_s = raw_burst_s = 0.0
        offset = 0
        start = time.monotonic()
        calibration = _Calibration()
        for index in range(rounds):
            for name, count, rate in ((f"rate{index}", chunk, self.rate_hz),
                                      (f"burst{index}", self.burst_size, None)):
                sent = payloads[offset:offset + count]
                report = run_phase(
                    name, lambda i, sent=sent: self.submit(ctx, sent[i]), count,
                    rate, FUTURE_TIMEOUT_S,
                )
                scale = calibration.scale()
                offset += count
                reports.append(report)
                summaries.append(dict(report.summary(), scale=scale))
                if rate is not None:
                    raw_latencies += report.ok_latencies_ms()
                    latencies += [latency * scale for latency in report.ok_latencies_ms()]
                    lateness += report.lateness_ms
                else:  # every request is one frame
                    frames += report.succeeded
                    raw_burst_s += report.wall_s
                    burst_s += report.wall_s * scale
        end = time.monotonic()
        return Pass(
            payloads=payloads, results=[r for report in reports for r in report.results],
            latencies_ms=latencies, frames_per_s=frames / burst_s if burst_s else 0.0,
            raw=_raw_figures(raw_latencies, frames / raw_burst_s if raw_burst_s else 0.0),
            start=start, end=end, peak_rss_mb=_peak_rss_mb(), summaries=summaries,
            reports=reports, lateness_ms=lateness,
        )

    def sampled(self, count: int, how_many: int) -> List[int]:
        rng = np.random.default_rng([self.seed, 7])
        return sorted(rng.choice(count, size=min(how_many, count), replace=False).tolist())


def _raw_figures(latencies_ms: List[float], frames_per_s: float) -> Dict[str, float]:
    return {
        "latency_p50_ms": percentile(latencies_ms, 50),
        "latency_p90_ms": percentile(latencies_ms, 90),
        "throughput_fps": frames_per_s,
    }


class NetStat(ServingWorkload):
    """Batch-1 statistical requests through a ``Coordinator`` and one
    worker process."""

    name = "net-stat"
    rate_hz = 7.0
    burst_size = 64

    def payloads(self, pass_id: int, count: int) -> List[int]:
        """Fresh seeds, except that one request in four (from the 20th on)
        repeats the seed of a request at least 20 places earlier."""
        base = 1_000_000 * (1 + self.seed) + 100_000 * pass_id
        rng = np.random.default_rng([self.seed, pass_id, 4])
        seeds: List[int] = []
        for index in range(count):
            if index % 4 == 3 and index >= 20:
                seeds.append(seeds[int(rng.integers(0, index - 19))])
            else:
                seeds.append(base + index)
        return seeds

    def submit(self, ctx: ServeContext, payload: int):
        return ctx.server.submit_statistical(batch_size=1, seed=payload)

    def warm_up(self, ctx: ServeContext) -> list:
        futures = [ctx.server.submit_statistical(batch_size=1, seed=seed)
                   for seed in catalog.CANONICAL_STAT_SEEDS]
        return [future.result(FUTURE_TIMEOUT_S) for future in futures]

    def canonical_expected(self, ctx) -> list:
        from repro.session import Session

        session = Session()
        return [session.run_inference(batch_size=1, seed=seed)
                for seed in catalog.CANONICAL_STAT_SEEDS]

    def expected(self, ctx, payloads: List[int]) -> list:
        """Each seed's result from direct engine calls, 64 seeds per call.

        ``run_workloads`` on concatenated per-seed workloads gives each seed
        exactly its solo rows (the engine's batch-invariance guarantee);
        :meth:`spot_checks` re-checks a sample with truly solo runs.
        """
        from repro.core.pipeline import concat_workloads
        from repro.session import Session

        engine = Session().engine()
        plans = engine.optimizer.plan_svgg11(None)
        unique = sorted(set(payloads))
        by_seed = {}
        for start in range(0, len(unique), 64):
            chunk = unique[start:start + 64]
            batch = engine.run_workloads(concat_workloads(
                [engine.statistical_workloads(plans, 1, seed) for seed in chunk]
            ), timesteps=engine.config.timesteps)
            for row, seed in enumerate(chunk):
                by_seed[seed] = batch.frame_slice(row, row + 1)
        return [by_seed[seed] for seed in payloads]

    def spot_checks(self, ctx, payloads: list, results: list) -> List[str]:
        from repro.session import Session

        problems = []
        engine = Session().engine()
        for position, index in enumerate(self.sampled(len(payloads), 4)):
            got = results[index]
            if got is None:
                continue
            seed = payloads[index]
            if not got.identical_to(Session().run_inference(batch_size=1, seed=seed)):
                problems.append(f"request {index} differs from Session.run_inference")
            if position < 2 and not got.identical_to(
                engine.run_statistical_reference(batch_size=1, seed=seed)
            ):
                problems.append(f"request {index} differs from run_statistical_reference")
        return problems

    def replay(self, ctx, recorder: Recorder, window: tuple) -> None:
        from repro.session import Session

        engine = Session().engine()
        plans = engine.optimizer.plan_svgg11(None)
        frames = [span["attrs"]["frames"]
                  for span in recorder.spans_named("serve.collect", *window)]
        picks = [frames[i] for i in np.linspace(0, len(frames) - 1, min(4, len(frames))).astype(int)] \
            if frames else [1]
        for replay_index, batch in enumerate(picks):
            seed = 10_000_000 * (1 + self.seed) + replay_index
            with recorder.span("core.workloads", batch=batch):
                workloads = engine.statistical_workloads(plans, batch, seed)
            _replay_costing(engine, recorder, workloads, engine.config.timesteps)

    def build(self, recorder: Optional[Recorder] = None) -> ServeContext:
        from repro.net import Coordinator, spawn_worker
        from repro.session import Session

        session = Session()
        server = Coordinator(session, max_queue=4096)
        ctx = ServeContext(session=session, server=server)
        try:
            if recorder is None:
                ctx.worker = spawn_worker(server.address, quiet=True)
            else:
                ctx.worker, ctx.worker_spans = self._traced_worker(server.address, recorder)
            if not server.wait_for_workers(1, timeout=60.0):
                raise RuntimeError("the net worker process did not register")
        except BaseException:
            self.close(ctx)
            raise
        return ctx

    def _traced_worker(self, address, recorder: Recorder):
        out = self.root / ".bench_out" / f"worker-{os.getpid()}.jsonl"
        out.parent.mkdir(exist_ok=True)
        env = dict(os.environ)
        paths = [str(self.root), str(self.root / "src")]
        if env.get("PYTHONPATH"):
            paths.append(env["PYTHONPATH"])
        env["PYTHONPATH"] = os.pathsep.join(paths)
        argv = [sys.executable, str(self.root / "perfbench" / "worker.py"),
                f"{address[0]}:{address[1]}", str(out), recorder.trace_id,
                recorder.parent]
        return subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL), str(out)

    def close(self, ctx: ServeContext) -> None:
        try:
            ctx.server.close()
        finally:
            if ctx.worker is not None:
                try:
                    ctx.worker.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    ctx.worker.kill()
                    ctx.worker.wait()
            ctx.session.close()

    def traced_context(self, ctx: ServeContext, recorder: Recorder) -> ServeContext:
        """A fresh coordinator whose worker runs under the timing shims for
        all four passes, so on ``net-stat`` the tracing overhead covers the
        coordinator-side shims only."""
        self._retire(ctx)
        traced = self.build(recorder)
        self.warm_up(traced)
        return traced

    def snapshot(self, ctx: ServeContext) -> dict:
        return ctx.server.stats()

    def telemetry_metrics(self, ctx: ServeContext, before: dict) -> Dict[str, float]:
        after = ctx.server.stats()

        def delta(get):
            return get(after) - get(before)

        requests = delta(lambda s: s["serve.requests"])
        wire = delta(lambda s: s["net.bytes"]["sent"] + s["net.bytes"]["received"])
        hits = delta(lambda s: s["net.blob"]["hits"])
        lookups = hits + delta(lambda s: s["net.blob"]["misses"])
        return {
            "net.bytes_per_request": wire / requests if requests else 0.0,
            "net.batch_rtt_ms.p50": float(after["net.batch_rtt_ms"]["p50"]),
            "net.blob_hit_frac": hits / lookups if lookups else 0.0,
            "net.credit_stalls": float(delta(lambda s: s["net.credit_stalls"])),
            "net.rescues": float(delta(lambda s: s["net.rescues"])),
        }


class ServeFunc(ServingWorkload):
    name = "serve-func"
    rate_hz = 4.0
    burst_size = 16

    def build(self, recorder: Optional[Recorder] = None) -> ServeContext:
        from repro.session import functional_svgg11_setup

        network, frames = functional_svgg11_setup(
            batch_size=catalog.CANONICAL_FRAMES, seed=catalog.MODEL_SEED)
        network.fingerprint()
        ctx = super().build()
        ctx.network, ctx.canonical_frames = network, frames
        return ctx

    def payloads(self, pass_id: int, count: int) -> np.ndarray:
        from repro.snn.datasets import SyntheticCIFAR10

        frames, _ = SyntheticCIFAR10(seed=10_000 + 8 * self.seed + pass_id).sample(count)
        return frames

    def submit(self, ctx: ServeContext, payload):
        return ctx.server.submit_functional(ctx.network, payload[None])

    def warm_up(self, ctx: ServeContext) -> list:
        futures = [ctx.server.submit_functional(ctx.network, frame[None])
                   for frame in ctx.canonical_frames]
        return [future.result(FUTURE_TIMEOUT_S) for future in futures]

    def canonical_expected(self, ctx: ServeContext) -> list:
        from repro.session import Session

        session = Session()
        return [session.run_functional(ctx.network, frame[None])
                for frame in ctx.canonical_frames]

    def expected(self, ctx: ServeContext, payloads) -> list:
        """Each frame's result from direct engine calls, 16 frames per call
        (the forward pass and costing are batch-invariant per frame)."""
        from repro.session import Session

        engine = Session().engine()
        rows = engine.config.timesteps
        out = []
        for start in range(0, len(payloads), 16):
            chunk = payloads[start:start + 16]
            batch = engine.run_functional(ctx.network, chunk)
            out.extend(batch.frame_slice(i * rows, (i + 1) * rows) for i in range(len(chunk)))
        return out

    def spot_checks(self, ctx: ServeContext, payloads, results: list) -> List[str]:
        from repro.session import Session

        problems = []
        engine = Session().engine()
        for position, index in enumerate(self.sampled(len(payloads), 2)):
            got = results[index]
            if got is None:
                continue
            frame = payloads[index][None]
            if not got.identical_to(Session().run_functional(ctx.network, frame)):
                problems.append(f"request {index} differs from Session.run_functional")
            if position < 1 and not got.identical_to(
                engine.run_functional_reference(ctx.network, frame)
            ):
                problems.append(f"request {index} differs from run_functional_reference")
        return problems

    def replay(self, ctx: ServeContext, recorder: Recorder, window: tuple) -> None:
        from repro.session import Session

        engine = Session().engine()
        for network, activity in recorder.captured.get("snn.forward_batch", []):
            plans = engine.optimizer.plan_network(network)
            with recorder.span("core.workloads", batch=activity.batch_size):
                workloads = engine.functional_workloads(plans, activity)
            _replay_costing(engine, recorder, workloads, 1)
            _replay_golden_ops(network, activity, recorder)


def _replay_golden_ops(network, activity, recorder: Recorder) -> None:
    """Time each weighted layer's dense and CSR golden op on its recorded
    input, at fp32 (the precision the event-sparse path is meant for)."""
    from repro.snn.reference import (
        conv2d_hwc_batch,
        conv2d_hwc_batch_sparse,
        linear_batch,
        linear_batch_sparse,
        spike_density,
    )
    from repro.types import LayerKind

    weights = {}
    for record in activity.records:
        layer = network.layers[record.layer_index]
        if record.layer_index not in weights:
            weights[record.layer_index] = np.asarray(layer.require_weights(), dtype=np.float32)
        w = weights[record.layer_index]
        encodes = record.input_spikes is None  # conv1 consumes the real-valued frame
        if record.kind is LayerKind.CONV:
            x = record.input_currents if encodes else record.input_spikes
            ops = {"dense": lambda: conv2d_hwc_batch(
                x, w, stride=layer.stride, padding=layer.padding, dtype=np.float32)}
            if not encodes:
                ops["sparse"] = lambda: conv2d_hwc_batch_sparse(
                    x, w, stride=layer.stride, padding=layer.padding, dtype=np.float32)
        else:
            x = record.input_spikes
            ops = {"dense": lambda: linear_batch(x, w, dtype=np.float32),
                   "sparse": lambda: linear_batch_sparse(x, w, dtype=np.float32)}
        density = 1.0 if encodes else float(spike_density(x))
        for path, op in ops.items():
            with recorder.span(f"snn.{record.name}.{path}", batch=record.batch_size,
                               density=density):
                op()


# --------------------------------------------------------------------------- #
# Offline batch-128 costing
# --------------------------------------------------------------------------- #
@dataclass
class OfflineContext:
    session: object


class OfflineB128(Workload):
    name = "offline-b128"
    batch = 128

    def build(self, recorder: Optional[Recorder] = None) -> OfflineContext:
        from repro.session import Session

        return OfflineContext(session=Session())

    def warm_up(self, ctx: OfflineContext) -> list:
        return [ctx.session.run_inference(batch_size=self.batch,
                                          seed=catalog.CANONICAL_OFFLINE_SEED)]

    def close(self, ctx: OfflineContext) -> None:
        ctx.session.close()

    def canonical_expected(self, ctx) -> list:
        from repro.session import Session

        return [Session().engine().run_statistical(
            batch_size=self.batch, seed=catalog.CANONICAL_OFFLINE_SEED)]

    def timed_pass(self, ctx: OfflineContext, pass_id: int, seconds: float,
                   min_requests: int, rounds: int = ROUNDS) -> Pass:
        """Rounds of :data:`BATCHES_PER_ROUND` runs until ``seconds`` have
        passed and at least ``min_requests / 10`` runs are done."""
        base = 1_000_000 * (1 + self.seed) + 100_000 * pass_id
        min_runs = max(BATCHES_PER_ROUND, min_requests // 10)
        seeds: List[int] = []
        results = []
        latencies: List[float] = []
        raw_latencies: List[float] = []
        summaries: List[dict] = []
        start = time.monotonic()
        calibration = _Calibration()
        while len(seeds) < min_runs or time.monotonic() - start < seconds:
            round_start = time.monotonic()
            elapsed_ms: List[float] = []
            for _ in range(BATCHES_PER_ROUND):
                seed = base + len(seeds)
                began = time.monotonic()
                try:
                    result = ctx.session.run_inference(batch_size=self.batch, seed=seed)
                except Exception:  # counted as failed by the output checks
                    result = None
                if result is not None:
                    elapsed_ms.append((time.monotonic() - began) * 1e3)
                seeds.append(seed)
                results.append(result)
            wall_s = time.monotonic() - round_start
            scale = calibration.scale()
            raw_latencies += elapsed_ms
            latencies += [ms * scale for ms in elapsed_ms]
            done = results[-BATCHES_PER_ROUND:]
            summaries.append({
                "phase": f"batch128-{len(summaries)}", "sent": len(done),
                "succeeded": sum(r is not None for r in done),
                "failed": sum(r is None for r in done),
                "wall_s": wall_s, "scale": scale,
            })
        end = time.monotonic()

        def frames_per_s(batch_ms: List[float]) -> float:
            return 1e3 * self.batch / _median(batch_ms) if batch_ms else 0.0

        return Pass(
            payloads=seeds, results=results, latencies_ms=latencies,
            frames_per_s=frames_per_s(latencies),
            raw=_raw_figures(raw_latencies, frames_per_s(raw_latencies)),
            start=start, end=end, peak_rss_mb=_peak_rss_mb(), summaries=summaries,
        )

    def expected(self, ctx, payloads: List[int]) -> list:
        """Each run's whole batch from a direct engine run of its seed."""
        from repro.session import Session

        engine = Session().engine()
        return [engine.run_statistical(batch_size=self.batch, seed=seed)
                for seed in payloads]

    def spot_checks(self, ctx, payloads: list, results: list) -> List[str]:
        """The first frames of two sampled runs against the per-frame
        reference loop."""
        from repro.session import Session

        problems = []
        engine = Session().engine()
        rng = np.random.default_rng([self.seed, 128])
        picks = sorted(rng.choice(len(payloads), size=min(2, len(payloads)),
                                  replace=False).tolist())
        for index in picks:
            got, seed = results[index], payloads[index]
            if got is not None and not got.frame_slice(0, 4).identical_to(
                engine.run_statistical_reference(batch_size=4, seed=seed)
            ):
                problems.append(f"run {index} differs from run_statistical_reference")
        return problems

    def replay(self, ctx, recorder: Recorder, window: tuple) -> None:
        from repro.session import Session

        engine = Session().engine()
        plans = engine.optimizer.plan_svgg11(None)
        for replay_index in range(2):
            seed = 10_000_000 * (1 + self.seed) + replay_index
            with recorder.span("core.workloads", batch=self.batch):
                workloads = engine.statistical_workloads(plans, self.batch, seed)
            _replay_costing(engine, recorder, workloads, engine.config.timesteps)


WORKLOAD_CLASSES = {cls.name: cls for cls in (ServeFunc, OfflineB128, NetStat)}


def make_workload(name: str, seed: int, seconds: float, root: Path,
                  min_requests: int = MIN_PHASE_REQUESTS) -> Workload:
    try:
        cls = WORKLOAD_CLASSES[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; expected one of "
                         f"{sorted(WORKLOAD_CLASSES)}") from None
    return cls(seed, seconds, root, min_requests=min_requests)
