"""Adaptive micro-batching: coalesce compatible requests into one engine pass.

The PR-4 batch engines make *batch* the cheap unit of execution — weight
panels stream once per batch, kernel perf models cost whole stacks — but a
serving workload arrives as many small independent requests.  The
:class:`MicroBatcher` closes that gap:

* requests are **compatible** when they share a configuration fingerprint
  (hardware models, run configuration, and for statistical mode the
  firing rates and timesteps, for functional mode the network and frame
  geometry) — computed once at admission from the same canonical fingerprints
  (:meth:`repro.session.Session.fingerprint` /
  :meth:`~repro.session.Session.functional_fingerprint`) that key the
  result store;
* :meth:`MicroBatcher.collect` gathers a FIFO prefix of compatible requests,
  flushing when the batch reaches ``max_batch`` frames or as soon as an
  incompatible request reaches the queue head (waiting longer could not grow
  the batch without reordering).  When the queue runs empty it lingers, for
  at most ``max_wait_ms``, only if arrivals are clustered: some request in
  the batch was admitted within ``max_wait_ms`` of the admission before it
  (the ``arrival_gap`` :meth:`~repro.serve.queue.RequestQueue.put` stamps).
  A lone request therefore flushes at once, while a burst still coalesces —
  only its first request goes alone;
* :meth:`MicroBatcher.execute` runs the coalesced batch through ONE engine
  pass — statistical requests' per-seed workloads are concatenated with
  :func:`repro.core.pipeline.concat_workloads`, functional requests' frames
  are stacked into one ``forward_batch`` — and **scatters** per-request
  results back out with
  :meth:`~repro.core.results.InferenceResult.frame_slice`.

Because every batched kernel's per-frame rows are invariant to what else
shares the batch (the bit-for-bit M-invariance PR 4 established), each
scattered result is *identical* to what the request would have produced
running alone through :class:`repro.session.Session` — the property
``tests/serve/`` and ``tools/smoke.py`` gate.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

import numpy as np

from ..config import RunConfig
from ..core.pipeline import concat_workloads
from ..core.results import InferenceResult
from ..obs import Tracer, layer_hook, layer_profiler
from ..session import Session
from .metrics import MetricsRegistry
from .queue import InferenceRequest, RequestQueue

__all__ = ["MicroBatcher", "functional_group_key", "statistical_group_key"]

#: Placeholder frames hashed into functional group keys: the key must cover
#: everything *except* the actual frame pixels (config, models, network,
#: numerics), so compatible requests with different frames coalesce.
_NO_FRAMES = np.zeros((0, 1, 1, 1))


def statistical_group_key(
    session: Session,
    config: RunConfig,
    firing_rates,
    timesteps: int,
) -> str:
    """Compatibility fingerprint of a statistical request.

    Built from :meth:`Session.fingerprint` with the per-request knobs (seed,
    batch size) pinned to placeholders: two requests coalesce exactly when
    they agree on the configuration, the session's hardware models, the
    firing-rate overrides and the timestep count — everything that shapes
    the layer plans and the timestep scaling of one engine pass.
    """
    return "stat:" + session.fingerprint(
        config, batch_size=0, firing_rates=firing_rates, seed=0, timesteps=timesteps
    )


def functional_group_key(
    session: Session,
    config: RunConfig,
    network,
    frames,
    numerics=None,
) -> str:
    """Compatibility fingerprint of a functional request.

    :meth:`Session.functional_fingerprint` with the frames pinned to a
    placeholder (the key must NOT cover the pixels), extended with the
    per-frame geometry and dtype so only stackable frames coalesce.  The
    golden-model :class:`~repro.snn.numerics.NumericsPolicy` enters via the
    base fingerprint, so requests under different policies never share a
    batch (a coalesced batch runs one forward pass under one policy).
    """
    stacked = frames if isinstance(frames, np.ndarray) else np.stack(
        [np.asarray(frame) for frame in frames]
    )
    base = session.functional_fingerprint(config, network, _NO_FRAMES, numerics=numerics)
    return f"func:{base}:{tuple(stacked.shape[1:])}:{stacked.dtype}"


class MicroBatcher:
    """Collect and execute micro-batches of compatible inference requests.

    ``max_batch`` bounds the *frame* count of a batch (a multi-frame request
    admitted last may overshoot it — requests are never split);
    ``max_wait_ms`` bounds how long :meth:`collect` lingers on an empty queue
    for clustered arrivals, counted from collection start.
    """

    def __init__(
        self,
        session: Session,
        max_batch: int = 16,
        max_wait_ms: float = 5.0,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be positive, got {max_batch}")
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be non-negative, got {max_wait_ms}")
        self.session = session
        self.max_batch = max_batch
        self.max_wait_s = max_wait_ms / 1e3
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # A disabled tracer by default: every hook below degrades to one
        # attribute test, so untraced batching stays on the fast path.
        self.tracer = tracer if tracer is not None else Tracer()

    def _record_queue_wait(self, request: InferenceRequest, now: float) -> None:
        """File the request's queue-wait interval at batch-join time.

        The wait starts at admission (``enqueued_at``) — or, after a rescue
        re-dispatch, at the requeue stamp the coordinator left in
        ``trace.wait_from`` (``enqueued_at`` belongs to latency accounting
        and is never restamped by rescues).
        """
        trace = request.trace
        if trace is None or not trace.sampled:
            return
        start = trace.wait_from if trace.wait_from is not None else request.enqueued_at
        self.tracer.record_span(
            "queue_wait", (trace,), start, now,
            parent_id=trace.root_id, request=request.id,
        )

    # -- collection ---------------------------------------------------------
    def collect(
        self, queue: RequestQueue, first: InferenceRequest
    ) -> List[InferenceRequest]:
        """Grow a micro-batch from ``first`` by popping compatible neighbours.

        The flush reason is counted as ``serve.flush.<reason>`` (so
        ``serve.batches`` is the sum of the four) and put on every
        ``batch_assembly`` span as ``flush``:

        * ``full`` — the batch reached ``max_batch`` frames;
        * ``incompatible`` — an incompatible request is at the queue head
          (FIFO order is preserved — it will seed the next batch);
        * ``idle`` — the queue is empty and no request in the batch arrived
          within ``max_wait_ms`` of the admission before it, so nothing
          suggests another is coming: the batch, in practice a lone
          request, flushes at once;
        * ``waited`` — arrivals are clustered, so the batch lingered on the
          empty queue until ``max_wait_ms`` after collection start (or
          until the queue closed).
        """
        requests = [first]
        frames = first.frames_count
        clustered = first.arrival_gap < self.max_wait_s
        started = time.monotonic()
        deadline = started + self.max_wait_s
        traced = self.tracer.enabled
        joins = [started]
        if traced:
            self._record_queue_wait(first, started)
        reason = "full"
        while frames < self.max_batch:
            request = queue.pop_matching(first.group_key)
            if request is not None:
                requests.append(request)
                frames += request.frames_count
                clustered = clustered or request.arrival_gap < self.max_wait_s
                if traced:
                    joined = time.monotonic()
                    joins.append(joined)
                    self._record_queue_wait(request, joined)
                continue
            if queue.depth() > 0:
                reason = "incompatible"  # waiting longer cannot help
                break
            if not clustered:
                reason = "idle"
                break
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not queue.wait_nonempty(remaining):
                reason = "waited"
                break
        finished = time.monotonic()
        wait_ms = (finished - started) * 1e3
        self.metrics.counter("serve.batches").inc()
        self.metrics.counter(f"serve.flush.{reason}").inc()
        self.metrics.histogram("serve.batch_frames").observe(frames)
        self.metrics.histogram("serve.batch_requests").observe(len(requests))
        self.metrics.histogram("serve.batch_collect_ms").observe(wait_ms)
        if traced:
            # Per-request records, each clamped to the request's own
            # batch-join time: a request admitted mid-collection must not
            # get an assembly span starting before its root.
            for request, joined in zip(requests, joins):
                trace = request.trace
                if trace is None or not trace.sampled:
                    continue
                self.tracer.record_span(
                    "batch_assembly", (trace,), joined, finished,
                    parent_id=trace.root_id,
                    requests=len(requests), frames=frames, flush=reason,
                )
        return requests

    # -- execution ----------------------------------------------------------
    def execute(self, requests: Sequence[InferenceRequest]) -> List[InferenceResult]:
        """One coalesced engine pass; returns per-request results in order.

        All requests must share a ``group_key`` (the server guarantees this
        via :meth:`collect`).  The scatter step slices each request's metric
        rows back out of the batch result — bit-for-bit what the request
        would have produced alone.
        """
        if not requests:
            return []
        first = requests[0]
        if any(r.group_key != first.group_key for r in requests):
            raise ValueError("cannot execute a batch of incompatible requests")
        engine = self.session.engine(first.config)
        ctxs = self.tracer.sampled(requests)
        with self.tracer.span(
            "engine_pass", ctxs, mode=first.mode, requests=len(requests),
        ) as span:
            hook = None
            if ctxs and self.tracer.profile_layers:
                hook = layer_hook(self.tracer, ctxs, span.id)
            with layer_profiler(hook):
                if first.mode == "functional":
                    if len(requests) == 1:
                        stacked = np.asarray(first.frames)
                    else:
                        stacked = np.concatenate(
                            [np.asarray(r.frames) for r in requests], axis=0
                        )
                    batch_result = engine.run_functional(
                        first.network, stacked, numerics=first.policy
                    )
                    # Functional metric rows enumerate (frame, timestep)
                    # frame-major.
                    rows_per_request = [
                        r.frames_count * first.config.timesteps for r in requests
                    ]
                else:
                    plans = engine.optimizer.shared_svgg11_plans(first.firing_rates)
                    workloads = [
                        engine.statistical_workloads(plans, r.batch_size, r.seed)
                        for r in requests
                    ]
                    batch_result = engine.run_workloads(
                        concat_workloads(workloads), timesteps=first.timesteps
                    )
                    rows_per_request = [r.batch_size for r in requests]
        if len(requests) == 1:
            return [batch_result]
        results: List[InferenceResult] = []
        offset = 0
        for rows in rows_per_request:
            results.append(batch_result.frame_slice(offset, offset + rows))
            offset += rows
        return results
