"""End-to-end SpikeStream inference on the Snitch cluster model.

:class:`SpikeStreamInference` ties the library together: the optimizer maps
each layer to a kernel, the kernels produce cycle-level cluster statistics,
the energy model converts activity into joules, and everything is
aggregated over a batch of input frames into an
:class:`~repro.core.results.InferenceResult`.

Two execution modes are provided:

* **statistical** (:meth:`SpikeStreamInference.run_statistical`): per-layer
  ifmap spike counts are drawn from the layer's firing-rate profile (the
  default profile follows Figure 3a).  This is what the figure-level
  experiments use — performance and energy depend only on tensor shapes and
  spike counts, so a batch of 128 frames runs in seconds.
* **functional** (:meth:`SpikeStreamInference.run_functional`): an actual
  :class:`~repro.snn.network.SpikingNetwork` forward pass supplies the real
  per-layer spike maps, and the same performance model is evaluated on them.

**Batch is the native execution unit** of both modes.  One internal batch
engine (:meth:`SpikeStreamInference._run_layer_batches`) iterates
layer-major, takes each layer's whole-batch workload — stacked padded
spike-count maps for conv layers, per-frame nnz for FC layers, a plain
frame count for the dense encoding layer — and costs it through the
kernels' ``*_perf_batch`` entry points.  Each kernel compiles its layer's
frame-independent costing state once per configuration — the per-count
SpVA tables, the channel-group count, the tile layout, the icache model and
the encoding layer's whole row — memoised by value in the kernel module
(:mod:`repro.kernels.batch_stats`), so a fresh engine per batch and every
thread share it, and a call does only the work the spike counts decide:
table reads, batched window aggregation, and a workload-stealing
simulation that takes, per frame, a closed-form round-robin when every item
costs the same, the heap when few frames remain, and a numpy loop across
frames otherwise.  Each returns one columnar
:class:`~repro.arch.trace.BatchClusterStats` — per-core counters as
``(batch, cores)`` arrays, cluster counters as ``(batch,)`` arrays — from
which the engine computes timestep scaling, energy, FPU utilization, IPC
and power as whole-batch arrays; no per-frame
:class:`~repro.arch.trace.ClusterStats` is built.
The two modes differ only in where those spike counts come from:

* statistical draws them from per-frame RNG streams
  (:meth:`SpikeStreamInference._statistical_workloads`), and
* functional reads them off the stacked
  :class:`~repro.snn.network.BatchNetworkActivity` recorded by one
  vectorized :meth:`~repro.snn.network.SpikingNetwork.forward_batch` pass
  (:meth:`SpikeStreamInference._functional_workloads`).

Both are bit-for-bit identical to their historical per-frame loops, which
are preserved as :meth:`SpikeStreamInference.run_statistical_reference` and
:meth:`SpikeStreamInference.run_functional_reference` — the scalar kernels,
one :class:`~repro.arch.trace.ClusterStats` per frame and layer — and
exercised by the equivalence tests plus ``benchmarks/bench_batch_engine.py``
and ``benchmarks/bench_functional.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields as dataclass_fields, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..arch.params import ClusterParams, CostModelParams, DEFAULT_CLUSTER, DEFAULT_COSTS
from ..arch.trace import BatchClusterStats, ClusterStats
from ..config import RunConfig
from ..energy.model import EnergyModel
from ..energy.params import DEFAULT_ENERGY, EnergyParams
from ..formats.convert import compress_ifmap, compress_vector
from ..kernels.conv import conv_layer_perf, conv_layer_perf_batch, pad_counts
from ..kernels.encode import encode_layer_perf, encode_layer_perf_batch
from ..kernels.fc import fc_layer_perf, fc_layer_perf_batch
from ..obs.tracer import layer_profiler_hook
from ..snn.network import BatchNetworkActivity, NetworkActivity, SpikingNetwork
from ..snn.numerics import NumericsPolicy, resolve as resolve_numerics
from ..types import LayerKind
from ..utils.rng import SeedLike, make_rng, spawn_rngs
from .layer_mapping import KernelKind, LayerPlan
from .optimizer import SpikeStreamOptimizer
from .results import InferenceResult, LayerResult


@dataclass
class _LayerAccumulator:
    """Per-layer collection of per-frame metrics (the reference loops)."""

    plan: LayerPlan
    cycles: List[float] = field(default_factory=list)
    utilization: List[float] = field(default_factory=list)
    ipc: List[float] = field(default_factory=list)
    energy_j: List[float] = field(default_factory=list)
    power_w: List[float] = field(default_factory=list)
    dma_bytes: List[float] = field(default_factory=list)

    def add(self, stats: ClusterStats, energy_j: float, clock_hz: float) -> None:
        self.cycles.append(stats.total_cycles)
        self.utilization.append(stats.fpu_utilization)
        self.ipc.append(stats.ipc)
        self.energy_j.append(energy_j)
        runtime = stats.runtime_seconds(clock_hz)
        self.power_w.append(energy_j / runtime if runtime > 0 else 0.0)
        self.dma_bytes.append(stats.dma_bytes)

    def result(self, clock_hz: float) -> LayerResult:
        return LayerResult(
            name=self.plan.name,
            kernel=self.plan.kernel.value,
            precision=self.plan.precision,
            streaming=self.plan.streaming,
            cycles=np.asarray(self.cycles),
            fpu_utilization=np.asarray(self.utilization),
            ipc=np.asarray(self.ipc),
            energy_j=np.asarray(self.energy_j),
            power_w=np.asarray(self.power_w),
            dma_bytes=np.asarray(self.dma_bytes),
            clock_hz=clock_hz,
        )


@dataclass
class _LayerBatch:
    """One layer's whole-batch workload for the internal batch engine.

    Exactly one of the three payloads is set, matching the layer's kernel:
    ``counts`` is the stacked padded spike-count maps ``(B, Hp, Wp)`` of a
    conv layer, ``nnz`` the per-frame spiking input counts of an FC layer,
    and ``batch`` the plain frame count of the input-independent dense
    encoding layer.
    """

    plan: LayerPlan
    counts: Optional[np.ndarray] = None
    nnz: Optional[Sequence[int]] = None
    batch: int = 0


class SpikeStreamInference:
    """Run SNN inference on the Snitch cluster model under a given configuration."""

    def __init__(
        self,
        config: RunConfig,
        cluster: ClusterParams = DEFAULT_CLUSTER,
        costs: CostModelParams = DEFAULT_COSTS,
        energy: EnergyParams = DEFAULT_ENERGY,
        numerics: Optional[NumericsPolicy] = None,
    ):
        self.config = config
        self.cluster = cluster
        self.costs = costs
        #: Default golden-model numerics of this engine's functional passes
        #: (``None`` -> the FP64 dense reference).  Per-call ``numerics=``
        #: arguments override it; the statistical mode never consults it
        #: (spike counts are drawn, not computed).
        self.numerics = resolve_numerics(numerics)
        self.optimizer = SpikeStreamOptimizer(config, cluster)
        self.energy_model = EnergyModel(params=energy, cluster=cluster)

    # ------------------------------------------------------------------ #
    # Single-layer execution
    # ------------------------------------------------------------------ #
    def run_layer(self, plan: LayerPlan, spike_counts: Optional[np.ndarray] = None,
                  nnz: Optional[int] = None) -> ClusterStats:
        """Run the performance model of one layer.

        Convolutional layers need the per-position ``spike_counts`` map of
        their padded ifmap; FC layers need the spike count ``nnz``; the dense
        encoding layer needs neither.
        """
        if plan.kernel is KernelKind.ENCODE:
            return encode_layer_perf(
                plan.spec,
                precision=plan.precision,
                streaming=plan.streaming,
                params=self.cluster,
                costs=self.costs,
                index_bytes=self.config.index_bytes,
            )
        if plan.kernel is KernelKind.CONV:
            if spike_counts is None:
                raise ValueError(f"layer {plan.name!r} needs a spike_counts map")
            return conv_layer_perf(
                plan.spec,
                spike_counts,
                precision=plan.precision,
                streaming=plan.streaming,
                params=self.cluster,
                costs=self.costs,
                index_bytes=self.config.index_bytes,
            )
        if nnz is None:
            raise ValueError(f"layer {plan.name!r} needs the input spike count nnz")
        return fc_layer_perf(
            plan.spec,
            nnz=nnz,
            precision=plan.precision,
            streaming=plan.streaming,
            params=self.cluster,
            costs=self.costs,
            index_bytes=self.config.index_bytes,
        )

    def layer_energy(self, plan: LayerPlan, stats: ClusterStats) -> float:
        """Energy in joules of one layer execution."""
        report = self.energy_model.layer_energy(
            stats,
            precision=plan.precision,
            streaming=plan.streaming,
            uses_mac=plan.kernel is KernelKind.ENCODE,
        )
        return report.energy_j

    # ------------------------------------------------------------------ #
    # The internal batch engine (shared by both execution modes)
    # ------------------------------------------------------------------ #
    def _cost_layer_batch(self, work: _LayerBatch) -> BatchClusterStats:
        """Cost one layer's whole-batch workload through its batched kernel."""
        plan = work.plan
        if plan.kernel is KernelKind.CONV:
            return conv_layer_perf_batch(
                plan.spec,
                work.counts,
                precision=plan.precision,
                streaming=plan.streaming,
                params=self.cluster,
                costs=self.costs,
                index_bytes=self.config.index_bytes,
            )
        if plan.kernel is KernelKind.FC:
            return fc_layer_perf_batch(
                plan.spec,
                work.nnz,
                precision=plan.precision,
                streaming=plan.streaming,
                params=self.cluster,
                costs=self.costs,
                index_bytes=self.config.index_bytes,
            )
        return encode_layer_perf_batch(
            plan.spec,
            work.batch,
            precision=plan.precision,
            streaming=plan.streaming,
            params=self.cluster,
            costs=self.costs,
            index_bytes=self.config.index_bytes,
        )

    def _run_layer_batches(
        self, workloads: Sequence[_LayerBatch], timesteps: int = 1
    ) -> InferenceResult:
        """Aggregate whole-batch layer workloads into an :class:`InferenceResult`.

        This is the shared back half of :meth:`run_statistical` and
        :meth:`run_functional`: layer-major iteration, one ``*_perf_batch``
        kernel call per layer returning a columnar
        :class:`~repro.arch.trace.BatchClusterStats`, then timestep scaling
        (statistical mode only — functional activity already carries one
        entry per timestep), the energy model, FPU utilization, IPC and
        power, each evaluated once over the layer's ``(batch,)`` arrays and
        stored straight into its :class:`LayerResult`.  The two public modes
        differ *only* in how they build ``workloads``.
        """
        clock_hz = self.cluster.clock_hz
        layers = []
        profile = layer_profiler_hook()
        for work in workloads:
            plan = work.plan
            layer_started = time.monotonic() if profile is not None else 0.0
            stats = self._cost_layer_batch(work)
            if timesteps > 1:
                stats = stats.scaled(timesteps)
            energy_j = self.energy_model.batch_energy_j(
                stats,
                precision=plan.precision,
                streaming=plan.streaming,
                uses_mac=plan.kernel is KernelKind.ENCODE,
            )
            runtime_s = stats.runtime_seconds(clock_hz)
            # Copies: the result owns its arrays, and some kernels' stats are
            # read-only broadcasts of one row.
            layers.append(
                LayerResult(
                    name=plan.name,
                    kernel=plan.kernel.value,
                    precision=plan.precision,
                    streaming=plan.streaming,
                    cycles=np.array(stats.total_cycles),
                    fpu_utilization=stats.fpu_utilization,
                    ipc=stats.ipc,
                    energy_j=energy_j,
                    power_w=np.divide(
                        energy_j, runtime_s, out=np.zeros_like(energy_j), where=runtime_s > 0
                    ),
                    dma_bytes=np.array(stats.dma_bytes),
                    clock_hz=clock_hz,
                )
            )
            if profile is not None:
                profile(plan.name, layer_started, time.monotonic(), "layer")
        return InferenceResult(config=self.config, layers=layers, clock_hz=clock_hz)

    # -- public workload API (used by repro.serve's micro-batcher) --------- #
    def statistical_workloads(
        self,
        plans: Sequence[LayerPlan],
        batch_size: int,
        seed: SeedLike,
    ) -> List[_LayerBatch]:
        """Build one statistical run's whole-batch layer workloads.

        Public entry point of :meth:`_statistical_workloads` for callers
        that coalesce several runs into one engine pass (the serving
        micro-batcher): build each run's workloads under its own seed,
        concatenate them with :func:`concat_workloads` and cost the union
        through :meth:`run_workloads`.
        """
        return self._statistical_workloads(plans, batch_size, seed)

    def functional_workloads(
        self,
        plans: Sequence[LayerPlan],
        activity: BatchNetworkActivity,
    ) -> List[_LayerBatch]:
        """Build one recorded activity's whole-batch layer workloads (public)."""
        return self._functional_workloads(plans, activity)

    def run_workloads(
        self, workloads: Sequence[_LayerBatch], timesteps: int = 1
    ) -> InferenceResult:
        """Cost pre-built layer workloads through the internal batch engine.

        Each per-layer metric array of the returned result has one entry per
        workload frame, in workload order — so per-frame rows of a
        concatenated workload are bit-for-bit what each constituent run
        would have produced alone (the invariant the serving micro-batcher's
        scatter step relies on, gated by ``tests/serve/``).
        """
        return self._run_layer_batches(workloads, timesteps=timesteps)

    # ------------------------------------------------------------------ #
    # Statistical batch execution
    # ------------------------------------------------------------------ #
    def _synthetic_counts(
        self, plan: LayerPlan, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw a padded per-position spike-count map for a conv layer."""
        spec = plan.spec
        unpadded = spec.input_shape
        counts = rng.binomial(
            unpadded.channels, plan.firing_rate, size=(unpadded.height, unpadded.width)
        )
        return pad_counts(spec, counts)

    def _synthetic_counts_batch(
        self, plan: LayerPlan, rngs: Sequence[np.random.Generator]
    ) -> np.ndarray:
        """Stack every frame's padded spike-count map into a ``(B, Hp, Wp)`` array.

        Each frame draws from its own generator (in frame order), so the
        per-frame streams are identical to the per-frame reference loop; the
        zero padding is applied to the whole stack in one :func:`pad_counts`
        call (bit-for-bit the same as padding each map individually).
        """
        spec = plan.spec
        unpadded = spec.input_shape
        counts = np.stack(
            [
                rng.binomial(
                    unpadded.channels,
                    plan.firing_rate,
                    size=(unpadded.height, unpadded.width),
                )
                for rng in rngs
            ]
        )
        return pad_counts(spec, counts)

    def _statistical_workloads(
        self,
        plans: Sequence[LayerPlan],
        batch_size: int,
        seed: SeedLike,
    ) -> List[_LayerBatch]:
        """Draw every layer's whole-batch synthetic workload.

        Layer-major iteration with one spawned RNG stream per frame: each
        frame's stream is consumed in layer order, exactly as the per-frame
        reference loop consumes it, so the draws are bit-for-bit identical.
        """
        frame_rngs = spawn_rngs(seed, batch_size)
        workloads: List[_LayerBatch] = []
        for plan in plans:
            if plan.kernel is KernelKind.CONV:
                workloads.append(
                    _LayerBatch(plan, counts=self._synthetic_counts_batch(plan, frame_rngs))
                )
            elif plan.kernel is KernelKind.FC:
                nnz = [
                    int(rng.binomial(plan.spec.in_features, plan.firing_rate))
                    for rng in frame_rngs
                ]
                workloads.append(_LayerBatch(plan, nnz=nnz))
            else:
                workloads.append(_LayerBatch(plan, batch=batch_size))
        return workloads

    def run_statistical(
        self,
        plans: Optional[Sequence[LayerPlan]] = None,
        batch_size: Optional[int] = None,
        firing_rates: Optional[Dict[str, float]] = None,
        seed: SeedLike = None,
        timesteps: Optional[int] = None,
    ) -> InferenceResult:
        """Run a batch of frames in statistical mode (default: full S-VGG11).

        Per-frame spike counts are drawn from a binomial distribution with
        each layer's firing rate, reproducing the dynamic-sparsity variation
        the paper captures with its batch of 128 CIFAR-10 frames.

        This is the vectorized batch engine: it iterates layer-major, draws
        all per-frame spike counts of a layer at once (stacked behind a
        leading batch axis, one spawned RNG stream per frame) and costs the
        whole batch through the kernels' ``*_perf_batch`` entry points.  For
        a fixed seed the result is bit-for-bit identical to the per-frame
        loop kept in :meth:`run_statistical_reference`, at a fraction of the
        wall-clock cost (``benchmarks/bench_batch_engine.py`` quantifies the
        speedup at batch 128).
        """
        plans = list(plans) if plans is not None else self.optimizer.plan_svgg11(firing_rates)
        batch_size = batch_size or self.config.batch_size
        timesteps = timesteps or self.config.timesteps
        seed = seed if seed is not None else self.config.seed
        workloads = self._statistical_workloads(plans, batch_size, seed)
        return self._run_layer_batches(workloads, timesteps=timesteps)

    def run_statistical_reference(
        self,
        plans: Optional[Sequence[LayerPlan]] = None,
        batch_size: Optional[int] = None,
        firing_rates: Optional[Dict[str, float]] = None,
        seed: SeedLike = None,
        timesteps: Optional[int] = None,
    ) -> InferenceResult:
        """Per-frame reference implementation of :meth:`run_statistical`.

        Walks the batch frame-by-frame and layer-by-layer, re-entering every
        kernel once per frame.  Kept as the golden reference for the batch
        engine's equivalence tests and as the baseline timed by
        ``benchmarks/bench_batch_engine.py``; produces bit-for-bit the same
        :class:`~repro.core.results.InferenceResult` as the vectorized path.
        """
        plans = list(plans) if plans is not None else self.optimizer.plan_svgg11(firing_rates)
        batch_size = batch_size or self.config.batch_size
        timesteps = timesteps or self.config.timesteps
        seed = seed if seed is not None else self.config.seed
        frame_rngs = spawn_rngs(seed, batch_size)

        accumulators = [_LayerAccumulator(plan) for plan in plans]
        for rng in frame_rngs:
            for accumulator in accumulators:
                plan = accumulator.plan
                if plan.kernel is KernelKind.CONV:
                    counts = self._synthetic_counts(plan, rng)
                    stats = self.run_layer(plan, spike_counts=counts)
                elif plan.kernel is KernelKind.FC:
                    nnz = int(rng.binomial(plan.spec.in_features, plan.firing_rate))
                    stats = self.run_layer(plan, nnz=nnz)
                else:
                    stats = self.run_layer(plan)
                if timesteps > 1:
                    stats = _scale_stats(stats, timesteps)
                energy = self.layer_energy(plan, stats)
                accumulator.add(stats, energy, self.cluster.clock_hz)
        return InferenceResult(
            config=self.config,
            layers=[a.result(self.cluster.clock_hz) for a in accumulators],
            clock_hz=self.cluster.clock_hz,
        )

    # ------------------------------------------------------------------ #
    # Functional batch execution
    # ------------------------------------------------------------------ #
    def record_activity(
        self,
        network: SpikingNetwork,
        frames: Sequence[np.ndarray],
        numerics: Optional[NumericsPolicy] = None,
    ) -> BatchNetworkActivity:
        """Record the network's batched activity under this engine's timesteps.

        One vectorized :meth:`~repro.snn.network.SpikingNetwork.forward_batch`
        pass over all frames.  The returned activity is reusable: costing
        several hardware variants (baseline vs SpikeStream, FP16 vs FP8) on
        the same recorded activity only pays the forward pass once — pass it
        to :meth:`run_functional` via ``activity=``.  ``numerics`` selects
        the golden-model policy of the pass (default: the engine's own
        :attr:`numerics`).
        """
        policy = self.numerics if numerics is None else numerics
        return network.forward_batch(
            frames, timesteps=self.config.timesteps, policy=policy
        )

    def _check_activity(
        self, activity: BatchNetworkActivity, frames: Sequence[np.ndarray]
    ) -> None:
        """Reject a pre-recorded activity that cannot belong to ``frames``.

        Results are memoized under a fingerprint of (config, network,
        frames) that does not cover the activity object, so a stale or
        mismatched activity would poison the store; the cheap consistency
        checks here — frame count and records-per-timestep — catch the
        common mistakes (different batch, different timesteps) before
        anything is costed or cached.
        """
        num_frames = frames.shape[0] if isinstance(frames, np.ndarray) else len(frames)
        if activity.batch_size != num_frames:
            raise ValueError(
                f"activity covers {activity.batch_size} frame(s) but {num_frames} "
                "frame(s) were supplied"
            )
        records_per_layer: Dict[int, int] = {}
        for record in activity.records:
            records_per_layer[record.layer_index] = (
                records_per_layer.get(record.layer_index, 0) + 1
            )
        timesteps = set(records_per_layer.values())
        if timesteps and timesteps != {self.config.timesteps}:
            raise ValueError(
                f"activity records {sorted(timesteps)} timestep(s) per layer but "
                f"this engine's configuration uses {self.config.timesteps}"
            )

    def _functional_workloads(
        self,
        plans: Sequence[LayerPlan],
        activity: BatchNetworkActivity,
    ) -> List[_LayerBatch]:
        """Stack recorded activity into whole-batch layer workloads.

        The batch axis enumerates ``(frame, timestep)`` pairs frame-major —
        ``frame 0 t0, frame 0 t1, ..., frame 1 t0, ...`` — which is exactly
        the order the per-frame reference loop appends per-layer entries in,
        so the resulting per-frame metric arrays line up element for element.
        """
        workloads: List[_LayerBatch] = []
        for plan in plans:
            records = activity.for_name(plan.name)
            if not records:
                continue
            batch = activity.batch_size
            if plan.kernel is KernelKind.ENCODE:
                workloads.append(_LayerBatch(plan, batch=batch * len(records)))
            elif plan.kernel is KernelKind.CONV:
                # (T, B, H, W) per-position counts -> frame-major (B*T, Hp, Wp).
                counts = np.stack(
                    [np.count_nonzero(r.input_spikes, axis=3) for r in records]
                )
                counts = counts.transpose(1, 0, 2, 3).reshape(
                    batch * len(records), counts.shape[2], counts.shape[3]
                )
                workloads.append(_LayerBatch(plan, counts=pad_counts(plan.spec, counts)))
            else:
                nnz = np.stack(
                    [np.count_nonzero(r.input_spikes, axis=1) for r in records]
                )
                workloads.append(
                    _LayerBatch(plan, nnz=[int(n) for n in nnz.T.reshape(-1)])
                )
        return workloads

    def run_functional(
        self,
        network: SpikingNetwork,
        frames: Sequence[np.ndarray],
        firing_rates: Optional[Dict[str, float]] = None,
        activity: Optional[BatchNetworkActivity] = None,
        numerics: Optional[NumericsPolicy] = None,
    ) -> InferenceResult:
        """Run the performance model on the *actual* activity of a network.

        The whole batch of frames goes through one vectorized
        :meth:`~repro.snn.network.SpikingNetwork.forward_batch` pass; the
        stacked per-layer spike maps then drive the kernels' ``*_perf_batch``
        entry points through the same internal batch engine as
        :meth:`run_statistical`.  The result is bit-for-bit identical to the
        historical per-frame loop kept in :meth:`run_functional_reference`
        (gated by ``tests/core/test_functional_batch.py``), at a fraction of
        the wall-clock cost (``benchmarks/bench_functional.py``).

        Pass a pre-recorded ``activity`` (see :meth:`record_activity`) to
        skip the forward pass — e.g. when costing several hardware variants
        on the same recorded spike activity.

        ``numerics`` selects the golden-model
        :class:`~repro.snn.numerics.NumericsPolicy` of the forward pass
        (default: the engine's own :attr:`numerics`, itself the FP64 dense
        reference unless constructed otherwise).  The performance model is
        policy-independent — it reads spike counts — so only the recorded
        spike maps (and thus the costed counts) can differ between policies.
        """
        plans = self.optimizer.plan_network(network, firing_rates)
        if activity is None:
            activity = self.record_activity(network, frames, numerics=numerics)
        else:
            self._check_activity(activity, frames)
        workloads = self._functional_workloads(plans, activity)
        # Timesteps are real executions recorded one-per-record in the
        # activity (already unrolled into the batch axis): no scaling.
        return self._run_layer_batches(workloads, timesteps=1)

    def run_functional_reference(
        self,
        network: SpikingNetwork,
        frames: Sequence[np.ndarray],
        firing_rates: Optional[Dict[str, float]] = None,
    ) -> InferenceResult:
        """Per-frame reference implementation of :meth:`run_functional`.

        Walks the batch frame-by-frame: one per-frame
        :meth:`~repro.snn.network.SpikingNetwork.forward` pass followed by
        one scalar kernel-perf call per recorded layer and timestep.  Kept
        as the golden reference for the batched functional engine's
        equivalence tests and as the baseline timed by
        ``benchmarks/bench_functional.py``.
        """
        plans = self.optimizer.plan_network(network, firing_rates)
        plans_by_name = {plan.name: plan for plan in plans}
        accumulators = {plan.name: _LayerAccumulator(plan) for plan in plans}

        for frame in frames:
            activity = network.forward(frame, timesteps=self.config.timesteps)
            self._accumulate_activity(activity, plans_by_name, accumulators)
        return InferenceResult(
            config=self.config,
            layers=[accumulators[plan.name].result(self.cluster.clock_hz) for plan in plans],
            clock_hz=self.cluster.clock_hz,
        )

    def _accumulate_activity(
        self,
        activity: NetworkActivity,
        plans_by_name: Dict[str, LayerPlan],
        accumulators: Dict[str, "_LayerAccumulator"],
    ) -> None:
        for record in activity.records:
            plan = plans_by_name.get(record.name)
            if plan is None:
                continue
            if plan.kernel is KernelKind.ENCODE:
                stats = self.run_layer(plan)
            elif plan.kernel is KernelKind.CONV:
                # Counting the unpadded map then zero-padding the counts is
                # exactly counting the padded map (the ring carries no
                # spikes); pad_counts is the shared home of that logic.
                counts = pad_counts(
                    plan.spec, np.count_nonzero(record.input_spikes, axis=2)
                )
                stats = self.run_layer(plan, spike_counts=counts)
            else:
                nnz = int(np.count_nonzero(record.input_spikes))
                stats = self.run_layer(plan, nnz=nnz)
            energy = self.layer_energy(plan, stats)
            accumulators[record.name].add(stats, energy, self.cluster.clock_hz)


def concat_workloads(
    workload_lists: Sequence[Sequence[_LayerBatch]],
) -> List[_LayerBatch]:
    """Concatenate several runs' layer workloads along the batch axis.

    Every list must describe the same layer sequence (same plans in the same
    order — the micro-batcher guarantees this by only coalescing requests
    with identical configuration fingerprints).  Conv count stacks are
    concatenated, FC nnz lists chained, encode frame counts summed; the
    resulting per-layer batch axis is run-major, matching the scatter
    offsets of :meth:`repro.core.results.InferenceResult.frame_slice`.
    """
    if not workload_lists:
        return []
    first = workload_lists[0]
    if len(workload_lists) == 1:
        return list(first)
    for other in workload_lists[1:]:
        if len(other) != len(first) or any(
            a.plan.name != b.plan.name or a.plan.kernel is not b.plan.kernel
            for a, b in zip(first, other)
        ):
            raise ValueError("cannot concatenate workloads of different layer plans")
    combined: List[_LayerBatch] = []
    for layer_index, head in enumerate(first):
        parts = [workloads[layer_index] for workloads in workload_lists]
        if head.counts is not None:
            combined.append(
                _LayerBatch(head.plan, counts=np.concatenate([p.counts for p in parts]))
            )
        elif head.nnz is not None:
            nnz: List[int] = []
            for part in parts:
                nnz.extend(part.nnz)
            combined.append(_LayerBatch(head.plan, nnz=nnz))
        else:
            combined.append(_LayerBatch(head.plan, batch=sum(p.batch for p in parts)))
    return combined


def _scale_stats(stats: ClusterStats, timesteps: int) -> ClusterStats:
    """Repeat a single-timestep execution for ``timesteps`` timesteps.

    All activity counters scale linearly; derived ratios (utilization, IPC)
    are unchanged, which matches executing the same layer once per timestep.
    ``timesteps <= 1`` returns the stats unchanged.
    """
    if timesteps <= 1:
        return stats
    scaled_cores = [
        replace(
            core,
            **{
                field_info.name: getattr(core, field_info.name) * timesteps
                for field_info in dataclass_fields(core)
                if field_info.name != "core_id"
            },
        )
        for core in stats.core_stats
    ]
    return replace(
        stats,
        core_stats=scaled_cores,
        dma_cycles=stats.dma_cycles * timesteps,
        dma_bytes=stats.dma_bytes * timesteps,
        dma_exposed_cycles=stats.dma_exposed_cycles * timesteps,
        total_cycles=stats.total_cycles * timesteps,
    )
