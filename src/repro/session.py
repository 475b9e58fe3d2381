"""Unified long-lived `Session` front-end over the whole evaluation surface.

A :class:`Session` is the one way to run a paper figure or a sweep:

* **one shared pool** — the session lazily creates ONE
  :mod:`concurrent.futures` executor the first time parallel work is
  dispatched and reuses it for every subsequent sweep and experiment until
  :meth:`Session.close` (worker start-up, which dominates short sweeps, is
  paid once per service lifetime, not once per call).  A pool that cannot
  start or that breaks is dropped and the session runs serially from then
  on; it never builds a second pool behind the caller's back;
* **a persistent result store** — :class:`ResultStore` memoizes whole
  :class:`~repro.core.results.InferenceResult` objects keyed on a canonical
  fingerprint of the :class:`~repro.config.RunConfig` plus the run
  parameters and hardware models, optionally persisted as JSON under
  ``cache_dir`` so results survive the process;
* **one scenario registry** — every figure experiment is a named
  :class:`Scenario` in :data:`SCENARIOS`, and every sweep registered in
  :data:`repro.eval.runner.SWEEPS` is a scenario too;
  :meth:`Session.scenarios` lists them, :meth:`Session.describe` documents
  one, :meth:`Session.run` executes it with the session's pool and result
  store, and :meth:`Session.run_plan` streams a sweep's rows as they
  complete.

Typical use::

    from repro import Session

    with Session(jobs=4, backend="process", cache_dir="results") as session:
        print(session.scenarios())
        fig3c = session.run("speedup", batch_size=128)      # simulates
        fig4 = session.run("energy", batch_size=128)        # store hits
        sweep = session.run("firing_rate", rates=(0.1, 0.3))
"""

from __future__ import annotations

import copy
import hashlib
import json
import re
import sys
import threading
from collections import OrderedDict
from concurrent.futures import BrokenExecutor, Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import asdict, dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .arch.params import ClusterParams, CostModelParams, DEFAULT_CLUSTER, DEFAULT_COSTS
from .backends import BACKENDS, execute
from .config import RunConfig, check_run_size, spikestream_config
from .core.pipeline import SpikeStreamInference
from .core.results import InferenceResult
from .energy.params import DEFAULT_ENERGY, EnergyParams
from .eval.claims import fidelity
from .eval.experiments import (
    ExperimentResult,
    accelerator_comparison_experiment,
    energy_experiment,
    memory_footprint_experiment,
    speedup_experiment,
    spva_microbenchmark_experiment,
    svgg11_variant_configs,
    utilization_experiment,
)
from .eval.metrics import ratio
from .eval.runner import SWEEPS, get_sweep
from .plan import PlanRow, SweepSpec, collect_plan, iter_plan
from .snn.numerics import NumericsPolicy, resolve as resolve_numerics
from .utils.serialization import atomic_write_text, canonical_json

_SIZE_SUFFIXES = {"b": 1, "kb": 1024, "mb": 1024**2, "gb": 1024**3}


@lru_cache(maxsize=32)
def _models_payload(
    cluster: ClusterParams, costs: CostModelParams, energy: EnergyParams
) -> Dict[str, Dict[str, object]]:
    """The hardware models as fingerprint payload entries, memoised by value.

    Serialising the three frozen parameter sets is most of a fingerprint's
    cost, and a serving session fingerprints every request twice.  The
    dicts are shared: :func:`canonical_json` only reads them.
    """
    return {"cluster": asdict(cluster), "costs": asdict(costs), "energy": asdict(energy)}


def _parse_size(text: str, original: object) -> int:
    match = re.fullmatch(r"([0-9]+(?:\.[0-9]+)?)\s*(b|kb|mb|gb)", text)
    if not match:
        raise ValueError(
            f"unrecognized cache_limit {original!r}; expected an entry count, "
            "a size such as '64MB', or a disk bound such as 'disk:256MB' "
            "(clauses may be comma-combined)"
        )
    return int(float(match.group(1)) * _SIZE_SUFFIXES[match.group(2)])


def _parse_cache_limit(
    limit: Union[None, int, str]
) -> Tuple[Optional[int], Optional[int], Optional[int]]:
    """``cache_limit`` knob -> (max_entries, max_bytes, max_disk_bytes).

    An integer (or bare digit string) bounds the in-memory entry count; a
    string with a size suffix (``"64MB"``, ``"512kb"``, ``"2gb"``) bounds
    the in-memory canonical-JSON footprint; a ``disk:`` clause
    (``"disk:256MB"``) bounds the *persisted* store directory, pruning the
    oldest files by mtime.  Clauses compose with commas:
    ``"100,disk:256MB"`` caps both.
    """
    if limit is None:
        return None, None, None
    if isinstance(limit, int):
        return limit, None, None
    max_entries: Optional[int] = None
    max_bytes: Optional[int] = None
    max_disk_bytes: Optional[int] = None
    for clause in str(limit).split(","):
        text = clause.strip().lower()
        if not text:
            continue
        if text.isdigit():
            max_entries = int(text)
        elif text.startswith("disk:") or text.startswith("disk="):
            max_disk_bytes = _parse_size(text[5:].strip(), limit)
        else:
            max_bytes = _parse_size(text, limit)
    return max_entries, max_bytes, max_disk_bytes


# --------------------------------------------------------------------------- #
# Persistent InferenceResult store
# --------------------------------------------------------------------------- #
class ResultStore:
    """Memoized whole :class:`~repro.core.results.InferenceResult` objects.

    Results are keyed on the canonical fingerprint produced by
    :meth:`Session.fingerprint` (configuration + run parameters + hardware
    models).  The store is an in-memory dictionary, optionally backed by a
    directory of one JSON file per fingerprint: :meth:`put` persists through
    an atomic write, :meth:`get` falls back to disk on an in-memory miss, so
    a new session pointed at the same ``cache_dir`` serves previous
    sessions' results without re-simulating.

    Long-lived service deployments can bound the in-memory working set with
    ``max_entries`` and/or ``max_bytes`` (canonical-JSON size of the stored
    results): the store then evicts least-recently-used entries on admission
    (`evictions` counts them).  Eviction drops only the in-memory copy —
    persisted files stay on disk and are transparently re-loaded on the next
    :meth:`get`, so bounding memory never loses results, it only trades a
    re-read (or, for memory-only stores, a re-simulation) for footprint.

    ``max_disk_bytes`` bounds the *persisted* side (``cache_dir`` grows one
    JSON file per distinct run and is otherwise unbounded): after every
    persisting :meth:`put` the oldest files by mtime are pruned until the
    directory fits, never touching the file just written
    (``disk_evictions`` counts removals).  A pruned result is simply a
    future store miss — it re-simulates; nothing breaks.
    """

    def __init__(
        self,
        cache_dir: Optional[Union[str, Path]] = None,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
        max_disk_bytes: Optional[int] = None,
    ):
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        if max_disk_bytes is not None and max_disk_bytes < 1:
            raise ValueError(f"max_disk_bytes must be positive, got {max_disk_bytes}")
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.max_disk_bytes = max_disk_bytes
        self._memory: "OrderedDict[str, InferenceResult]" = OrderedDict()
        self._sizes: Dict[str, int] = {}
        # One store is shared by every server worker thread in repro.serve;
        # the reentrant lock makes get/put atomic without changing
        # single-threaded behavior.
        self._lock = threading.RLock()
        self.total_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.disk_evictions = 0
        if self.cache_dir is not None and self.max_disk_bytes is not None:
            # Pointing a bounded store at an oversized directory prunes it
            # immediately, so the bound holds from the first session on.
            self._prune_disk()

    def _path(self, fingerprint: str) -> Path:
        return self.cache_dir / f"{fingerprint}.json"

    @property
    def bounded(self) -> bool:
        return self.max_entries is not None or self.max_bytes is not None

    def _admit(self, fingerprint: str, result: InferenceResult,
               encoded_size: Optional[int] = None) -> None:
        """Insert into the LRU map and evict down to the configured bounds."""
        if fingerprint in self._memory:
            self.total_bytes -= self._sizes.pop(fingerprint, 0)
            del self._memory[fingerprint]
        self._memory[fingerprint] = result
        if self.bounded:
            if encoded_size is None:
                encoded_size = len(canonical_json(result.to_dict()).encode())
            self._sizes[fingerprint] = encoded_size
            self.total_bytes += encoded_size
            self._evict()

    def _evict(self) -> None:
        while self._memory and (
            (self.max_entries is not None and len(self._memory) > self.max_entries)
            or (self.max_bytes is not None and self.total_bytes > self.max_bytes)
        ):
            victim, _ = self._memory.popitem(last=False)
            self.total_bytes -= self._sizes.pop(victim, 0)
            self.evictions += 1

    def get(self, fingerprint: str) -> Optional[InferenceResult]:
        """Stored result for ``fingerprint`` or None (counts hits/misses).

        Hits return a deep copy, so a caller mutating a served result (e.g.
        editing its per-frame arrays in place) can never poison what later
        callers are served.
        """
        with self._lock:
            result = self._memory.get(fingerprint)
            if result is not None:
                self._memory.move_to_end(fingerprint)
                self.hits += 1
        if result is not None:
            # The deep copy happens OUTSIDE the lock: stored results are
            # immutable (only ever replaced wholesale), so copying an
            # unlocked reference is safe, and a multi-MB copy must not
            # stall every other admission/lookup thread.
            return copy.deepcopy(result)
        if self.cache_dir is not None:
            # Disk fallback also outside the lock — one slow read must not
            # serialize the serving hot path.
            path = self._path(fingerprint)
            if path.exists():
                try:
                    text = path.read_text()
                    result = InferenceResult.from_dict(json.loads(text))
                except (KeyError, TypeError, ValueError, OSError) as error:
                    # A store is disposable: unreadable entries
                    # re-simulate, they never crash the run.
                    print(
                        f"warning: ignoring unreadable stored result {path}: {error}",
                        file=sys.stderr,
                    )
                    result = None
                else:
                    with self._lock:
                        self._admit(fingerprint, result, encoded_size=len(text.encode()))
                        self.hits += 1
                    return copy.deepcopy(result)
        with self._lock:
            self.misses += 1
        return None

    def put(self, fingerprint: str, result: InferenceResult,
            adopt: bool = False) -> None:
        """Store one result, persisting it when the store is disk-backed.

        The store keeps its own deep copy: the caller usually receives the
        very object that was just simulated, and mutating it must not
        rewrite the store's master copy.  ``adopt=True`` transfers
        ownership instead — the store keeps ``result`` itself and the
        caller must treat it as frozen.  The wire-decode paths use it: a
        freshly deserialized result is already a private copy (its arrays
        arrive read-only), so the defensive deep copy is pure waste there.
        """
        encoded: Optional[str] = None
        if self.cache_dir is not None or self.bounded:
            encoded = canonical_json(result.to_dict())
        # Encode, copy and persist OUTSIDE the lock; only the map update is
        # locked.  Concurrent same-fingerprint writes are safe because
        # atomic_write_text is temp-file + os.replace, and _prune_disk
        # already tolerates racing file removals.
        stored = result if adopt else copy.deepcopy(result)
        with self._lock:
            self._admit(
                fingerprint,
                stored,
                encoded_size=len(encoded.encode()) if encoded is not None else None,
            )
        if self.cache_dir is None:
            return
        try:
            atomic_write_text(self._path(fingerprint), encoded)
        except OSError as error:
            print(
                f"warning: could not persist result {fingerprint[:12]}…: {error}",
                file=sys.stderr,
            )
        else:
            if self.max_disk_bytes is not None:
                self._prune_disk(keep=self._path(fingerprint))

    def _prune_disk(self, keep: Optional[Path] = None) -> None:
        """Delete oldest-mtime persisted results until the directory fits.

        ``keep`` (the file just written) is never pruned, so a single result
        larger than the bound still persists rather than thrashing.  Races
        with concurrent sessions are tolerated: files that vanish mid-scan
        are simply skipped.
        """
        if self.cache_dir is None or self.max_disk_bytes is None:
            return
        entries = []
        try:
            paths = list(self.cache_dir.glob("*.json"))
        except OSError:
            return
        for path in paths:
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        total = sum(size for _, size, _ in entries)
        for _, size, path in sorted(entries, key=lambda entry: entry[0]):
            if total <= self.max_disk_bytes:
                break
            if keep is not None and path == keep:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            with self._lock:
                self.disk_evictions += 1

    def stats(self) -> Dict[str, float]:
        """One flat snapshot of the store's counters and occupancy.

        The supported way to observe a store (callers used to poke at the
        individual attributes): hit/miss/eviction counters, current entry
        count and canonical-JSON footprint, and the derived ``hit_rate``
        (0.0 on an untouched store).  Surfaced by ``repro.cli run
        --verbose`` and, as a live probe, by the ``repro.serve`` telemetry
        registry.
        """
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hits / lookups if lookups else 0.0,
                "evictions": self.evictions,
                "disk_evictions": self.disk_evictions,
                "entries": len(self._memory),
                "total_bytes": self.total_bytes,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            if fingerprint in self._memory:
                return True
            return self.cache_dir is not None and self._path(fingerprint).exists()


# --------------------------------------------------------------------------- #
# Scenario registry
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Scenario:
    """One named entry point of the unified API.

    ``runner`` is called as ``runner(session, **params)`` and returns an
    :class:`~repro.eval.experiments.ExperimentResult`; ``params`` names the
    keyword parameters the scenario accepts (for :meth:`Session.describe`
    and CLI help).
    """

    name: str
    kind: str  # "experiment" | "sweep"
    figure: str
    description: str
    params: Tuple[str, ...]
    runner: Callable[..., ExperimentResult]
    #: whether the scenario's simulations run on the session's
    #: cluster/costs/energy models (False: the scenario is model-free or
    #: hard-wired to the defaults, and Session.run warns when the session
    #: carries custom models that would be silently ignored)
    uses_session_models: bool = False


def _without_session(experiment: Callable[..., ExperimentResult]) -> Callable[..., ExperimentResult]:
    """Scenario runner of a model-free experiment: the session is not used."""
    return lambda session, **params: experiment(**params)


def _on_variants(experiment: Callable[..., ExperimentResult]) -> Callable[..., ExperimentResult]:
    """Scenario runner of a figure computed from the three S-VGG11 variants.

    A caller-supplied ``variants`` dictionary is used as is; otherwise the
    variants come from :meth:`Session.run_variants` (store-backed).
    """
    def runner(session: "Session", batch_size: int = 16, seed: int = 2025,
               variants: Optional[Dict[str, InferenceResult]] = None) -> ExperimentResult:
        return experiment(variants or session.run_variants(batch_size=batch_size, seed=seed))

    return runner


def _variants_summary(name: str, figure: str,
                      variants: Dict[str, InferenceResult]) -> ExperimentResult:
    """Per-variant summary rows plus network speedup and energy-gain headline."""
    rows = [{"variant": key, **result.summary()} for key, result in variants.items()]
    baseline = variants["baseline_fp16"]
    stream16 = variants["spikestream_fp16"]
    stream8 = variants["spikestream_fp8"]
    headline = {
        "network_speedup_fp16_over_baseline": ratio(baseline.total_cycles, stream16.total_cycles),
        "network_speedup_fp8_over_baseline": ratio(baseline.total_cycles, stream8.total_cycles),
        "energy_gain_fp16_over_baseline": ratio(baseline.total_energy_j, stream16.total_energy_j),
        "energy_gain_fp8_over_baseline": ratio(baseline.total_energy_j, stream8.total_energy_j),
    }
    return ExperimentResult(name=name, figure=figure, rows=rows, headline=headline)


def _scenario_svgg11_variants(session: "Session", batch_size: int = 16, seed: int = 2025,
                              firing_rates: Optional[Dict[str, float]] = None,
                              timesteps: int = 1) -> ExperimentResult:
    variants = session.run_variants(
        batch_size=batch_size, seed=seed, firing_rates=firing_rates, timesteps=timesteps
    )
    return _variants_summary("svgg11_variants", "summary", variants)


def frames_fingerprint(frames) -> str:
    """Canonical hex digest of a batch of input frames (shape, dtype, bytes).

    This is what lets :class:`Session` memoize whole *functional* runs: the
    store key covers the exact pixels, so two different frame batches can
    never share an entry.
    """
    stacked = frames if isinstance(frames, np.ndarray) else np.stack(
        [np.asarray(frame) for frame in frames]
    )
    digest = hashlib.sha256()
    digest.update(repr((stacked.shape, str(stacked.dtype))).encode())
    digest.update(np.ascontiguousarray(stacked).tobytes())
    return digest.hexdigest()


#: LIF threshold of the functional scenario's S-VGG11.  The trained CIFAR-10
#: weights are not public; a lowered threshold keeps spike activity
#: propagating through all eleven randomly-initialized layers.  The recorded
#: input densities do not follow Figure 3a's profile: at batch 8, seed 2025,
#: with the spike layers' weights on the exact-spike grid, conv2 reads 0.28
#: against 0.45 and conv5-fc3 read 0.38-0.67 against 0.03-0.15 (fc1 0.668,
#: fc2 0.415).  Calibrating them is open work (ROADMAP).
_FUNCTIONAL_V_THRESHOLD = 0.25


def functional_svgg11_setup(batch_size: int = 8, seed: int = 2025):
    """The functional scenario's deterministic workload: ``(network, frames)``.

    Builds the S-VGG11 network (weights seeded by ``seed``) and samples
    ``batch_size`` synthetic CIFAR-10-like frames — the exact workload
    ``benchmarks/bench_functional.py`` times and the ``functional`` scenario
    runs.
    """
    from .snn.datasets import SyntheticCIFAR10
    from .snn.neuron import LIFParameters
    from .snn.svgg11 import build_svgg11

    network = build_svgg11(
        lif=LIFParameters(alpha=0.9, v_threshold=_FUNCTIONAL_V_THRESHOLD), rng=seed
    )
    frames, _ = SyntheticCIFAR10(seed=seed).sample(batch_size)
    return network, frames


def _scenario_functional(session: "Session", batch_size: int = 8, seed: int = 2025,
                         timesteps: int = 1) -> ExperimentResult:
    """The three evaluated S-VGG11 variants on *real* recorded spike activity.

    The functional counterpart of ``svgg11_variants``: one batched forward
    pass records the network's true per-layer activity, and the baseline
    FP16 / SpikeStream FP16 / SpikeStream FP8 performance models are all
    costed on that shared activity (store hits skip even the forward pass).
    """
    network, frames = functional_svgg11_setup(batch_size=batch_size, seed=seed)
    variants = session.run_functional_variants(
        network, frames, batch_size=batch_size, seed=seed, timesteps=timesteps
    )
    return _variants_summary("functional", "functional", variants)


def _sweep_scenario(spec: SweepSpec) -> Scenario:
    """The scenario view of one registered sweep: collected on the session's
    shared pool, with the session's base seed unless ``seed`` is given."""
    def runner(session: "Session", seed: Optional[int] = None,
               batch_size: Optional[int] = None, **point_kwargs) -> ExperimentResult:
        return collect_plan(
            spec,
            seed=session.seed if seed is None else seed,
            batch_size=4 if batch_size is None else batch_size,
            point_kwargs=point_kwargs,
            executor=session.shared_executor(),
        )

    # Only a sweep whose points read the batch size takes one, so the CLI
    # warns when --batch would change nothing.
    params = ("seed", "batch_size") if spec.batched else ("seed",)
    return Scenario(
        name=spec.name,
        kind="sweep",
        figure="sweep",
        description=spec.description or f"parallel {spec.name} sweep",
        params=params + tuple(sorted(spec.kwarg_axes)),
        runner=runner,
    )


def _build_scenarios() -> Dict[str, Scenario]:
    registry: Dict[str, Scenario] = {}

    def add(name, kind, figure, description, params, runner, uses_session_models=False):
        registry[name] = Scenario(name, kind, figure, description, tuple(params), runner,
                                  uses_session_models)

    add("memory_footprint", "experiment", "fig3a",
        "per-layer ifmap footprint under AER vs CSR and the resulting reduction",
        ("batch_size", "seed", "index_bytes"),
        _without_session(memory_footprint_experiment))
    add("utilization", "experiment", "fig3b",
        "per-layer FPU utilization and IPC, baseline vs SpikeStream (FP16)",
        ("batch_size", "seed", "variants"), _on_variants(utilization_experiment),
        uses_session_models=True)
    add("speedup", "experiment", "fig3c",
        "per-layer and network speedups of SpikeStream FP16/FP8 over the baseline",
        ("batch_size", "seed", "variants"), _on_variants(speedup_experiment),
        uses_session_models=True)
    add("energy", "experiment", "fig4",
        "per-layer energy and power of the three evaluated variants",
        ("batch_size", "seed", "variants"), _on_variants(energy_experiment),
        uses_session_models=True)
    add("svgg11_variants", "experiment", "summary",
        "network-level summary of the three S-VGG11 variants over one batch",
        ("batch_size", "seed", "firing_rates", "timesteps"), _scenario_svgg11_variants,
        uses_session_models=True)
    add("functional", "experiment", "functional",
        "the three S-VGG11 variants costed on real recorded spike activity "
        "(one shared batched forward pass)",
        ("batch_size", "seed", "timesteps"), _scenario_functional,
        uses_session_models=True)
    add("accelerator_comparison", "experiment", "fig5",
        "latency/energy comparison with SoA neuromorphic accelerators",
        ("timesteps", "batch_size", "seed"),
        _without_session(accelerator_comparison_experiment))
    add("spva_microbenchmark", "experiment", "listing1",
        "instruction-level SpVA micro-benchmark across stream lengths",
        ("stream_lengths", "seed"), _without_session(spva_microbenchmark_experiment))
    add("fidelity", "experiment", "paper",
        "every headline claim of the paper (repro.eval.claims) against the model: "
        "paper value, model value, ratio and band",
        ("batch_size", "seed"), fidelity, uses_session_models=True)
    return registry


#: The figure experiments; the sweeps are looked up in
#: :data:`repro.eval.runner.SWEEPS` (see :meth:`Session.scenarios`).
SCENARIOS: Dict[str, Scenario] = _build_scenarios()


# --------------------------------------------------------------------------- #
# Worker task (top-level so process pools can pickle it)
# --------------------------------------------------------------------------- #
def _statistical_task(payload) -> InferenceResult:
    config, cluster, costs, energy, batch_size, firing_rates, seed, timesteps = payload
    engine = SpikeStreamInference(config, cluster=cluster, costs=costs, energy=energy)
    return engine.run_statistical(
        batch_size=batch_size, firing_rates=firing_rates, seed=seed, timesteps=timesteps
    )


# --------------------------------------------------------------------------- #
# The Session facade
# --------------------------------------------------------------------------- #
class Session:
    """Long-lived facade over engines, sweeps, experiments and the result store.

    Parameters
    ----------
    config:
        Default :class:`~repro.config.RunConfig` of :meth:`run_inference`
        (full SpikeStream FP16 when omitted).
    cluster / costs / energy:
        Hardware models shared by every engine the session builds; they
        enter every result fingerprint, so results cached under one model
        are never served under another.
    jobs:
        Worker count of the shared pool; ``1`` keeps everything serial.
    backend:
        Kind of the shared pool: ``"process"`` (default), ``"thread"`` or
        ``"serial"``.
    cache_dir:
        Directory persisting the result store (``cache_dir/results/``)
        across processes.  Omitted: the store is in-memory for the
        session's lifetime only.
    seed:
        Default base seed of sweeps run through :meth:`run`.
    cache_limit:
        Bound on the result store: an integer caps the in-memory entry
        count, a size string (``"64MB"``) caps the in-memory canonical-JSON
        footprint, and a ``disk:`` clause (``"disk:256MB"``) caps the
        persisted ``cache_dir/results/`` directory with oldest-mtime
        pruning; clauses combine with commas (``"100,disk:256MB"``).
        Least-recently-used in-memory results are evicted (disk-backed
        entries transparently re-load on the next hit); pruned disk entries
        re-simulate on the next miss.
    """

    def __init__(
        self,
        config: Optional[RunConfig] = None,
        cluster: ClusterParams = DEFAULT_CLUSTER,
        costs: CostModelParams = DEFAULT_COSTS,
        energy: EnergyParams = DEFAULT_ENERGY,
        jobs: int = 1,
        backend: str = "process",
        cache_dir: Optional[Union[str, Path]] = None,
        seed: int = 2025,
        cache_limit: Union[None, int, str] = None,
    ):
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
        if jobs <= 0:
            raise ValueError(f"jobs must be positive, got {jobs}")
        self.config = config if config is not None else spikestream_config()
        self.cluster = cluster
        self.costs = costs
        self.energy = energy
        self.jobs = jobs
        self.backend = backend
        self.seed = seed
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        max_entries, max_bytes, max_disk_bytes = _parse_cache_limit(cache_limit)
        self.store = ResultStore(
            self.cache_dir / "results" if self.cache_dir else None,
            max_entries=max_entries,
            max_bytes=max_bytes,
            max_disk_bytes=max_disk_bytes,
        )
        self._executor: Optional[Executor] = None
        self._executor_failed = False
        # Guards pool creation/teardown: close() may race shared_executor()
        # when a server thread is dispatching while another thread shuts
        # the session down.
        self._lifecycle_lock = threading.RLock()
        #: number of pools created over the session's lifetime; stays at 1
        #: however many sweeps/experiments run (asserted by the tests).
        self.pool_launches = 0

    # -- shared worker pool -------------------------------------------------
    def shared_executor(self) -> Optional[Executor]:
        """The session's lazily created, reused executor (None when serial).

        The first parallel dispatch creates the pool; every later sweep or
        experiment reuses it.  If pool creation fails (e.g. fork refused in
        a restricted environment), or an existing pool breaks (e.g. a
        worker killed mid-run), the dead pool is shut down and the session
        degrades to serial execution permanently instead of re-dispatching
        onto a broken executor on every call.
        """
        if self.jobs <= 1 or self.backend == "serial" or self._executor_failed:
            return None
        with self._lifecycle_lock:
            if self._executor is not None and getattr(self._executor, "_broken", False):
                self._executor.shutdown(wait=False)
                self._executor = None
                self._executor_failed = True
                print(
                    f"warning: shared {self.backend} pool is broken; "
                    "session falls back to serial execution",
                    file=sys.stderr,
                )
                return None
            if self._executor is None:
                pool_cls = ProcessPoolExecutor if self.backend == "process" else ThreadPoolExecutor
                try:
                    self._executor = pool_cls(max_workers=self.jobs)
                    self.pool_launches += 1
                except (OSError, BrokenExecutor) as error:
                    print(
                        f"warning: could not start {self.backend} pool ({error!r}); "
                        "session falls back to serial execution",
                        file=sys.stderr,
                    )
                    self._executor_failed = True
                    return None
            return self._executor

    def close(self) -> None:
        """Drain the shared pool (idempotent, thread-safe).

        Safe to call twice, from several threads at once, and while work is
        in flight: the executor is detached under the lifecycle lock (so a
        concurrent :meth:`shared_executor` can never hand out a half-closed
        pool), then shut down with ``wait=True`` so already-dispatched work
        drains rather than being dropped.  The result store persists on
        every put, so there is nothing to flush, and it stays usable
        afterwards — a closed session can still serve store hits and even
        lazily re-create a pool if new parallel work arrives.
        """
        with self._lifecycle_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- engines and store-backed inference ---------------------------------
    def engine(self, config: Optional[RunConfig] = None) -> SpikeStreamInference:
        """A fresh engine under this session's hardware models."""
        return SpikeStreamInference(
            config if config is not None else self.config,
            cluster=self.cluster,
            costs=self.costs,
            energy=self.energy,
        )

    def fingerprint(
        self,
        config: RunConfig,
        batch_size: Optional[int] = None,
        firing_rates: Optional[Mapping[str, float]] = None,
        seed: Optional[int] = None,
        timesteps: Optional[int] = None,
    ) -> str:
        """Canonical fingerprint of one statistical run under this session.

        Extends :meth:`RunConfig.fingerprint` with the effective run
        parameters (which may override the config's own) and the session's
        hardware models, so two sessions with different cluster/cost/energy
        parameters never share store entries.
        """
        payload = {
            "mode": "statistical",
            "config": config.to_dict(),
            **_models_payload(self.cluster, self.costs, self.energy),
            "batch_size": batch_size if batch_size is not None else config.batch_size,
            "firing_rates": sorted(firing_rates.items()) if firing_rates else None,
            "seed": seed if seed is not None else config.seed,
            "timesteps": timesteps if timesteps is not None else config.timesteps,
        }
        return hashlib.sha256(canonical_json(payload).encode()).hexdigest()

    def run_inference(
        self,
        config: Optional[RunConfig] = None,
        batch_size: Optional[int] = None,
        firing_rates: Optional[Dict[str, float]] = None,
        seed: Optional[int] = None,
        timesteps: Optional[int] = None,
    ) -> InferenceResult:
        """One statistical S-VGG11 run, memoized in the result store.

        A hit returns the stored result without touching an engine; a miss
        simulates through :meth:`engine` and persists the result (when the
        store is disk-backed) for every later session.  ``None`` means the
        config's own value; a ``batch_size`` or ``timesteps`` below 1 raises
        ``ValueError`` before the store is consulted.
        """
        check_run_size(batch_size, timesteps)
        config = config if config is not None else self.config
        key = self.fingerprint(config, batch_size, firing_rates, seed, timesteps)
        hit = self.store.get(key)
        if hit is not None:
            return hit
        result = self.engine(config).run_statistical(
            batch_size=batch_size, firing_rates=firing_rates, seed=seed, timesteps=timesteps
        )
        self.store.put(key, result)
        return result

    def functional_fingerprint(
        self,
        config: RunConfig,
        network,
        frames,
        numerics: Optional[NumericsPolicy] = None,
    ) -> str:
        """Canonical fingerprint of one functional run under this session.

        Covers the configuration, the session's hardware models, the
        network's architecture-and-weights digest
        (:meth:`repro.snn.network.SpikingNetwork.fingerprint`), the exact
        frame bytes (:func:`frames_fingerprint`) and the golden-model
        :class:`~repro.snn.numerics.NumericsPolicy` (``None`` -> the FP64
        dense reference), so a stored functional result is only ever served
        for the identical workload — an fp32 or event-sparse run can never
        poison (or be served from) an fp64 reference entry.
        """
        payload = {
            "mode": "functional",
            "config": config.to_dict(),
            **_models_payload(self.cluster, self.costs, self.energy),
            "network": network.fingerprint(),
            "frames": frames_fingerprint(frames),
            "numerics": resolve_numerics(numerics).key(),
        }
        return hashlib.sha256(canonical_json(payload).encode()).hexdigest()

    def run_functional(
        self,
        network,
        frames,
        config: Optional[RunConfig] = None,
        activity=None,
        numerics: Optional[NumericsPolicy] = None,
    ) -> InferenceResult:
        """One functional (real-activity) run, memoized in the result store.

        A hit returns the stored result without running the network or the
        performance model; a miss records the batched forward pass
        (:meth:`~repro.core.pipeline.SpikeStreamInference.record_activity`)
        and costs it through the batched functional engine.  ``activity``
        optionally supplies a pre-recorded
        :class:`~repro.snn.network.BatchNetworkActivity` of exactly these
        frames under ``config``'s timesteps (the store key does not cover
        it), letting several variant configs share one forward pass — see
        :meth:`run_functional_variants`.  ``numerics`` selects the
        golden-model policy of the pass and is part of the store key, so
        each policy memoizes under its own entry.
        """
        config = config if config is not None else self.config
        key = self.functional_fingerprint(config, network, frames, numerics=numerics)
        hit = self.store.get(key)
        if hit is not None:
            return hit
        result = self.engine(config).run_functional(
            network, frames, activity=activity, numerics=numerics
        )
        self.store.put(key, result)
        return result

    def run_functional_variants(
        self,
        network,
        frames,
        batch_size: Optional[int] = None,
        seed: int = 2025,
        timesteps: int = 1,
        activity=None,
        numerics: Optional[NumericsPolicy] = None,
    ) -> Dict[str, InferenceResult]:
        """The three evaluated variants costed on one shared recorded activity.

        The functional counterpart of :meth:`run_variants`: store misses
        share a single batched forward pass (a caller-supplied ``activity``,
        or one recorded on the first miss), so regenerating the
        three-variant comparison costs at most one forward plus three
        batched engine passes — the workload
        ``benchmarks/bench_functional.py`` measures.  ``numerics`` selects
        the golden-model policy of that shared pass (and of each variant's
        store key).
        """
        if batch_size is None:
            batch_size = len(frames)
        configs = svgg11_variant_configs(batch_size=batch_size, seed=seed, timesteps=timesteps)
        results: Dict[str, InferenceResult] = {}
        for key, config in configs.items():
            fingerprint = self.functional_fingerprint(
                config, network, frames, numerics=numerics
            )
            hit = self.store.get(fingerprint)
            if hit is not None:
                results[key] = hit
                continue
            if activity is None:
                activity = self.engine(config).record_activity(
                    network, frames, numerics=numerics
                )
            result = self.engine(config).run_functional(
                network, frames, activity=activity, numerics=numerics
            )
            self.store.put(fingerprint, result)
            results[key] = result
        return results

    def run_variants(
        self,
        batch_size: int = 16,
        seed: int = 2025,
        firing_rates: Optional[Dict[str, float]] = None,
        timesteps: int = 1,
    ) -> Dict[str, InferenceResult]:
        """The three evaluated S-VGG11 variants, store-backed and pooled.

        Store misses are fanned out over the shared executor (one variant
        per worker) when the session is parallel; hits cost nothing.  The
        dictionary is keyed as
        :func:`~repro.eval.experiments.svgg11_variant_configs` — the
        ``variants`` argument of the Figure 3b, 3c and 4 experiments.
        """
        configs = svgg11_variant_configs(batch_size=batch_size, seed=seed, timesteps=timesteps)
        fingerprints = {
            key: self.fingerprint(config, batch_size, firing_rates, seed, timesteps)
            for key, config in configs.items()
        }
        results: Dict[str, InferenceResult] = {}
        missing: List[str] = []
        for key in configs:
            hit = self.store.get(fingerprints[key])
            if hit is not None:
                results[key] = hit
            else:
                missing.append(key)
        if missing:
            computed = self._run_statistical_many(
                [configs[key] for key in missing], batch_size, firing_rates, seed, timesteps
            )
            for key, result in zip(missing, computed):
                self.store.put(fingerprints[key], result)
                results[key] = result
        return {key: results[key] for key in configs}

    def _run_statistical_many(
        self,
        configs: Sequence[RunConfig],
        batch_size: int,
        firing_rates: Optional[Dict[str, float]],
        seed: int,
        timesteps: int,
    ) -> List[InferenceResult]:
        payloads = [
            (config, self.cluster, self.costs, self.energy,
             batch_size, firing_rates, seed, timesteps)
            for config in configs
        ]
        results = dict(execute(_statistical_task, payloads, self.shared_executor()))
        return [results[index] for index in range(len(payloads))]

    # -- declarative plans ---------------------------------------------------
    def run_plan(
        self,
        spec: Union[str, SweepSpec],
        seed: Optional[int] = None,
        batch_size: Optional[int] = None,
        **point_kwargs,
    ) -> Iterator[PlanRow]:
        """Stream a declarative sweep's rows as they complete.

        Accepts a registered sweep name or any :class:`~repro.plan.SweepSpec`
        (including ones never registered).  Rows arrive as
        :class:`~repro.plan.PlanRow` objects the moment the shared pool (or
        the serial path) finishes them, in completion order, each carrying
        its canonical ``index``, so a consumer can render progress long
        before the sweep ends and still reassemble the deterministic row
        order.  :meth:`run` collects a registered sweep instead.
        """
        if not isinstance(spec, SweepSpec):
            spec = get_sweep(spec)
        return iter_plan(
            spec,
            seed=self.seed if seed is None else seed,
            batch_size=4 if batch_size is None else batch_size,
            point_kwargs=point_kwargs,
            executor=self.shared_executor(),
        )

    # -- the scenario registry ----------------------------------------------
    def scenarios(self) -> List[str]:
        """Sorted names accepted by :meth:`run` and :meth:`describe`: the
        figure experiments plus every registered sweep."""
        return sorted(set(SCENARIOS) | set(SWEEPS))

    def _scenario(self, name: str) -> Scenario:
        scenario = SCENARIOS.get(name)
        if scenario is None and name in SWEEPS:
            scenario = _sweep_scenario(SWEEPS[name])
        if scenario is None:
            raise KeyError(
                f"unknown scenario {name!r}; available: {', '.join(self.scenarios())}"
            )
        return scenario

    def describe(self, name: str) -> Dict[str, object]:
        """Kind, figure, description and accepted parameters of a scenario."""
        scenario = self._scenario(name)
        return {
            "name": scenario.name,
            "kind": scenario.kind,
            "figure": scenario.figure,
            "description": scenario.description,
            "params": list(scenario.params),
        }

    def _models_are_default(self) -> bool:
        return (self.cluster == DEFAULT_CLUSTER and self.costs == DEFAULT_COSTS
                and self.energy == DEFAULT_ENERGY)

    def run(self, name: str, **params) -> ExperimentResult:
        """Execute one registered scenario with the session's pool and store.

        Experiments that need S-VGG11 variant runs draw them from the result
        store (simulating only on a cold store); sweeps are collected
        through :func:`~repro.plan.collect_plan` on the session's shared
        executor.  Scenarios whose point functions are hard-wired to the
        default hardware models (the sweeps, the accelerator comparison and
        the model-free format/ISA studies) warn when the session carries
        custom models they cannot honor.  A parameter the scenario does not
        accept (not in :meth:`describe`'s ``params``) raises ``TypeError``.
        """
        scenario = self._scenario(name)
        unknown = sorted(set(params) - set(scenario.params))
        if unknown:
            raise TypeError(
                f"scenario {name!r} does not accept {', '.join(unknown)}; "
                f"it accepts {', '.join(scenario.params)}"
            )
        if not scenario.uses_session_models and not self._models_are_default():
            print(
                f"warning: scenario {name!r} runs on the default hardware models; "
                "this session's custom cluster/cost/energy parameters are ignored",
                file=sys.stderr,
            )
        return scenario.runner(self, **params)
