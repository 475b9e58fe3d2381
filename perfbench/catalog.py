"""What the benchmark measures: workloads, metrics, the layer map and seeds.

``BENCHMARK.json`` at the repository root lists the same workloads and
metrics (``bench_selftest.py`` checks that the two agree).  This module adds
what that file has no room for: for every per-layer metric, which
end-to-end metric it should move and on which workload, and the fixed seeds
behind the modelled-hardware (``sim_*``) figures.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: S-VGG11's weighted layers in network order.
LAYERS: Tuple[str, ...] = (
    "conv1", "conv2", "conv3", "conv4", "conv5", "conv6", "conv7", "conv8",
    "fc1", "fc2", "fc3",
)

#: Layers whose golden op has an event-sparse (CSR) variant; conv1 encodes
#: the real-valued frame and only ever runs dense.
SPARSE_LAYERS: Tuple[str, ...] = LAYERS[1:]

WORKLOADS: Dict[str, str] = {
    "serve-func": "single-frame functional fp64 requests through an "
                  "in-process InferenceServer: the forward pass is about half "
                  "of each request, the only workload where snn shows",
    "offline-b128": "statistical S-VGG11 at the paper's batch of 128 with "
                    "fresh seeds and no server: the vectorised scheduler "
                    "path; serve and net are bypassed",
    "net-stat": "batch-1 statistical requests through a Coordinator and one "
                "worker process, one in four repeating a seed: batch-1 "
                "costing, the wire, blob cache and replicated store",
}

#: name -> (unit, better, bound).  ``bound`` is the share of the parent's
#: median by which the metric may worsen before a change is rejected.  The
#: host times (set-up, latency, throughput) are scaled to the reference host
#: of :mod:`perfbench.host`, which takes out most of the slow spells of the
#: shared 2-CPU machine the benchmark was tuned on; what is left still moves
#: them by up to ~10% between runs, so they get the largest bound allowed.
#: The ``sim_*`` figures are deterministic.
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "latency_p50_ms": ("ms", "lower", 0.25),
    "latency_p90_ms": ("ms", "lower", 0.25),
    "throughput_fps": ("frames/s", "higher", 0.25),
    "success_frac": ("fraction", "higher", 0.01),
    "peak_rss_mb": ("MB", "lower", 0.15),
    "sim_cycles_per_frame": ("cycles", "lower", 0.01),
    "sim_fpu_util": ("fraction", "higher", 0.01),
    "sim_energy_uj_per_frame": ("uJ", "lower", 0.01),
}

_ALL = tuple(WORKLOADS)
_SERVING = ("serve-func", "net-stat")
_LATENCY = ("latency_p50_ms", "latency_p90_ms")

#: A per-layer metric's prediction: end-to-end metric -> workloads on which
#: a change to the layer should move it.
Moves = Dict[str, Tuple[str, ...]]

_COSTING: Moves = {
    "latency_p50_ms": ("net-stat",),
    "latency_p90_ms": ("net-stat",),
    "throughput_fps": ("offline-b128",),
}
_FORWARD: Moves = {m: ("serve-func",) for m in _LATENCY + ("throughput_fps",)}
_GOLDEN: Moves = {m: ("serve-func",) for m in _LATENCY}
_SERVE: Moves = {m: _SERVING for m in _LATENCY + ("throughput_fps",)}
_NET: Moves = {m: ("net-stat",) for m in _LATENCY + ("throughput_fps",)}
_SIM: Moves = {m: _ALL for m in ("sim_cycles_per_frame", "sim_energy_uj_per_frame")}


def _per_layer() -> List[Tuple[str, str, str, Moves, Tuple[str, ...]]]:
    """(name, unit, better, moves, workloads whose traced run measures it)."""
    rows: List[Tuple[str, str, str, Moves, Tuple[str, ...]]] = []
    rows += [(f"kernels.{layer}.ms", "ms", "lower", _COSTING, _ALL) for layer in LAYERS]
    rows += [(f"core.{layer}.ms", "ms", "lower", _COSTING, _ALL) for layer in LAYERS]
    rows.append(("core.workloads_ms", "ms", "lower",
                 {"throughput_fps": ("offline-b128",)}, _ALL))
    rows.append(("snn.forward_ms", "ms", "lower", _FORWARD, ("serve-func",)))
    rows += [(f"snn.{layer}.dense_ms", "ms", "lower", _GOLDEN, ("serve-func",))
             for layer in LAYERS]
    rows += [(f"snn.{layer}.sparse_ms", "ms", "lower", _GOLDEN, ("serve-func",))
             for layer in SPARSE_LAYERS]
    rows += [
        ("serve.batch_frames.mean", "frames", "higher", _SERVE, _SERVING),
        ("serve.collect_ms.p50", "ms", "lower", _SERVE, _SERVING),
        ("serve.execute_ms.p50", "ms", "lower", _SERVE, _SERVING),
        ("serve.queue_wait_ms.p50", "ms", "lower", _SERVE, _SERVING),
        # 0 by design wherever no request repeats.
        ("session.store.hit_frac", "fraction", "higher",
         {m: ("net-stat",) for m in _LATENCY}, _ALL),
        ("net.bytes_per_request", "bytes", "lower", _NET, ("net-stat",)),
        ("net.batch_rtt_ms.p50", "ms", "lower", _NET, ("net-stat",)),
        ("net.blob_hit_frac", "fraction", "higher", _NET, ("net-stat",)),
        ("net.credit_stalls", "count", "lower", _NET, ("net-stat",)),
        ("net.rescues", "count", "lower", _NET, ("net-stat",)),
    ]
    rows += [(f"sim.{layer}.cycles", "cycles", "lower", _SIM, _ALL) for layer in LAYERS]
    rows += [(f"sim.{layer}.fpu_util", "fraction", "higher", {"sim_fpu_util": _ALL}, _ALL)
             for layer in LAYERS]
    # How late the load generator ran: high values mean the benchmark
    # measured its own driver, not the program.
    rows.append(("harness.lateness_ms.p90", "ms", "lower", {}, _SERVING))
    # p50 latency (per batch-128 run on offline-b128) of the traced passes
    # against the untraced passes interleaved with them on the same context.
    # On net-stat the worker runs under its shims in all four passes, so the
    # figure covers the coordinator's shims only.  About 60 requests a side:
    # a rough figure, not one to compare between runs.
    rows.append(("harness.trace_overhead_pct", "%", "lower", {}, _ALL))
    return rows


#: Every per-layer metric: name -> (unit, better, moves, measured on).
PER_LAYER: Dict[str, Tuple[str, str, Moves, Tuple[str, ...]]] = {
    name: (unit, better, moves, on) for name, unit, better, moves, on in _per_layer()
}

#: Seeds of the canonical requests every set-up serves as its warm-up.  They
#: do not depend on ``--seed``, so the ``sim_*`` metrics they yield are the
#: same on every run and every commit that leaves the hardware model alone.
CANONICAL_STAT_SEEDS: Tuple[int, ...] = (11, 12, 13, 14, 15, 16, 17, 18)
#: Weights seed of the served S-VGG11 and of its canonical frames
#: (``functional_svgg11_setup(seed=MODEL_SEED)``).
MODEL_SEED = 2025
CANONICAL_FRAMES = 4
#: Seed of the canonical batch-128 run of ``offline-b128``.
CANONICAL_OFFLINE_SEED = 2025
