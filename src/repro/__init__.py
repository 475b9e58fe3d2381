"""SpikeStream reproduction library.

A Python reproduction of *SpikeStream: Accelerating Spiking Neural Network
Inference on RISC-V Clusters with Sparse Computation Extensions* (DATE 2025).
The library contains the SNN substrate, the sparse spike-tensor formats, a
behavioral model of the Snitch multi-core streaming cluster, the baseline and
SpikeStream inference kernels, an activity-based energy model, analytical
models of the compared neuromorphic accelerators and experiment drivers that
regenerate every figure of the paper's evaluation.

Quick start — the unified Session API::

    from repro import Session

    with Session(jobs=4, cache_dir="results") as session:
        print(session.scenarios())             # every experiment and sweep
        result = session.run("speedup")        # Figure 3c, store-backed

or the lower-level engine directly::

    from repro import spikestream_config, SpikeStreamInference

    config = spikestream_config()              # FP16, all optimizations
    engine = SpikeStreamInference(config)
    result = engine.run_statistical(batch_size=8)
    print(result.summary())
"""

from .config import RunConfig, baseline_config, spikestream_config
from .types import OptimizationFlag, Precision, TensorShape
from .core import (
    InferenceResult,
    LayerPlan,
    LayerResult,
    SpikeStreamInference,
    SpikeStreamOptimizer,
)
from .plan import ParameterSpace, PlanRow, SweepSpec, collect_plan, iter_plan
from .snn.numerics import NumericsPolicy
from .session import ResultStore, Scenario, Session
from .eval.runner import register_sweep

#: Serving entry points re-exported lazily (``repro.InferenceServer`` works
#: without paying the :mod:`repro.serve` import on every ``import repro``).
_SERVE_EXPORTS = ("InferenceServer", "LoadGenerator", "MetricsRegistry")

#: Distributed-tier entry points, same lazy treatment (``repro.Coordinator``
#: without paying the :mod:`repro.net` import up front).
_NET_EXPORTS = ("Coordinator", "NetWorker")


def __getattr__(name: str):
    if name in _SERVE_EXPORTS:
        from . import serve

        return getattr(serve, name)
    if name in _NET_EXPORTS:
        from . import net

        return getattr(net, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__version__ = "1.2.0"

__all__ = [
    "Coordinator",
    "InferenceServer",
    "LoadGenerator",
    "MetricsRegistry",
    "NetWorker",
    "RunConfig",
    "baseline_config",
    "spikestream_config",
    "ParameterSpace",
    "PlanRow",
    "SweepSpec",
    "collect_plan",
    "iter_plan",
    "register_sweep",
    "ResultStore",
    "Scenario",
    "Session",
    "NumericsPolicy",
    "OptimizationFlag",
    "Precision",
    "TensorShape",
    "InferenceResult",
    "LayerPlan",
    "LayerResult",
    "SpikeStreamInference",
    "SpikeStreamOptimizer",
    "__version__",
]
