"""SpikeStream core: the paper's primary contribution as a library API.

* :class:`SpikeStreamOptimizer` maps every network layer onto the execution
  strategy the paper describes (dense affine-stream matmul for the encoding
  layer, compressed indirect-stream SpVA kernels for the remaining conv and
  FC layers) subject to the enabled optimization flags.
* :class:`SpikeStreamInference` runs a whole network — functionally or in
  fast statistical mode — on the Snitch cluster model and returns per-layer
  runtime, utilization, IPC and energy.
"""

from .layer_mapping import KernelKind, LayerPlan
from .optimizer import SpikeStreamOptimizer
from .pipeline import SpikeStreamInference
from .results import InferenceResult, LayerResult
from .validation import LayerValidation, ValidationReport, validate_network_on_kernels

__all__ = [
    "KernelKind",
    "LayerPlan",
    "SpikeStreamOptimizer",
    "SpikeStreamInference",
    "InferenceResult",
    "LayerResult",
    "LayerValidation",
    "ValidationReport",
    "validate_network_on_kernels",
]
