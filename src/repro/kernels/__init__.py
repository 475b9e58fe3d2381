"""Cluster kernels implementing the SpikeStream SNN inference layers.

Each kernel exists in two flavours selected by the run configuration:

* the parallel SIMD **baseline** (tensor compression, task parallelization,
  data parallelization, tiling + double buffering), and
* the full **SpikeStream** variant which additionally maps the SpVA weight
  gathers onto indirect stream registers with ``frep`` hardware loops
  (streaming acceleration).

Kernels provide both a *functional* path (NumPy computation over the
compressed representations, validated against the golden reference) and a
*performance* path (cycle accounting on the Snitch cluster model).
"""

from .activation import fused_lif_activation
from .scheduler import StealingSchedule, workload_stealing_schedule
from .spva import (
    SpvaCost,
    baseline_spva_cost,
    spva_gather_accumulate,
    streaming_spva_cost,
)
from .conv import (
    ConvLayerSpec,
    conv_layer_functional,
    conv_layer_perf,
    conv_layer_perf_batch,
    pad_counts,
)
from .fc import FcLayerSpec, fc_layer_functional, fc_layer_perf, fc_layer_perf_batch
from .encode import (
    EncodeLayerSpec,
    encode_layer_functional,
    encode_layer_perf,
    encode_layer_perf_batch,
)
from .tiling import TilePlan, plan_conv_tiles, plan_fc_tiles

__all__ = [
    "fused_lif_activation",
    "StealingSchedule",
    "workload_stealing_schedule",
    "SpvaCost",
    "baseline_spva_cost",
    "streaming_spva_cost",
    "spva_gather_accumulate",
    "ConvLayerSpec",
    "conv_layer_functional",
    "conv_layer_perf",
    "conv_layer_perf_batch",
    "pad_counts",
    "FcLayerSpec",
    "fc_layer_functional",
    "fc_layer_perf",
    "fc_layer_perf_batch",
    "EncodeLayerSpec",
    "encode_layer_functional",
    "encode_layer_perf",
    "encode_layer_perf_batch",
    "TilePlan",
    "plan_conv_tiles",
    "plan_fc_tiles",
]
