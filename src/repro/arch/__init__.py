"""Behavioral model of the Snitch multi-core streaming cluster.

The package models the components of the architecture described in Section
II-B of the paper at the level of detail needed to reproduce its runtime,
utilization and energy results:

* :mod:`repro.arch.params`  — cluster geometry and cost-model coefficients.
* :mod:`repro.arch.tcdm`    — the 128 KiB, 32-bank scratchpad and its
  conflict model.
* :mod:`repro.arch.icache`  — the shared instruction cache.
* :mod:`repro.arch.trace`   — statistics records shared by all components.
"""

from .params import ClusterParams, CostModelParams, DEFAULT_CLUSTER, DEFAULT_COSTS
from .tcdm import Tcdm, TcdmAllocationError
from .icache import InstructionCache
from .trace import ClusterStats, CoreStats

__all__ = [
    "ClusterParams",
    "CostModelParams",
    "DEFAULT_CLUSTER",
    "DEFAULT_COSTS",
    "Tcdm",
    "TcdmAllocationError",
    "InstructionCache",
    "ClusterStats",
    "CoreStats",
]
