"""Energy/power estimation from cluster activity counters."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Union

import numpy as np

from ..arch.params import ClusterParams, DEFAULT_CLUSTER
from ..arch.trace import BatchClusterStats, ClusterStats
from ..types import Precision
from .params import EnergyParams, DEFAULT_ENERGY

_PJ = 1.0e-12


def _add_in_order(terms):
    """Sum energy terms one addition at a time, in the given order.

    Works on floats and arrays alike.  Builtin :func:`sum` compensates float
    rounding from Python 3.12 on, which arrays cannot follow; a plain loop
    keeps a frame's batch energy bit-for-bit its single-execution energy.
    """
    total = 0.0
    for term in terms:
        total = total + term
    return total


@dataclass(frozen=True)
class EnergyReport:
    """Energy and average power of one kernel/layer execution."""

    label: str
    energy_j: float
    runtime_s: float
    breakdown_j: Dict[str, float]

    @property
    def power_w(self) -> float:
        """Average power over the execution."""
        if self.runtime_s <= 0:
            return 0.0
        return self.energy_j / self.runtime_s

    @property
    def energy_mj(self) -> float:
        """Energy in millijoules (the unit used by the paper's figures)."""
        return self.energy_j * 1.0e3

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary of the headline numbers."""
        return {
            "label": self.label,
            "energy_mj": self.energy_mj,
            "power_w": self.power_w,
            "runtime_ms": self.runtime_s * 1.0e3,
        }


@dataclass
class EnergyModel:
    """Maps :class:`~repro.arch.trace.ClusterStats` activity to energy.

    The formula (:meth:`_breakdown`) reads only totals that
    :class:`~repro.arch.trace.ClusterStats` and
    :class:`~repro.arch.trace.BatchClusterStats` both provide, so one
    evaluation covers a single execution (floats, :meth:`layer_energy`) or a
    whole batch (``(batch,)`` arrays, :meth:`batch_energy_j`) with the same
    operations in the same order.
    """

    params: EnergyParams = DEFAULT_ENERGY
    cluster: ClusterParams = DEFAULT_CLUSTER

    def _breakdown(
        self,
        stats: Union[ClusterStats, BatchClusterStats],
        precision: Precision,
        streaming: bool,
        uses_mac: bool = False,
    ) -> Dict[str, Union[float, np.ndarray]]:
        """Energy in joules of each activity class of one layer execution.

        ``uses_mac`` marks the dense first layer whose FP instructions are
        multiply-accumulates rather than plain adds (its power is visibly
        higher in Figure 4).  Values are floats for a
        :class:`~repro.arch.trace.ClusterStats` and ``(batch,)`` arrays for a
        :class:`~repro.arch.trace.BatchClusterStats`.
        """
        runtime_s = stats.runtime_seconds(self.cluster.clock_hz)
        ssr_busy_core_cycles = stats.total_core_cycles if streaming else 0.0
        return {
            "integer": stats.total_int_instructions * self.params.integer_instruction_pj * _PJ,
            "fpu": stats.total_fp_instructions
            * self.params.fp_instruction_pj(precision, is_mac=uses_mac)
            * _PJ,
            "spm": stats.total_spm_accesses * self.params.spm_access_pj * _PJ,
            "ssr": ssr_busy_core_cycles
            * self.params.ssr_active_power_w_per_core
            / self.cluster.clock_hz,
            "dma": stats.dma_bytes * self.params.dma_byte_pj * _PJ,
            "background": self.params.cluster_background_power_w * runtime_s,
        }

    def layer_energy(
        self,
        stats: ClusterStats,
        precision: Precision,
        streaming: bool,
        uses_mac: bool = False,
    ) -> EnergyReport:
        """Energy of one layer execution (see :meth:`_breakdown`)."""
        breakdown = self._breakdown(stats, precision, streaming, uses_mac)
        return EnergyReport(
            label=stats.label,
            energy_j=_add_in_order(breakdown.values()),
            runtime_s=stats.runtime_seconds(self.cluster.clock_hz),
            breakdown_j=breakdown,
        )

    def batch_energy_j(
        self,
        stats: BatchClusterStats,
        precision: Precision,
        streaming: bool,
        uses_mac: bool = False,
    ) -> np.ndarray:
        """Per-frame energy in joules of a batch of layer executions.

        Frame ``i`` equals ``layer_energy(stats.frame(i), ...).energy_j`` bit
        for bit: the terms are added in the same order.
        """
        return _add_in_order(self._breakdown(stats, precision, streaming, uses_mac).values())
