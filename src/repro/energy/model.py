"""Energy/power estimation from cluster activity counters."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Tuple

import numpy as np

from ..arch.params import ClusterParams, DEFAULT_CLUSTER
from ..arch.trace import BatchClusterStats, ClusterStats
from ..types import Precision
from .params import EnergyParams, DEFAULT_ENERGY

_PJ = 1.0e-12


def _add_in_order(terms):
    """Sum energy terms one addition at a time, in the given order.

    Builtin :func:`sum` compensates float rounding from Python 3.12 on,
    which :meth:`EnergyModel.batch_energy_j`'s cumulative sum cannot follow;
    a plain loop keeps a frame's batch energy bit-for-bit its
    single-execution energy.
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


@lru_cache(maxsize=64)
def _batch_steps(
    params: EnergyParams, clock_hz: float, precision: Precision, uses_mac: bool
) -> Tuple[np.ndarray, ...]:
    """:meth:`EnergyModel._breakdown` as four element-wise steps (memoised).

    Row ``t`` of :meth:`EnergyModel.batch_energy_j`'s term matrix holds the
    activity total of term ``t`` (after a leading zero row), and the steps
    turn it into joules: multiply by the first ``(7, 1)`` column, by the
    second, divide by the third, multiply by the fourth.  Each term takes
    exactly the operations of its :meth:`~EnergyModel._breakdown` formula, in
    order: a product ``(total * pj) * 1e-12``, the SSR power
    ``(cycles * watts) / clock`` and the background ``watts * (cycles /
    clock)``; the steps it does not take multiply or divide by 1, which is
    exact.
    """
    fp_pj = params.fp_instruction_pj(precision, is_mac=uses_mac)
    steps = np.array([
        # zero, integer, fpu, spm, ssr, dma, background
        [1.0, params.integer_instruction_pj, fp_pj, params.spm_access_pj,
         params.ssr_active_power_w_per_core, params.dma_byte_pj, 1.0],
        [1.0, _PJ, _PJ, _PJ, 1.0, _PJ, 1.0],
        [1.0, 1.0, 1.0, 1.0, clock_hz, 1.0, clock_hz],
        [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, params.cluster_background_power_w],
    ])
    steps.setflags(write=False)
    return tuple(steps[:, :, None])


@dataclass
class EnergyModel:
    """Maps :class:`~repro.arch.trace.ClusterStats` activity to energy.

    One formula (:meth:`_breakdown`) covers a single execution
    (:meth:`layer_energy`); :meth:`batch_energy_j` evaluates it over a whole
    batch (``(batch,)`` arrays) with the same operations in the same order.
    """

    params: EnergyParams = DEFAULT_ENERGY
    cluster: ClusterParams = DEFAULT_CLUSTER

    def _breakdown(
        self,
        stats: ClusterStats,
        precision: Precision,
        streaming: bool,
        uses_mac: bool = False,
    ) -> Dict[str, float]:
        """Energy in joules of each activity class of one layer execution.

        ``uses_mac`` marks the dense first layer whose FP instructions are
        multiply-accumulates rather than plain adds (its power is visibly
        higher in Figure 4).
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
        core_sums: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Per-frame energy in joules of a batch of layer executions.

        Frame ``i`` equals ``layer_energy(stats.frame(i), ...).energy_j`` bit
        for bit: every term takes the operations of :meth:`_breakdown`
        (compiled once per configuration by :func:`_batch_steps`), and one
        :func:`numpy.cumsum` adds the terms in order.  Pass
        ``stats.core_sums()`` as ``core_sums`` if it is already at hand.
        """
        sums = stats.core_sums() if core_sums is None else core_sums
        scale, unit, divisor, factor = _batch_steps(
            self.params, self.cluster.clock_hz, precision, uses_mac
        )
        terms = np.empty((7, stats.batch_size))
        terms[0] = 0.0
        terms[1:4] = sums[:3]
        terms[4] = sums[3] if streaming else 0.0
        terms[5] = stats.dma_bytes
        terms[6] = stats.total_cycles
        terms *= scale
        terms *= unit
        terms /= divisor
        terms *= factor
        return terms.cumsum(axis=0)[-1].copy()  # not a view holding every term
