"""Shared instruction-cache model.

The cluster's 8 KiB shared L1 instruction cache easily holds the SpikeStream
kernels, so misses are dominated by cold misses at the start of each tile
plus a small residual (capacity/conflict) rate.  The paper attributes part of
the gap between the measured and ideal speedups to these misses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .params import ClusterParams, CostModelParams, DEFAULT_CLUSTER, DEFAULT_COSTS


def _any_negative(value: Union[float, np.ndarray]) -> bool:
    """Whether a number, or any element of an array, is negative."""
    if isinstance(value, np.ndarray):
        return bool((value < 0).any())
    return value < 0


@dataclass
class InstructionCache:
    """Simple cold-miss + residual-miss instruction cache model."""

    params: ClusterParams = DEFAULT_CLUSTER
    costs: CostModelParams = DEFAULT_COSTS

    def miss_cycles(
        self,
        instructions_executed: Union[float, np.ndarray],
        tiles: Union[int, np.ndarray] = 1,
    ) -> Union[float, np.ndarray]:
        """Estimated stall cycles caused by instruction fetch misses.

        ``tiles`` cold-start phases each touch ``icache_cold_miss_lines``
        lines; afterwards a small residual per-instruction miss rate applies.
        Both arguments may be numbers or broadcastable arrays (e.g. per-core
        instruction counts of a batch against per-frame tile counts); the
        result has their broadcast shape.
        """
        steady = self.steady_miss_cycles(instructions_executed)
        return self.cold_miss_cycles(tiles) + steady

    def cold_miss_cycles(self, tiles: Union[int, np.ndarray]) -> Union[float, np.ndarray]:
        """The cold-start half of :meth:`miss_cycles`."""
        if _any_negative(tiles):
            raise ValueError("tiles must be non-negative")
        return tiles * self.costs.icache_cold_miss_lines * self.costs.icache_miss_penalty_cycles

    def steady_miss_cycles(
        self, instructions_executed: Union[float, np.ndarray]
    ) -> Union[float, np.ndarray]:
        """The residual-miss half of :meth:`miss_cycles`."""
        if _any_negative(instructions_executed):
            raise ValueError("instructions_executed must be non-negative")
        return (
            instructions_executed
            * self.costs.icache_capacity_miss_rate
            * self.costs.icache_miss_penalty_cycles
        )
