"""Sparse-dense Vector Accumulation (SpVA) primitives.

The SpVA is the innermost operation of the compressed SNN kernels: for one
spatial position of a receptive field it gathers the weights addressed by the
spiking input channels (``c_idcs``) and accumulates them onto the output
neuron's input current.  This module provides

* the functional gather/accumulate used by the kernels' NumPy path, and
* the per-SpVA cost models of the baseline (Listing 1b) and the streaming
  (Listing 1c) variants, expressed with the coefficients of
  :class:`repro.arch.params.CostModelParams`.

All cost functions are vectorized over arrays of stream lengths so that a
whole layer's SpVAs can be costed in a single call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ..arch.params import CostModelParams, DEFAULT_COSTS

ArrayLike = Union[float, int, np.ndarray]


@dataclass
class SpvaCost:
    """Cycle and instruction counts of one or more SpVAs (element-wise arrays)."""

    cycles: np.ndarray
    int_instructions: np.ndarray
    fp_instructions: np.ndarray
    fp_busy_cycles: np.ndarray
    spm_accesses: np.ndarray
    ssr_spm_accesses: np.ndarray

    def total(self) -> "SpvaCost":
        """Sum all entries into scalar (0-d array) totals."""
        return SpvaCost(
            cycles=np.asarray(np.sum(self.cycles)),
            int_instructions=np.asarray(np.sum(self.int_instructions)),
            fp_instructions=np.asarray(np.sum(self.fp_instructions)),
            fp_busy_cycles=np.asarray(np.sum(self.fp_busy_cycles)),
            spm_accesses=np.asarray(np.sum(self.spm_accesses)),
            ssr_spm_accesses=np.asarray(np.sum(self.ssr_spm_accesses)),
        )


def spva_gather_accumulate(weights: np.ndarray, c_idcs: np.ndarray) -> np.ndarray:
    """Functional SpVA: accumulate the weight rows addressed by ``c_idcs``.

    ``weights`` has shape ``(C_in, C_out)`` (weights of one kernel spatial
    offset, all input channels); the result is the ``(C_out,)`` contribution
    to the output neurons' input currents.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2:
        raise ValueError(f"weights must be 2-D (C_in, C_out), got shape {weights.shape}")
    c_idcs = np.asarray(c_idcs, dtype=np.int64)
    if c_idcs.size == 0:
        return np.zeros(weights.shape[1], dtype=np.float64)
    if int(c_idcs.max()) >= weights.shape[0]:
        raise ValueError("c_idcs references an input channel outside the weight tensor")
    return weights[c_idcs].sum(axis=0)


def baseline_spva_cost(
    stream_lengths: ArrayLike, costs: CostModelParams = DEFAULT_COSTS
) -> SpvaCost:
    """Cost of baseline SpVAs (Listing 1b) for the given stream lengths.

    Includes the outer address-calculation instructions of Listing 1a that
    precede every SpVA.  All instructions are issued sequentially by the
    single-issue core, so cycles simply accumulate.
    """
    lengths = np.asarray(stream_lengths, dtype=np.float64)
    if np.any(lengths < 0):
        raise ValueError("stream lengths must be non-negative")
    addr_calc = float(costs.spva_address_calc_int_instrs)
    per_element_cycles = costs.baseline_cycles_per_element
    int_per_element = float(costs.baseline_spva_instrs_per_element - costs.baseline_spva_fp_instrs_per_element)
    fp_per_element = float(costs.baseline_spva_fp_instrs_per_element)

    cycles = addr_calc + per_element_cycles * lengths
    int_instructions = addr_calc + int_per_element * lengths
    fp_instructions = fp_per_element * lengths
    # Each element performs one index load and one weight load.
    spm_accesses = 2.0 * lengths
    return SpvaCost(
        cycles=cycles,
        int_instructions=int_instructions,
        fp_instructions=fp_instructions,
        fp_busy_cycles=fp_instructions.copy(),
        spm_accesses=spm_accesses,
        ssr_spm_accesses=np.zeros_like(lengths),
    )


def streaming_spva_cost(
    stream_lengths: ArrayLike,
    costs: CostModelParams = DEFAULT_COSTS,
    conflict_factor: float = 1.0,
    cycles_per_element: Optional[float] = None,
) -> SpvaCost:
    """Cost of SpikeStream SpVAs (Listing 1c) for the given stream lengths.

    The integer core computes the stream base address and programs the SSR
    and ``frep`` (via shadow registers) while the FP subsystem drains the
    previous stream, so each SpVA costs the *maximum* of the integer setup
    and the FP streaming time, plus a short non-hidden startup.  Zero-length
    streams skip the FP part entirely (``if s_len != 0`` in the pseudocode).

    ``conflict_factor`` scales the per-element streaming time for TCDM bank
    conflicts caused by concurrent indirect gathers from the other cores.
    ``cycles_per_element`` overrides the default per-element streaming time
    (used by the strided-indirect future-work extension).
    """
    lengths = np.asarray(stream_lengths, dtype=np.float64)
    if np.any(lengths < 0):
        raise ValueError("stream lengths must be non-negative")
    if conflict_factor < 1.0:
        raise ValueError(f"conflict_factor must be >= 1, got {conflict_factor}")
    if cycles_per_element is None:
        cycles_per_element = costs.streaming_cycles_per_element
    if cycles_per_element < 1.0:
        raise ValueError(f"cycles_per_element must be >= 1, got {cycles_per_element}")

    addr_calc = float(costs.spva_address_calc_int_instrs)
    setup = float(costs.stream_setup_int_instrs)
    int_work = addr_calc + setup
    fp_cycles = lengths * cycles_per_element * conflict_factor
    nonzero = lengths > 0

    cycles = np.where(
        nonzero,
        np.maximum(int_work, fp_cycles) + costs.stream_startup_cycles,
        # Empty SpVA: only the address calculation and the skip branch.
        addr_calc + 1.0,
    )
    int_instructions = np.where(nonzero, int_work, addr_calc + 1.0)
    fp_instructions = np.where(nonzero, lengths * costs.streaming_fp_instrs_per_element, 0.0)
    # The SSR fetches one index and one weight word per element.
    ssr_spm_accesses = np.where(nonzero, 2.0 * lengths, 0.0)
    return SpvaCost(
        cycles=cycles,
        int_instructions=int_instructions,
        fp_instructions=fp_instructions,
        fp_busy_cycles=fp_instructions.copy(),
        spm_accesses=np.zeros_like(lengths),
        ssr_spm_accesses=ssr_spm_accesses,
    )


def spva_cost(
    stream_lengths: ArrayLike,
    costs: CostModelParams,
    streaming: bool,
    conflict_factor: float = 1.0,
    cycles_per_element: Optional[float] = None,
) -> SpvaCost:
    """Cost of the kernel variant's SpVAs: :func:`streaming_spva_cost` when
    ``streaming``, else :func:`baseline_spva_cost` (which takes neither
    ``conflict_factor`` nor ``cycles_per_element``)."""
    if not streaming:
        return baseline_spva_cost(stream_lengths, costs)
    return streaming_spva_cost(
        stream_lengths, costs, conflict_factor=conflict_factor,
        cycles_per_element=cycles_per_element,
    )
