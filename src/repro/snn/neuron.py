"""The spiking neuron model.

The Leaky Integrate-and-Fire (LIF) model of Eq. (1) in the paper is the
workhorse of every S-VGG11 layer:

.. math::

    i_m(t)   &= \\sum_n s_{i,n}(t) \\, w_n \\\\
    v_m(t)   &= \\alpha \\, v_m(t-1) + r \\, i_m(t) - v_{rst} \\, s_{o,m}(t) \\\\
    s_{o,m}(t) &= 1 \\ \\text{if} \\ v_m(t) \\ge v_{th} \\ \\text{else} \\ 0
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class LIFParameters:
    """Parameters of the Leaky Integrate-and-Fire neuron.

    Attributes
    ----------
    alpha:
        Membrane decay factor applied to the previous potential.
    v_threshold:
        Firing threshold ``v_th``.
    v_reset:
        Reset potential ``v_rst`` subtracted when the neuron fires
        (soft reset, as in Eq. (1)).
    resistance:
        Membrane resistance ``r`` scaling the input current (usually 1).
    """

    alpha: float = 0.9
    v_threshold: float = 1.0
    v_reset: float = 1.0
    resistance: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.v_threshold <= 0.0:
            raise ValueError(f"v_threshold must be positive, got {self.v_threshold}")
        if self.resistance <= 0.0:
            raise ValueError(f"resistance must be positive, got {self.resistance}")


@dataclass
class LIFState:
    """Mutable membrane state of a population of LIF neurons."""

    membrane: np.ndarray

    @classmethod
    def zeros(cls, shape: Tuple[int, ...], dtype=np.float64) -> "LIFState":
        """Create a state with all membrane potentials at zero."""
        return cls(membrane=np.zeros(shape, dtype=dtype))

    def copy(self) -> "LIFState":
        """Return an independent copy of the state."""
        return LIFState(membrane=self.membrane.copy())


def lif_step(
    state: LIFState, input_current: np.ndarray, params: LIFParameters
) -> Tuple[LIFState, np.ndarray]:
    """Advance a LIF population by one timestep.

    Parameters
    ----------
    state:
        Current membrane state (not modified).
    input_current:
        Input current ``i_m(t)`` with the same shape as the membrane.
    params:
        Neuron parameters.

    Returns
    -------
    (new_state, spikes):
        The updated state and a boolean spike array ``s_{o,m}(t)``.
    """
    input_current = np.asarray(input_current)
    if input_current.shape != state.membrane.shape:
        raise ValueError(
            f"input_current shape {input_current.shape} does not match membrane "
            f"shape {state.membrane.shape}"
        )
    membrane = state.membrane * params.alpha + params.resistance * input_current
    spikes = membrane >= params.v_threshold
    # The reset term in the membrane's own dtype: a Python float times a
    # bool array is float64 and would promote an fp32 membrane.
    membrane = membrane - membrane.dtype.type(params.v_reset) * spikes
    return LIFState(membrane=membrane), spikes


#: Element count of one chunk of the batched LIF update (~4 MB of FP64).
#: A whole batch-64 S-VGG11 conv2 membrane is a 67 MB array; updating it in
#: one sweep would stream every intermediate through DRAM, while chunks this
#: size keep the scratch buffer cache-resident.
_LIF_CHUNK_ELEMS = 512 * 1024


def lif_step_batch(
    state: LIFState, input_current: np.ndarray, params: LIFParameters
) -> Tuple[LIFState, np.ndarray]:
    """Advance a *batched* LIF population by one timestep.

    The state's membrane (and ``input_current``) carry a leading batch axis:
    shape ``(B,) + population_shape``.  The update evaluates the same
    element-wise expressions as :func:`lif_step`, operation for operation,
    as in-place ufuncs that write straight into the output membrane and
    spike arrays plus one scratch buffer, over cache-sized chunks of the
    flattened population.  Every frame's slice of the result is therefore
    bit-for-bit identical to stepping that frame's population alone, in
    dtype as well as value.  That exactness is what makes the batched
    network forward pass a drop-in for the per-frame loop.
    """
    input_current = np.asarray(input_current)
    if input_current.shape != state.membrane.shape:
        raise ValueError(
            f"input_current shape {input_current.shape} does not match membrane "
            f"shape {state.membrane.shape}"
        )
    flat_state = state.membrane.reshape(-1)
    flat_current = input_current.reshape(-1)
    # A zero-length probe step fixes the output dtype to exactly what
    # lif_step would produce for these operand dtypes.
    probe, _ = lif_step(LIFState(membrane=flat_state[:0]), flat_current[:0], params)
    dtype = probe.membrane.dtype
    reset = dtype.type(params.v_reset)
    # Fresh C-contiguous outputs: their flat views below must alias them.
    membrane = np.empty(state.membrane.shape, dtype=dtype)
    spikes = np.empty(state.membrane.shape, dtype=bool)
    flat_membrane = membrane.reshape(-1)
    flat_spikes = spikes.reshape(-1)
    scratch = np.empty(min(flat_state.size, _LIF_CHUNK_ELEMS), dtype=dtype)
    for start in range(0, flat_state.size, _LIF_CHUNK_ELEMS):
        stop = min(start + _LIF_CHUNK_ELEMS, flat_state.size)
        v = flat_membrane[start:stop]
        s = flat_spikes[start:stop]
        term = scratch[: stop - start]
        # lif_step's expressions in its order; a ufunc writing to ``out``
        # computes in the dtype the operator would, so no bit can change.
        np.multiply(flat_state[start:stop], params.alpha, out=v)
        np.multiply(params.resistance, flat_current[start:stop], out=term)
        np.add(v, term, out=v)
        np.greater_equal(v, params.v_threshold, out=s)
        np.multiply(reset, s, out=term)
        np.subtract(v, term, out=v)
    return LIFState(membrane=membrane), spikes

