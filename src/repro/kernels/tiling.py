"""Tiling and double-buffering planner (Section III-D).

Weights, ifmaps and neuron states live in global memory; the kernels stream
tiles of them into the 128 KiB cluster scratchpad through the DMA engine
while computing on the previous tile.  The planner decides

* how many output channels fit into one double-buffered weight tile,
* how many ofmap rows form one spatial band (so that the compressed ifmap
  band, the worst-case compressed ofmap band and both weight buffers fit), and
* the resulting DMA traffic, following the paper's loop order: weights are
  double-buffered in the inner loop, ifmap bands in the outer loop, and the
  compressed ofmap tile is written back once its band is complete.

Both planners also take a ``(batch,)`` integer array of compressed input
sizes, one per frame, and then plan every frame at once: the fields that
depend on the input size become ``(batch,)`` arrays, each element equal to
the plan of that frame alone.  Each planner is the composition of a
frame-independent :class:`TileLayout` (:func:`conv_tile_layout`,
:func:`fc_tile_layout`) and its :meth:`TileLayout.plan` for the input
size(s).  The batched kernels go one step further and keep
:meth:`TileLayout.tabulate`'s :class:`TileTable`: the plans of every input
size a layer can see, one per band count.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Union

import numpy as np

from ..arch.params import ClusterParams, CostModelParams, DEFAULT_CLUSTER, DEFAULT_COSTS
from ..types import Precision, TensorShape

#: A per-layer count, or one count per frame of a batch.
IntOrArray = Union[int, np.ndarray]


def _as_int(value) -> IntOrArray:
    """A scalar count as a Python ``int``; a per-frame array unchanged."""
    return value if isinstance(value, np.ndarray) else int(value)


@dataclass(frozen=True)
class TilePlan:
    """Outcome of the tiling planner for one layer (or a batch of frames).

    ``ifmap_bytes``, ``rows_per_band``, ``num_ifmap_bands``,
    ``dma_bytes_in`` and ``num_dma_transfers`` depend on the compressed
    input size; they are ``(batch,)`` arrays when the planner was given one
    size per frame, and so are the properties derived from them.
    """

    weight_bytes: int
    ifmap_bytes: IntOrArray
    ofmap_worst_case_bytes: int
    membrane_bytes: int
    channels_per_weight_tile: int
    num_weight_tiles: int
    rows_per_band: IntOrArray
    num_ifmap_bands: IntOrArray
    dma_bytes_in: IntOrArray
    dma_bytes_out: int
    num_dma_transfers: IntOrArray

    @property
    def num_tiles(self) -> IntOrArray:
        """Total number of (band, weight-tile) compute phases."""
        return self.num_weight_tiles * self.num_ifmap_bands

    @property
    def total_dma_bytes(self) -> IntOrArray:
        """Total DMA payload moved in both directions."""
        return self.dma_bytes_in + self.dma_bytes_out

    def dma_cycles(self, costs: CostModelParams = DEFAULT_COSTS) -> Union[float, np.ndarray]:
        """DMA busy cycles for the whole layer."""
        return (
            self.total_dma_bytes / costs.dma_bytes_per_cycle
            + self.num_dma_transfers * costs.dma_setup_cycles
        )


def _weight_tile_channels(
    weight_bytes_per_channel: int,
    out_channels: int,
    simd_width: int,
    budget_bytes: int,
) -> int:
    """Output channels per double-buffered weight tile (multiple of the SIMD width)."""
    per_buffer = budget_bytes // 2
    channels = per_buffer // max(weight_bytes_per_channel, 1)
    channels = max(simd_width, (channels // simd_width) * simd_width)
    return min(out_channels, channels)


@dataclass(frozen=True)
class TileLayout:
    """The frame-independent half of a :class:`TilePlan`.

    Everything the planner derives from the layer's shapes, the precision
    and the scratchpad alone; :meth:`plan` completes it for a compressed
    input size, or a ``(batch,)`` array of sizes.  ``input_rows`` is the
    padded ifmap height of a conv layer, whose ofmap rows are banded by the
    compressed ifmap size, and 0 for an FC layer (one resident band, one
    output row).
    """

    weight_bytes: int
    ofmap_worst_case_bytes: int
    membrane_bytes: int
    channels_per_weight_tile: int
    num_weight_tiles: int
    output_rows: int = 1
    input_rows: int = 0
    band_budget_bytes: int = 0
    output_row_bytes: int = 0

    def plan(self, compressed_input_bytes: IntOrArray) -> TilePlan:
        """The full plan for the given compressed input size(s)."""
        if self.input_rows:
            ifmap_bytes_per_row = np.maximum(compressed_input_bytes // self.input_rows, 1)
            # At least 2 bytes per row, so the division below is safe.
            per_row = 2 * ifmap_bytes_per_row + self.output_row_bytes
            rows_per_band = _as_int(
                np.minimum(np.maximum(self.band_budget_bytes // per_row, 1), self.output_rows)
            )
            num_bands = -(-self.output_rows // rows_per_band)
        else:
            rows_per_band = num_bands = 1
        # Loop order (Section III-D): for each ifmap band, stream every weight
        # tile; the compressed ifmap band and the membrane band are loaded once
        # per band, the weights once per band per weight tile.
        dma_bytes_in = compressed_input_bytes + self.membrane_bytes + num_bands * self.weight_bytes
        # One descriptor per weight tile per band, one per ifmap band, plus the
        # fragmented per-row ofmap c_idcs write-backs.
        num_dma_transfers = num_bands * (self.num_weight_tiles + 1) + (self.output_rows + 1)
        return TilePlan(
            weight_bytes=self.weight_bytes,
            ifmap_bytes=compressed_input_bytes,
            ofmap_worst_case_bytes=self.ofmap_worst_case_bytes,
            membrane_bytes=self.membrane_bytes,
            channels_per_weight_tile=self.channels_per_weight_tile,
            num_weight_tiles=self.num_weight_tiles,
            rows_per_band=rows_per_band,
            num_ifmap_bands=num_bands,
            dma_bytes_in=_as_int(dma_bytes_in),
            # expected ofmap occupancy + state
            dma_bytes_out=int(self.ofmap_worst_case_bytes // 2 + self.membrane_bytes),
            num_dma_transfers=_as_int(num_dma_transfers),
        )

    def tabulate(self, max_input_bytes: int) -> "TileTable":
        """The plans of every compressed input size in ``0..max_input_bytes``.

        A conv layout bands by ``size // input_rows`` only, so planning each
        multiple of ``input_rows`` visits every band count the range
        reaches, and the first size of each count opens its class.  An FC
        layout has one class.
        """
        step = self.input_rows or max_input_bytes + 1
        sizes = np.arange(max_input_bytes // step + 1, dtype=np.int64) * step
        plan = self.plan(sizes)
        bands = np.broadcast_to(plan.num_ifmap_bands, sizes.shape)
        firsts = np.concatenate(([0], np.flatnonzero(np.diff(bands)) + 1))

        def per_class(values) -> np.ndarray:
            return np.broadcast_to(values, sizes.shape)[firsts]

        return TileTable(
            steps=sizes[firsts[1:]],
            num_tiles=per_class(plan.num_tiles),
            fixed_dma_bytes=per_class(plan.total_dma_bytes - sizes),
            num_dma_transfers=per_class(plan.num_dma_transfers),
        )


@dataclass(frozen=True)
class TileTable:
    """A :class:`TileLayout`'s plans for every input size, one per band count.

    The band count is a step function of the compressed input size, and
    everything else a plan derives from the size follows it: the tile
    count, the DMA descriptors and the DMA bytes beyond the input itself.
    So a layer's plans fall into a few *classes*, one per band count;
    ``steps[k]`` is the smallest size of class ``k + 1`` (so
    ``numpy.searchsorted(steps, size, side="right")`` is the class of
    ``size``), and the other arrays hold one integer entry per class.
    """

    steps: np.ndarray
    num_tiles: np.ndarray
    fixed_dma_bytes: np.ndarray
    num_dma_transfers: np.ndarray


def _check_budget_fraction(weight_budget_fraction: float) -> None:
    if not 0.0 < weight_budget_fraction < 1.0:
        raise ValueError("weight_budget_fraction must be in (0, 1)")


def conv_tile_layout(
    input_shape: TensorShape,
    output_shape: TensorShape,
    kernel_size: int,
    precision: Precision,
    index_bytes: int = 2,
    params: ClusterParams = DEFAULT_CLUSTER,
    weight_budget_fraction: float = 0.45,
) -> TileLayout:
    """The frame-independent half of :func:`plan_conv_tiles`."""
    _check_budget_fraction(weight_budget_fraction)
    spm = params.spm_bytes
    simd = precision.simd_width
    weight_bytes_per_channel = kernel_size * kernel_size * input_shape.channels * precision.bytes
    weight_bytes = weight_bytes_per_channel * output_shape.channels

    channels_per_tile = _weight_tile_channels(
        weight_bytes_per_channel, output_shape.channels, simd, int(spm * weight_budget_fraction)
    )
    num_weight_tiles = ceil(output_shape.channels / channels_per_tile)
    weight_tile_bytes = channels_per_tile * weight_bytes_per_channel

    # Remaining SPM is shared by the double-buffered ifmap band, the
    # worst-case compressed ofmap band and the membrane-state band.
    remaining = spm - 2 * weight_tile_bytes
    ofmap_bytes_per_row = output_shape.width * output_shape.channels * index_bytes + index_bytes
    membrane_bytes_per_row = output_shape.width * output_shape.channels * precision.bytes

    return TileLayout(
        weight_bytes=weight_bytes,
        ofmap_worst_case_bytes=(
            output_shape.numel * index_bytes + (output_shape.spatial_size + 1) * index_bytes
        ),
        membrane_bytes=output_shape.numel * precision.bytes,
        channels_per_weight_tile=channels_per_tile,
        num_weight_tiles=num_weight_tiles,
        output_rows=output_shape.height,
        input_rows=max(input_shape.height, 1),
        band_budget_bytes=remaining,
        output_row_bytes=ofmap_bytes_per_row + membrane_bytes_per_row,
    )


def plan_conv_tiles(
    input_shape: TensorShape,
    output_shape: TensorShape,
    kernel_size: int,
    compressed_ifmap_bytes: IntOrArray,
    precision: Precision,
    index_bytes: int = 2,
    params: ClusterParams = DEFAULT_CLUSTER,
    costs: CostModelParams = DEFAULT_COSTS,
    weight_budget_fraction: float = 0.45,
) -> TilePlan:
    """Plan the SPM tiling of one convolutional layer.

    ``input_shape`` is the *padded* ifmap shape, ``compressed_ifmap_bytes``
    the actual (or expected) compressed footprint of that ifmap, or a
    ``(batch,)`` array of footprints, one per frame.
    """
    return conv_tile_layout(
        input_shape, output_shape, kernel_size, precision, index_bytes, params,
        weight_budget_fraction,
    ).plan(compressed_ifmap_bytes)


def fc_tile_layout(
    in_features: int,
    out_features: int,
    precision: Precision,
    index_bytes: int = 2,
    params: ClusterParams = DEFAULT_CLUSTER,
    weight_budget_fraction: float = 0.7,
) -> TileLayout:
    """The frame-independent half of :func:`plan_fc_tiles`."""
    _check_budget_fraction(weight_budget_fraction)
    spm = params.spm_bytes
    simd = precision.simd_width
    weight_bytes_per_neuron = in_features * precision.bytes

    channels_per_tile = _weight_tile_channels(
        weight_bytes_per_neuron, out_features, simd, int(spm * weight_budget_fraction)
    )
    return TileLayout(
        weight_bytes=weight_bytes_per_neuron * out_features,
        ofmap_worst_case_bytes=out_features * index_bytes + index_bytes,
        membrane_bytes=out_features * precision.bytes,
        channels_per_weight_tile=channels_per_tile,
        num_weight_tiles=ceil(out_features / channels_per_tile),
    )


def plan_fc_tiles(
    in_features: int,
    out_features: int,
    compressed_input_bytes: IntOrArray,
    precision: Precision,
    index_bytes: int = 2,
    params: ClusterParams = DEFAULT_CLUSTER,
    costs: CostModelParams = DEFAULT_COSTS,
    weight_budget_fraction: float = 0.7,
) -> TilePlan:
    """Plan the SPM tiling of one fully connected layer.

    The compressed input vector and the output buffers are tiny; virtually
    the whole scratchpad is devoted to double-buffered weight tiles, which
    are streamed once (the input vector stays resident).
    ``compressed_input_bytes`` may be a ``(batch,)`` array, one size per
    frame.
    """
    return fc_tile_layout(
        in_features, out_features, precision, index_bytes, params, weight_budget_fraction
    ).plan(compressed_input_bytes)
