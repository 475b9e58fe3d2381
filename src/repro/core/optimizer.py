"""The SpikeStream optimizer: choose an execution strategy per layer.

The optimizer implements the mapping decisions of Section III:

* the spike-encoding first layer stays dense and is executed as an im2row
  matmul fed by two *affine* stream registers;
* every other convolutional layer uses the compressed fiber-tree ifmap and
  maps its SpVA weight gathers onto one *indirect* stream register;
* fully connected layers use the single-index-array compression with the
  same indirect-stream SpVA;
* when streaming acceleration is disabled (the paper's baseline) the same
  kernels run without stream registers.

The optimizer also checks the plan against the hardware's capabilities
(number of indirect stream registers, supported index widths).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from ..arch.params import ClusterParams, DEFAULT_CLUSTER
from ..config import RunConfig
from ..kernels.conv import ConvLayerSpec
from ..kernels.encode import EncodeLayerSpec
from ..kernels.fc import FcLayerSpec
from ..snn.network import SpikingNetwork
from ..snn.svgg11 import SVGG11_LAYER_FIRING_RATES, svgg11_layer_shapes
from ..types import LayerKind, Precision, StreamKind
from .layer_mapping import KernelKind, LayerPlan

LayerDescription = Dict[str, object]


class SpikeStreamOptimizer:
    """Builds :class:`LayerPlan` objects for a network and a run configuration."""

    def __init__(self, config: RunConfig, cluster: ClusterParams = DEFAULT_CLUSTER):
        self.config = config
        self.cluster = cluster
        self._check_capabilities()

    def _check_capabilities(self) -> None:
        if self.config.streaming_enabled:
            if self.cluster.num_indirect_stream_registers < 1:
                raise ValueError(
                    "streaming acceleration requires at least one indirect stream register"
                )
            if self.config.index_bytes * 8 not in self.cluster.supported_index_bits:
                raise ValueError(
                    f"{self.config.index_bytes * 8}-bit indices are not supported by the "
                    f"indirect stream registers ({self.cluster.supported_index_bits})"
                )

    # ------------------------------------------------------------------ #
    # Planning entry points
    # ------------------------------------------------------------------ #
    def plan_svgg11(self, firing_rates: Optional[Dict[str, float]] = None) -> List[LayerPlan]:
        """Plan the full S-VGG11 network from its shape description.

        ``firing_rates`` overrides the Figure 3a rate of the layers it names;
        a name that is not an S-VGG11 layer raises ``ValueError`` instead of
        being ignored.  The plans are copies of :meth:`shared_svgg11_plans`,
        so the caller may change them freely.
        """
        return [plan.copy() for plan in self.shared_svgg11_plans(firing_rates)]

    def shared_svgg11_plans(
        self, firing_rates: Optional[Dict[str, float]] = None
    ) -> Tuple[LayerPlan, ...]:
        """The S-VGG11 plans of :meth:`plan_svgg11`, shared: read, never change.

        They are built once per precision, streaming switch and set of
        rates, memoised by value, and every engine in the process gets the
        same objects — the engine's own runs and the serving micro-batcher,
        which only read them, take them from here instead of paying for
        fresh plans on every batch.
        """
        rates = dict(SVGG11_LAYER_FIRING_RATES)
        if firing_rates:
            unknown = sorted(set(firing_rates) - set(rates))
            if unknown:
                raise ValueError(
                    f"unknown S-VGG11 layer name(s) {unknown} in firing_rates; "
                    f"valid names: {list(rates)}"
                )
            rates.update(firing_rates)
        return _svgg11_plans(
            self.config.precision, self.config.streaming_enabled, tuple(rates.items())
        )

    def plan_network(self, network: SpikingNetwork) -> List[LayerPlan]:
        """Plan an arbitrary :class:`~repro.snn.network.SpikingNetwork`.

        A functional run costs the network's recorded spike counts, so the
        plans' firing rates are placeholders (1.0 for the encoding layer,
        0.5 elsewhere): only the statistical draws read them.
        """
        plans: List[LayerPlan] = []
        for index in network.weighted_layers:
            layer = network.layers[index]
            input_shape = network.layer_input_shape(index)
            rate = 1.0 if getattr(layer, "encodes_input", False) else 0.5
            if layer.kind is LayerKind.CONV:
                description: LayerDescription = {
                    "name": layer.name,
                    "kind": "conv",
                    "input_shape": input_shape,
                    "in_channels": layer.in_channels,
                    "out_channels": layer.out_channels,
                    "kernel_size": layer.kernel_size,
                    "stride": layer.stride,
                    "padding": layer.padding,
                    "encodes_input": layer.encodes_input,
                    "lif": layer.lif,
                }
            else:
                description = {
                    "name": layer.name,
                    "kind": "linear",
                    "input_shape": input_shape,
                    "in_channels": layer.in_features,
                    "out_channels": layer.out_features,
                    "encodes_input": False,
                    "lif": layer.lif,
                }
            plans.append(
                _plan_layer(
                    description, rate, self.config.precision, self.config.streaming_enabled
                )
            )
        return plans


@lru_cache(maxsize=64)
def _svgg11_plans(
    precision: Precision, streaming: bool, rates: Tuple[Tuple[str, float], ...]
) -> Tuple[LayerPlan, ...]:
    """The S-VGG11 plans under one precision, streaming switch and rates."""
    rates_by_name = dict(rates)
    return tuple(
        _plan_layer(description, float(rates_by_name[description["name"]]), precision, streaming)
        for description in svgg11_layer_shapes()
    )


def _plan_layer(
    description: LayerDescription, firing_rate: float, precision: Precision, streaming: bool
) -> LayerPlan:
    name = str(description["name"])
    kind = str(description["kind"])
    lif = description.get("lif")
    lif_kwargs = {"lif": lif} if lif is not None else {}

    if kind == "conv" and bool(description.get("encodes_input", False)):
        spec = EncodeLayerSpec(
            name=name,
            input_shape=description["input_shape"],
            in_channels=int(description["in_channels"]),
            out_channels=int(description["out_channels"]),
            kernel_size=int(description.get("kernel_size", 3)),
            stride=int(description.get("stride", 1)),
            padding=int(description.get("padding", 1)),
            **lif_kwargs,
        )
        streams = [StreamKind.AFFINE, StreamKind.AFFINE] if streaming else []
        return LayerPlan(
            name=name,
            kernel=KernelKind.ENCODE,
            spec=spec,
            precision=precision,
            streaming=streaming,
            stream_kinds=streams,
            firing_rate=1.0,
            notes="dense spike-encoding layer: im2row matmul with two affine streams",
        )
    if kind == "conv":
        spec = ConvLayerSpec(
            name=name,
            input_shape=description["input_shape"],
            in_channels=int(description["in_channels"]),
            out_channels=int(description["out_channels"]),
            kernel_size=int(description.get("kernel_size", 3)),
            stride=int(description.get("stride", 1)),
            padding=int(description.get("padding", 1)),
            **lif_kwargs,
        )
        streams = [StreamKind.INDIRECT] if streaming else []
        return LayerPlan(
            name=name,
            kernel=KernelKind.CONV,
            spec=spec,
            precision=precision,
            streaming=streaming,
            stream_kinds=streams,
            firing_rate=firing_rate,
            notes="compressed convolution: one indirect stream per SpVA",
        )
    if kind == "linear":
        in_features = int(description["in_channels"])
        out_features = int(description["out_channels"])
        spec = FcLayerSpec(
            name=name, in_features=in_features, out_features=out_features, **lif_kwargs
        )
        streams = [StreamKind.INDIRECT] if streaming else []
        return LayerPlan(
            name=name,
            kernel=KernelKind.FC,
            spec=spec,
            precision=precision,
            streaming=streaming,
            stream_kinds=streams,
            firing_rate=firing_rate,
            notes="compressed fully connected layer: one SpVA per SIMD output group",
        )
    raise ValueError(f"cannot plan layer {name!r} of kind {kind!r}")
