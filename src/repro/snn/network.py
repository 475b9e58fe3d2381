"""Spiking network container and functional forward pass.

:class:`SpikingNetwork` chains layers, keeps per-layer LIF membrane state
across timesteps and records, for every weighted layer and timestep, the
input spike map it consumed and the output spikes it produced.  Those records
(:class:`LayerRecord`) are exactly what the cluster kernels need as their
workload description.

Batch is the native execution unit: :meth:`SpikingNetwork.forward_batch`
runs ``B`` frames through the network in one vectorized NumPy pass (batched
im2row convolutions, batched LIF updates, batched pooling), recording one
:class:`BatchLayerRecord` of stacked spike tensors per weighted layer and
timestep.  The per-frame :meth:`SpikingNetwork.forward` is kept as the
bit-for-bit reference — every frame's slice of a batched record equals the
corresponding per-frame record exactly.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from ..obs.tracer import layer_profiler_hook
from ..types import LayerKind, TensorShape
from .layers import Flatten, SpikingAvgPool2d, SpikingConv2d, SpikingLinear, SpikingMaxPool2d
from .neuron import LIFState, lif_step, lif_step_batch
from .numerics import NumericsPolicy, exact_in_float32, resolve
from .reference import (
    SPARSE_DENSITY_CROSSOVER,
    avgpool2d_hwc,
    avgpool2d_hwc_batch,
    conv2d_hwc,
    conv2d_hwc_batch,
    conv2d_hwc_batch_sparse,
    linear,
    linear_batch,
    linear_batch_sparse,
    maxpool2d_hwc,
    maxpool2d_hwc_batch,
    spike_density,
)

Layer = Union[SpikingConv2d, SpikingLinear, SpikingMaxPool2d, SpikingAvgPool2d, Flatten]

WEIGHTED_KINDS = (LayerKind.CONV, LayerKind.LINEAR)


@dataclass
class LayerRecord:
    """What a weighted layer consumed and produced during one timestep."""

    layer_index: int
    name: str
    kind: LayerKind
    timestep: int
    input_shape: TensorShape
    output_shape: TensorShape
    input_spikes: Optional[np.ndarray]
    input_currents: Optional[np.ndarray]
    output_spikes: np.ndarray


@dataclass
class NetworkActivity:
    """All layer records of a multi-timestep forward pass on one input frame."""

    records: List[LayerRecord] = field(default_factory=list)

    def for_layer(self, layer_index: int) -> List[LayerRecord]:
        """Records of a specific weighted layer across timesteps."""
        return [r for r in self.records if r.layer_index == layer_index]


@dataclass
class BatchLayerRecord:
    """What a weighted layer consumed/produced for a whole batch in one timestep.

    The stacked counterpart of :class:`LayerRecord`: every spike/current
    tensor carries a leading batch axis, and ``frame(b)`` slices out the
    per-frame record (bit-for-bit what :meth:`SpikingNetwork.forward` would
    have recorded for that frame).
    """

    layer_index: int
    name: str
    kind: LayerKind
    timestep: int
    input_shape: TensorShape
    output_shape: TensorShape
    input_spikes: Optional[np.ndarray]
    input_currents: Optional[np.ndarray]
    output_spikes: np.ndarray

    @property
    def batch_size(self) -> int:
        """Number of frames stacked in this record."""
        return int(self.output_spikes.shape[0])

    def frame(self, index: int) -> LayerRecord:
        """The per-frame :class:`LayerRecord` of frame ``index``."""
        return LayerRecord(
            layer_index=self.layer_index,
            name=self.name,
            kind=self.kind,
            timestep=self.timestep,
            input_shape=self.input_shape,
            output_shape=self.output_shape,
            input_spikes=None if self.input_spikes is None else self.input_spikes[index],
            input_currents=None if self.input_currents is None else self.input_currents[index],
            output_spikes=self.output_spikes[index],
        )


@dataclass
class BatchNetworkActivity:
    """All batched layer records of a multi-timestep forward pass on B frames."""

    records: List[BatchLayerRecord] = field(default_factory=list)

    @property
    def batch_size(self) -> int:
        """Number of frames the activity covers (0 when empty)."""
        if not self.records:
            return 0
        return self.records[0].batch_size

    def for_layer(self, layer_index: int) -> List[BatchLayerRecord]:
        """Records of a specific weighted layer across timesteps."""
        return [r for r in self.records if r.layer_index == layer_index]

    def for_name(self, name: str) -> List[BatchLayerRecord]:
        """Records of the weighted layer called ``name`` across timesteps."""
        return [r for r in self.records if r.name == name]

    def frame_activity(self, index: int) -> NetworkActivity:
        """The per-frame :class:`NetworkActivity` of frame ``index``.

        Record order matches what per-frame :meth:`SpikingNetwork.forward`
        produces (timestep-major, layers in network order within a timestep).
        """
        return NetworkActivity(records=[record.frame(index) for record in self.records])


class SpikingNetwork:
    """A feed-forward spiking network built from the layers in :mod:`repro.snn.layers`."""

    def __init__(self, layers: Sequence[Layer], input_shape: TensorShape, name: str = "snn"):
        self.layers: List[Layer] = list(layers)
        self.input_shape = input_shape
        self.name = name
        self._states: Dict[int, LIFState] = {}
        self._validate_shapes()
        self.reset_state()

    def _validate_shapes(self) -> None:
        shape = self.input_shape
        self._layer_input_shapes: List[TensorShape] = []
        self._layer_output_shapes: List[TensorShape] = []
        for layer in self.layers:
            self._layer_input_shapes.append(shape)
            shape = layer.output_shape(shape)
            self._layer_output_shapes.append(shape)
        self.output_shape = shape

    def initialize(self, rng=None) -> None:
        """Randomly initialize all weighted layers."""
        from ..utils.rng import make_rng

        rng = make_rng(rng)
        for layer in self.layers:
            if layer.kind in WEIGHTED_KINDS:
                layer.initialize(rng)

    def reset_state(self) -> None:
        """Reset all membrane potentials to zero (start of a new input frame)."""
        self._states = {}
        for index, layer in enumerate(self.layers):
            if layer.kind in WEIGHTED_KINDS:
                out_shape = self._layer_output_shapes[index]
                if layer.kind is LayerKind.CONV:
                    state_shape = out_shape.as_tuple()
                else:
                    state_shape = (out_shape.channels,)
                self._states[index] = LIFState.zeros(state_shape)

    def layer_input_shape(self, index: int) -> TensorShape:
        """Input shape of layer ``index``."""
        return self._layer_input_shapes[index]

    def layer_output_shape(self, index: int) -> TensorShape:
        """Output shape of layer ``index``."""
        return self._layer_output_shapes[index]

    @property
    def weighted_layers(self) -> List[int]:
        """Indices of layers carrying weights (conv and FC)."""
        return [i for i, layer in enumerate(self.layers) if layer.kind in WEIGHTED_KINDS]

    def membrane_state(self, index: int) -> LIFState:
        """Return the LIF state of weighted layer ``index``."""
        return self._states[index]

    def forward_timestep(self, frame: np.ndarray, timestep: int = 0) -> NetworkActivity:
        """Run one timestep of the network on ``frame`` and record layer activity.

        ``frame`` is the raw HWC image for the encoding layer (real-valued) or
        a boolean spike map when the first layer is not an encoder.
        """
        activity = NetworkActivity()
        current: np.ndarray = np.asarray(frame)
        for index, layer in enumerate(self.layers):
            if layer.kind is LayerKind.CONV:
                currents = conv2d_hwc(
                    current, layer.require_weights(), stride=layer.stride, padding=layer.padding
                )
                state, spikes = lif_step(self._states[index], currents, layer.lif)
                self._states[index] = state
                activity.records.append(
                    LayerRecord(
                        layer_index=index,
                        name=layer.name,
                        kind=layer.kind,
                        timestep=timestep,
                        input_shape=self._layer_input_shapes[index],
                        output_shape=self._layer_output_shapes[index],
                        input_spikes=None if layer.encodes_input else current.astype(bool),
                        input_currents=current if layer.encodes_input else None,
                        output_spikes=spikes,
                    )
                )
                current = spikes
            elif layer.kind is LayerKind.LINEAR:
                currents = linear(current, layer.require_weights())
                state, spikes = lif_step(self._states[index], currents, layer.lif)
                self._states[index] = state
                activity.records.append(
                    LayerRecord(
                        layer_index=index,
                        name=layer.name,
                        kind=layer.kind,
                        timestep=timestep,
                        input_shape=self._layer_input_shapes[index],
                        output_shape=self._layer_output_shapes[index],
                        input_spikes=np.asarray(current, dtype=bool).reshape(-1),
                        input_currents=None,
                        output_spikes=spikes,
                    )
                )
                current = spikes
            elif layer.kind is LayerKind.MAXPOOL:
                current = maxpool2d_hwc(current, layer.kernel_size, layer.stride)
            elif layer.kind is LayerKind.AVGPOOL:
                current = avgpool2d_hwc(current, layer.kernel_size, layer.stride)
            elif layer.kind is LayerKind.FLATTEN:
                current = np.asarray(current).reshape(-1)
            else:  # pragma: no cover - defensive
                raise NotImplementedError(f"unsupported layer kind {layer.kind}")
        return activity

    def forward(self, frame: np.ndarray, timesteps: int = 1, reset: bool = True) -> NetworkActivity:
        """Run the network for several timesteps on a single input frame.

        With direct (first-layer) encoding the same frame is presented at
        every timestep, as in the paper's 500-timestep accelerator comparison.
        """
        if timesteps <= 0:
            raise ValueError(f"timesteps must be positive, got {timesteps}")
        if reset:
            self.reset_state()
        activity = NetworkActivity()
        for t in range(timesteps):
            step_activity = self.forward_timestep(frame, timestep=t)
            activity.records.extend(step_activity.records)
        return activity

    def predict(self, frame: np.ndarray, timesteps: int = 1) -> int:
        """Classify a frame by accumulating output-layer spikes over time."""
        activity = self.forward(frame, timesteps=timesteps)
        output_index = self.weighted_layers[-1]
        counts = np.zeros(self._layer_output_shapes[output_index].channels, dtype=np.int64)
        for record in activity.for_layer(output_index):
            counts += record.output_spikes.astype(np.int64).reshape(-1)
        return int(np.argmax(counts))

    # ------------------------------------------------------------------ #
    # Batched execution
    # ------------------------------------------------------------------ #
    def _batch_states(self, batch_size: int, dtype=np.float64) -> Dict[int, LIFState]:
        """Fresh zero membrane states with a leading batch axis."""
        states: Dict[int, LIFState] = {}
        for index, layer in enumerate(self.layers):
            if layer.kind in WEIGHTED_KINDS:
                out_shape = self._layer_output_shapes[index]
                if layer.kind is LayerKind.CONV:
                    state_shape = (batch_size,) + out_shape.as_tuple()
                else:
                    state_shape = (batch_size, out_shape.channels)
                states[index] = LIFState.zeros(state_shape, dtype=dtype)
        return states

    def _cast_weights(self, index: int, weights: np.ndarray, dtype: np.dtype) -> np.ndarray:
        """Weights of layer ``index`` at ``dtype``, cached by array identity.

        A pass whose GEMM dtype differs from the weights' (float64 weights
        under an fp32 policy, or float32 weights that are not exact under
        fp64) would otherwise re-cast them on every call.  The cache key mirrors the
        fingerprint memo: an entry is only reused while the layer still
        binds the *same* weight array (`is`), so :meth:`initialize` or any
        other rebind invalidates it naturally.  Cast copies are frozen so
        a caller can never mutate the cache behind the layer's back.
        """
        if weights.dtype == dtype:
            return weights
        cache = getattr(self, "_weight_cast_cache", None)
        if cache is None:
            cache = self._weight_cast_cache = {}
        key = (index, dtype.str)
        entry = cache.get(key)
        if entry is not None and entry[0] is weights:
            return entry[1]
        cast = weights.astype(dtype)
        cast.flags.writeable = False
        cache[key] = (weights, cast)
        return cast

    def _exact_in_float32(self, index: int, weights: np.ndarray) -> bool:
        """:func:`~repro.snn.numerics.exact_in_float32` of layer ``index``'s
        weights, checked once per weight array.

        The verdict is memoised by array identity, like the fingerprint's
        weight digest, and only on a frozen array: an array that owns its
        data is frozen before it is checked, so no in-place write can make
        a kept verdict stale.  A view is checked on every call, since its
        base may stay writable; a float64 array fails at once, unfrozen.
        """
        if weights.dtype != np.float32 or weights.base is not None:
            return exact_in_float32(weights)
        cache = getattr(self, "_exact_cache", None)
        if cache is None:
            cache = self._exact_cache = {}
        entry = cache.get(index)
        if entry is not None and entry[0] is weights and not weights.flags.writeable:
            return entry[1]
        weights.flags.writeable = False
        verdict = exact_in_float32(weights)
        cache[index] = (weights, verdict)
        return verdict

    def _gemm_weights(
        self, index: int, layer: Layer, inputs: np.ndarray, dtype: np.dtype
    ) -> np.ndarray:
        """Layer ``index``'s weights for a GEMM against ``inputs``, in the
        dtype the GEMM runs at.

        A spike map (bool) against exact float32 weights keeps them as they
        are: that GEMM equals the fp64 one byte for byte.  Anything else is
        cast to the policy's ``dtype``.
        """
        weights = layer.require_weights()
        if inputs.dtype == bool and self._exact_in_float32(index, weights):
            return weights
        return self._cast_weights(index, weights, dtype)

    def forward_batch(
        self,
        frames: Sequence[np.ndarray],
        timesteps: int = 1,
        policy: Optional[NumericsPolicy] = None,
    ) -> BatchNetworkActivity:
        """Run the network on a whole batch of frames in one vectorized pass.

        ``frames`` is a ``(B, H, W, C)`` array (or a sequence of HWC frames,
        which is stacked).  Every frame starts from a fresh zero membrane
        state, exactly like per-frame :meth:`forward` with ``reset=True``;
        the per-frame state kept in :attr:`_states` is not touched, so
        batched and per-frame execution can be interleaved freely.

        The heavy per-layer work — im2row patch extraction, the conv/FC
        matrix products, LIF updates and pooling — runs once per layer and
        timestep over the stacked batch instead of once per frame, which is
        where the batched functional engine's speedup comes from
        (``benchmarks/bench_functional.py``).  None of it walks positions
        in Python: im2row and max pooling read strided window views of the
        whole batch, and the LIF update runs in-place ufuncs.  What is left
        is the GEMMs.  Every frame's slice of the returned records is
        bit-for-bit identical to the per-frame loop (gated by
        ``tests/snn/test_forward_batch.py``).

        Under :func:`~repro.obs.tracer.layer_profiler` each layer reports
        its wall time per timestep as ``hook(layer.name, start, end,
        "forward")``, which a traced request files as a ``forward:<name>``
        span beside the ``layer:<name>`` costing spans.  Without a hook the
        pass pays one attribute read.

        ``policy`` selects the numerics of the pass
        (:class:`~repro.snn.numerics.NumericsPolicy`); ``None`` means the
        FP64 dense reference, which keeps that bit-for-bit guarantee.  Its
        GEMMs still run in float32 wherever that is exact: a spike-input
        layer whose weights pass
        :func:`~repro.snn.numerics.exact_in_float32` (checked once per
        weight array) multiplies its float32 weights, the layer's only
        copy, and casts the currents to the fp64 membrane before LIF.  Under
        ``event_sparse`` each non-encoding layer compares its measured input
        spike density against :data:`~repro.snn.reference.SPARSE_DENSITY_CROSSOVER`
        and routes sparse maps through the CSR event kernels, dense maps
        through the GEMM at the policy's dtype — cost follows nnz where that
        actually wins.
        """
        if timesteps <= 0:
            raise ValueError(f"timesteps must be positive, got {timesteps}")
        policy = resolve(policy)
        stacked = np.stack([np.asarray(frame) for frame in frames]) if not isinstance(
            frames, np.ndarray
        ) else np.asarray(frames)
        if stacked.ndim != 4:
            raise ValueError(
                f"frames must stack to a (batch, H, W, C) tensor, got shape {stacked.shape}"
            )
        if stacked.shape[0] == 0:
            raise ValueError("frames must contain at least one frame")
        states = self._batch_states(stacked.shape[0], dtype=policy.dtype)
        activity = BatchNetworkActivity()
        profile = layer_profiler_hook()
        for t in range(timesteps):
            self._forward_timestep_batch(stacked, states, t, activity, policy, profile)
        return activity

    def _forward_timestep_batch(
        self,
        frames: np.ndarray,
        states: Dict[int, LIFState],
        timestep: int,
        activity: BatchNetworkActivity,
        policy: NumericsPolicy,
        profile: Optional[Callable[[str, float, float, str], None]],
    ) -> None:
        """One batched timestep; appends records to ``activity`` in layer order.

        ``profile`` is the pass's :func:`~repro.obs.tracer.layer_profiler`
        hook, or ``None``.
        """
        dtype = policy.dtype
        event_sparse = policy.forward_path == "event_sparse"
        current: np.ndarray = frames
        for index, layer in enumerate(self.layers):
            started = time.monotonic() if profile is not None else 0.0
            if layer.kind is LayerKind.CONV:
                weights = self._gemm_weights(index, layer, current, dtype)
                # The encoding layer consumes the real-valued frame (density
                # 1.0 by definition); only spike inputs can ride the event
                # kernels, and only when sparse enough to win.
                if (
                    event_sparse
                    and not layer.encodes_input
                    and spike_density(current) < SPARSE_DENSITY_CROSSOVER
                ):
                    currents = conv2d_hwc_batch_sparse(
                        current, weights, stride=layer.stride,
                        padding=layer.padding, dtype=weights.dtype,
                    )
                else:
                    currents = conv2d_hwc_batch(
                        current, weights, stride=layer.stride,
                        padding=layer.padding, dtype=weights.dtype,
                    )
                membrane = states[index].membrane.dtype
                state, spikes = lif_step_batch(
                    states[index], currents.astype(membrane, copy=False), layer.lif
                )
                states[index] = state
                activity.records.append(
                    BatchLayerRecord(
                        layer_index=index,
                        name=layer.name,
                        kind=layer.kind,
                        timestep=timestep,
                        input_shape=self._layer_input_shapes[index],
                        output_shape=self._layer_output_shapes[index],
                        # Spike maps are never mutated, so records may alias
                        # them (asarray) instead of copying per layer.
                        input_spikes=None if layer.encodes_input else np.asarray(current, dtype=bool),
                        input_currents=current if layer.encodes_input else None,
                        output_spikes=spikes,
                    )
                )
                current = spikes
            elif layer.kind is LayerKind.LINEAR:
                flat = np.asarray(current, dtype=bool).reshape(current.shape[0], -1)
                weights = self._gemm_weights(index, layer, current, dtype)
                if event_sparse and spike_density(flat) < SPARSE_DENSITY_CROSSOVER:
                    currents = linear_batch_sparse(flat, weights, dtype=weights.dtype)
                else:
                    currents = linear_batch(current, weights, dtype=weights.dtype)
                membrane = states[index].membrane.dtype
                state, spikes = lif_step_batch(
                    states[index], currents.astype(membrane, copy=False), layer.lif
                )
                states[index] = state
                activity.records.append(
                    BatchLayerRecord(
                        layer_index=index,
                        name=layer.name,
                        kind=layer.kind,
                        timestep=timestep,
                        input_shape=self._layer_input_shapes[index],
                        output_shape=self._layer_output_shapes[index],
                        input_spikes=flat,
                        input_currents=None,
                        output_spikes=spikes,
                    )
                )
                current = spikes
            elif layer.kind is LayerKind.MAXPOOL:
                current = maxpool2d_hwc_batch(current, layer.kernel_size, layer.stride)
            elif layer.kind is LayerKind.AVGPOOL:
                current = avgpool2d_hwc_batch(current, layer.kernel_size, layer.stride)
            elif layer.kind is LayerKind.FLATTEN:
                current = np.asarray(current).reshape(current.shape[0], -1)
            else:  # pragma: no cover - defensive
                raise NotImplementedError(f"unsupported layer kind {layer.kind}")
            if profile is not None:
                profile(layer.name, started, time.monotonic(), "forward")

    def predict_batch(
        self,
        frames: Sequence[np.ndarray],
        timesteps: int = 1,
        policy: Optional[NumericsPolicy] = None,
    ) -> np.ndarray:
        """Classify a batch of frames (``(B,)`` class indices) in one pass."""
        activity = self.forward_batch(frames, timesteps=timesteps, policy=policy)
        output_index = self.weighted_layers[-1]
        records = activity.for_layer(output_index)
        counts = np.zeros(
            (activity.batch_size, self._layer_output_shapes[output_index].channels),
            dtype=np.int64,
        )
        for record in records:
            counts += record.output_spikes.astype(np.int64).reshape(counts.shape)
        return np.argmax(counts, axis=1)

    # ------------------------------------------------------------------ #
    # Identity
    # ------------------------------------------------------------------ #
    def fingerprint(self) -> str:
        """Canonical hex digest of the network's architecture and weights.

        Two networks share a fingerprint exactly when every layer's kind,
        geometry, neuron parameters and weight bytes match — which is what
        lets :class:`repro.session.Session` key functional-mode results on
        the network without storing it.

        Hashing S-VGG11's 138 MB of weights costs real time, and the
        serving path (:mod:`repro.serve`) fingerprints the
        network on *every* request admission, so the *weight-bytes* digest
        is memoized against the identity of the layers' weight arrays: any
        rebinding — e.g. :meth:`initialize` — invalidates it.
        The cheap metadata digest (architecture, every non-weight layer
        field) is recomputed on every call, so mutating e.g. a layer's LIF
        parameters is never masked by the memo.  To keep the weight memo
        sound, every hashed weight array is frozen with
        ``writeable=False``: an in-place mutation after fingerprinting
        raises instead of silently serving a stale digest (which would
        poison the result store).  A weight array that does not own its
        data (a view into some larger buffer) is first replaced by an
        owning copy bound back onto the layer — freezing a shared base
        buffer would make *unrelated* data read-only, and leaving the base
        writable would let mutations dodge the freeze.  Changing weights
        means rebinding (``layer.weights = new_array``), as
        :meth:`initialize` does.
        """
        meta = hashlib.sha256()
        meta.update(repr((self.name, self.input_shape.as_tuple())).encode())
        weight_arrays = []
        for layer in self.layers:
            described = []
            for field_info in dataclass_fields(layer):
                if field_info.name == "weights":
                    continue
                described.append((field_info.name, repr(getattr(layer, field_info.name))))
            meta.update(repr((type(layer).__name__, sorted(described))).encode())
            weights = getattr(layer, "weights", None)
            if weights is not None:
                if weights.base is not None:
                    # Detach views onto their own copy so the freeze below
                    # can never make a caller's shared buffer read-only.
                    weights = np.array(weights)
                    layer.weights = weights
                weight_arrays.append(weights)
        digest = hashlib.sha256()
        digest.update(meta.hexdigest().encode())
        digest.update(self._weights_digest(tuple(weight_arrays)).encode())
        return digest.hexdigest()

    def _weights_digest(self, weight_arrays) -> str:
        """Memoized digest of the stacked weight bytes (the expensive part)."""
        cached = getattr(self, "_fingerprint_cache", None)
        if cached is not None:
            cached_arrays, cached_digest = cached
            if len(cached_arrays) == len(weight_arrays) and all(
                previous is current
                for previous, current in zip(cached_arrays, weight_arrays)
            ):
                return cached_digest
        digest = hashlib.sha256()
        for weights in weight_arrays:
            digest.update(np.ascontiguousarray(weights).tobytes())
            weights.flags.writeable = False
        # The cache holds strong references to the hashed arrays, so the
        # `is` checks above can never be confused by id reuse.
        self._fingerprint_cache = (weight_arrays, digest.hexdigest())
        return self._fingerprint_cache[1]
