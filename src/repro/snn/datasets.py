"""Synthetic datasets and statistical spike-activity generators.

The paper evaluates on CIFAR-10 images with a temporally-trained S-VGG11.
Neither the dataset nor the trained weights are needed to reproduce the
performance, utilization and energy results — those depend only on tensor
shapes and per-layer firing rates.  This module therefore provides:

* :class:`SyntheticCIFAR10` — smooth random 32x32x3 images with labels, for
  the functional examples and tests, and
* :func:`synthetic_compressed_ifmap` / :func:`synthetic_layer_activity` —
  statistically generated compressed ifmaps whose firing rates follow the
  paper's per-layer activity profile, used by the figure-level experiments
  over a batch of 128 frames.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..formats.convert import compress_ifmap, compress_vector
from ..formats.csr_fiber import CompressedIfmap, CompressedVector
from ..types import INDEX_BYTES_DEFAULT, TensorShape
from ..utils.rng import SeedLike, make_rng, spawn_rngs
from .svgg11 import SVGG11_LAYER_FIRING_RATES, svgg11_layer_shapes


@dataclass
class SyntheticCIFAR10:
    """A generator of CIFAR-10-like RGB frames.

    Images are produced by low-pass filtering white noise so they exhibit the
    spatial correlation of natural images (which matters for the firing
    pattern of the encoding layer) and are normalized to [0, 1].
    """

    num_classes: int = 10
    image_shape: TensorShape = field(default_factory=lambda: TensorShape(32, 32, 3))
    seed: SeedLike = 2025
    smoothing: int = 3

    def __post_init__(self) -> None:
        if self.num_classes <= 1:
            raise ValueError(f"num_classes must be > 1, got {self.num_classes}")
        if self.smoothing < 1:
            raise ValueError(f"smoothing must be >= 1, got {self.smoothing}")

    def _smooth(self, image: np.ndarray) -> np.ndarray:
        kernel = self.smoothing
        if kernel == 1:
            return image
        padded = np.pad(image, ((kernel, kernel), (kernel, kernel), (0, 0)), mode="wrap")
        out = np.zeros_like(image)
        count = 0
        for dy in range(-kernel // 2, kernel // 2 + 1):
            for dx in range(-kernel // 2, kernel // 2 + 1):
                out += padded[
                    kernel + dy : kernel + dy + image.shape[0],
                    kernel + dx : kernel + dx + image.shape[1],
                    :,
                ]
                count += 1
        return out / count

    def sample(self, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(images, labels)`` with ``images`` of shape (count, H, W, C)."""
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        rngs = spawn_rngs(self.seed, count)
        shape = self.image_shape.as_tuple()
        images = np.empty((count,) + shape, dtype=np.float64)
        labels = np.empty(count, dtype=np.int64)
        for i, rng in enumerate(rngs):
            raw = rng.random(shape)
            smooth = self._smooth(raw)
            low, high = smooth.min(), smooth.max()
            images[i] = (smooth - low) / (high - low + 1e-12)
            labels[i] = rng.integers(0, self.num_classes)
        return images, labels


def synthetic_compressed_ifmap(
    shape: TensorShape,
    firing_rate: float,
    rng: SeedLike = None,
    index_bytes: int = INDEX_BYTES_DEFAULT,
) -> CompressedIfmap:
    """Generate a random compressed ifmap with the requested firing rate.

    Spikes are drawn i.i.d. Bernoulli per neuron, which matches the dynamic
    sparsity assumption behind the paper's batch-of-128 evaluation.
    """
    if not 0.0 <= firing_rate <= 1.0:
        raise ValueError(f"firing_rate must be in [0, 1], got {firing_rate}")
    rng = make_rng(rng)
    dense = rng.random(shape.as_tuple()) < firing_rate
    return compress_ifmap(dense, index_bytes=index_bytes)


def synthetic_compressed_vector(
    length: int,
    firing_rate: float,
    rng: SeedLike = None,
    index_bytes: int = INDEX_BYTES_DEFAULT,
) -> CompressedVector:
    """Generate a random compressed FC-layer spike vector."""
    if not 0.0 <= firing_rate <= 1.0:
        raise ValueError(f"firing_rate must be in [0, 1], got {firing_rate}")
    rng = make_rng(rng)
    dense = rng.random(length) < firing_rate
    return compress_vector(dense, index_bytes=index_bytes)


@dataclass
class LayerActivitySample:
    """Synthetic activity of one weighted S-VGG11 layer for one input frame."""

    name: str
    kind: str
    input_shape: TensorShape
    padded_input_shape: TensorShape
    output_shape: TensorShape
    kernel_size: int
    stride: int
    padding: int
    encodes_input: bool
    firing_rate: float
    compressed_input: Optional[CompressedIfmap]
    compressed_vector: Optional[CompressedVector]


def synthetic_layer_activity(
    batch_size: int = 1,
    seed: SeedLike = 2025,
    firing_rates: Optional[Dict[str, float]] = None,
    layers: Optional[List[str]] = None,
    index_bytes: int = INDEX_BYTES_DEFAULT,
) -> List[List[LayerActivitySample]]:
    """Generate per-frame, per-layer synthetic activity for S-VGG11.

    Returns a list with one entry per frame; each entry is the list of
    :class:`LayerActivitySample` for the requested layers (all weighted
    layers by default).  Firing rates default to the paper's activity
    profile (:data:`repro.snn.svgg11.SVGG11_LAYER_FIRING_RATES`).
    """
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    rates = dict(SVGG11_LAYER_FIRING_RATES)
    if firing_rates:
        rates.update(firing_rates)
    descriptions = svgg11_layer_shapes()
    if layers is not None:
        wanted = set(layers)
        descriptions = [d for d in descriptions if d["name"] in wanted]
        missing = wanted - {d["name"] for d in descriptions}
        if missing:
            raise ValueError(f"unknown layer names: {sorted(missing)}")
    frame_rngs = spawn_rngs(seed, batch_size)

    batch: List[List[LayerActivitySample]] = []
    for rng in frame_rngs:
        frame_samples: List[LayerActivitySample] = []
        for desc in descriptions:
            rate = rates[desc["name"]]
            compressed_input = None
            compressed_vector = None
            if desc["kind"] == "conv" and not desc["encodes_input"]:
                # Spikes only occur inside the unpadded region; the zero
                # padding ring contributes pointer entries but no spikes.
                unpadded = synthetic_compressed_ifmap(
                    desc["input_shape"], rate, rng, index_bytes=index_bytes
                )
                from ..formats.convert import compress_ifmap, decompress_ifmap

                padded_dense = np.pad(
                    decompress_ifmap(unpadded),
                    ((desc["padding"], desc["padding"]), (desc["padding"], desc["padding"]), (0, 0)),
                )
                compressed_input = compress_ifmap(padded_dense, index_bytes=index_bytes)
            elif desc["kind"] == "linear":
                compressed_vector = synthetic_compressed_vector(
                    desc["input_shape"].numel, rate, rng, index_bytes=index_bytes
                )
            frame_samples.append(
                LayerActivitySample(
                    name=desc["name"],
                    kind=desc["kind"],
                    input_shape=desc["input_shape"],
                    padded_input_shape=desc["padded_input_shape"],
                    output_shape=desc["output_shape"],
                    kernel_size=desc["kernel_size"],
                    stride=desc["stride"],
                    padding=desc["padding"],
                    encodes_input=desc["encodes_input"],
                    firing_rate=rate,
                    compressed_input=compressed_input,
                    compressed_vector=compressed_vector,
                )
            )
        batch.append(frame_samples)
    return batch
