"""Result records of SpikeStream inference runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

import numpy as np

from ..config import RunConfig
from ..types import Precision

#: Per-frame metric arrays carried by every :class:`LayerResult`.
PER_FRAME_METRICS = ("cycles", "fpu_utilization", "ipc", "energy_j", "power_w", "dma_bytes")


@dataclass
class LayerResult:
    """Per-layer metrics aggregated over a batch of input frames.

    All per-frame arrays have the same length (the batch size); the
    ``mean_*`` / ``std_*`` properties provide the statistics the paper
    reports (average and standard deviation over 128 frames).
    """

    name: str
    kernel: str
    precision: Precision
    streaming: bool
    cycles: np.ndarray
    fpu_utilization: np.ndarray
    ipc: np.ndarray
    energy_j: np.ndarray
    power_w: np.ndarray
    dma_bytes: np.ndarray
    clock_hz: float = 1.0e9

    def __post_init__(self) -> None:
        for name in PER_FRAME_METRICS:
            setattr(self, name, np.atleast_1d(np.asarray(getattr(self, name), dtype=np.float64)))
        if len({len(getattr(self, name)) for name in PER_FRAME_METRICS}) != 1:
            raise ValueError(f"per-frame arrays of layer {self.name!r} have inconsistent lengths")

    @property
    def batch_size(self) -> int:
        """Number of frames aggregated."""
        return int(len(self.cycles))

    # -- means ------------------------------------------------------------
    @property
    def mean_cycles(self) -> float:
        """Mean cycles per frame."""
        return float(np.mean(self.cycles))

    @property
    def mean_runtime_s(self) -> float:
        """Mean runtime per frame in seconds."""
        return self.mean_cycles / self.clock_hz

    @property
    def mean_fpu_utilization(self) -> float:
        """Mean FPU utilization."""
        return float(np.mean(self.fpu_utilization))

    @property
    def mean_ipc(self) -> float:
        """Mean per-core IPC."""
        return float(np.mean(self.ipc))

    @property
    def mean_energy_j(self) -> float:
        """Mean energy per frame in joules."""
        return float(np.mean(self.energy_j))

    @property
    def mean_power_w(self) -> float:
        """Mean power in watts."""
        return float(np.mean(self.power_w))

    # -- standard deviations ------------------------------------------------
    @property
    def std_cycles(self) -> float:
        """Standard deviation of cycles over the batch."""
        return float(np.std(self.cycles))

    @property
    def std_fpu_utilization(self) -> float:
        """Standard deviation of FPU utilization over the batch."""
        return float(np.std(self.fpu_utilization))

    @property
    def std_energy_j(self) -> float:
        """Standard deviation of energy over the batch."""
        return float(np.std(self.energy_j))

    def frame_slice(self, start: int, stop: int) -> "LayerResult":
        """A new layer result covering frames ``start:stop`` of this one.

        Per-frame metric arrays are copied (never views), so slicing a
        shared batch result can hand independent per-request results to
        concurrent callers — the scatter step of the serving micro-batcher.
        """
        if not 0 <= start < stop <= self.batch_size:
            raise ValueError(
                f"frame slice [{start}:{stop}] out of range for batch size "
                f"{self.batch_size}"
            )
        metrics = {
            metric: np.array(getattr(self, metric)[start:stop])
            for metric in PER_FRAME_METRICS
        }
        return LayerResult(
            name=self.name,
            kernel=self.kernel,
            precision=self.precision,
            streaming=self.streaming,
            clock_hz=self.clock_hz,
            **metrics,
        )

    def identical_to(self, other: "LayerResult") -> bool:
        """Bit-for-bit equality of every per-frame metric array.

        Used by the batch-engine equivalence tests and benchmark: no
        tolerances are applied, every float must match exactly.
        """
        if self.name != other.name or self.kernel != other.kernel:
            return False
        return all(
            np.array_equal(getattr(self, metric), getattr(other, metric))
            for metric in PER_FRAME_METRICS
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable dictionary round-tripping through :meth:`from_dict`.

        Unlike :meth:`as_dict` (an aggregated summary), this carries the full
        per-frame metric arrays recorded from the cluster's
        :class:`~repro.arch.trace.ClusterStats` (cycles, FPU utilization,
        IPC, energy, power, DMA bytes), so a reloaded result is bit-for-bit
        :meth:`identical_to` the original.
        """
        data: Dict[str, object] = {
            "name": self.name,
            "kernel": self.kernel,
            "precision": self.precision.value,
            "streaming": bool(self.streaming),
            "clock_hz": float(self.clock_hz),
        }
        for metric in PER_FRAME_METRICS:
            data[metric] = np.asarray(getattr(self, metric)).tolist()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "LayerResult":
        """Reconstruct a layer result from :meth:`to_dict` output."""
        metrics = {
            metric: np.asarray(data[metric], dtype=np.float64)
            for metric in PER_FRAME_METRICS
        }
        return cls(
            name=str(data["name"]),
            kernel=str(data["kernel"]),
            precision=Precision.from_name(str(data["precision"])),
            streaming=bool(data["streaming"]),
            clock_hz=float(data.get("clock_hz", 1.0e9)),
            **metrics,
        )

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary of the aggregated metrics."""
        return {
            "layer": self.name,
            "kernel": self.kernel,
            "precision": self.precision.value,
            "streaming": self.streaming,
            "mean_cycles": self.mean_cycles,
            "std_cycles": self.std_cycles,
            "mean_runtime_ms": self.mean_runtime_s * 1e3,
            "mean_fpu_utilization": self.mean_fpu_utilization,
            "std_fpu_utilization": self.std_fpu_utilization,
            "mean_ipc": self.mean_ipc,
            "mean_energy_mj": self.mean_energy_j * 1e3,
            "std_energy_mj": self.std_energy_j * 1e3,
            "mean_power_w": self.mean_power_w,
        }


@dataclass
class InferenceResult:
    """End-to-end inference metrics of one configuration over a batch."""

    config: RunConfig
    layers: List[LayerResult] = field(default_factory=list)
    clock_hz: float = 1.0e9

    def layer(self, name: str) -> LayerResult:
        """Look up a layer result by name."""
        for result in self.layers:
            if result.name == name:
                return result
        raise KeyError(f"no layer named {name!r} in this result")

    @property
    def layer_names(self) -> List[str]:
        """Names of all layers in execution order."""
        return [result.name for result in self.layers]

    @property
    def conv_layers(self) -> List[LayerResult]:
        """Results of the convolutional (and encoding) layers."""
        return [r for r in self.layers if r.kernel in ("conv", "encode")]

    @property
    def fc_layers(self) -> List[LayerResult]:
        """Results of the fully connected layers."""
        return [r for r in self.layers if r.kernel == "fc"]

    # -- network-level aggregates -------------------------------------------
    @property
    def total_cycles(self) -> float:
        """Mean total cycles per frame (sum over layers)."""
        return float(sum(r.mean_cycles for r in self.layers))

    @property
    def total_runtime_s(self) -> float:
        """Mean end-to-end runtime per frame in seconds."""
        return self.total_cycles / self.clock_hz

    @property
    def total_energy_j(self) -> float:
        """Mean end-to-end energy per frame in joules."""
        return float(sum(r.mean_energy_j for r in self.layers))

    @property
    def network_fpu_utilization(self) -> float:
        """Cycle-weighted average FPU utilization over the whole network."""
        total = self.total_cycles
        if total <= 0:
            return 0.0
        weighted = sum(r.mean_fpu_utilization * r.mean_cycles for r in self.layers)
        return float(weighted / total)

    @property
    def network_ipc(self) -> float:
        """Cycle-weighted average per-core IPC over the whole network."""
        total = self.total_cycles
        if total <= 0:
            return 0.0
        weighted = sum(r.mean_ipc * r.mean_cycles for r in self.layers)
        return float(weighted / total)

    @property
    def average_power_w(self) -> float:
        """Average power over the whole inference."""
        runtime = self.total_runtime_s
        if runtime <= 0:
            return 0.0
        return self.total_energy_j / runtime

    def frame_slice(self, start: int, stop: int) -> "InferenceResult":
        """A new result covering frames ``start:stop`` of every layer.

        The slice is indexed in *metric rows* — for functional runs the
        per-layer arrays carry one row per (frame, timestep) pair
        frame-major, so a request of ``b`` frames over ``T`` timesteps spans
        ``b * T`` rows.  Because per-frame rows are invariant to what else
        shared the batch (the batched kernels' bit-for-bit M-invariance),
        a slice of a coalesced run equals the result of running that
        request alone — the guarantee ``tests/serve`` pins down.
        """
        return InferenceResult(
            config=self.config,
            layers=[layer.frame_slice(start, stop) for layer in self.layers],
            clock_hz=self.clock_hz,
        )

    def identical_to(self, other: "InferenceResult") -> bool:
        """Bit-for-bit equality with another result (same layers, same arrays)."""
        if self.layer_names != other.layer_names:
            return False
        return all(a.identical_to(b) for a, b in zip(self.layers, other.layers))

    def summary(self) -> Dict[str, float]:
        """Headline metrics of the run."""
        return {
            "precision": self.config.precision.value,
            "streaming": self.config.streaming_enabled,
            "batch_size": self.layers[0].batch_size if self.layers else 0,
            "total_runtime_ms": self.total_runtime_s * 1e3,
            "total_energy_mj": self.total_energy_j * 1e3,
            "network_fpu_utilization": self.network_fpu_utilization,
            "network_ipc": self.network_ipc,
            "average_power_w": self.average_power_w,
        }

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable dictionary round-tripping through :meth:`from_dict`.

        Carries the full configuration and every layer's per-frame arrays,
        so :class:`repro.session.ResultStore` can persist whole results and
        serve them back bit-for-bit equal to a cold run.
        """
        return {
            "config": self.config.to_dict(),
            "clock_hz": float(self.clock_hz),
            "layers": [layer.to_dict() for layer in self.layers],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "InferenceResult":
        """Reconstruct an inference result from :meth:`to_dict` output."""
        return cls(
            config=RunConfig.from_dict(data["config"]),
            layers=[LayerResult.from_dict(layer) for layer in data["layers"]],
            clock_hz=float(data.get("clock_hz", 1.0e9)),
        )

    def per_layer_table(self) -> List[Dict[str, float]]:
        """Per-layer metric dictionaries in execution order."""
        return [result.as_dict() for result in self.layers]


def speedup(reference: Optional[InferenceResult], other: InferenceResult) -> float:
    """Network-level speedup of ``other`` relative to ``reference``."""
    if reference is None:
        return 1.0
    if other.total_cycles <= 0:
        return float("inf")
    return reference.total_cycles / other.total_cycles
