"""Global configuration objects for a SpikeStream run.

A :class:`RunConfig` collects the knobs that the evaluation section of the
paper sweeps: numeric precision, which optimizations are enabled, the batch of
input frames, and the random seed used to generate synthetic data.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional

from .types import OptimizationFlag, Precision
from .utils.serialization import canonical_json


def check_run_size(batch_size: Optional[int], timesteps: Optional[int]) -> None:
    """Reject a batch size or timestep count below 1.

    ``None`` stands for "the configuration's own value" wherever a run takes
    these as overrides; 0 is never a default, it is an empty run.
    """
    for name, value in (("batch_size", batch_size), ("timesteps", timesteps)):
        if value is not None and value <= 0:
            raise ValueError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class RunConfig:
    """Configuration of a single inference experiment.

    Parameters
    ----------
    precision:
        Numeric precision of weights and accumulations.
    optimizations:
        Set of enabled SpikeStream optimizations.  The paper's baseline is
        ``OptimizationFlag.baseline()`` and the full technique is
        ``OptimizationFlag.spikestream()``.
    batch_size:
        Number of input frames evaluated; the paper uses 128 and reports mean
        and standard deviation across the batch.
    timesteps:
        Number of SNN timesteps per frame.  The main evaluation uses a
        single-timestep S-VGG11; the accelerator comparison uses 500.
    seed:
        Seed for synthetic data generation.
    index_bytes:
        Width of compressed-format indices in bytes (16-bit in the paper).
    """

    precision: Precision = Precision.FP16
    optimizations: OptimizationFlag = field(default_factory=OptimizationFlag.spikestream)
    batch_size: int = 128
    timesteps: int = 1
    seed: int = 2025
    index_bytes: int = 2

    def __post_init__(self) -> None:
        check_run_size(self.batch_size, self.timesteps)
        if self.index_bytes not in (1, 2, 4):
            raise ValueError(f"index_bytes must be 1, 2 or 4, got {self.index_bytes}")

    @property
    def streaming_enabled(self) -> bool:
        """Whether the SA optimization (stream registers + frep) is active."""
        return bool(self.optimizations & OptimizationFlag.STREAMING_ACCELERATION)

    @property
    def simd_width(self) -> int:
        """SIMD lanes available at the configured precision."""
        return self.precision.simd_width

    def with_precision(self, precision: Precision) -> "RunConfig":
        """Return a copy of this configuration with a different precision."""
        return replace(self, precision=precision)

    def with_optimizations(self, optimizations: OptimizationFlag) -> "RunConfig":
        """Return a copy of this configuration with different optimizations."""
        return replace(self, optimizations=optimizations)

    def as_baseline(self) -> "RunConfig":
        """Return the non-streaming baseline variant of this configuration."""
        return self.with_optimizations(OptimizationFlag.baseline())

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable dictionary round-tripping through :meth:`from_dict`.

        Optimization flags are stored as a sorted list of member names, so
        the encoding is stable across Python versions and readable in cache
        files on disk.
        """
        members = [flag for flag in OptimizationFlag if flag is not OptimizationFlag.NONE]
        return {
            "precision": self.precision.value,
            "optimizations": sorted(f.name for f in members if f in self.optimizations),
            "batch_size": self.batch_size,
            "timesteps": self.timesteps,
            "seed": self.seed,
            "index_bytes": self.index_bytes,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RunConfig":
        """Reconstruct a configuration from :meth:`to_dict` output."""
        optimizations = OptimizationFlag.NONE
        for name in data.get("optimizations", ()):
            try:
                optimizations |= OptimizationFlag[str(name)]
            except KeyError as exc:
                raise ValueError(f"unknown optimization flag {name!r}") from exc
        return cls(
            precision=Precision.from_name(str(data["precision"])),
            optimizations=optimizations,
            batch_size=int(data["batch_size"]),
            timesteps=int(data["timesteps"]),
            seed=int(data["seed"]),
            index_bytes=int(data["index_bytes"]),
        )

    def fingerprint(self) -> str:
        """Canonical hex digest of this configuration alone.

        Two configurations have the same fingerprint exactly when every
        field (precision, optimization set, batch size, timesteps, seed,
        index width) matches.  Note that :class:`repro.session.ResultStore`
        entries are keyed on :meth:`repro.session.Session.fingerprint`,
        which hashes this configuration *plus* the effective run parameters
        and the session's hardware models.
        """
        return hashlib.sha256(canonical_json(self.to_dict()).encode()).hexdigest()


def baseline_config(precision: Precision = Precision.FP16, **kwargs) -> RunConfig:
    """Convenience constructor for the paper's parallel SIMD baseline."""
    return RunConfig(precision=precision, optimizations=OptimizationFlag.baseline(), **kwargs)


def spikestream_config(precision: Precision = Precision.FP16, **kwargs) -> RunConfig:
    """Convenience constructor for the full SpikeStream configuration."""
    return RunConfig(precision=precision, optimizations=OptimizationFlag.spikestream(), **kwargs)
