"""Small shared utilities: quantization, RNG helpers, serialization."""

from .quantize import quantize
from .rng import make_rng, spawn_rngs
from .serialization import atomic_write_text, canonical_json, json_default

__all__ = [
    "quantize",
    "atomic_write_text",
    "canonical_json",
    "json_default",
    "make_rng",
    "spawn_rngs",
]
