"""Small metric helpers used by the experiment drivers."""

from __future__ import annotations


def ratio(numerator: float, denominator: float) -> float:
    """Safe ratio: returns ``inf`` for a zero denominator with non-zero numerator."""
    if denominator == 0:
        return float("inf") if numerator else 1.0
    return numerator / denominator
