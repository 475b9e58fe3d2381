"""repro.obs — distributed span tracing for the serving stack.

See :mod:`repro.obs.tracer` for the span model and
:mod:`repro.obs.export` for the Chrome/Perfetto and JSONL exporters.
"""

from repro.obs.export import read_jsonl, to_chrome, to_jsonl, well_nested
from repro.obs.tracer import (
    NULL_SPAN,
    OpenSpan,
    Span,
    STAGE_NAMES,
    TraceCollector,
    TraceContext,
    Tracer,
    layer_hook,
    layer_profiler,
)

__all__ = [
    "NULL_SPAN",
    "OpenSpan",
    "STAGE_NAMES",
    "Span",
    "TraceCollector",
    "TraceContext",
    "Tracer",
    "layer_hook",
    "layer_profiler",
    "read_jsonl",
    "to_chrome",
    "to_jsonl",
    "well_nested",
]
