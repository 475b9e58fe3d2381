"""Rendering and export of experiment tables.

The experiments return lists of row dictionaries; :func:`format_table`
renders them as aligned ASCII tables so that the benchmark harness can print
the same rows/series the paper's figures report.  :func:`experiment_to_json`
and :func:`rows_to_csv` provide the machine-readable exports of
``repro.cli run --format json|csv``.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Dict, List, Optional, Sequence


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1000 or magnitude < 0.001:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def format_table(rows: Sequence[Dict[str, object]], columns: Sequence[str] = None) -> str:
    """Render a list of row dictionaries as an aligned ASCII table."""
    rows = list(rows)
    if not rows:
        return "(no data)"
    columns = list(columns) if columns is not None else list(rows[0].keys())
    rendered: List[List[str]] = [[_format_value(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(str(col)), max(len(cells[i]) for cells in rendered)) for i, col in enumerate(columns)
    ]
    header = " | ".join(str(col).ljust(widths[i]) for i, col in enumerate(columns))
    separator = "-+-".join("-" * width for width in widths)
    body = "\n".join(
        " | ".join(cells[i].ljust(widths[i]) for i in range(len(columns))) for cells in rendered
    )
    return "\n".join([header, separator, body])


def render_experiment(title: str, rows: Sequence[Dict[str, object]],
                      notes: str = "", columns: Sequence[str] = None) -> str:
    """Render an experiment (title, table, optional notes) as text."""
    parts = [f"== {title} ==", format_table(rows, columns)]
    if notes:
        parts.append(notes)
    return "\n".join(parts) + "\n"


def _json_default(value):
    """Coerce numpy scalars (and other oddballs) into plain JSON types."""
    try:
        return float(value)
    except (TypeError, ValueError):
        return str(value)


def experiment_to_json(result, indent: int = 2) -> str:
    """Serialize an :class:`~repro.eval.experiments.ExperimentResult` to JSON.

    The payload carries the experiment ``name``, ``figure`` tag, the full
    ``rows`` list and the ``headline`` aggregates — everything a downstream
    plotting or regression-tracking tool needs.
    """
    payload = {
        "name": result.name,
        "figure": result.figure,
        "rows": list(result.rows),
        "headline": dict(result.headline),
    }
    return json.dumps(payload, indent=indent, default=_json_default)


def rows_to_csv(rows: Sequence[Dict[str, object]],
                columns: Optional[Sequence[str]] = None) -> str:
    """Serialize experiment rows to CSV (header + one line per row)."""
    rows = list(rows)
    if not rows:
        return ""
    columns = list(columns) if columns is not None else list(rows[0].keys())
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns, extrasaction="ignore",
                            lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({col: row.get(col, "") for col in columns})
    return buffer.getvalue()


def headline_notes(headline: Dict[str, object]) -> str:
    """The one-line ``headline: k=v, …`` note under rendered tables."""
    if not headline:
        return ""
    return "headline: " + ", ".join(f"{k}={v:.4g}" for k, v in headline.items())


EXPORT_FORMATS = ("table", "json", "csv")


def export_experiment(result, fmt: str = "table", title: Optional[str] = None,
                      columns: Optional[Sequence[str]] = None) -> str:
    """One rendering path for every CLI command that emits an experiment.

    ``fmt`` is ``"table"`` (aligned ASCII + headline note), ``"json"``
    (:func:`experiment_to_json`) or ``"csv"`` (:func:`rows_to_csv` of the
    rows); both ``run --scenario`` and ``sweep`` go through here so the
    formats can never drift between subcommands.
    """
    if fmt == "json":
        return experiment_to_json(result)
    if fmt == "csv":
        return rows_to_csv(result.rows, columns)
    if fmt != "table":
        raise ValueError(f"unknown export format {fmt!r}; expected one of {EXPORT_FORMATS}")
    return render_experiment(
        title or f"{result.figure}: {result.name}",
        result.rows,
        notes=headline_notes(result.headline),
        columns=columns,
    )
