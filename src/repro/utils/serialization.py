"""Canonical JSON encoding and atomic file persistence.

Every piece of the library that fingerprints parameters or persists results
(:meth:`repro.config.RunConfig.fingerprint`, the :class:`repro.session.Session`
fingerprints and :class:`repro.session.ResultStore`) must agree on *one*
encoding: if a fingerprint serializes a value one way and the persisted
payload another, equal inputs stop being equal across a save/load cycle.
:func:`canonical_json` is that single encoder — sorted keys, NumPy scalars
narrowed to the matching Python type, and everything else stringified.

:func:`atomic_write_text` writes through a temporary file in the target
directory followed by :func:`os.replace`, so an interrupted writer can never
leave a half-written file where a reader later expects valid JSON.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Union

import numpy as np


def json_default(value: object) -> object:
    """Fallback encoder shared by every JSON writer in the library.

    NumPy integers/floats map to their exact Python counterparts (so a row
    computed with NumPy and the same row reloaded from disk compare equal);
    arrays become nested lists; anything else falls back to ``str``, which
    covers enums, ``TensorShape`` and other small value types used in
    parameter dictionaries.
    """
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return str(value)


def canonical_json(payload: object) -> str:
    """Serialize ``payload`` deterministically (sorted keys, shared encoder)."""
    return json.dumps(payload, sort_keys=True, default=json_default)


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    The temporary file lives in the destination directory so the final
    rename never crosses a filesystem boundary.  On any failure the
    temporary file is removed and the original file (if any) is untouched.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        "w", dir=str(path.parent), prefix=path.name + ".", suffix=".tmp", delete=False
    )
    try:
        with handle:
            handle.write(text)
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise
