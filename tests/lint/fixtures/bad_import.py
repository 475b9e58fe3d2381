"""Seeded violations for the unused-import rule (R11)."""

from __future__ import annotations

import json
import os.path
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:
    from decimal import Decimal

__all__ = ["exported", "listed"]

from collections import OrderedDict as listed


def exported(values: "List[Decimal]") -> Optional[int]:
    # Violation: json is never read.  Violation: os (bound by `import
    # os.path`) is never read.  List and Decimal are read through the
    # string annotation, listed through __all__.
    return len(values) or None
