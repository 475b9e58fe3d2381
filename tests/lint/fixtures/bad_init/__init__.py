"""Seeded violation for the all-exports rule (R8): unexported public def.

The unread ``json`` import is allowed: package ``__init__`` modules are
exempt from the unused-import rule (R11).
"""

import json

__all__ = []


def forgotten():
    # Violation: public definition in a package __init__ missing from __all__.
    return 1
