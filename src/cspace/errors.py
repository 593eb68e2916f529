"""The one exception cspace raises for an input it refuses.

Every refusal in the library and the CLI raises :class:`CspaceError`, so a
caller tells a refused input from a bug with a single ``except`` clause.  It
is a ``ValueError``, so code that catches ``ValueError`` catches it too.
"""

from __future__ import annotations

__all__ = ["CspaceError"]


class CspaceError(ValueError):
    """An input cspace refuses; the message says which and why."""
