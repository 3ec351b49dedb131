"""Exception hierarchy shared by the whole package.

Three kinds of failure are kept apart on purpose:

* ``ParseError`` -- malformed user input (bad JSON, bad rational literal,
  out-of-range configuration).
* ``MathPreconditionError`` -- the input is well-formed but violates a
  mathematical hypothesis of the requested operation (e.g. a degenerate
  Levi form, a map that does not fix the origin).
* ``InternalInvariantError`` -- the library caught itself producing something
  inconsistent (a residual that should vanish identically does not, a
  pivot that must exist is missing).  Always a bug, never user error.
"""


class MoserChainsError(Exception):
    """Base class for all package errors."""


class ParseError(MoserChainsError):
    """Malformed input data or configuration."""


class MathPreconditionError(MoserChainsError):
    """Input violates a mathematical hypothesis of the operation."""


class LeviDegenerateError(MathPreconditionError):
    """The hypersurface has a degenerate Levi form at the working point."""


class InternalInvariantError(MoserChainsError):
    """An internal consistency check failed; indicates a library bug."""
