"""Exception hierarchy shared by the whole package.

Three kinds of failure are kept apart on purpose:

* ``ParseError`` -- malformed user input (bad JSON, bad rational literal,
  out-of-range configuration), including a scalar that is not an exact
  (Gaussian) rational, an order that is not an integer in range or an
  exponent key that is not a tuple of integers >= 0 of the class's length,
  passed to any constructor, scalar product or pipeline entry point, and a
  pipeline argument of the wrong type (a surface that is not a
  ``Hypersurface``, a map that is not a ``Biholo``, a curve that is not a
  ``TransversalCurve``).
* ``MathPreconditionError`` -- the input is well-formed but violates a
  mathematical hypothesis of the requested operation (e.g. a degenerate
  Levi form, a map that does not fix the origin, a slice outside a series'
  order, a substitution that is not sound -- a constant-term argument to a
  truncated series, a u-argument that is not real -- or vector fields on
  other coordinates than the operation takes).
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
