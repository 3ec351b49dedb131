"""Exact normal-form pipeline and chain tracer for real graphs v = F(z, zbar, u) in C^2."""

from .errors import (
    InternalInvariantError,
    LeviDegenerateError,
    MathPreconditionError,
    MoserChainsError,
    ParseError,
)
from .series_core import (
    GaussianRational,
    HoloSeries,
    Series3,
    UPoly,
    gr,
)
from .normalize import (
    Biholo,
    Hypersurface,
    PipelineResult,
    TransversalCurve,
    find_chain_curve,
    fundamental_identity_residual,
    graph_transform,
    isotropy_map,
    normalize_hypersurface,
    translate_to_point,
)

__version__ = "0.1.0"

__all__ = [
    "Biholo",
    "GaussianRational",
    "HoloSeries",
    "Hypersurface",
    "InternalInvariantError",
    "LeviDegenerateError",
    "MathPreconditionError",
    "MoserChainsError",
    "ParseError",
    "PipelineResult",
    "Series3",
    "TransversalCurve",
    "UPoly",
    "find_chain_curve",
    "fundamental_identity_residual",
    "graph_transform",
    "gr",
    "isotropy_map",
    "normalize_hypersurface",
    "translate_to_point",
    "__version__",
]
