"""Exact p-adic harmonic-analysis toolkit.

Exact arithmetic over a p-adic field and a quadratic extension, the
GL_n-conjugation invariant theory of (n+1)x(n+1) matrices, a symbolic
Schwartz-Bruhat Fourier calculus, transfer factors and orbit matching,
regularized orbital integrals as rational functions of q^(-s), dagger
test functions, and local L-factor/volume identities.
"""

__version__ = "0.1.0"

from .errors import (
    PadharmError,
    DomainError,
    UnsupportedPlace,
    UnsupportedConductor,
    NotRegular,
    NotRegularSemisimple,
    NotInDomain,
    NotAdmissible,
    InvalidLevel,
    SchemaError,
    PoleAtEvaluationPoint,
    ScaleExceeded,
)
from .cyclotomic import CyclotomicScalar
from .padic import FieldContext, QuadExtContext
from .qrational import QRational
from .config import RunConfig

__all__ = [
    "PadharmError",
    "DomainError",
    "UnsupportedPlace",
    "UnsupportedConductor",
    "NotRegular",
    "NotRegularSemisimple",
    "NotInDomain",
    "NotAdmissible",
    "InvalidLevel",
    "SchemaError",
    "PoleAtEvaluationPoint",
    "ScaleExceeded",
    "CyclotomicScalar",
    "FieldContext",
    "QuadExtContext",
    "QRational",
    "RunConfig",
    "__version__",
]
