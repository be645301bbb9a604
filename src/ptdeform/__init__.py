"""Deformed su(1,1) ladder algebra of the trigonometric Poschl-Teller well.

Closed-form spectrum, ladder coefficients and deforming functions
(`algebra`), exact bound-state wavefunctions in Gegenbauer and Legendre
form (`wavefun`), operator matrices with truncation-aware residual norms
(`opmat`), special-function primitives (`specfun`), and a command-line
verification driver (`cli`).
"""

__version__ = "0.1.0"

from .algebra import (
    ModelParams,
    alpha,
    alpha_by_recursion,
    casimir_eigenvalue,
    energy,
    f_of,
    f_of_uncorrected,
    g_of,
    h_of,
    nu_from_v0,
    su11_matrix_elements,
)
from .opmat import OperatorMatrix, QuadratureOrderError
from .specfun import QuadratureRule, gauss_legendre
from .wavefun import Eigenfunction, build_eigenfunction, psi_value

__all__ = [
    "__version__",
    "ModelParams",
    "alpha",
    "alpha_by_recursion",
    "casimir_eigenvalue",
    "energy",
    "f_of",
    "f_of_uncorrected",
    "g_of",
    "h_of",
    "nu_from_v0",
    "su11_matrix_elements",
    "OperatorMatrix",
    "QuadratureOrderError",
    "QuadratureRule",
    "gauss_legendre",
    "Eigenfunction",
    "build_eigenfunction",
    "psi_value",
]
