"""Pointwise tensor computations for contact-type structures over Norden
metrics on time-like hypersurfaces, with numeric verification batteries."""

from .multilinear import DEFAULT_TOL, MultilinearForm, Tolerance
from .complex_norden import ComplexNordenPoint
from .contact_norden import ContactNordenPoint
from .hypersurface import HyperScalars, InducedStructure, TimelikeNormalFrame
from .main_class import SolverBranch

__version__ = "0.1.0"

__all__ = [
    "ComplexNordenPoint",
    "ContactNordenPoint",
    "DEFAULT_TOL",
    "HyperScalars",
    "InducedStructure",
    "MultilinearForm",
    "SolverBranch",
    "TimelikeNormalFrame",
    "Tolerance",
    "__version__",
]
