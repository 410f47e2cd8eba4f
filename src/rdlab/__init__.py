"""Residual distribution laboratory for hyperbolic conservation laws.

Meshes and P1/P2 DOF lattices, residual distribution families, graph-based
flux recovery turning any conservative split into finite-volume fluxes,
deferred-correction time stepping, and conservation/entropy corrections for
primitive-variable Euler schemes.
"""

__version__ = "0.1.0"

from .conslaw import (  # noqa: F401
    Advection,
    Burgers,
    ConservationLaw,
    CubicTransport,
    Euler,
    make_law,
)
from .errors import RdlabError  # noqa: F401
from .mesh import (  # noqa: F401
    Mesh,
    build_dofmap,
    build_interval_mesh,
    build_structured_tri_mesh,
)
from .rd_core import Discretization, Scheme, blend_limiter  # noqa: F401
