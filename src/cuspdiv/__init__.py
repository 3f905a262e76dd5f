"""Weighted-divergence machinery on planar cusp domains.

Subpackages cover the cusp geometry and exact boundary distances, Whitney
decompositions and m-set checks, distance-power weights with Muckenhaupt
diagnostics and weighted norms (the singular families as products of 1-D
sums under the surrogate distance, every other integrand at 2-D nodes under
the exact distance), a Newtonian-potential right inverse of the divergence,
weighted Taylor-Hood finite elements (divergence right inverse, Stokes,
inf-sup, Korn/Poincare constants), and the sweep / rate-fitting experiments
tying the pieces together.

`fem`, and with it scipy.sparse, is imported on first use: `cuspdiv.fem`
works as an attribute, and the subcommands and experiments that assemble
import it where they do.
"""

import importlib

__version__ = "0.1.0"

from . import cli, experiments, geometry, mesh, potential, weights, whitney
from .geometry import CuspDomain, distance, surrogate_distance
from .mesh import TriangulatedMesh, generate_graded_mesh, refine
from .weights import WeightSpec, estimate_ap_constant, weighted_lp_norm
from .whitney import WhitneyDecomposition, decompose

__all__ = [
    "__version__",
    "CuspDomain",
    "distance",
    "surrogate_distance",
    "TriangulatedMesh",
    "generate_graded_mesh",
    "refine",
    "WeightSpec",
    "estimate_ap_constant",
    "weighted_lp_norm",
    "WhitneyDecomposition",
    "decompose",
    "geometry",
    "mesh",
    "whitney",
    "weights",
    "potential",
    "fem",
    "experiments",
    "cli",
]


def __getattr__(name):
    if name == "fem":
        return importlib.import_module(".fem", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
