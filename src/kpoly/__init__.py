"""Exact lattice-point combinatorics of multidegree supports.

Subpackages by concern:

* lattice      points, point sets, exact coefficient maps (polynomials,
               signed Hilbert supports, mu values), the Mobius kernel on
               value grids and the truncation masks
* polymatroid  exchange axioms, g-polymatroids, inequality systems, caves
* stalactite   Hilbert-support reconstruction, facets and shellings
* monomial     inclusion-exclusion over Borel-fixed primes
* mobius       downset posets, mu functions, matroid specialization
* subspaces    linear polymatroids from exact rational configurations
* schubert     divided differences, Grothendieck/Schubert polynomials, census
* cli          the ``kpoly`` command
"""

from .lattice import (
    CapExceeded,
    Check,
    DimensionError,
    EmptySetError,
    IntPolynomial,
    Point,
    PointSet,
    homogenize,
    point_set,
    poly_text,
    top,
)
from .polymatroid import (
    GPolyInequalitySystem,
    inequality_system,
    integer_points,
    is_base_polymatroid,
    is_cave,
    is_g_polymatroid,
)
from .stalactite import hilbert_eval, hsupp_from_msupp, verify_shelling
from .monomial import (
    SquareFreeIdeal,
    hilbert_poly_ie,
    msupp_to_ideal,
)
from .mobius import (
    Matroid,
    coloops,
    contraction,
    downset,
    kpoly_from_mobius,
    mobius_to_top,
    mu_support,
    verify_matroid_mu_theorem,
)
from .subspaces import SubspaceConfig, linear_polymatroid
# NB: the submodule schubert contains a function of the same name; it is not
# re-exported here so that kpoly.schubert keeps naming the submodule.
from .schubert import (
    count_zero_one,
    grothendieck,
    grothendieck_via_stalactites,
    is_zero_one,
    msupp_of_matrix_schubert,
    rothe_diagram,
)

__version__ = "0.1.0"
