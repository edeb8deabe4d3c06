"""Exact lattice-point combinatorics of multidegree supports.

Subpackages by concern:

* lattice      points, point sets, exact coefficient maps (polynomials,
               signed Hilbert supports, mu values), box-grid transforms
* polymatroid  exchange axioms, g-polymatroids, inequality systems, caves
* stalactite   Hilbert-support reconstruction, shellings, dominance sums
* monomial     inclusion-exclusion oracles over Borel-fixed primes
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
    lex_compare,
    point_set,
    poly_text,
    support_bounds,
    top,
    truncate,
)
from .polymatroid import (
    GPolyInequalitySystem,
    inequality_system,
    integer_points,
    is_base_polymatroid,
    is_cave,
    is_g_polymatroid,
    check_symmetric_exchange,
)
# NB: the submodules stalactite and schubert each contain a function of the
# same name; those two are not re-exported here so that kpoly.stalactite and
# kpoly.schubert keep naming the submodules.
from .stalactite import (
    hilbert_eval,
    hsupp_from_msupp,
    increasing_path_check,
    mobius_sum_check,
    neighbor_directions,
    verify_shelling,
)
from .monomial import (
    BorelPrime,
    SquareFreeIdeal,
    hilbert_function_bruteforce,
    hilbert_poly_ie,
    hilbert_poly_prime,
    k_poly_ie,
    msupp_to_ideal,
    prime_sum,
)
from .mobius import (
    Matroid,
    coloops,
    contraction,
    downset,
    kpoly_from_mobius,
    mobius_to_top,
    mu_support,
    verify_deg_equals_neg_mobius,
    verify_matroid_mu_theorem,
)
from .subspaces import SubspaceConfig, linear_polymatroid, rank_of
from .schubert import (
    count_zero_one,
    divided_difference,
    grothendieck,
    grothendieck_via_stalactites,
    is_zero_one,
    isobaric_divided_difference,
    msupp_of_matrix_schubert,
    rothe_diagram,
)

__version__ = "0.1.0"
