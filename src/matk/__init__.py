"""matk: exact computation in the cohomology of moment-angle complexes."""

from .errors import MatkError
from .exactalg import GF, QQ, ZZ, AbelianGroup, Ring
from .simplicial import (
    SimplicialComplex,
    VertexMap,
    contract_edge,
    full_subcomplex,
    join,
    link,
    link_condition,
    star,
    star_delete,
    stellar_subdivide,
)
from .cochains import Chain, Cochain, boundary, coboundary, cup_multiply, evaluate, reduced_cohomology
from .hochster import CohomologyClass, hochster_decompose, moment_angle_cw_oracle, product_in_hochster
from .massey import (
    DefiningSystem,
    MasseyVerdict,
    associated_cocycle,
    check_defining_system,
    enumerate_defining_systems,
    triple_massey_decide,
)
from .constructions import (
    JoinMasseySpec,
    canonical_defining_system_joins,
    construct_massey_complex,
    disjointify_defining_system,
    pullback_class,
    pullback_defining_system,
    pushforward_phi_star,
    witness_cycle,
)
from .nestohedra import (
    BuildingSet,
    graphical_building_set,
    nested_set_complex,
    standard_polytope_complex,
    validate_building_set,
)

__version__ = "0.1.0"
