"""Group-theoretic chirality testing for coset incidence systems.

Decides whether the coset incidence system associated to a group with an
ordered independent generating set is a chiral hypertope, using double-coset
conditions on the parabolic subgroups, and cross-validates the decision
against a brute-force incidence-graph oracle.
"""

from .permcore import (
    DEFAULT_ELEMENT_CAP,
    GroupTooLargeError,
    PermGroup,
    Permutation,
    RightCoset,
    compose_actions,
    conjugation_table,
    double_coset_decomposition,
    extends_on_indices,
    extends_to_homomorphism,
    generate_group,
    generated_indices,
    inverse_action,
    product_set,
    right_coset,
    right_coset_decomposition,
    subgroup_intersection,
)
from .cosetgeo import CosetGeometry, IncidenceView, build
from .cplus import (
    CHIRAL,
    NOT_HYPERTOPE,
    REGULAR,
    ChiralityReport,
    CPlusSystem,
    associated_geometry,
    build_cplus,
    check_ic_plus,
    condition_i,
    condition_ii,
    condition_iii,
    condition_iv,
    is_chiral_hypertope,
    is_independent_generating_set,
    two_orbit_decomposition,
)
from .oracle import (
    build_incidence_graph,
    chambers_via_maximal_cliques,
    chirality_bruteforce,
)

__version__ = "0.1.0"
