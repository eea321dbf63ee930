"""Exact Lefschetz fixed-point invariants of finite simple graphs.

Everything is computed over arbitrary-precision rationals: clique complexes,
simplicial cohomology, fixed-simplex indices, Lefschetz numbers by several
independent routes, automorphism averages and curvature, and dynamical zeta
functions with their orbit-census factorizations.
"""

from .complexes import CliqueComplex, Simplex, build_complex
from .cohomology import CochainSpaces
from .dynamics import (
    Attractor,
    BrouwerReport,
    FixedSimplexRecord,
    GraphMap,
    MapError,
    OrbitCensus,
    attractor,
    brouwer_check,
    fixed_index_sum,
    fixed_simplices,
    is_star_shaped,
    lefschetz_chain,
    lefschetz_cohomological,
    orbit_census,
    random_endomorphism,
    validate_map,
)
from .experiments import expectation_exhaustive, expectation_sampled
from .graphs import (
    Graph,
    GraphError,
    GraphFormatError,
    all_graphs,
    connected_components,
    disjoint_union,
    format_edge_list,
    graph_count,
    isomorphism_classes,
    named_graph,
    parse_edge_list,
    random_graph,
    read_graph,
)
from .linalg import SparseMatrix, rank
from .reporting import TheoremCheck, VerificationError
from .symmetry import (
    AutomorphismGroup,
    CurvatureTable,
    Orbigraph,
    SymmetryError,
    automorphism_group,
    average_lefschetz,
    lefschetz_curvature,
    lefschetz_multiset,
    orbigraph,
    verify_averaging_theorems,
)
from .zeta import (
    RationalFunctionZ,
    ZetaError,
    graph_zeta,
    zeta_det,
    zeta_product,
)

__version__ = "0.1.0"
