"""Oriented-graph colouring toolkit.

Exact small-instance oracles, the greedy distance-2 colourer with its
degeneracy bound, probabilistically sampled complete multipartite targets,
closed-form genus bounds, and the reduce-discharge-colour pipeline for
graphs on surfaces.
"""

from .bounds import (
    bounds_table,
    chi_lower_bound,
    chi_upper_bound,
    clique_order_threshold,
    extremal_clique_order,
    genus_upper_from_edges,
    lambert_w0,
    order_upper_from_min_degree,
    surface_parameters,
)
from .dipath import (
    DipathColouring,
    greedy_two_dipath,
    is_valid_two_dipath,
    surface_two_dipath,
    two_dipath_palette_bound,
)
from .errors import OrichromeError
from .generate import (
    all_oriented_graphs,
    all_tournaments,
    directed_cycle,
    generate,
    planar_sparse_graph,
    random_oriented_graph,
    random_orientation,
    random_tournament,
    stacked_triangulation,
    toroidal_grid,
    toroidal_grid_graph,
    transitive_tournament,
)
from .graphs import (
    OrientedGraph,
    SimpleGraph,
    VertexOrdering,
    back_degrees,
    degeneracy_ordering,
    directed_square,
    graph_from_json,
    graph_to_json,
    is_oriented_clique,
    parse_edge_list,
    serialize_edge_list,
)
from .oracles import (
    SolveResult,
    chromatic_number,
    exact_oriented_chromatic,
    exact_two_dipath,
    min_edge_oriented_clique,
    validate_homomorphism,
)
from .pipeline import (
    PipelineResult,
    ReductionResult,
    colour_surface_graph,
    discharge_check,
    reduce_graph,
)
from .rng import SplitMix64, derive_seed
from .targets import (
    FailureWitness,
    FullTarget,
    LazyTarget,
    RestrictedTarget,
    cyclic_k66_target,
    failure_probability_bound,
    minimal_full_N,
    sample_full,
    verify_full,
)

__version__ = "0.1.0"
