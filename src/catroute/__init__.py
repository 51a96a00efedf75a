"""Category systems over connected graphs that make local greedy routing work.

The package builds category systems whose membership-count distance lets a
purely local greedy rule deliver every message, verifies the structural
properties behind that guarantee by brute force at desk scale, and ships a
seeded benchmark workbench and CLI around it all.
"""

from .bench import bench_one, run_benchmark
from .categories import (
    CategorySystem,
    category_distance,
    membership_dimension,
    parse_categories,
    serialize_categories,
)
from .checks import (
    PropertyReport,
    check_implications,
    is_internally_connected,
    is_shattered,
    route_statistics,
    verify_all_pairs_routing,
)
from .construct import (
    binary_tree_categories,
    construct_categories,
    embed_into_binary,
    graph_categories,
    path_categories,
    tree_categories,
)
from .errors import (
    DisconnectedGraphError,
    GenerationError,
    InternalCheckError,
    ParseError,
    ValidationError,
)
from .fixtures import counterexample_cycle, impossibility_pair, run_fixtures
from .generators import GeneratorSpec, generate
from .graph import (
    Graph,
    RootedTree,
    bfs_distances,
    bfs_spanning_tree,
    choose_root,
    diameter,
    is_connected,
    is_path,
    is_tree,
    parse_edge_list,
    serialize_edge_list,
)
from .routing import format_trace, greedy_route, greedy_step

__version__ = "0.1.0"

__all__ = [
    "CategorySystem",
    "DisconnectedGraphError",
    "GenerationError",
    "GeneratorSpec",
    "Graph",
    "InternalCheckError",
    "ParseError",
    "PropertyReport",
    "RootedTree",
    "ValidationError",
    "bench_one",
    "bfs_distances",
    "bfs_spanning_tree",
    "binary_tree_categories",
    "category_distance",
    "check_implications",
    "choose_root",
    "construct_categories",
    "counterexample_cycle",
    "diameter",
    "embed_into_binary",
    "format_trace",
    "generate",
    "graph_categories",
    "greedy_route",
    "greedy_step",
    "impossibility_pair",
    "is_connected",
    "is_internally_connected",
    "is_path",
    "is_shattered",
    "is_tree",
    "membership_dimension",
    "parse_categories",
    "parse_edge_list",
    "path_categories",
    "route_statistics",
    "run_benchmark",
    "run_fixtures",
    "serialize_categories",
    "serialize_edge_list",
    "tree_categories",
    "verify_all_pairs_routing",
]
