"""Subgraph matching/enumeration: patterns, plans, codegen, cliques, triangles."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "backtrack": ("MatchStats", "count_matches", "find_matches", "match"),
    "cliques": (
        "count_k_cliques", "k_cliques", "maximal_cliques", "maximal_quasi_cliques",
        "maximum_clique",
    ),
    "codegen": (
        "compile_matcher", "compiled_count", "generate_source", "prepare_adjacency",
    ),
    "pattern": (
        "PatternGraph", "automorphisms", "clique_pattern", "cycle_pattern",
        "diamond_pattern", "house_pattern", "path_pattern", "star_pattern",
        "symmetry_breaking_restrictions", "tailed_triangle_pattern", "triangle_pattern",
    ),
    "plan": ("GraphStats", "MatchingPlan", "Planner", "connected_orders"),
    "densest": ("densest_subgraph", "density"),
    "filtering": ("FilterStats", "build_candidates", "filtered_match"),
    "triangles": ("triangle_count", "triangle_count_with_work", "triangle_list"),
    "truss": ("k_truss", "max_truss", "truss_numbers"),
})
