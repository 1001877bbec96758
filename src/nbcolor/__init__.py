"""Neighborhood-balanced k-colorings of graphs.

A coloring of a graph with colors 1..k is *neighborhood-balanced* when every
vertex sees every color equally often among its neighbors.  This package
provides exact verification, arithmetic impossibility screens, constructive
generators for the families known to admit such colorings, composition
operations (products, joins, unions, embeddings), an exact backtracking
solver with CNF export, and the NP-hardness reduction from equal-sum
subsets, all behind one CLI (``nbcolor``).

Submodules load on first use.  Importing the package registers each of them
in ``sys.modules`` without running it, and a public name such as
``nbcolor.solve`` runs its home module the first time it is read, so a CLI
command executes only the modules it needs.  The package binds no such name
itself: each read looks it up in its home module.  ``_EXPORTS`` is the one
list of public names: each submodule's ``__all__`` is its row of it.

Before Python 3.12.3, ``importlib.util.LazyLoader`` takes no lock, so the
first use of each submodule is not thread-safe there: two threads that read
names of one not-yet-run submodule at the same moment can run it twice, with
two distinct copies of its classes.  On those versions, read the names a
threaded program needs before it starts its threads.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# The home module of every public name; each submodule's __all__ reads its row.
_EXPORTS = {
    "balance": (
        "BalanceReport", "Coloring", "NecessityReport", "Refusal", "RegularityChecks",
        "check_necessary", "cyclic_shift", "divisor_recolor", "is_closed_nbkc",
        "is_nbkc", "permute_colors", "signed_color_value", "weight",
    ),
    "cnf": ("CnfDocument", "to_cnf"),
    "families": (
        "CirculantSpec", "HammingSpec", "circulant_progression_nbc",
        "circulant_residue_nbc", "complete_graph_nbc", "complete_multipartite_nbc",
        "cycle_nbc", "hamming_nbc", "hypercube_nbc",
    ),
    "graph": (
        "Graph", "complete_graph", "complete_multipartite_graph", "cycle_graph",
        "induced_subgraph",
    ),
    "io": (
        "ParseError", "coloring_from_text", "coloring_to_text", "graph_from_text",
        "graph_to_text", "report_to_json", "roles_from_text", "roles_to_text", "to_dot",
    ),
    "products": (
        "VertexPairIndex", "cartesian_product", "direct_product", "embed_in_nbkc",
        "join_graph", "join_nbc", "lexicographic_product", "product_graph",
        "product_nbc", "strong_product", "vertex_addition",
    ),
    "reduction": (
        "EssInstance", "FlawedGadget", "HouseGadget", "HousePlacement",
        "ReductionInstance", "UnbalancedColoring", "decode", "decode_from_roles",
        "ess_brute_force", "flawed_gadget", "house", "house_scheme_coloring",
        "reduce_ess_to_nbc",
    ),
    "solver": ("SolveConfig", "SolveOutcome", "brute_force", "count_colorings", "solve"),
    "unions": (
        "CongruenceReport", "UnionSpec", "cycle_union_nbc", "is_ideal_dependent_set",
        "union_congruence", "union_nbc_independent", "union_over_set",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def _register_lazily(name: str):
    """Put submodule ``name`` in ``sys.modules``; it runs on first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


for _module in _EXPORTS:
    globals()[_module] = _register_lazily(_module)
del _module


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[home], name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
