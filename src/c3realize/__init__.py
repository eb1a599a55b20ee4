"""Tournament realization of 3-uniform hypergraphs via modular decomposition.

The package decides whether a 3-uniform hypergraph is the 3-cycle structure
of some tournament, constructs, counts, and enumerates all such tournaments,
and exposes the module/quotient/decomposition-tree machinery it rests on,
for hypergraphs and tournaments alike.
"""

from .bitset import VertexSet
from .core import (
    Graph, Hypergraph, Tournament,
    c3_structure, critical_family, dual, induced_subhypergraph,
    is_linear_order, linear_order,
)
from .decomposition import (
    DecompositionTree, ModularPartition, TreeNode,
    LABEL_COMPLETE, LABEL_EMPTY, LABEL_LINEAR, LABEL_PRIME,
    components, decomposition_tree, is_module, is_prime, is_strong_module,
    maximal_proper_strong_modules, module_violation, quotient,
    smallest_strong_module_containing, strong_modules,
    tournament_decomposition_tree, tournament_is_module, tournament_is_prime,
    tournament_pi, tournament_quotient, tournament_strong_modules,
)
from .errors import C3RealizeError, CapacityError, InvariantError, ParseError, PreconditionError
from .io import (
    dump_hypergraph, dump_tournament, hypergraph_to_json,
    parse_hypergraph, parse_tournament, tournament_to_json,
)
from .oracle import (
    AxiomReport, all_tournaments, brute_force_realizations,
    check_covering_axioms, check_partitive, enumerate_modules,
    enumerate_usual_modules, hypergraph_isomorphism, is_usual_module,
    random_hypergraph, random_tournament, tournament_modules,
)
from .realization import (
    ExtensionCertificate, NonRealizabilityWitness, RealizationChoice,
    choice_to_tournament, count_realizations, default_choice,
    enumerate_realizations, extend_realization, extension_certificate,
    realize, realize_critical, realize_prime,
)

__version__ = "0.1.0"
