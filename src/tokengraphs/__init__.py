"""Token graphs: construction, exact matching and independence numbers,
constructive witnesses, and closed-form verification at desk scale."""

from .budget import Budget, BudgetExceededError
from .constructions import (
    cycle_independent_set,
    cycle_layer,
    isolated_tokens,
    theorem1_matching,
    witness_graph,
)
from .formulas import (
    beta_balanced_family,
    beta_cycle_f2,
    class_order_predicate,
    nu_token_formula,
    r_value,
)
from .graphs import (
    Bipartition,
    Graph,
    GraphError,
    bipartition_of,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    delete_vertices,
    erdos_renyi,
    family,
    make_graph,
    matching_graph,
    parse_edge_list_text,
    path_graph,
    star_graph,
    to_dot,
    to_edge_list_text,
)
from .independence import (
    IndependentSet,
    beta_via_saturation,
    brute_force_mis,
    independence_number,
    max_independent_set,
    token_independence_number,
)
from .matching import (
    Matching,
    MatchingError,
    brute_force_nu,
    hall_witness,
    max_matching,
)
from .reports import VerificationReport, reports_to_csv, reports_to_json
from .tokens import (
    SubsetCodec,
    TokenGraph,
    subset_label,
    token_bipartition,
    token_graph,
    token_graph_to_dot,
    token_graph_to_json,
)
from .verify import (
    CHECKS,
    BoundsPair,
    OeisCheck,
    oeis_check,
    recursive_bounds,
    run_check,
)

__version__ = "0.1.0"
