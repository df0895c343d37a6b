"""Compile target ZZ-coupling graphs into global-Ising pulse sequences.

The package synthesizes sequences of global Ising operations plus per-qubit
bit-flip masks that realize an arbitrary weighted coupling graph, offers
provably bounded constructions and exact small-instance optimization, a
hardware execution-time model, and a noisy Max-Cut QAOA simulator for
comparing compilations.
"""

from .graphs import (
    AdjacencyMatrix,
    Graph,
    GraphParseError,
    canonical_edge_mask,
    enumerate_labeled_graphs,
    graph_from_json,
    graph_to_json,
    parse_edge_list,
    random_er_graph,
    serialize_edge_list,
    to_adjacency,
)
from .pulses import (
    FlipRow,
    PulseSequence,
    canonicalize,
    compose,
    evaluate,
    sequence_from_json,
    sequence_to_json,
    verify,
)
from .constructions import (
    Biclique,
    Star,
    biclique_sequence,
    greedy_star_order,
    lower_bound,
    star_decomposition,
    union_of_stars,
    weighted_edge_by_edge,
)
from .exactopt import OptResult, solve_l0, solve_l1
from .timing import TimingParams, estimate_time_us
from .qaoa import (
    NoiseSpec,
    apply_depolarizing,
    build_cost_operator,
    maxcut_brute_force,
    optimize_angles,
    simulate_qaoa_p1,
    simulate_qaoa_p1_statevector,
)

__version__ = "0.1.0"
