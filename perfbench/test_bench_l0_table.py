"""The frozen L0 table that worstcase_l0 checks against, cross-checked once
against scipy's MILP solver on the same big-M model."""

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

import workloads


def test_table_holds_every_class_and_the_known_worst_cases(pkg):
    table = workloads.frozen()["l0"]
    for n in workloads.L0_SIZES:
        classes = {workloads.edge_key(workloads.normalized_edges(g.edges))
                   for g in pkg.graphs.enumerate_labeled_graphs(n, distinct_only=True)}
        assert set(table[str(n)]) == classes
    assert [max(table[str(n)].values()) for n in workloads.L0_SIZES] == [2, 5, 6]
    assert sum(len(table[str(n)]) for n in workloads.L0_SIZES) == 49


def milp_l0(n, pairs):
    """Fewest canonical rows realizing an unweighted graph with every
    |strength| <= M, M the number of edges (1 for none): the model solve_l0
    uses by default."""
    edges = set(pairs)
    all_pairs, q = workloads.canonical_signs(n)
    k = q.shape[1]
    big_m = max(1, len(edges))
    b = np.array([1.0 if p in edges else 0.0 for p in all_pairs])
    eye = np.eye(k)
    # variables: strengths W (k), activations z (k); |W_r| <= M z_r
    constraints = [
        LinearConstraint(np.hstack([q, np.zeros((len(all_pairs), k))]), b, b),
        LinearConstraint(np.hstack([eye, -big_m * eye]), -np.inf, 0.0),
        LinearConstraint(np.hstack([-eye, -big_m * eye]), -np.inf, 0.0),
    ]
    res = milp(np.concatenate([np.zeros(k), np.ones(k)]), constraints=constraints,
               integrality=np.concatenate([np.zeros(k), np.ones(k)]),
               bounds=Bounds(np.concatenate([-big_m * np.ones(k), np.zeros(k)]),
                             np.concatenate([big_m * np.ones(k), np.ones(k)])))
    assert res.status == 0, res.message
    return round(res.fun)


@pytest.mark.parametrize("n", workloads.L0_SIZES)
def test_table_matches_milp(n):
    for key, l0 in workloads.frozen()["l0"][str(n)].items():
        pairs = [tuple(map(int, e.split("-"))) for e in key.split(",") if e]
        assert milp_l0(n, pairs) == l0, key
