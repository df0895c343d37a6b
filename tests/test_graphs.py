import itertools

import pytest
from fractions import Fraction

from isingcoupler.graphs import (
    Graph,
    GraphParseError,
    canonical_edge_mask,
    couplings,
    enumerate_labeled_graphs,
    pair_order,
    parse_edge_list,
    random_er_graph,
    read_fraction,
    relabelings,
    serialize_edge_list,
)


def test_parse_basic_path():
    g = parse_edge_list("n 3\n0 1\n1 2")
    assert g.n == 3
    assert g.edges == ((0, 1, Fraction(1)), (1, 2, Fraction(1)))


def test_parse_empty_graph():
    g = parse_edge_list("n 2")
    assert g.n == 2 and g.edges == ()


@pytest.mark.parametrize("text, weight", [
    ("n 2", Fraction(1)), ("n 3\n0 1 2/3\n1 2 2/3", Fraction(2, 3)), ("n 3\n0 1\n1 2 2", None),
], ids=["edgeless", "uniform", "mixed"])
def test_uniform_weight_is_the_common_weight_and_1_without_edges(text, weight):
    assert parse_edge_list(text).uniform_weight() == weight


def test_parse_rational_weight():
    g = parse_edge_list("n 3\n0 1 1/2")
    assert g.edges[0][2] == Fraction(1, 2)


def test_parse_decimal_weight_and_comments():
    g = parse_edge_list("# header comment\nn 4\n0 1 0.25  # trailing\n\n2 3 -3\n")
    assert g.edges == ((0, 1, Fraction(1, 4)), (2, 3, Fraction(-3)))


def test_parse_zero_weight_dropped():
    g = parse_edge_list("n 3\n0 1 0\n1 2")
    assert g.edges == ((1, 2, Fraction(1)),)
    assert g.m == 1


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("0 1\n", "header"),
        ("n 3\n0 0", "line 2: self-loop"),
        ("n 3\n0 5", "line 2"),
        ("n 3\n0 1\n1 0", "line 3: duplicate"),
        ("n 3\n0 1 x", "line 2: bad weight"),
        ("n 3\n0", "line 2"),
        ("n 0", "line 1"),
        ("n 3\na b", "line 2: bad vertex index"),
    ],
)
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(GraphParseError, match=fragment):
        parse_edge_list(text)


@pytest.mark.parametrize("literal", [
    "1e5000", "-1E+5000", "1e-5000", "1e4300", "0." + "0" * 4300 + "1", "1" * 4301,
    "1/" + "1" * 4301, "1e" + "1" * 4400])
def test_a_weight_beyond_the_digit_limit_is_a_bad_weight(literal):
    """A weight whose numerator or denominator would have more digits than
    Python converts to text is refused where it is read."""
    with pytest.raises(GraphParseError, match=r"^line 2: bad weight "):
        parse_edge_list(f"n 2\n0 1 {literal}\n")


def test_read_fraction_reads_1e400_and_the_largest_literals_within_the_limit():
    assert parse_edge_list("n 2\n0 1 1e400\n").edges[0][2] == 10**400
    assert read_fraction("1e4299") == 10**4299
    assert read_fraction("-25e-4298") == Fraction(-1, 4 * 10**4296)
    assert read_fraction("1" * 4300 + "/3") == Fraction(int("1" * 4300), 3)


def test_serialize_parse_round_trip():
    for seed in range(40):
        g = random_er_graph(6, 0.5, [1, 2, Fraction(1, 2), -3], seed=seed)
        assert parse_edge_list(serialize_edge_list(g)) == g


def test_couplings_path():
    g = parse_edge_list("n 3\n0 1\n1 2")
    assert pair_order(3) == [(0, 1), (0, 2), (1, 2)]
    assert couplings(g) == (Fraction(1), Fraction(0), Fraction(1))


def test_couplings_empty_and_complete():
    assert couplings(Graph(2, ())) == (Fraction(0),)
    assert couplings(Graph(1, ())) == ()
    assert couplings(Graph.complete(4)) == (Fraction(1),) * 6


def test_adjacency_invariants_fuzz():
    for seed in range(30):
        g = random_er_graph(7, 0.4, [1, 2, 3], seed=seed)
        b = couplings(g)
        assert len(b) == 21
        weight = {(u, v): z for u, v, z in g.edges}
        assert all(b_ij == weight.get(ij, 0) for ij, b_ij in zip(pair_order(7), b))
        assert sum(1 for b_ij in b if b_ij) == g.m


def test_random_er_extremes():
    assert random_er_graph(7, 0.0, [], seed=1).m == 0
    assert random_er_graph(7, 1.0, [], seed=1).m == 21


def test_random_er_weight_membership():
    allowed = {Fraction(1), Fraction(2), Fraction(3)}
    for seed in range(1000):
        g = random_er_graph(7, 0.5, [1, 2, 3], seed=seed)
        assert {z for _, _, z in g.edges} <= allowed


def test_random_er_deterministic():
    a = random_er_graph(8, 0.37, [1, 2], seed=123456789)
    b = random_er_graph(8, 0.37, [1, 2], seed=123456789)
    assert a == b
    c = random_er_graph(8, 0.37, [1, 2], seed=987654321)
    assert a != c  # overwhelmingly likely for distinct seeds


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1])
def test_random_er_refuses_seeds_outside_64_bits(seed):
    # wrapping would make 2^64 + 1 draw the graph of seed 1
    with pytest.raises(ValueError, match=r"outside \[0, 2\^64\)"):
        random_er_graph(4, 0.5, [], seed=seed)
    assert random_er_graph(4, 0.5, [], seed=2**64 - 1).n == 4


def test_random_er_validates_inputs():
    with pytest.raises(ValueError):
        random_er_graph(5, 1.5, [], seed=0)
    with pytest.raises(ValueError):
        random_er_graph(5, 0.5, [0], seed=0)
    with pytest.raises(ValueError):
        random_er_graph(0, 0.5, [], seed=0)


def test_enumerate_counts_n3():
    graphs = list(enumerate_labeled_graphs(3))
    assert len(graphs) == 8
    classes = list(enumerate_labeled_graphs(3, distinct_only=True))
    assert len(classes) == 4


def test_enumerate_counts_n4():
    assert len(list(enumerate_labeled_graphs(4))) == 64
    assert len(list(enumerate_labeled_graphs(4, distinct_only=True))) == 11


def test_enumerate_single_vertex():
    graphs = list(enumerate_labeled_graphs(1))
    assert len(graphs) == 1 and graphs[0].m == 0


def test_enumerate_guard():
    with pytest.raises(ValueError, match="too large"):
        next(enumerate_labeled_graphs(7))


def test_isomorphism_classes_match_networkx():
    nx = pytest.importorskip("networkx")
    for n, count in [(4, 11), (5, 34)]:
        reps = []
        for g in enumerate_labeled_graphs(n, distinct_only=True):
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from((u, v) for u, v, _ in g.edges)
            assert not any(nx.is_isomorphic(h, other) for other in reps)
            reps.append(h)
        assert len(reps) == count


def test_relabelings_match_a_direct_relabeling():
    for n in range(1, 7):
        perms, pair_maps = relabelings(n)
        assert [tuple(p) for p in perms] == list(itertools.permutations(range(n)))
        pairs = pair_order(n)
        for perm, pair_map in zip(perms, pair_maps):
            assert [pairs[k] for k in pair_map] == [
                tuple(sorted((perm[i], perm[j]))) for i, j in pairs]
        assert not perms.flags.writeable and not pair_maps.flags.writeable


def test_canonical_masks_at_n6_count_the_atlas_graphs():
    nx = pytest.importorskip("networkx")
    atlas = sum(1 for h in nx.graph_atlas_g() if h.number_of_nodes() == 6)
    assert atlas == 156
    assert len({canonical_edge_mask(mask, 6) for mask in range(1 << 15)}) == atlas


def test_canonical_mask_invariant_under_relabeling():
    pairs = list(itertools.combinations(range(4), 2))
    pair_index = {uv: i for i, uv in enumerate(pairs)}
    mask = 0b010011
    base = canonical_edge_mask(mask, 4)
    for perm in itertools.permutations(range(4)):
        relabeled = 0
        for bit, (u, v) in enumerate(pairs):
            if mask >> bit & 1:
                a, b = sorted((perm[u], perm[v]))
                relabeled |= 1 << pair_index[(a, b)]
        assert canonical_edge_mask(relabeled, 4) == base


@pytest.mark.parametrize("mask, n", [(1 << 10, 5), (-1, 3), (1 << 3, 3)])
def test_canonical_mask_outside_the_pair_bits_is_a_value_error(mask, n):
    with pytest.raises(ValueError, match="edge mask"):
        canonical_edge_mask(mask, n)


def test_graph_invariant_validation():
    with pytest.raises(ValueError, match="duplicate"):
        Graph(3, ((0, 1, Fraction(1)), (0, 1, Fraction(2))))
    with pytest.raises(ValueError, match="zero weight"):
        Graph(3, ((0, 1, Fraction(0)),))
    with pytest.raises(ValueError, match="u < v"):
        Graph(3, ((1, 0, Fraction(1)),))
