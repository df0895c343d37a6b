import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from isingcoupler.graphs import Graph, couplings, integer_units, pair_order, parse_edge_list
from isingcoupler.pulses import (
    PulseSequence,
    canonicalize,
    evaluate,
    sequence_from_json,
    sequence_to_json,
    verify,
)
from isingcoupler.rng import SplitMix64

PATH3 = parse_edge_list("n 3\n0 1\n1 2")


def random_sequence(n, k, seed):
    rng = SplitMix64(seed)
    pairs = []
    for _ in range(k):
        mask = rng.next_index(1 << n)
        w = Fraction(rng.next_index(9) - 4, rng.next_index(4) + 1)
        pairs.append((mask, w))
    return PulseSequence.from_pairs(n, pairs)


def brute_force_coupling(seq):
    """Pair vector from the sign vectors: sum_p w_p * s_p[i] * s_p[j]."""
    signs = [[-1 if mask >> q & 1 else 1 for q in range(seq.n)] for mask in seq.rows]
    return tuple(
        sum((w * s[i] * s[j] for s, w in zip(signs, seq.strengths)), Fraction(0))
        for i, j in pair_order(seq.n)
    )


def compose(a, b):
    """The sequence that runs a's rows, then b's."""
    return PulseSequence(a.n, a.rows + b.rows, a.strengths + b.strengths)


def test_evaluate_two_row_path_solution():
    seq = PulseSequence.from_pairs(
        3, [(0b000, Fraction(1, 2)), (0b010, Fraction(-1, 2))]
    )
    assert evaluate(seq) == couplings(PATH3)


def test_evaluate_single_uniform_row_gives_complete_graph():
    seq = PulseSequence.from_pairs(3, [(0b000, 1)])
    assert evaluate(seq) == couplings(Graph.complete(3))


def test_evaluate_matches_double_loop_oracle():
    for seed in range(25):
        seq = random_sequence(5, 6, seed)
        assert evaluate(seq) == brute_force_coupling(seq)


def fraction_evaluate(seq):
    """The couplings summed in Fractions, one signed term per row."""
    rows = list(zip(seq.rows, seq.strengths))
    return tuple(
        sum((w * (-1 if (mask >> i ^ mask >> j) & 1 else 1) for mask, w in rows), Fraction(0))
        for i, j in pair_order(seq.n)
    )


def test_integer_evaluate_matches_fraction_sums():
    for seed in range(40):
        rng = SplitMix64(seed)
        n = 2 + rng.next_index(6)
        pairs = [(rng.next_index(1 << n),
                  Fraction(rng.next_index(41) - 20, (1, 2, 3, 7, 12, 35)[rng.next_index(6)]))
                 for _ in range(rng.next_index(9))]
        seq = PulseSequence.from_pairs(n, pairs)
        assert evaluate(seq) == fraction_evaluate(seq)
    huge = PulseSequence.from_pairs(4, [(0b0010, Fraction("1e400")), (0b0110, Fraction(-1, 3)),
                                        (0b0000, Fraction(5, 6))])
    assert evaluate(huge) == fraction_evaluate(huge)
    assert evaluate(huge)[0] == -Fraction(10**400) + Fraction(1, 3) + Fraction(5, 6)  # pair (0, 1)
    for n in (1, 2, 5):
        assert evaluate(PulseSequence.empty(n)) == (Fraction(0),) * (n * (n - 1) // 2)


def test_verify_path_solution():
    seq = PulseSequence.from_pairs(
        3, [(0b000, Fraction(1, 2)), (0b010, Fraction(-1, 2))]
    )
    assert verify(seq, PATH3)
    assert not verify(seq, Graph.complete(3))


def test_verify_dimension_mismatch():
    seq = PulseSequence.from_pairs(2, [(0b00, 1)])
    with pytest.raises(ValueError, match="qubits"):
        verify(seq, PATH3)


def test_compose_identity_and_additivity():
    empty = PulseSequence.empty(4)
    assert evaluate(empty) == (Fraction(0),) * 6
    for seed in range(15):
        a = random_sequence(4, 3, seed)
        b = random_sequence(4, 4, seed + 1000)
        assert evaluate(compose(a, empty)) == evaluate(a)
        total = evaluate(compose(a, b))
        assert total == tuple(x + y for x, y in zip(evaluate(a), evaluate(b)))


def test_compose_appendix_style_single_rows():
    c1 = PulseSequence.from_pairs(3, [(0b000, Fraction(1, 2))])
    c2 = PulseSequence.from_pairs(3, [(0b010, Fraction(-1, 2))])
    assert evaluate(compose(c1, c2)) == couplings(PATH3)


def test_canonicalize_opposite_rows_merge_preserving_evaluate():
    # A row and its complement contribute identically, so equal strengths add.
    r = 0b010
    neg = 0b101
    seq = PulseSequence.from_pairs(3, [(r, Fraction(1)), (neg, Fraction(1))])
    out = canonicalize(seq)
    assert out.l0 == 1
    assert out.strengths == (Fraction(2),)
    assert evaluate(out) == evaluate(seq)


def test_canonicalize_cancellation():
    r = 0b010
    neg = 0b101
    seq = PulseSequence.from_pairs(3, [(r, Fraction(1)), (neg, Fraction(-1))])
    out = canonicalize(seq)
    assert out.l0 == 0 and out.rows == ()
    assert evaluate(out) == evaluate(seq)


def test_canonicalize_merges_equal_rows():
    seq = PulseSequence.from_pairs(
        3, [(0b000, Fraction(1, 4)), (0b000, Fraction(1, 4))]
    )
    out = canonicalize(seq)
    assert out.l0 == 1
    assert out.strengths == (Fraction(1, 2),)


def test_canonicalize_preserves_evaluate_and_shrinks():
    for seed in range(30):
        seq = random_sequence(5, 8, seed)
        out = canonicalize(seq)
        assert evaluate(out) == evaluate(seq)
        assert out.l0 <= seq.l0
        assert out.l1 <= seq.l1
        assert canonicalize(out) == out  # idempotent
        for row, w in zip(out.rows, out.strengths):
            assert row & 1 == 0
            assert w != 0
        assert len(set(out.rows)) == out.l0


def test_evaluate_invariances():
    base = random_sequence(4, 5, 7)
    value = evaluate(base)
    # row permutation
    perm = PulseSequence(
        4, tuple(reversed(base.rows)), tuple(reversed(base.strengths))
    )
    assert evaluate(perm) == value
    # complementing a row
    rows = list(base.rows)
    rows[2] ^= 0b1111
    assert evaluate(PulseSequence(4, tuple(rows), base.strengths)) == value
    # appending a zero-strength row
    extended = compose(base, PulseSequence.from_pairs(4, [(0b0000, 0)]))
    assert evaluate(extended) == value


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), st.lists(st.tuples(
    st.integers(0, (1 << n) - 1),
    st.fractions(min_value=-4, max_value=4, max_denominator=6)), max_size=6))))
@settings(max_examples=200, deadline=None)
def test_evaluate_matches_the_sign_vector_oracle_on_random_masks(case):
    n, pairs = case
    seq = PulseSequence.from_pairs(n, pairs)
    got = evaluate(seq)
    assert got == brute_force_coupling(seq)
    out = canonicalize(seq)
    assert all(row & 1 == 0 for row in out.rows)
    assert evaluate(out) == got


def fraction_canonicalize(seq):
    """The canonical (row, strength) pairs merged in Fractions: rows with
    bit 0 set complemented, equal rows summed in first-seen order, zeros
    dropped."""
    full = (1 << seq.n) - 1
    merged = {}
    for mask, w in zip(seq.rows, seq.strengths):
        key = mask ^ full if mask & 1 else mask
        merged[key] = merged.get(key, Fraction(0)) + w
    return [(mask, w) for mask, w in merged.items() if w]


strengths = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
    st.sampled_from([Fraction(10**400), Fraction(-(10**400), 3), Fraction(1, 10**400)]))


@st.composite
def cancelling_sequences(draw):
    """Rows of mixed denominators, some followed later by their complement
    (or themselves) with the opposite strength, so that they cancel."""
    n = draw(st.integers(1, 6))
    full = (1 << n) - 1
    pairs = draw(st.lists(st.tuples(st.integers(0, full), strengths), max_size=8))
    for mask, w in draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []:
        pairs.append((mask ^ full if draw(st.booleans()) else mask, -w))
    return n, pairs


@given(cancelling_sequences())
@example((3, []))
@example((2, [(1, Fraction(10**400)), (2, Fraction(-(10**400))), (0, Fraction(1, 6))]))
@settings(max_examples=200, deadline=None)
def test_integer_units_and_canonicalize_match_the_fraction_reference(case):
    """integer_units gives each value as an integer over the least common
    denominator d (its gcd with d and all the integers is 1), and
    canonicalize gives the rows and strengths of the Fraction merge."""
    n, pairs = case
    values = [w for _, w in pairs]
    ints, d = integer_units(values)
    assert [Fraction(x, d) for x in ints] == values and math.gcd(d, *ints) == 1
    seq = PulseSequence.from_pairs(n, pairs)
    out = canonicalize(seq)
    assert list(zip(out.rows, out.strengths)) == fraction_canonicalize(seq)
    assert all(type(w) is Fraction for w in out.strengths)


@pytest.mark.parametrize("n", [1, 3, 5])
def test_rows_are_masks_in_0_to_2_to_the_n(n):
    PulseSequence.from_pairs(n, [(0, 1), ((1 << n) - 1, 1)])
    for mask in (-1, 1 << n):
        with pytest.raises(ValueError, match="mask"):
            PulseSequence(n, (mask,), (Fraction(1),))


def test_sequence_json_round_trip():
    seq = random_sequence(5, 6, 42)
    text = sequence_to_json(seq)
    obj = json.loads(text)
    assert obj["n"] == 5
    assert all(set(op["mask"]) <= {"+", "-"} for op in obj["ops"])
    assert sequence_from_json(text) == seq


def test_sequence_json_schema_shape():
    seq = PulseSequence.from_pairs(3, [(0b010, Fraction(-1, 2))])
    obj = json.loads(sequence_to_json(seq))
    assert obj == {"n": 3, "ops": [{"mask": "+-+", "w": "-1/2"}]}


def test_sequence_json_rejects_bad_mask():
    with pytest.raises(ValueError):
        sequence_from_json('{"n": 3, "ops": [{"mask": "+-", "w": "1"}]}')


# test_cli.py covers a zero denominator, a top-level list, an integer mask
# and a string n through `verify`
@pytest.mark.parametrize("text", [
    '{"n": 3, "ops": [{"mask": "+-+"}]}',
    '{"n": 3, "ops": [{"mask": "+-+", "w": Infinity}]}',
    '{"n": 3, "ops": [{"mask": "+-+", "w": -Infinity}]}',
    '{"n": 3, "ops": [{"mask": "+-+", "w": NaN}]}',
    '{"n": 3, "ops": 5}',
    '{"n": 0, "ops": []}',
    '{"n": 3, "ops": [[]]}',
], ids=["missing-w", "infinite-w", "minus-infinite-w", "nan-w", "ops-not-a-list", "zero-n",
        "op-not-an-object"])
def test_sequence_json_rejects_malformed_input_with_value_error(text):
    with pytest.raises(ValueError):
        sequence_from_json(text)


@pytest.mark.parametrize("w", ["1e5000", "1e-5000", "0." + "0" * 4300 + "1", True, False],
                         ids=["1e5000", "1e-5000", "long-decimal", "true", "false"])
def test_sequence_json_refuses_a_strength_beyond_the_digit_limit_or_a_boolean(w):
    """A strength whose numerator or denominator would pass Python's digit
    limit for integer text, and a JSON boolean, are bad strengths."""
    with pytest.raises(ValueError, match="bad strength"):
        sequence_from_json(json.dumps({"n": 2, "ops": [{"mask": "+-", "w": w}]}))


@pytest.mark.parametrize("literal, strength", [
    ("0.1", Fraction(1, 10)), ("-0.25", Fraction(-1, 4)), ("3", Fraction(3)),
    ("1e-400", Fraction(1, 10**400)), ("1e400", Fraction(10**400)),
])
def test_sequence_json_reads_a_json_number_strength_exactly(literal, strength):
    """A strength written as a JSON number is read_fraction of its literal,
    as one written as a string is: no float is built."""
    seq = sequence_from_json('{"n": 2, "ops": [{"mask": "+-", "w": %s}]}' % literal)
    assert seq.strengths == (strength,) and type(seq.strengths[0]) is Fraction


def test_sequence_json_reads_a_strength_of_1e400():
    seq = sequence_from_json('{"n": 2, "ops": [{"mask": "+-", "w": "1e400"}]}')
    assert seq.strengths == (Fraction(10**400),)


def test_sequence_json_reads_the_sequence_of_an_optimizer_result():
    seq = PulseSequence.from_pairs(3, [(0b010, Fraction(-1, 2)), (0, 2)])
    doc = {"status": "optimal", "objective": "5/2", "sequence": json.loads(sequence_to_json(seq)),
           "wall_time_ms": 12.345}  # a float of the document, not of the sequence
    assert sequence_from_json(json.dumps(doc)) == seq


def test_sequence_validation():
    with pytest.raises(ValueError):
        PulseSequence(2, (0b100,), (Fraction(1),))
    with pytest.raises(ValueError):
        PulseSequence(2, (0b11,), ())
