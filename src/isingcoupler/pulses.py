"""The compiled program model: flip masks, Ising strengths, and their algebra.

A pulse sequence is an ordered list of (row, strength) pairs.  A row is an
n-bit flip mask: bit i is set when qubit i is conjugated by bit flips around
one application of the global Ising operation.  The strength is the rational
coefficient of that application.  The sequence realizes, for every qubit
pair i < j, the coupling sum_p w_p * coupling_sign(row_p, i, j), where the
sign is -1 when the row flips exactly one of qubits i and j.  ``evaluate``
returns these couplings as one tuple in ``graphs.pair_order(n)``, the same
pair vector ``graphs.couplings`` gives for a target graph.  Rows may be
permuted, or complemented (XOR with the all-ones mask), without changing the
result.

The JSON format writes a row as n characters, '-' for a flipped qubit and
'+' otherwise; those strings exist only in sequence_to_json and
sequence_from_json.  A strength ``w`` is written as a string, and may be
read from a string or a JSON number: ``graphs.read_fraction`` reads both
exactly, so ``0.1`` and ``"0.1"`` are the same strength 1/10.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .graphs import Graph, couplings, integer_units, pair_order, read_fraction


@dataclass(frozen=True)
class PulseSequence:
    """Ordered (row mask, strength) pairs over n qubits.

    L0 counts rows, L1 sums absolute strengths.  A canonical sequence
    (see canonicalize) has bit 0 clear in every row, no repeated rows, and
    no zero strengths.
    """

    n: int
    rows: tuple[int, ...]
    strengths: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.rows) != len(self.strengths):
            raise ValueError("rows and strengths must have equal length")
        if any(not 0 <= r < 1 << self.n for r in self.rows):
            raise ValueError(f"every row must be a mask in [0, 2**{self.n})")

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, object]]) -> "PulseSequence":
        """Build from (mask, strength) pairs; strengths may be anything
        Fraction() accepts."""
        pairs = list(pairs)
        return cls(n, tuple(m for m, _ in pairs), tuple(Fraction(w) for _, w in pairs))

    @classmethod
    def empty(cls, n: int) -> "PulseSequence":
        return cls(n, (), ())

    @property
    def l0(self) -> int:
        return len(self.rows)

    @property
    def l1(self) -> Fraction:
        return sum((abs(w) for w in self.strengths), Fraction(0))


def coupling_sign(mask: int, i: int, j: int) -> int:
    """Sign a row adds to the (i, j) coupling: -1 when the row flips exactly
    one of qubits i and j, else +1."""
    return -1 if (mask >> i ^ mask >> j) & 1 else 1


def evaluate(seq: PulseSequence) -> tuple[Fraction, ...]:
    """Couplings realized by the sequence, one per pair in pair_order(n),
    in exact arithmetic: the strengths' ``integer_units`` sum as integers,
    and each pair makes one Fraction."""
    counts, denom = integer_units(seq.strengths)
    rows = list(zip(seq.rows, counts))
    return tuple(
        Fraction(sum(w * coupling_sign(mask, i, j) for mask, w in rows), denom)
        for i, j in pair_order(seq.n)
    )


def verify(seq: PulseSequence, g: Graph) -> bool:
    """True iff the sequence realizes exactly the graph's couplings."""
    if seq.n != g.n:
        raise ValueError(f"sequence on {seq.n} qubits vs graph on {g.n} vertices")
    return evaluate(seq) == couplings(g)


def merge_rows(n: int, rows: Iterable[tuple[int, int]], unit) -> PulseSequence:
    """The canonical sequence of the (mask, count) rows, each of strength
    count * unit.  Complementing a row leaves the realized coupling
    unchanged, so every row with bit 0 set is first XORed with the all-ones
    mask; rows then equal are merged, in first-seen order, by summing their
    integer counts, and rows whose merged count is zero are removed."""
    full = (1 << n) - 1
    merged: dict[int, int] = {}
    for mask, count in rows:
        key = mask ^ full if mask & 1 else mask
        merged[key] = merged.get(key, 0) + count
    kept = [(mask, count) for mask, count in merged.items() if count]
    return PulseSequence(n, tuple(mask for mask, _ in kept),
                         tuple(count * unit for _, count in kept))


def canonicalize(seq: PulseSequence) -> PulseSequence:
    """Normalize rows, merge equal rows, and drop zero strengths: the
    strengths' ``integer_units`` through ``merge_rows``, in units of 1/d.
    The realized coupling is preserved; L0 and L1 never increase."""
    counts, d = integer_units(seq.strengths)
    return merge_rows(seq.n, zip(seq.rows, counts), Fraction(1, d))


def sequence_to_json(seq: PulseSequence) -> str:
    ops = [
        {"mask": "".join("-" if mask >> i & 1 else "+" for i in range(seq.n)), "w": str(w)}
        for mask, w in zip(seq.rows, seq.strengths)
    ]
    return json.dumps({"n": seq.n, "ops": ops})


def sequence_from_json(text: str) -> PulseSequence:
    """Parse a pulse file, or an ``optimize --out`` result holding one under
    "sequence"; ValueError for anything malformed."""
    # every number is exact: no float is built, so NaN and Infinity are refused
    obj = json.loads(text, parse_float=read_fraction, parse_constant=read_fraction)
    if isinstance(obj, dict) and "sequence" in obj:
        obj = obj["sequence"]
    if not isinstance(obj, dict) or not isinstance(obj.get("ops"), list):
        raise ValueError('expected an object with an "ops" list')
    n = obj.get("n")
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    rows, strengths = [], []
    for op in obj["ops"]:
        mask, w = (op.get("mask"), op.get("w")) if isinstance(op, dict) else (None, None)
        if not isinstance(mask, str) or len(mask) != n or any(ch not in "+-" for ch in mask):
            raise ValueError(f"bad mask {mask!r} for n={n}")
        rows.append(sum(1 << i for i, ch in enumerate(mask) if ch == "-"))
        try:
            if isinstance(w, bool):  # JSON true is not the strength 1
                raise TypeError
            strengths.append(read_fraction(w) if isinstance(w, str) else Fraction(w))
        except (TypeError, ValueError, ZeroDivisionError):
            raise ValueError(f"bad strength {w!r}") from None
    return PulseSequence(n, tuple(rows), tuple(strengths))
