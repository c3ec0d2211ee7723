"""Exhaustive generation of alternating sign matrices for small orders, and
exact counts of their statistics.

Matrices are grown row by row.  The running column sums of a partial ASM
always lie in {0, 1}, and a row may place a 1 only on a column with
running sum 0 and a -1 only on a column with running sum 1, its own
nonzero entries alternating +1, -1, ..., +1.  This prunes the search to
exactly the valid matrices and yields them in row-lexicographic order
(entries compared as integers, so -1 < 0 < 1).

The stream is deterministic; totals can be cross-checked against the
closed product formula prod_{k<n} (3k+1)!/(n+k)!.

:func:`distribution` counts without building a matrix.  Over r, s and i
it runs a transfer count on the same column-sum states: each admissible
row also records the column of its first 1 and the inversions it makes
with the rows above, whose column sums are the state's bits.  A key
among E, B and J restricts the count to one-minus matrices, which it
sums over the space of generalized inversion tables instead
(:mod:`asmc.inv_table`).  The enumeration stays the oracle that both
counts are tested against.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import factorial
from typing import Iterator, Sequence

from .cells import SignClass, sign_class
from .errors import BadArgument, CapExceeded
from .inv_table import _table_space_distribution
from .matrix import AsmMatrix

DEFAULT_CAP = 7

DISTRIBUTION_KEYS = ("r", "s", "i", "E", "B", "J")


def formula_count(n: int) -> int:
    """Closed-form number of order-n alternating sign matrices; raises
    :class:`BadArgument` on an order that is not a non-negative ``int``."""
    if type(n) is not int or n < 0:
        raise BadArgument(f"order must be a non-negative int, got {n!r}")
    num = den = 1
    for k in range(n):
        num *= factorial(3 * k + 1)
        den *= factorial(n + k)
    if num % den:
        raise ArithmeticError("product formula did not divide evenly")
    return num // den


@lru_cache(maxsize=None)
def _row_moves(n: int, state: int) -> tuple[tuple[tuple[int, ...], int, int, int, int], ...]:
    """All admissible next rows for a column-sum bitmask, in lexicographic
    order, as (row, new_state, minus_count, first_one, inversions) tuples.

    ``first_one`` is the 0-based column of the row's first 1 and
    ``inversions`` the row's share of the inversion number: each entry
    times the column sums above it and strictly to its right.
    """
    out = []
    row = [0] * n
    right = [(state >> (col + 1)).bit_count() for col in range(n)]

    def rec(col: int, parity: int, flip: int, minuses: int, inv: int) -> None:
        if col == n:
            if parity == 1:  # nonzeros alternate +1,-1,...,+1
                out.append((tuple(row), state ^ flip, minuses, row.index(1), inv))
            return
        bit = (state >> col) & 1
        if parity == 1 and bit:
            row[col] = -1
            rec(col + 1, 0, flip | (1 << col), minuses + 1, inv - right[col])
            row[col] = 0
        rec(col + 1, parity, flip, minuses, inv)
        if parity == 0 and not bit:
            row[col] = 1
            rec(col + 1, 1, flip | (1 << col), minuses, inv + right[col])
            row[col] = 0

    rec(0, 0, 0, 0, 0)
    return tuple(out)


def _check_order(n: int, cap: int | None, s: int | None = None) -> None:
    if type(n) is not int:
        raise BadArgument(f"order must be an int, got {n!r}")
    if s is not None and type(s) is not int:
        raise BadArgument(f"s must be an int, got {s!r}")
    if n < 1:
        raise BadArgument(f"order must be >= 1, got {n}")
    if cap is not None and n > cap:
        raise CapExceeded(n, cap)


def enumerate_asm(
    n: int,
    s: int | None = None,
    sign: SignClass | None = None,
    cap: int | None = DEFAULT_CAP,
) -> Iterator[AsmMatrix]:
    """Yield every order-n ASM exactly once, in row-lexicographic order.

    ``s`` restricts to matrices with that many -1 entries; ``sign``
    (which requires ``s=1``) restricts to one sign class.  Orders above
    ``cap`` raise :class:`CapExceeded`, eagerly.
    """
    _check_order(n, cap, s)
    if sign is not None and s != 1:
        raise BadArgument("a sign-class filter requires s=1")
    return _generate(n, s, sign)


def _generate(n: int, s: int | None, sign: SignClass | None) -> Iterator[AsmMatrix]:
    def walk(state: int, depth: int, rows: list, minuses: int) -> Iterator[AsmMatrix]:
        if depth == n:
            if s is None or minuses == s:
                m = AsmMatrix(tuple(rows))
                if sign is None or sign_class(m) is sign:
                    yield m
            return
        for row, new_state, mm, _, _ in _row_moves(n, state):
            if s is not None and minuses + mm > s:
                continue
            rows.append(row)
            yield from walk(new_state, depth + 1, rows, minuses + mm)
            rows.pop()

    return walk(0, 0, [], 0)


def distribution(
    n: int,
    keys: Sequence[str],
    cap: int | None = DEFAULT_CAP,
) -> Counter:
    """Count matrices per tuple of statistic values.

    ``keys`` is a subset of r, s, i, E, B, J (in the order the result
    tuples use them).  Requesting any of E/B/J restricts the count to
    matrices with exactly one -1, where those statistics live.
    """
    keys = tuple(keys)
    for key in keys:
        if key not in DISTRIBUTION_KEYS:
            raise BadArgument(f"unknown statistic {key!r}; pick from {DISTRIBUTION_KEYS}")
    if not keys:
        raise BadArgument("at least one statistic is required")
    _check_order(n, cap)
    if any(k in ("E", "B", "J") for k in keys):
        return _table_space_distribution(n, keys)
    return _transfer_distribution(n, keys)


def _transfer_distribution(n: int, keys: tuple[str, ...]) -> Counter:
    """:func:`distribution` over r, s and i, by a transfer count.

    Going up from the bottom row, each column-sum state (whose depth is
    its number of set bits) gets the counts of the (s, i) values of the
    rows that can complete it; a statistic not asked for stays 0.  The
    first row, whose 1 gives r, is added last.
    """
    track_s, track_i = "s" in keys, "i" in keys
    below = {(1 << n) - 1: {(0, 0): 1}}
    for depth in range(n - 1, 0, -1):
        layer = {}
        for state in range(1 << n):
            if state.bit_count() != depth:
                continue
            counts: Counter = Counter()
            for _, new_state, minuses, _, inv in _row_moves(n, state):
                ds, di = minuses * track_s, inv * track_i
                for (s, i), count in below[new_state].items():
                    counts[s + ds, i + di] += count
            layer[state] = counts
        below = layer
    out: Counter = Counter()
    for _, new_state, _, r, _ in _row_moves(n, 0):
        for (s, i), count in below[new_state].items():
            values = {"r": r, "s": s, "i": i}
            out[tuple(values[k] for k in keys)] += count
    return out
