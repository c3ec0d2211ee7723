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
(:mod:`asmc.inv_table`), in closed form per value of J.  The enumeration
stays the oracle that both counts are tested against.

Both counts carry the distribution of i as one packed ``int``, the
q-counting of Mills, Robbins and Rumsey (1983): the coefficient of
``q^i`` sits in bits ``[width*i, width*(i+1))``, where ``width`` is one
bit more than the bit length of a bound on every coefficient
(``formula_count(n)`` for the transfer count, ``n! C(n,3)/6`` for the
table space).  Multiplying by ``q^m`` is then
a left shift by ``width*m`` and adding two distributions is ``+``, both
in C; :func:`_unpack` reads the coefficients into the result once.  When
i is not asked for, width is 0: q = 1 and every polynomial is a count.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import factorial, prod
from operator import itemgetter
from typing import Iterator, Sequence

from .cells import SignClass, sign_class
from .errors import BadArgument, CapExceeded
from .inv_table import _table_space_distribution, _width
from .matrix import AsmMatrix

DEFAULT_CAP = 7

DISTRIBUTION_KEYS = ("r", "s", "i", "E", "B", "J")

# the most keys a distribution may predict; see distribution
MAX_DISTRIBUTION_KEYS = 10**7

# the most column-sum states (2^n at order n) the transfer count may visit
MAX_TRANSFER_STATES = 2**12

# coefficients per chunk of a packed polynomial; see _unpack
_CHUNK = 64


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
    if cap is not None and type(cap) is not int:
        raise BadArgument(f"cap must be an int or None, got {cap!r}")
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
    if sign is not None and not isinstance(sign, SignClass):
        raise BadArgument(f"sign must be a SignClass, got {sign!r}")
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
    matrices with exactly one -1, where those statistics live.  A request
    whose predicted number of keys (the product of the value ranges of
    the statistics asked for) exceeds ``MAX_DISTRIBUTION_KEYS``, or one
    with no charge key at an order whose ``2^n`` column-sum states exceed
    ``MAX_TRANSFER_STATES``, raises :class:`BadArgument` before any
    counting.

    >>> sorted(distribution(4, ["r"]).items())
    [((0,), 7), ((1,), 14), ((2,), 14), ((3,), 7)]
    >>> sorted(distribution(4, ["E", "B"]).items())
    [((-1, 0), 2), ((0, -1), 2), ((0, 0), 8), ((0, 1), 2), ((1, 0), 2)]
    >>> sum(distribution(4, ["J"]).values())
    16
    """
    try:
        keys = tuple(keys)
    except TypeError as exc:
        raise BadArgument(f"expected a sequence of statistics, got {type(keys).__name__}") from exc
    for key in keys:
        if key not in DISTRIBUTION_KEYS:
            raise BadArgument(f"unknown statistic {key!r}; pick from {DISTRIBUTION_KEYS}")
    if not keys:
        raise BadArgument("at least one statistic is required")
    _check_order(n, cap)
    predicted = _predicted_keys(n, keys)
    if predicted > MAX_DISTRIBUTION_KEYS:
        raise BadArgument(
            f"distribution({n}, {keys}) predicts {predicted} keys, over {MAX_DISTRIBUTION_KEYS}"
        )
    charged = any(k in ("E", "B", "J") for k in keys)
    if not charged and 1 << n > MAX_TRANSFER_STATES:
        raise BadArgument(
            f"distribution({n}, {keys}) walks 2^{n} column-sum states, over {MAX_TRANSFER_STATES}"
        )
    engine = _table_space_distribution if charged else _transfer_distribution
    return _unpack(*engine(n, keys), keys)


def _predicted_keys(n: int, keys: tuple[str, ...]) -> int:
    """A bound on the number of keys :func:`distribution` returns: the
    product of the value ranges of the distinct statistics asked for,
    s being 1 under a charge key.  Over order-n ASMs r lies in [0, n-1],
    s in [0, (n-1)^2/4] and i in [0, C(n,2)]; over one-minus ones E and B
    lie in [3-n, n-3] and J in [1, n-2]."""
    charged = any(k in ("E", "B", "J") for k in keys)
    sizes = {
        "r": n,
        "s": 1 if charged else (n - 1) ** 2 // 4 + 1,
        "i": n * (n - 1) // 2 + 1,
        "E": 2 * n - 5,
        "B": 2 * n - 5,
        "J": n - 2,
    }
    return prod(max(sizes[k], 0) for k in set(keys))


def _unpack(joint: dict, width: int, keys: tuple[str, ...]) -> Counter:
    """The result of :func:`distribution` from an engine's ``joint``, which
    maps ``(r, s, E, B, J)`` to the packed i-polynomial: the coefficient
    of ``q^i`` sits in bits ``[width*i, width*(i+1))``, and with width 0
    the polynomial is a plain count at i = 0.

    The engines leave 0 in every statistic not asked for, so no two
    coefficients land on one key.  A polynomial is cut into chunks of
    ``_CHUNK`` coefficients and each chunk into coefficients by shifts,
    which keeps the work linear in its length; zero coefficients add no
    key."""
    at = [DISTRIBUTION_KEYS.index(k) for k in keys]
    pick = itemgetter(*at) if len(at) > 1 else itemgetter(slice(at[0], at[0] + 1))
    out: Counter = Counter()
    if not width:
        for (r, s, e, b, j), count in joint.items():
            out[pick((r, s, 0, e, b, j))] = count
        return out
    mask, chunk_mask = (1 << width) - 1, (1 << _CHUNK * width) - 1
    for (r, s, e, b, j), packed in joint.items():
        base = 0
        while packed:
            part, packed, i = packed & chunk_mask, packed >> _CHUNK * width, base
            while part:
                count = part & mask
                if count:
                    out[pick((r, s, i, e, b, j))] = count
                part >>= width
                i += 1
            base += _CHUNK
    return out


def _transfer_distribution(n: int, keys: tuple[str, ...]) -> tuple[dict, int]:
    """The ``(joint, width)`` of :func:`distribution` over r, s and i (see
    :func:`_unpack`), by a transfer count.

    Going up from the bottom row, each column-sum state (whose depth is
    its number of set bits) gets, per value of s, the packed i-polynomial
    of the rows that can complete it; s stays 0 when not asked for, and
    width is 0 when i is not, which makes each polynomial a count.  A
    row's inversion share is never negative (each -1 pairs with the 1 to
    its left, which has at least as many column sums to its right), so it
    is a left shift.  The first row, whose 1 gives r, is added last.
    """
    want_r, track_s = "r" in keys, "s" in keys
    width = _width(formula_count(n)) if "i" in keys else 0
    below = {(1 << n) - 1: {0: 1}}
    for depth in range(n - 1, 0, -1):
        layer = {}
        for state in range(1 << n):
            if state.bit_count() != depth:
                continue
            polys: dict = {}
            for _, new_state, minuses, _, inv in _row_moves(n, state):
                ds, shift = minuses * track_s, inv * width
                for s, packed in below[new_state].items():
                    polys[s + ds] = polys.get(s + ds, 0) + (packed << shift)
            layer[state] = polys
        below = layer
    joint: dict = {}
    for _, new_state, _, r, _ in _row_moves(n, 0):
        for s, packed in below[new_state].items():
            key = r * want_r, s, 0, 0, 0
            joint[key] = joint.get(key, 0) + packed
    return joint, width
