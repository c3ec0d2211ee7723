"""Inversion tables: plain ones for permutation matrices and generalized
ones for (neutral matrix, charge) pairs.

For a permutation matrix, entry ``a_i`` of the inversion table is the
number of 1s below row ``n+1-i`` and left of that row's 1, so that
``0 <= a_i <= i-1``, ``r = a_n`` and ``i = a_1 + ... + a_n``.

A pair (N, E) with opening row ``n+1-k`` is encoded as
``(k; a_1..a_n; b, beta)`` where each ``a_i`` is the signed entry sum
below row ``n+1-i`` and left of the row's unique 1 (the *leftmost* 1 for
the closing row, i = k-1), ``b = c(N)`` and ``beta = E + ell(N)``.  A
sequence of non-negative integers arises this way exactly when

1. ``3 <= k <= n``;
2. ``0 <= a_i <= i-1`` for all i;
3. ``a_{k-1} < a_k``;
4. ``a_{k-1} + beta < a_k + b <= k-2``;

and the pair is then unique; :func:`table_valid` returns a table that
meets them and raises :class:`InvalidTable` on any other.
Complementing both halves of the encoding (table duality) corresponds
to vertical reflection of the matrix.

Both kinds of table are read and written on lists of columns, never on
dense rows.  A table is read by ``matrix._walk``, the south-west walk
that also counts ``i``, over the sparse view of the matrix (a
permutation has no extra pair): bottom-up, keeping the sorted columns
whose entries below the row sum to 1, so each ``a_i`` is a ``bisect``.
Decoding reads rows top-down, keeping the sorted columns with no 1 above
the row, so each ``a_i`` pops the row's column.  ``matrix._write``
writes a permutation (through ``matrix.perm_matrix``) or a one-minus
matrix, checking it on its view rather than on the dense rows.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections import Counter
from dataclasses import dataclass
from math import comb, factorial
from typing import NamedTuple, Sequence

from .cells import _cells
from .errors import InternalInvariantViolation, InvalidTable, ParseError
from .matrix import _INT_ONLY, AsmMatrix, _check_text, _text_ints, _walk, _write, json_int, perm_matrix, perm_one_line
from .neutral import NeutralPair, _checked


class ParamVector(NamedTuple):
    """The five statistics (r, i, E, B, J) read off an encoding."""

    r: int
    i: int
    e: int
    b: int
    j: int


# ---------------------------------------------------------------------------
# plain inversion tables for permutation matrices


def perm_table(p: AsmMatrix) -> tuple[int, ...]:
    """Inversion table of a permutation matrix; raises
    :class:`BadArgument` on a matrix with a -1.

    >>> from asmc.matrix import perm_matrix
    >>> perm_table(perm_matrix([3, 2, 1]))
    (0, 1, 2)
    """
    return _walk(perm_one_line(p))[0]


def perm_from_table(a: Sequence[int]) -> AsmMatrix:
    """Permutation matrix with inversion table ``a``; inverse of
    :func:`perm_table`.  Raises :class:`InvalidTable` condition 0 on an
    argument that is not a sequence, and condition 2 on an entry that is
    not an ``int`` in ``[0, i-1]``."""
    try:
        a = tuple(a)
    except TypeError as exc:
        raise InvalidTable(0, f"expected a sequence of entries, got {type(a).__name__}") from exc
    n = len(a)
    for i, v in enumerate(a, start=1):
        if type(v) is not int:
            raise InvalidTable(2, f"a_{i}={v!r} is not an integer")
        if not 0 <= v <= i - 1:
            raise InvalidTable(2, f"a_{i}={v} outside [0, {i - 1}]")
    free = list(range(1, n + 1))  # the columns with no 1 above the row
    return perm_matrix([free.pop(v) for v in reversed(a)])


# ---------------------------------------------------------------------------
# generalized inversion tables


@dataclass(frozen=True)
class GenInvTable:
    """The encoding ``(k; a_1..a_n; b, beta)`` of a neutral pair.

    Instances are plain records, a list ``a`` frozen as a tuple;
    :func:`table_valid` returns one that meets the characterization,
    marked so that it is not checked again, and raises on any other.
    """

    k: int
    a: tuple[int, ...]
    b: int
    beta: int

    def __post_init__(self):
        if isinstance(self.a, list):  # frozen as a tuple
            object.__setattr__(self, "a", tuple(self.a))

    @property
    def n(self) -> int:
        return len(self.a)

    def to_text(self) -> str:
        return f"{self.k}; {' '.join(str(v) for v in self.a)}; {self.b} {self.beta}"

    def to_json(self) -> dict:
        return {"k": self.k, "a": list(self.a), "b": self.b, "beta": self.beta}


def table_from_text(text: str) -> GenInvTable:
    """Parse ``"k; a1 a2 ... an; b beta"``."""
    _check_text(text)
    parts = [p.strip() for p in text.strip().split(";")]
    if len(parts) != 3:
        raise ParseError("table text must have three ';'-separated fields")
    try:
        (k,) = _text_ints(parts[0])
        a = tuple(_text_ints(parts[1]))
        b, beta = _text_ints(parts[2])
    except ValueError as exc:
        raise ParseError(f"cannot parse table {text!r}") from exc
    return GenInvTable(k=k, a=a, b=b, beta=beta)


def table_from_json(obj: dict) -> GenInvTable:
    try:
        return GenInvTable(
            k=json_int(obj["k"], "k"),
            a=tuple(json_int(v, "entry of a") for v in obj["a"]),
            b=json_int(obj["b"], "b"),
            beta=json_int(obj["beta"], "beta"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"table JSON needs k, a, b, beta: {exc}") from exc


def table_valid(t: GenInvTable) -> GenInvTable:
    """Return ``t`` if it meets the four characterization conditions;
    raise :class:`InvalidTable` with the first that fails as
    ``.condition``.  Condition 0 flags an argument that is not a
    :class:`GenInvTable`, an ``a`` that is not a tuple and entries that
    are not non-negative ``int``.

    A table that passes is marked (``_valid``, outside the dataclass
    fields) and returned at once when checked again: its fields then hold
    only ``int`` values and a tuple of them, so nothing can change under
    the mark.

    >>> table_valid(GenInvTable(k=3, a=(0, 0, 1), b=0, beta=0))
    GenInvTable(k=3, a=(0, 0, 1), b=0, beta=0)
    >>> table_valid(GenInvTable(k=3, a=(0, 1, 1), b=0, beta=0))
    Traceback (most recent call last):
    asmc.errors.InvalidTable: condition 3: a_2=1 not < a_3=1
    """
    if not isinstance(t, GenInvTable):
        raise InvalidTable(0, f"expected a GenInvTable, got {type(t).__name__}")
    if "_valid" in t.__dict__:
        return t
    if not isinstance(t.a, tuple):
        raise InvalidTable(0, f"a must be a tuple, got {type(t.a).__name__}")
    n = t.n
    if not (type(t.k) is int and type(t.b) is int and type(t.beta) is int
            and _INT_ONLY.issuperset(map(type, t.a))):
        raise InvalidTable(0, "entries must be integers")
    if t.b < 0 or t.beta < 0 or any(v < 0 for v in t.a):
        raise InvalidTable(0, "entries must be non-negative")
    if not 3 <= t.k <= n:
        raise InvalidTable(1, f"k={t.k} outside [3, {n}]")
    for i, v in enumerate(t.a, start=1):
        if v > i - 1:
            raise InvalidTable(2, f"a_{i}={v} exceeds {i - 1}")
    ak1, ak = t.a[t.k - 2], t.a[t.k - 1]
    if not ak1 < ak:
        raise InvalidTable(3, f"a_{t.k - 1}={ak1} not < a_{t.k}={ak}")
    if not ak1 + t.beta < ak + t.b:
        raise InvalidTable(4, f"a_{t.k - 1}+beta={ak1 + t.beta} not < a_{t.k}+b={ak + t.b}")
    if not ak + t.b <= t.k - 2:
        raise InvalidTable(4, f"a_{t.k}+b={ak + t.b} exceeds k-2={t.k - 2}")
    object.__setattr__(t, "_valid", True)
    return t


def gen_table(pair: NeutralPair) -> GenInvTable:
    """Generalized inversion table of a neutral pair; :func:`_walk` reads
    ``a_{k-1}`` at the left 1 of the closing row.  The table is kept on
    the pair (``_table``, by the keep rule of ``asmc.cells``)."""
    t = _checked(pair).__dict__.get("_table")
    if t is not None:
        return t
    cells = _cells(pair.matrix)
    sums = cells.sums
    a = _walk(*cells.view)[0]
    k = len(cells.first) + 1 - cells.geometry.opening_row
    try:
        t = table_valid(GenInvTable(k=k, a=a, b=sums.c, beta=pair.charge + sums.ell))
    except InvalidTable as exc:
        raise InternalInvariantViolation(f"encoded table is invalid: {exc}") from exc
    object.__setattr__(pair, "_table", t)
    return t


def pair_from_table(t: GenInvTable) -> NeutralPair:
    """Rebuild the unique neutral pair with table ``t``.

    The sparse view is read row by row from the top, keeping the sorted
    columns with no 1 above the row: each table entry counts those left of
    the row's (leftmost) 1, which it pops.  On the closing row the -1
    frees the opening column again, and the closing 1 takes the free
    column that leaves ``b`` of them strictly between the two.  The one
    writer, ``matrix._write``, checks the view and writes the matrix.  The
    pair does not keep ``t``: :func:`gen_table` of it reads the table
    afresh.
    """
    table_valid(t)
    opening_row = t.n + 1 - t.k
    closing_row = opening_row + 1  # its entry a_{k-1} places the left 1
    entries = t.a[::-1]  # top row first
    free = list(range(1, t.n + 1))
    first = [free.pop(v) for v in entries[:closing_row]]
    opening_col = first[opening_row - 1]
    insort(free, opening_col)
    closing_col = free.pop(bisect_right(free, opening_col) + t.b)
    first += [free.pop(v) for v in entries[closing_row:]]
    charge = _block_charges(t.a[t.k - 2], t.a[t.k - 1], t.b, t.beta)[0]
    return NeutralPair(_write(tuple(first), ((closing_row, opening_col, closing_col),)), charge)


def _block_charges(ak1: int, ak: int, b: int, beta: int) -> tuple[int, int, int]:
    """(E, B, J) of a table with ``a_{k-1} = ak1``, ``a_k = ak`` and the
    given ``b`` and ``beta``: no other entry enters them."""
    return ak1 + beta + 1 - ak, b - beta, ak - ak1 + b


def table_params(t: GenInvTable) -> ParamVector:
    """Read the five statistics straight off a table."""
    table_valid(t)
    return ParamVector(
        t.a[-1], sum(t.a) + t.b + 1, *_block_charges(t.a[t.k - 2], t.a[t.k - 1], t.b, t.beta)
    )


def _table_space_distribution(n: int, keys: tuple[str, ...]) -> tuple[dict, int]:
    """Count the valid order-n tables per tuple of the statistics ``keys``
    (names from r, s, i, E, B, J, checked by the caller), as read by
    :func:`table_params`; ``s`` is 1 on every table.  Returns
    ``(joint, width)``: ``joint`` maps ``(r, s, E, B, J)`` to the packed
    i-polynomial of those tables (``enumeration._unpack``), a statistic
    not asked for staying 0, and ``width`` is the bits per coefficient: 0
    when i is not asked for, which sets q = 1 and makes every polynomial
    a plain count.

    For each k the entries ``a_i``, i not in {k-1, k}, range freely over
    [0, i-1] (condition 2), so they give the product of the ``[i]_q``;
    ``a_n`` gives r and ``q^r`` unless k = n.  Conditions 3-4 couple only
    the block ``(a_{k-1}, a_k, b, beta)``.  Write ``t = a_{k-1}`` and
    ``d = a_k - t``: then ``E = beta+1-d``, ``B = b-beta`` and
    ``J = d+b``, so (E, B, J) fixes (d, b, beta), which range over
    ``1 <= d <= J``, ``b = J-d`` and ``0 <= beta < J``.  The block adds
    ``2t + J + 1`` to i, and condition 4 leaves ``0 <= t <= k-2-J``, so
    the sum over ``a_{k-1}`` is ``q^(J+1) [k-1-J]_{q^2}``: the same for
    every (d, beta).  Summed over k, ``G_J = sum_k F_k [k-1-J]_{q^2}``
    (``F_k`` the free product) obeys ``G_J = S_{J+2} + q^2 G_{J+1}`` with
    ``S_m`` the sum of ``F_k`` over ``k >= m``, so the whole sum takes
    O(n) polynomial operations and O(n^3) charge tuples.  When r is asked
    for, k = n is summed apart, as there ``r = a_n = t + d``.
    """
    if n < 3:
        return {}, 0
    want_r, want_e, want_b, want_j = (key in keys for key in ("r", "E", "B", "J"))
    width = _width(factorial(n) * comb(n, 3) // 6) if "i" in keys else 0
    last = n - want_r  # the sum over k runs over 3..last
    prefix = [1]  # prefix[j] = [1]_q ... [j]_q
    for i in range(1, n - 1):
        prefix.append(prefix[-1] * _q_int(i, width))
    suffix = [1] * (last + 2)  # suffix[j] = [j]_q ... [last]_q, read at j >= 4
    for i in range(last, 3, -1):
        suffix[i] = suffix[i + 1] * _q_int(i, width)
    joint: dict = {}

    def add(r: int, charges: Counter, j: int, poly: int) -> None:
        for (e, b), count in charges.items():
            key = r, 1, e, b, j * want_j
            joint[key] = joint.get(key, 0) + poly * count

    def projected(j: int, ds) -> Counter:
        """The (E, B) values of the blocks with this J and d in ``ds``,
        0 where not asked for."""
        return Counter(
            ((beta + 1 - d) * want_e, (j - d - beta) * want_b) for d in ds for beta in range(j)
        )

    total = series = 0
    for j in range(last - 2, 0, -1):
        total += prefix[j] * suffix[j + 3]  # k = j + 2 joins the sum
        series = total + (series << 2 * width)
        charges = projected(j, range(1, j + 1))
        for r in range(n) if want_r else (0,):
            add(r, charges, j, series << width * (j + 1 + r))
    if want_r:  # k = n: a_n = a_{n-1} + d
        for j in range(1, n - 1):
            for d in range(1, j + 1):
                charges = projected(j, (d,))
                for t in range(n - 1 - j):
                    add(t + d, charges, j, prefix[n - 2] << width * (j + 1 + 2 * t))
    return joint, width


def _width(bound: int) -> int:
    """Bits per coefficient of a packed polynomial whose coefficients are
    at most ``bound``: one more than its bit length."""
    return bound.bit_length() + 1


def _q_int(m: int, width: int) -> int:
    """``[m]_q = 1 + q + ... + q^(m-1)`` packed at ``width``; with width 0
    (q = 1), the count m."""
    return sum(1 << width * j for j in range(m))


def dual_table(t: GenInvTable) -> GenInvTable:
    """Table-level duality, matching vertical reflection of the matrix.

    Complements every ``a_i`` except at position k-1, which pairs with
    the closing data instead; an involution on valid tables.
    """
    table_valid(t)
    ak1, ak = t.a[t.k - 2], t.a[t.k - 1]
    abar = [i - 1 - v for i, v in enumerate(t.a, start=1)]
    abar[t.k - 2] = t.k - 2 - ak - t.b
    try:
        return table_valid(GenInvTable(
            k=t.k,
            a=tuple(abar),
            b=ak - 1 - ak1,
            beta=ak + t.b - ak1 - t.beta - 1,
        ))
    except InvalidTable as exc:
        raise InternalInvariantViolation(f"dual table is invalid: {exc}") from exc
