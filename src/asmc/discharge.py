"""Discharging: from a non-negative one-minus ASM to a permutation matrix
plus bookkeeping, and back.

The partial discharge runs four steps on a positive or neutral matrix:

1. erase the -1 and the closing 1;
2. horizontal displacement of the extended closing cell (the closing
   cell plus the parts of the opening and closing columns below the
   closing row);
3. vertical displacement of the extended neutral cell (the neutral cell
   plus the left-side parts of the opening and closing rows);
4. lower the 1s inside the extended neutral and the charged cells by
   one row.

The result is a permutation matrix whose rows 1..k (k = opening row)
agree with the input.  Together with k, the closing-cell sum and the
electric charge it forms a 4-tuple that determines the input uniquely;
``recharge`` rebuilds the matrix by reversing the steps.

For neutral inputs steps 3 and 4 cancel; the implementation still runs
all four steps so there is a single code path to verify.

After step 1 every row holds one 1, so the steps act on the list of the
n 1s of the matrix as ``(row, column)`` points, and end on the one-line
word of the permutation; each step is linear in n.  Those points are the
``first`` of the matrix's points form (see ``matrix.AsmMatrix``), so
step 1 scans no row, and recharging ends on the points form of the
matrix it rebuilds (:func:`_recharge`), which ``neutral`` works on
without writing it.  Only a matrix that is returned is built, by
``matrix.perm_matrix`` or ``cells._write``, which check it on its
points and keep them; neither writes the rows until they are read.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .cells import SignClass, _Cells, _cells, _write
from .displacement import Point, Region, _displace
from .errors import (
    BadArgument,
    InternalInvariantViolation,
    InvalidTuple,
    NegativeClass,
)
from .matrix import AsmMatrix, _PointsForm, perm_matrix, perm_one_line


@dataclass(frozen=True)
class DischargeTuple:
    """(k, P, c, E): opening row, discharged permutation matrix,
    closing-cell sum and electric charge.

    Instances are plain records; :func:`tuple_valid` returns one that
    lies in the image of :func:`discharge` and raises on any other.
    """

    opening_row: int
    perm: AsmMatrix
    closing_sum: int
    charge: int

    def to_json(self) -> dict:
        from .matrix import matrix_to_json

        return {
            "k": self.opening_row,
            "P": matrix_to_json(self.perm),
            "c": self.closing_sum,
            "E": self.charge,
        }


def tuple_from_json(obj: dict) -> DischargeTuple:
    from .errors import ParseError
    from .matrix import json_int, matrix_from_json

    try:
        return DischargeTuple(
            opening_row=json_int(obj["k"], "k"),
            perm=matrix_from_json(obj["P"]),
            closing_sum=json_int(obj["c"], "c"),
            charge=json_int(obj["E"], "E"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"discharge tuple JSON needs integer k, c, E and matrix P: {exc}") from exc


def right_side_sum(perm: AsmMatrix, k: int) -> int:
    """Number of 1s strictly below row ``k`` and strictly right of the
    column of row ``k``'s 1 (the quantity written ``x``)."""
    return _right_side(perm_one_line(perm), k)


def _right_side(word: tuple[int, ...], k: int) -> int:
    j = word[k - 1]
    return sum(1 for col in word[k:] if col > j)


def _non_negative(a: AsmMatrix) -> _Cells:
    """The cells of ``a``, after checking that ``a`` is not negative."""
    cells = _cells(a)
    if cells.sign is SignClass.NEGATIVE:
        raise NegativeClass("discharging is defined on non-negative matrices; reflect first")
    return cells


def partial_discharge(a: AsmMatrix) -> AsmMatrix:
    """Run the four discharge steps; returns a permutation matrix."""
    return perm_matrix(_discharge_word(_non_negative(a)))


def _erase(cells: _Cells) -> list[Point]:
    """Step 1: erase the -1 and the closing 1.  What is left is the first
    1 of every row (the left 1 on the closing row)."""
    return list(enumerate(cells.first, start=1))


def _discharge_word(cells: _Cells) -> tuple[int, ...]:
    """The four steps on the 1s of the matrix with these cells; returns
    the one-line word of the permutation matrix they leave."""
    g = cells.geometry
    n = len(cells.first)
    points = _erase(cells)

    # step 2: shift the extended closing cell right
    closing_cell = Region(g.closing_row + 1, n, g.opening_col, g.closing_col)
    points = _displace(points, closing_cell, columns=True, inverse=False)

    # step 3: shift the extended neutral cell up
    neutral_cell = Region(g.opening_row, g.closing_row, 1, g.opening_col - 1)
    points = _displace(points, neutral_cell, columns=False, inverse=False)

    # step 4: lower the 1s of the extended neutral and charged cells
    top, bottom, j0 = g.opening_row, g.closing_row, g.opening_col
    moves = sorted((i, j) for i, j in points if top <= i <= bottom and j < j0)
    moves += sorted((i, j) for i, j in points if top < i < bottom and j > j0)
    moved = set(moves)
    points = [p for p in points if p not in moved]
    staying = set(points)
    for i, j in moves:
        if (i + 1, j) in staying:
            raise InternalInvariantViolation(f"lowering collided at ({i + 1},{j})")
        points.append((i + 1, j))

    points.sort()
    word = tuple([j for _, j in points])  # final length, as in validate_asm
    lines = list(range(1, n + 1))
    if [i for i, _ in points] != lines or sorted(word) != lines:
        raise InternalInvariantViolation("discharge did not produce a permutation matrix")
    return word


def _partial_discharge_neutral_shortcut(a: AsmMatrix) -> AsmMatrix:
    """Steps 1-2 only; valid for neutral inputs, where steps 3-4 cancel.

    Kept as an independent oracle for the full four-step path.
    """
    cells = _cells(a)
    if cells.sign is not SignClass.NEUTRAL:
        raise NegativeClass("shortcut applies to neutral matrices only")
    g = cells.geometry
    closing_cell = Region(g.closing_row + 1, a.n, g.opening_col, g.closing_col)
    cols = dict(_displace(_erase(cells), closing_cell, columns=True, inverse=False))
    return perm_matrix([cols.get(q) for q in range(1, a.n + 1)])


def discharge(a: AsmMatrix) -> DischargeTuple:
    """Full discharge: ``(k, partial_discharge(a), c, E)``."""
    cells = _non_negative(a)
    return DischargeTuple(
        opening_row=cells.geometry.opening_row,
        perm=perm_matrix(_discharge_word(cells)),
        closing_sum=cells.sums.c,
        charge=cells.e,
    )


def _word(perm: AsmMatrix) -> tuple[int, ...] | None:
    """The one-line word of ``perm``, or None if it is not a permutation
    matrix."""
    try:
        return perm_one_line(perm)
    except BadArgument:
        return None


def tuple_valid(t: DischargeTuple) -> DischargeTuple:
    """Return ``t`` if it meets the four membership conditions; raise
    :class:`InvalidTuple` with the first that fails as ``.condition``.

    1. ``1 <= k <= n-2``;
    2. the matrix component is a permutation matrix;
    3. row k's 1 lies strictly right of row k+1's 1;
    4. ``c >= 0``, ``E >= 0`` and ``c + E < x``.

    Condition 0 flags an argument that is not a :class:`DischargeTuple`,
    a k, c or E that is not an ``int`` and a matrix component that is not
    an :class:`AsmMatrix`.
    """
    _word_valid(*_fields(t))
    return t


def _fields(t: DischargeTuple) -> tuple[int, tuple[int, ...] | None, int, int, int]:
    """``(n, word of P, k, c, E)``, the arguments of :func:`_word_valid`
    and :func:`_recharge`."""
    if not isinstance(t, DischargeTuple):
        raise InvalidTuple(0, f"expected a DischargeTuple, got {type(t).__name__}")
    if not isinstance(t.perm, AsmMatrix):
        raise InvalidTuple(0, f"matrix component must be an AsmMatrix, got {type(t.perm).__name__}")
    return t.perm.n, _word(t.perm), t.opening_row, t.closing_sum, t.charge


def _word_valid(n: int, word: tuple[int, ...] | None, k: int, c: int, e: int) -> None:
    """:func:`tuple_valid` on the one-line word of the matrix component
    (None when that is not a permutation matrix)."""
    if type(k) is not int or type(c) is not int or type(e) is not int:
        raise InvalidTuple(0, "entries must be integers")
    if not 1 <= k <= n - 2:
        raise InvalidTuple(1, f"k={k} outside [1, {n - 2}]")
    if word is None:
        raise InvalidTuple(2, "matrix component is not a permutation matrix")
    j, m = word[k - 1], word[k]
    if m >= j:
        raise InvalidTuple(3, f"row {k + 1}'s 1 (column {m}) is not left of row {k}'s (column {j})")
    if c < 0 or e < 0:
        raise InvalidTuple(4, "c and E must be non-negative")
    x = _right_side(word, k)
    if c + e >= x:
        raise InvalidTuple(4, f"c + E = {c + e} must be < x = {x}")


def recharge(t: DischargeTuple) -> AsmMatrix:
    """Inverse of :func:`discharge`; raises :class:`InvalidTuple` when the
    tuple fails a membership condition."""
    return _write(*_recharge(*_fields(t)))


def _recharge(n: int, word: tuple[int, ...] | None, k: int, c: int, e: int) -> _PointsForm:
    """The points form of :func:`recharge` of ``(k, P, c, E)`` given the
    one-line word of P."""
    _word_valid(n, word, k, c, e)
    j = word[k - 1]  # opening column

    # closing row: topmost row below k where the right-side count reaches E
    count = 0
    closing_row = None
    for q in range(k + 1, n + 1):
        if word[q - 1] > j:
            count += 1
        if count == e:
            closing_row = q
            break
    if closing_row is None or closing_row >= n:
        raise InternalInvariantViolation("no admissible closing row found")

    # reverse step 4: raise the single 1 of each row k+1..closing_row
    points = list(enumerate(word, start=1))
    staying = {(q, col) for q, col in points if not k < q <= closing_row}
    for q, col in points[k:closing_row]:
        if (q - 1, col) in staying:
            raise InternalInvariantViolation(f"raising collided at ({q - 1},{col})")
    points = [(q - 1 if k < q <= closing_row else q, col) for q, col in points]

    # reverse step 3: shift the extended neutral cell back down
    points = _displace(points, Region(k, closing_row, 1, j - 1), columns=False, inverse=True)

    # closing column: leftmost column right of j where the below-closing
    # cumulative count reaches c + 1
    below = Counter(col for q, col in points if q > closing_row)
    total = 0
    closing_col = None
    for col in range(j, n + 1):
        total += below[col]
        if col > j and total == c + 1:
            closing_col = col
            break
    if closing_col is None:
        raise InternalInvariantViolation("no admissible closing column found")

    # reverse step 2, then restore the erased entries
    closing_cell = Region(closing_row + 1, n, j, closing_col)
    points = _displace(points, closing_cell, columns=True, inverse=True)
    if {(closing_row, j), (closing_row, closing_col)} & set(points):
        raise InternalInvariantViolation("closing row positions are not free")
    # the points left are the first 1 of every row of the matrix
    return tuple([col for _, col in sorted(points)]), closing_row, j, closing_col
