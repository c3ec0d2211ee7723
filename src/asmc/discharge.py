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

After step 1 every row holds one 1, so the steps act on the one-line
word of the matrix, the ``first`` of its sparse view (see
``matrix.AsmMatrix``): step 2 relabels the columns of the rows below
the closing row, and steps 3 and 4 run as one pass over rows k..closing
row, so only rows k..n are touched.  Recharging runs the steps backwards
on the word and ends on the sparse view of the matrix it rebuilds
(:func:`_recharge`), which ``neutral`` works on without writing it.

Each check has one place.  A tuple is checked once, at the public
boundary (:func:`tuple_valid` and :func:`recharge`, through
:func:`_fields`); the word kernels run on words they are given or have
just made, and check nothing again.  Only a matrix that is returned is
built, by ``matrix._write``, which checks its view once with the one
check of the alternating law and keeps it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cells import SignClass, _Cells, _cells
from .displacement import _targets
from .errors import (
    BadArgument,
    InternalInvariantViolation,
    InvalidTuple,
    NegativeClass,
    ParseError,
)
from .matrix import AsmMatrix, _View, _write, json_int, matrix_from_json, matrix_to_json, perm_one_line


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
        return {
            "k": self.opening_row,
            "P": matrix_to_json(self.perm),
            "c": self.closing_sum,
            "E": self.charge,
        }


def tuple_from_json(obj: dict) -> DischargeTuple:
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
    return _write(_discharge_word(_non_negative(a)), ())


def _discharge_word(cells: _Cells) -> tuple[int, ...]:
    """The four steps on the one-line word of the 1s of the matrix with
    these cells (step 1 leaves the first 1 of every row, ``cells.first``);
    returns the word of the permutation matrix they leave."""
    g = cells.geometry
    k, oc, cr = g.opening_row, g.opening_col, g.closing_row
    word = _closing_shift(cells)

    # steps 3 and 4: each left 1 of rows k..cr moves up to the next left
    # row (the top one to row k) and drops one row; each right 1 of an
    # enclosed row drops one row
    left = word[cr - 1]
    for q in range(cr - 1, k, -1):
        col = word[q - 1]
        word[q], left = (col, left) if col > oc else (left, col)
    word[k] = left
    return tuple(word)


def _closing_shift(cells: _Cells) -> list[int]:
    """Steps 1 and 2 on the one-line word: the extended closing cell
    shifted right, relabelling the columns of the rows below the closing
    row."""
    g = cells.geometry
    oc, cr, cc = g.opening_col, g.closing_row, g.closing_col
    word = list(cells.first)
    tail = word[cr:]
    target = _targets([col for col in tail if oc <= col <= cc], oc, cc, columns=True, reverse=False)
    word[cr:] = [target.get(col, col) for col in tail]
    return word


def _partial_discharge_neutral_shortcut(a: AsmMatrix) -> AsmMatrix:
    """Steps 1-2 only; valid for neutral inputs, where steps 3-4 cancel.

    Checked against the full four-step path: it shares step 2
    (:func:`_closing_shift`) with :func:`_discharge_word`, so it tests
    that steps 3 and 4 leave a neutral matrix's word as step 2 left it.
    """
    cells = _cells(a)
    if cells.sign is not SignClass.NEUTRAL:
        raise NegativeClass("shortcut applies to neutral matrices only")
    return _write(tuple(_closing_shift(cells)), ())


def discharge(a: AsmMatrix) -> DischargeTuple:
    """Full discharge: ``(k, partial_discharge(a), c, E)``."""
    cells = _non_negative(a)
    return DischargeTuple(
        opening_row=cells.geometry.opening_row,
        perm=_write(_discharge_word(cells), ()),
        closing_sum=cells.sums.c,
        charge=cells.e,
    )


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
    _fields(t)
    return t


def _fields(t: DischargeTuple) -> tuple[int, tuple[int, ...], int, int, int]:
    """``(n, word of P, k, c, E)`` of a tuple that passes
    :func:`tuple_valid`, the arguments of :func:`_recharge`; the one check
    of the membership conditions.  The matrix component is read first, so
    an unchecked :class:`AsmMatrix` whose rows break the alternating law
    raises what :func:`validate_asm` raises on them."""
    if not isinstance(t, DischargeTuple):
        raise InvalidTuple(0, f"expected a DischargeTuple, got {type(t).__name__}")
    if not isinstance(t.perm, AsmMatrix):
        raise InvalidTuple(0, f"matrix component must be an AsmMatrix, got {type(t.perm).__name__}")
    n, k, c, e = t.perm.n, t.opening_row, t.closing_sum, t.charge
    try:
        word = perm_one_line(t.perm)
    except BadArgument:
        word = None
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
    return n, word, k, c, e


def recharge(t: DischargeTuple) -> AsmMatrix:
    """Inverse of :func:`discharge`; raises :class:`InvalidTuple` when the
    tuple fails a membership condition."""
    return _write(*_recharge(*_fields(t)))


def _recharge(n: int, word: tuple[int, ...], k: int, c: int, e: int) -> _View:
    """The sparse view of :func:`recharge` of ``(k, P, c, E)`` given the
    one-line word of P: the steps of :func:`_discharge_word` reversed, on a
    tuple that passes :func:`tuple_valid`, which is not checked again
    (``matrix._write`` checks the view)."""
    j = word[k - 1]  # opening column

    # closing row: topmost row below k where the right-side count reaches E
    count = 0
    for cr in range(k + 1, n):
        count += word[cr - 1] > j
        if count == e:
            break
    else:
        raise InternalInvariantViolation("no admissible closing row found")

    # reverse steps 4 and 3: each 1 of rows k+1..cr rises one row; the
    # left ones then move down to the next left row, the bottom one to cr
    word = list(word)
    left = word[k]
    for q in range(k + 1, cr):
        col = word[q]
        word[q - 1], left = (col, left) if col > j else (left, col)
    word[cr - 1] = left

    # closing column: the (c+1)-th column right of j holding a 1 below the
    # closing row; reverse step 2 shifts those c+1 columns left
    tail = word[cr:]
    right = [col for col in tail if col > j]
    right.sort()
    if len(right) <= c:
        raise InternalInvariantViolation("no admissible closing column found")
    closing_col = right[c]
    target = _targets(right[: c + 1], j, closing_col, columns=True, reverse=True)
    word[cr:] = [target.get(col, col) for col in tail]
    return tuple(word), ((cr, j, closing_col),)
