"""Cell geometry and the charge statistics of matrices with one -1.

For an ASM with a single -1, the column of the -1 (the *opening column*)
splits the matrix into a left and a right side.  The highest 1 of that
column marks the *opening row*; the -1 itself sits in the *closing row*,
which carries one extra 1 on each side (the left 1 and the closing 1).
Rows strictly between opening and closing rows are *enclosed*; a matrix
with no enclosed rows is *neutral*, otherwise the side holding the 1 of
the lowest enclosed row makes it *positive* (right) or *negative*
(left).

Cell boundary conventions (all strict):

* leading cell   = rows below the opening row x columns between the
  leading and the opening column;
* closing cell   = rows below the closing row x columns between the
  opening and the closing column;
* charged cell   = enclosed rows x right side;
* neutral cell   = enclosed rows x left side.

The entry sums of the leading, closing and charged cells give the
statistics ``ell``, ``c`` and the electric charge ``E``; the magnetic
charge is ``B = c - ell`` and ``J = c + ell + |E| + 1``.  All three
extend to negative matrices through vertical reflection: ``E`` and ``B``
change sign, ``J`` is invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import NegativeClass, NotOneMinus
from .matrix import AsmMatrix, minus_count, reflect


class SignClass(Enum):
    POSITIVE = "positive"
    NEUTRAL = "neutral"
    NEGATIVE = "negative"


@dataclass(frozen=True)
class CellGeometry:
    """1-based landmarks of a one-minus ASM."""

    opening_row: int
    opening_col: int
    closing_row: int
    left_one_col: int
    closing_col: int  # column of the closing (right) 1
    leading_col: int
    enclosed_rows: range  # possibly empty, strictly between opening and closing rows


@dataclass(frozen=True)
class CellSums:
    """Entry sums of the leading cell, the closing cell, and the region
    below the opening row on the right side (``x``)."""

    ell: int
    c: int
    x: int


@dataclass(frozen=True)
class ChargeParams:
    """Charge statistics of a one-minus ASM.

    For a negative matrix ``ell``, ``c`` and ``x`` are those of its
    vertical reflection, consistently with ``j = c + ell + |e| + 1``.
    """

    ell: int
    c: int
    x: int
    e: int  # electric charge, anti-invariant under reflection
    b: int  # magnetic charge c - ell, anti-invariant under reflection
    j: int  # c + ell + |e| + 1, invariant under reflection


def _closing_row(a: AsmMatrix) -> int:
    """The 1-based row holding the only -1 of ``a``, found in the same pass
    that shows there is no other; raises :class:`NotOneMinus` otherwise."""
    found = 0
    for i, row in enumerate(a.rows, start=1):
        if -1 in row:
            if found or row.count(-1) != 1:
                raise NotOneMinus(minus_count(a))
            found = i
    if not found:
        raise NotOneMinus(0)
    return found


def box_sum(a: AsmMatrix, top: int, bottom: int, left: int, right: int) -> int:
    """Sum of entries in rows top..bottom, columns left..right (1-based,
    inclusive; empty ranges sum to 0)."""
    return sum(sum(row[left - 1 : right]) for row in a.rows[top - 1 : bottom])


def geometry(a: AsmMatrix) -> CellGeometry:
    """Locate the opening/closing landmarks of a one-minus ASM."""
    n = a.n
    closing_row = _closing_row(a)
    opening_col = a.rows[closing_row - 1].index(-1) + 1
    opening_row = next(i + 1 for i in range(n) if a.rows[i][opening_col - 1] == 1)
    closing_line = a.rows[closing_row - 1]
    left_one_col = closing_line.index(1) + 1
    closing_col = closing_line.index(1, opening_col) + 1
    leading_col = next(
        row[: opening_col - 1].index(1) + 1
        for row in a.rows[opening_row:]
        if 1 in row[: opening_col - 1]
    )
    return CellGeometry(
        opening_row=opening_row,
        opening_col=opening_col,
        closing_row=closing_row,
        left_one_col=left_one_col,
        closing_col=closing_col,
        leading_col=leading_col,
        enclosed_rows=range(opening_row + 1, closing_row),
    )


# The readers below take the geometry of ``a`` so that a caller holding it
# does not scan the matrix again; each public function scans once.


def _sign_class(a: AsmMatrix, g: CellGeometry) -> SignClass:
    if not g.enclosed_rows:
        return SignClass.NEUTRAL
    lowest = a.rows[g.enclosed_rows[-1] - 1]
    return SignClass.POSITIVE if lowest.index(1) + 1 > g.opening_col else SignClass.NEGATIVE


def _cell_sums(a: AsmMatrix, g: CellGeometry) -> CellSums:
    """Cell sums of a matrix already known to be non-negative."""
    n = a.n
    ell = box_sum(a, g.opening_row + 1, n, g.leading_col + 1, g.opening_col - 1)
    c = box_sum(a, g.closing_row + 1, n, g.opening_col + 1, g.closing_col - 1)
    x = box_sum(a, g.opening_row + 1, n, g.opening_col + 1, n)
    return CellSums(ell=ell, c=c, x=x)


def _charges(a: AsmMatrix, g: CellGeometry) -> ChargeParams:
    cls = _sign_class(a, g)
    if cls is SignClass.NEGATIVE:
        mirror = charges(reflect(a))
        return ChargeParams(
            ell=mirror.ell, c=mirror.c, x=mirror.x,
            e=-mirror.e, b=-mirror.b, j=mirror.j,
        )
    sums = _cell_sums(a, g)
    e = 0
    if cls is SignClass.POSITIVE:  # the charged cell: enclosed rows x right side
        e = box_sum(a, g.enclosed_rows[0], g.enclosed_rows[-1], g.opening_col + 1, a.n)
    return ChargeParams(
        ell=sums.ell,
        c=sums.c,
        x=sums.x,
        e=e,
        b=sums.c - sums.ell,
        j=sums.c + sums.ell + abs(e) + 1,
    )


def sign_class(a: AsmMatrix) -> SignClass:
    """Neutral, positive or negative, by the side of the lowest enclosed
    row's 1."""
    return _sign_class(a, geometry(a))


def cell_sums(a: AsmMatrix) -> CellSums:
    """Sums (ell, c, x) of a non-negative one-minus ASM.

    Raises :class:`NegativeClass` on negative matrices; reflect first.
    """
    g = geometry(a)
    if _sign_class(a, g) is SignClass.NEGATIVE:
        raise NegativeClass("cell sums are defined on non-negative matrices; reflect first")
    return _cell_sums(a, g)


def charges(a: AsmMatrix) -> ChargeParams:
    """The charge triple (E, B, J) together with the cell sums behind it."""
    return _charges(a, geometry(a))
