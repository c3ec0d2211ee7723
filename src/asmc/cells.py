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

Each fact about a matrix is computed once per value.  :func:`_keep`, the
one memo helper, stores a fact on the frozen value it describes, outside
the dataclass fields, so equality, hashing and repr never see it: the
geometry of an :class:`AsmMatrix` (scanned only by :func:`geometry`), its
non-negative cell sums, and the mark of a mixed configuration that has
passed validation.  The builders seed the facts they already know:
``discharge._recharge`` the geometry and cell sums of the matrix it
rebuilds, ``inv_table.pair_from_table`` the geometry of its matrix, and
:func:`_reflect` the geometry of a reflection, read off the original by
mirroring columns.
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
    """Locate the opening/closing landmarks of a one-minus ASM.  The one
    scan of the dense matrix for them; the library reads them through
    :func:`_geometry`, which keeps the result on the matrix."""
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


_TUPLE_ONLY = frozenset((tuple,))


def _keep(value, parts, **facts) -> None:
    """Store ``facts``, pure functions of the frozen dataclass ``value``,
    on it as attributes outside its fields.  They are stored only when
    ``parts``, the sequences ``value`` is built from, is a tuple of
    tuples, so that nothing can change under them; a value built over
    lists computes its facts anew at every call.  Two threads that race
    here store equal facts."""
    if type(parts) is tuple and _TUPLE_ONLY.issuperset(map(type, parts)):
        for name, fact in facts.items():
            object.__setattr__(value, name, fact)


def _geometry(a: AsmMatrix) -> CellGeometry:
    """:func:`geometry` of ``a``, scanned on the first call and kept."""
    g = a.__dict__.get("_geometry")
    if g is None:
        g = geometry(a)
        _keep(a, a.rows, _geometry=g)
    return g


def _reflect(a: AsmMatrix, g: CellGeometry) -> AsmMatrix:
    """``reflect(a)`` with its geometry kept, read off the geometry ``g``
    of ``a`` by mirroring columns instead of scanning the copy.  The
    leading 1 of the reflection mirrors the first 1 right of the opening
    column below the opening row: that of an enclosed row, else the
    closing 1.  The cell sums of a neutral ``a``, if kept, are mirrored
    too: reflection swaps ell and c, and below the opening row the
    opening column sums to 0, so the left side holds ``n - k - x``."""
    m = a.n + 1
    enclosed = [row.index(1) + 1 for row in a.rows[g.opening_row : g.closing_row - 1]]
    right = next((col for col in enclosed if col > g.opening_col), g.closing_col)
    out = reflect(a)
    facts = {"_geometry": CellGeometry(
        opening_row=g.opening_row,
        opening_col=m - g.opening_col,
        closing_row=g.closing_row,
        left_one_col=m - g.closing_col,
        closing_col=m - g.left_one_col,
        leading_col=m - right,
        enclosed_rows=g.enclosed_rows,
    )}
    sums = a.__dict__.get("_sums")
    if sums is not None and not g.enclosed_rows:
        facts["_sums"] = CellSums(ell=sums.c, c=sums.ell, x=m - 1 - g.opening_row - sums.x)
    _keep(out, out.rows, **facts)
    return out


# The readers below take the geometry of ``a`` so that a caller holding it
# does not look it up again.


def _sign_class(a: AsmMatrix, g: CellGeometry) -> SignClass:
    if not g.enclosed_rows:
        return SignClass.NEUTRAL
    lowest = a.rows[g.enclosed_rows[-1] - 1]
    return SignClass.POSITIVE if lowest.index(1) + 1 > g.opening_col else SignClass.NEGATIVE


def _cell_sums(a: AsmMatrix, g: CellGeometry) -> CellSums:
    """Cell sums of a matrix already known to be non-negative, summed on
    the first call and kept."""
    sums = a.__dict__.get("_sums")
    if sums is None:
        n = a.n
        sums = CellSums(
            ell=box_sum(a, g.opening_row + 1, n, g.leading_col + 1, g.opening_col - 1),
            c=box_sum(a, g.closing_row + 1, n, g.opening_col + 1, g.closing_col - 1),
            x=box_sum(a, g.opening_row + 1, n, g.opening_col + 1, n),
        )
        _keep(a, a.rows, _sums=sums)
    return sums


def _charges(a: AsmMatrix, g: CellGeometry) -> ChargeParams:
    cls = _sign_class(a, g)
    if cls is SignClass.NEGATIVE:
        r = _reflect(a, g)
        mirror = _charges(r, _geometry(r))
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
    return _sign_class(a, _geometry(a))


def cell_sums(a: AsmMatrix) -> CellSums:
    """Sums (ell, c, x) of a non-negative one-minus ASM.

    Raises :class:`NegativeClass` on negative matrices; reflect first.
    """
    g = _geometry(a)
    if _sign_class(a, g) is SignClass.NEGATIVE:
        raise NegativeClass("cell sums are defined on non-negative matrices; reflect first")
    return _cell_sums(a, g)


def charges(a: AsmMatrix) -> ChargeParams:
    """The charge triple (E, B, J) together with the cell sums behind it."""
    return _charges(a, _geometry(a))
