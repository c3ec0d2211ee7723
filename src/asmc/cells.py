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

A matrix with one -1 is fixed by its sparse view ``(first, ((closing_row,
opening_col, closing_col),))`` (see ``matrix.AsmMatrix``).  Below the
opening row every row but the closing row holds one 1, so every landmark
and every cell sum is a count of points in a rectangle.  :func:`_read`
is the one reader of these facts: O(n), it returns the landmarks, the
sign class, ``ell``, ``c``, ``x`` and ``E`` together, and reads a
negative matrix through the mirrored view (``matrix._mirror``, which
relabels column ``j`` as ``n+1-j``).  :func:`_points` reads the view
(``matrix._sparse``: the view a matrix keeps, or the one scan of any
other) and checks that it has one -1.  This module only reads views:
``matrix._write``, the one writer, checks a view with the one check of
the alternating law (``matrix._alternates``) and returns a matrix that
keeps it.

The keep rule.  Every value is immutable once built: ``AsmMatrix``,
``MixedConfiguration``, ``MixedPath`` and ``GenInvTable`` freeze the
rows, paths, start and entries they are given as tuples, and a table is
marked only once ``inv_table.table_valid`` has found its fields ``int``
values and a tuple of them.  So each fact about a value is computed once
and kept on the value, outside its dataclass fields, where equality,
hashing and repr never see it; the function that computes a fact keeps
it, on its own argument, with no other condition:

* ``matrix._sparse`` the sparse view of a matrix (``_view``), which
  ``matrix._write`` and ``matrix.validate_asm`` store on what they return;
* :func:`_cells` what :func:`_read` reads off that view (``_cells``);
* ``neutral.neutralize`` the pair of a matrix (``_pair``);
* ``inv_table.gen_table`` the table of a pair (``_table``);
* ``inv_table.table_valid`` the mark of a valid table (``_valid``);
* ``paths.validate_config`` the mark of a valid configuration
  (``_valid``); one built from a valid table keeps the table instead
  (``_table``, ``paths.config_from_table``).

Two exceptions: a neutral matrix keeps no pair, as its pair holds the
matrix itself; and no inverse seeds a fact on what it returns, so
``neutral.restore`` keeps no pair on its matrix and
``inv_table.pair_from_table`` no table on its pair, and a round trip
through them computes both directions.  The field a value is built
without is written the same way: the rows of a matrix that keeps only its
view, and the paths of a configuration that keeps only its table, are a
``functools.cached_property`` under the field's own name, written on
their first read and stored as the field, so the value's type is its
public class throughout.  Two threads that race on a fact or a field
store equal values.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import NegativeClass, NotOneMinus
from .matrix import AsmMatrix, _Extras, _mirror, _sparse, _View


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


class _Cells(NamedTuple):
    """What :func:`_read` reads off the sparse view of a one-minus matrix.
    For a negative matrix ``sums`` are those of its reflection and ``e``
    is minus the reflection's charge."""

    first: tuple[int, ...]  # column of the first 1 of each row
    geometry: CellGeometry
    sign: SignClass
    sums: CellSums
    e: int

    @property
    def view(self) -> _View:
        g = self.geometry
        return self.first, ((g.closing_row, g.opening_col, g.closing_col),)


def _read(first: tuple[int, ...], extras: _Extras) -> _Cells:
    """Every landmark and cell sum of the one-minus matrix with sparse view
    ``(first, ((closing_row, opening_col, closing_col),))``, in O(n).  The
    opening 1 is the highest point of the opening column, and the leading
    1 the first point below it left of that column (the left 1 if no
    enclosed row has one)."""
    ((closing_row, opening_col, closing_col),) = extras
    opening_row = first.index(opening_col) + 1
    below = first[opening_row:]
    enclosed = below[: closing_row - opening_row - 1]
    left_one_col = first[closing_row - 1]
    leading_col = next(col for col in below if col < opening_col)
    g = CellGeometry(
        opening_row=opening_row,
        opening_col=opening_col,
        closing_row=closing_row,
        left_one_col=left_one_col,
        closing_col=closing_col,
        leading_col=leading_col,
        enclosed_rows=range(opening_row + 1, closing_row),
    )
    if enclosed and enclosed[-1] < opening_col:
        mirror = _read(*_mirror(first, extras))
        return _Cells(first, g, SignClass.NEGATIVE, mirror.sums, -mirror.e)
    sums = CellSums(
        ell=len([col for col in below if leading_col < col < opening_col]),
        c=len([col for col in first[closing_row:] if opening_col < col < closing_col]),
        x=len([col for col in below if col > opening_col]) + 1,  # + the closing 1
    )
    # the charged cell, which holds the lowest enclosed 1 of a positive matrix
    e = len([col for col in enclosed if col > opening_col])
    return _Cells(first, g, SignClass.POSITIVE if e else SignClass.NEUTRAL, sums, e)


def _points(a: AsmMatrix) -> _View:
    """The sparse view of ``a`` (``matrix._sparse``), which must hold one
    -1 with its closing 1; raises :class:`NotOneMinus` on any other number
    of -1s."""
    view = _sparse(a)
    if len(view[1]) != 1:
        raise NotOneMinus(len(view[1]))
    return view


def geometry(a: AsmMatrix) -> CellGeometry:
    """The opening/closing landmarks of a one-minus ASM."""
    return _cells(a).geometry


def _cells(a: AsmMatrix) -> _Cells:
    """:func:`_read` of the sparse view of ``a``, read on the first call
    and kept (see the keep rule above)."""
    try:
        cells = a.__dict__.get("_cells")
    except AttributeError:  # no value at all: ``matrix._sparse`` refuses it
        cells = None
    if cells is None:
        cells = _read(*_points(a))
        object.__setattr__(a, "_cells", cells)
    return cells


def sign_class(a: AsmMatrix) -> SignClass:
    """Neutral, positive or negative, by the side of the lowest enclosed
    row's 1."""
    return _cells(a).sign


def cell_sums(a: AsmMatrix) -> CellSums:
    """Sums (ell, c, x) of a non-negative one-minus ASM.

    Raises :class:`NegativeClass` on negative matrices; reflect first.
    """
    cells = _cells(a)
    if cells.sign is SignClass.NEGATIVE:
        raise NegativeClass("cell sums are defined on non-negative matrices; reflect first")
    return cells.sums


def charges(a: AsmMatrix) -> ChargeParams:
    """The charge triple (E, B, J) together with the cell sums behind it."""
    cells = _cells(a)
    s, e = cells.sums, cells.e
    b = s.c - s.ell
    return ChargeParams(
        ell=s.ell,
        c=s.c,
        x=s.x,
        e=e,
        b=-b if cells.sign is SignClass.NEGATIVE else b,
        j=s.c + s.ell + abs(e) + 1,
    )
