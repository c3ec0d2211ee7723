"""Horizontal and vertical displacement of (0,1)-matrices.

``h_shift`` moves the content of each nonzero column one "slot" to the
right: with nonzero columns at positions j_1 < ... < j_k (where j_1 = 1
and j_k < n), column j_i's content moves to column j_{i+1}, the last
nonzero column's content moves to column n, and column 1 becomes empty.
``v_shift`` is the row analogue with rows ordered bottom to top (the
bottom row plays the role of column 1).

Both primitives are injective and preserve the multiset of line
contents.  ``apply_in_region`` lets them act on a rectangular window of
a larger integer matrix, leaving the rest untouched.

A shift only relabels the lines that hold a 1 (``_targets``, which
checks its precondition), so it acts on the list of a window's 1s as
``(row, column)`` points in time linear in their number.  That point
core, ``_displace``, is the core of the dense primitives and of the
neutral shortcut of ``discharge``; the discharge steps themselves run
``_targets`` on the one-line word.  ``_shift_in`` is the one dense
adapter: it reads the 1s of a window of a grid, shifts them and writes
the window back.  The four whole-grid primitives call it on the window
of the whole grid, and ``apply_in_region`` on the region.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Callable, Iterable, Sequence

from .errors import PreconditionFailed

IntGrid = tuple[tuple[int, ...], ...]
Point = tuple[int, int]  # 1-based (row, column) of a 1

_ZERO_ONE = frozenset((0, 1))
_INT = frozenset((int,))


def _as_grid(grid: Sequence[Sequence[int]]) -> IntGrid:
    """``grid`` as a tuple of rows; entries must be ``int`` (not ``bool``),
    and are never converted."""
    try:
        rows = tuple(map(tuple, grid))
    except TypeError as exc:  # a grid or a row that is not iterable
        raise PreconditionFailed(f"matrix must be given as rows: {exc}") from exc
    if not rows or not rows[0]:
        raise PreconditionFailed("matrix must be non-empty")
    if any(len(row) != len(rows[0]) for row in rows):
        raise PreconditionFailed("matrix must be rectangular")
    for row in rows:
        if set(map(type, row)) != _INT:
            v = next(v for v in row if type(v) is not int)
            raise PreconditionFailed(f"entry {v!r} is not an integer")
    return rows


def _targets(lines: Iterable[int], low: int, high: int, columns: bool, reverse: bool) -> dict[int, int]:
    """Where a shift sends each occupied line of a window spanning lines
    ``low..high``: the slots run up the lines, or down them if
    ``reverse``.  Slot 1 must be among ``lines`` and the last slot not;
    each occupied slot goes to the next occupied one, the last to the
    final slot."""
    names = ["column 1", "last column"] if columns else ["first row", "last row"]
    first, last = (high, low) if reverse else (low, high)
    empty, nonzero = names[::-1] if reverse else names
    occupied = sorted(lines, reverse=reverse)
    if not occupied:
        raise PreconditionFailed(f"no nonzero {'column' if columns else 'row'}")
    if occupied[0] != first:
        raise PreconditionFailed(f"{empty} empty")
    if occupied[-1] == last:
        raise PreconditionFailed(f"{nonzero} nonzero")
    return dict(zip(occupied, occupied[1:] + [last]))


def _displace(points: list[Point], region: Region, columns: bool, inverse: bool) -> list[Point]:
    """The displacement core on the 1s of a (0,1)-matrix.

    The window's lines are slots in order: columns left to right, or
    rows bottom to top, or (``inverse``) the same lines in the opposite
    order (:func:`_targets`).  The points of each occupied slot move to
    the next occupied slot, so slot 1 empties.  Points outside the
    window are kept as they are, and the order of the list is kept.
    """
    top, bottom, left, right = region.top, region.bottom, region.left, region.right
    inside = {p for p in points if top <= p[0] <= bottom and left <= p[1] <= right}
    axis = 1 if columns else 0
    low, high = (left, right) if columns else (top, bottom)
    target = _targets({p[axis] for p in inside}, low, high, columns, reverse=columns == inverse)
    if columns:
        return [(i, target[j]) if (i, j) in inside else (i, j) for i, j in points]
    return [(target[i], j) if (i, j) in inside else (i, j) for i, j in points]


def _ones(rows: Sequence[Sequence[int]]) -> list[Point]:
    """The points of the nonzero entries of (0,1) ``rows``."""
    return [(i, j) for i, row in enumerate(rows, start=1) for j in compress(range(1, len(row) + 1), row)]


def _dense(points: Iterable[Point], m: int, n: int) -> list[list[int]]:
    """The m x n grid with a 1 at each point and 0 elsewhere."""
    out = [[0] * n for _ in range(m)]
    for i, j in points:
        out[i - 1][j - 1] = 1
    return out


def _shift_in(rows: IntGrid, region: Region, columns: bool, inverse: bool) -> IntGrid:
    """The one region shift: the 1s of the (0,1) window ``region`` of
    ``rows`` displaced (:func:`_displace`) and written back."""
    top, bottom, left, right = region.top, region.bottom, region.left, region.right
    window = [row[left - 1 : right] for row in rows[top - 1 : bottom]]
    for row in window:
        if not _ZERO_ONE.issuperset(row):
            v = next(v for v in row if v not in _ZERO_ONE)
            raise PreconditionFailed(f"entry {v!r} is not 0 or 1")
    m, n = bottom - top + 1, right - left + 1
    shifted = _dense(_displace(_ones(window), Region(1, m, 1, n), columns, inverse), m, n)
    middle = [row[: left - 1] + tuple(new) + row[right:] for row, new in zip(rows[top - 1 : bottom], shifted)]
    return (*rows[: top - 1], *middle, *rows[bottom:])


def _shift(grid: Sequence[Sequence[int]], columns: bool, inverse: bool) -> IntGrid:
    """The four primitives: the region shift over the whole grid."""
    rows = _as_grid(grid)
    return _shift_in(rows, Region(1, len(rows), 1, len(rows[0])), columns, inverse)


def h_shift(grid: Sequence[Sequence[int]]) -> IntGrid:
    """Displace columns left to right.

    Requires column 1 nonzero and the last column zero; raises
    :class:`PreconditionFailed` otherwise.
    """
    return _shift(grid, columns=True, inverse=False)


def h_unshift(grid: Sequence[Sequence[int]]) -> IntGrid:
    """Inverse of :func:`h_shift` (last column nonzero, column 1 zero)."""
    return _shift(grid, columns=True, inverse=True)


def v_shift(grid: Sequence[Sequence[int]]) -> IntGrid:
    """Displace rows bottom to top.

    Requires the last row nonzero and the first row zero.
    """
    return _shift(grid, columns=False, inverse=False)


def v_unshift(grid: Sequence[Sequence[int]]) -> IntGrid:
    """Inverse of :func:`v_shift` (first row nonzero, last row zero)."""
    return _shift(grid, columns=False, inverse=True)


@dataclass(frozen=True)
class Region:
    """A non-empty rectangular window of a host matrix.

    Bounds are 1-based, inclusive and ``int``.
    """

    top: int
    bottom: int
    left: int
    right: int

    def __post_init__(self):
        if not (type(self.top) is type(self.bottom) is type(self.left) is type(self.right) is int):
            raise PreconditionFailed(f"region bounds must be integers, got {self}")
        if self.top < 1 or self.left < 1 or self.top > self.bottom or self.left > self.right:
            raise PreconditionFailed(f"empty or negative region {self}")

    def check_within(self, m: int, n: int) -> None:
        if self.bottom > m or self.right > n:
            raise PreconditionFailed(f"region {self} exceeds {m}x{n} host")


def apply_in_region(
    host: Sequence[Sequence[int]],
    region: Region,
    f: Callable[[Sequence[Sequence[int]]], IntGrid],
) -> IntGrid:
    """Apply ``h_shift`` or ``v_shift`` to a window of ``host``.

    ``f`` is one of the two displacement primitives; no other function
    is accepted.  The host must be a rectangle of ``int`` entries,
    outside the window too, and the window content must satisfy the
    primitive's precondition; failures are re-raised with the region
    attached.
    """
    if f is not h_shift and f is not v_shift:
        raise PreconditionFailed("only h_shift and v_shift may be applied in a region")
    if not isinstance(region, Region):
        raise PreconditionFailed(f"expected a Region, got {type(region).__name__}")
    try:
        rows = _as_grid(host)
    except PreconditionFailed as exc:
        raise PreconditionFailed(f"{exc} (host of region {region})") from exc
    region.check_within(len(rows), len(rows[0]))
    try:
        return _shift_in(rows, region, columns=f is h_shift, inverse=False)
    except PreconditionFailed as exc:
        raise PreconditionFailed(f"{exc} (in region {region})") from exc
