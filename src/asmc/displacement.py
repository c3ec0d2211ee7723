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

A shift only relabels the lines that hold a 1.  :func:`_targets` maps
each occupied line to the next occupied slot and checks the
precondition; it is the one displacement core.  The discharge steps run
it on the one-line word of a matrix (``discharge._discharge_word`` and
``_recharge``).  ``_shift_in`` is the one dense adapter: it relabels the
occupied lines of a window of a grid (its columns through one
transpose, its rows as they are) and writes the window back.  The two
whole-grid primitives call it on the window of the whole grid, and
``apply_in_region`` on the region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import PreconditionFailed

IntGrid = tuple[tuple[int, ...], ...]

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


def _shift_in(rows: IntGrid, region: Region, columns: bool) -> IntGrid:
    """The one region shift: the occupied lines of the (0,1) window
    ``region`` of ``rows`` relabelled (:func:`_targets`) and written
    back."""
    top, bottom, left, right = region.top, region.bottom, region.left, region.right
    window = [row[left - 1 : right] for row in rows[top - 1 : bottom]]
    for row in window:
        if not _ZERO_ONE.issuperset(row):
            v = next(v for v in row if v not in _ZERO_ONE)
            raise PreconditionFailed(f"entry {v!r} is not 0 or 1")
    lines = list(zip(*window)) if columns else window
    # the slots run over columns left to right, over rows bottom to top
    target = _targets([q for q, line in enumerate(lines) if any(line)], 0, len(lines) - 1, columns, reverse=not columns)
    shifted = [(0,) * len(lines[0])] * len(lines)
    for q, to in target.items():
        shifted[to] = lines[q]
    if columns:
        shifted = zip(*shifted)
    middle = [row[: left - 1] + tuple(new) + row[right:] for row, new in zip(rows[top - 1 : bottom], shifted)]
    return (*rows[: top - 1], *middle, *rows[bottom:])


def _shift(grid: Sequence[Sequence[int]], columns: bool) -> IntGrid:
    """The two primitives: the region shift over the whole grid."""
    rows = _as_grid(grid)
    return _shift_in(rows, Region(1, len(rows), 1, len(rows[0])), columns)


def h_shift(grid: Sequence[Sequence[int]]) -> IntGrid:
    """Displace columns left to right.

    Requires column 1 nonzero and the last column zero; raises
    :class:`PreconditionFailed` otherwise.
    """
    return _shift(grid, columns=True)


def v_shift(grid: Sequence[Sequence[int]]) -> IntGrid:
    """Displace rows bottom to top.

    Requires the last row nonzero and the first row zero.
    """
    return _shift(grid, columns=False)


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
        return _shift_in(rows, region, columns=f is h_shift)
    except PreconditionFailed as exc:
        raise PreconditionFailed(f"{exc} (in region {region})") from exc
