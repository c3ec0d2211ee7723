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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import PreconditionFailed

IntGrid = tuple[tuple[int, ...], ...]

_ZERO_ONE = frozenset((0, 1))
_INT = frozenset((int,))


def _as_grid(grid: Sequence[Sequence[int]]) -> IntGrid:
    """``grid`` as a tuple of rows; entries must be ``int`` (not ``bool``),
    and are never converted."""
    rows = tuple(map(tuple, grid))
    if not rows or not rows[0]:
        raise PreconditionFailed("matrix must be non-empty")
    if any(len(row) != len(rows[0]) for row in rows):
        raise PreconditionFailed("matrix must be rectangular")
    for row in rows:
        if set(map(type, row)) != _INT:
            v = next(v for v in row if type(v) is not int)
            raise PreconditionFailed(f"entry {v!r} is not an integer")
    return rows


def _check_zero_one(rows: IntGrid) -> None:
    for row in rows:
        if not _ZERO_ONE.issuperset(row):
            v = next(v for v in row if v not in _ZERO_ONE)
            raise PreconditionFailed(f"entry {v!r} is not 0 or 1")


def _displace(
    slots: list[tuple[int, ...]], empty: tuple[int, ...], line: str, first: str, last: str
) -> list[tuple[int, ...]]:
    """Shared displacement core on an ordered list of line contents.

    Slot 1 (the ``first`` line) must be nonzero and the last slot (the
    ``last`` line) zero; the content of each nonzero slot moves to the
    next nonzero slot's position (the last one to the final slot) and
    slot 1 is emptied.  Run on the reversed order, it is the inverse.
    """
    m = len(slots)
    nonzero = [i for i, s in enumerate(slots) if any(s)]
    if not nonzero:
        raise PreconditionFailed(f"no nonzero {line}")
    if nonzero[0] != 0:
        raise PreconditionFailed(f"{first} empty")
    if nonzero[-1] == m - 1:
        raise PreconditionFailed(f"{last} nonzero")
    out = [empty] * m
    targets = nonzero[1:] + [m - 1]
    for src, dst in zip(nonzero, targets):
        out[dst] = slots[src]
    return out


def _shift(grid: Sequence[Sequence[int]], columns: bool, inverse: bool) -> IntGrid:
    """The four primitives: columns left to right or rows bottom to top,
    or (``inverse``) the same lines in the opposite order."""
    rows = _as_grid(grid)
    _check_zero_one(rows)
    if columns:
        slots, empty, ends = list(zip(*rows)), (0,) * len(rows), ["column 1", "last column"]
    else:  # bottom row first
        slots, empty, ends = list(reversed(rows)), (0,) * len(rows[0]), ["last row", "first row"]
    if inverse:
        slots.reverse()
        ends.reverse()
    out = _displace(slots, empty, "column" if columns else "row", *ends)
    if inverse:
        out.reverse()
    return tuple(zip(*out)) if columns else tuple(reversed(out))


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

    Bounds are 1-based and inclusive.
    """

    top: int
    bottom: int
    left: int
    right: int

    def __post_init__(self):
        if self.top < 1 or self.left < 1 or self.top > self.bottom or self.left > self.right:
            raise PreconditionFailed(f"empty or negative region {self}")

    def check_within(self, m: int, n: int) -> None:
        if self.bottom > m or self.right > n:
            raise PreconditionFailed(f"region {self} exceeds {m}x{n} host")


_PRIMITIVES: dict[str, Callable[[Sequence[Sequence[int]]], IntGrid]] = {
    "h": h_shift,
    "v": v_shift,
}


def apply_in_region(
    host: Sequence[Sequence[int]],
    region: Region,
    f: str | Callable[[Sequence[Sequence[int]]], IntGrid],
) -> IntGrid:
    """Apply ``h_shift`` or ``v_shift`` to a window of ``host``.

    ``f`` is one of the two displacement primitives (the function itself
    or the key ``"h"`` / ``"v"``); no other function is accepted.  The
    host must be a rectangle of ``int`` entries, outside the window too,
    and the window content must satisfy the primitive's precondition;
    failures are re-raised with the region attached.
    """
    func = _PRIMITIVES.get(f) if isinstance(f, str) else f if f in (h_shift, v_shift) else None
    if func is None:
        raise PreconditionFailed("only h_shift and v_shift may be applied in a region")
    try:
        rows = _as_grid(host)
    except PreconditionFailed as exc:
        raise PreconditionFailed(f"{exc} (host of region {region})") from exc
    return tuple(tuple(row) for row in _apply_any(rows, region, func))


def _apply_any(
    host: Sequence[Sequence[int]],
    region: Region,
    func: Callable[[Sequence[Sequence[int]]], IntGrid],
) -> list[list[int]]:
    """Region application without the public primitive restriction
    (the discharge inverse needs ``h_unshift``/``v_unshift``).

    Returns a fresh list-of-lists copy of ``host``; only the window's
    entries pass through ``func``.
    """
    out = [list(row) for row in host]
    region.check_within(len(out), len(out[0]) if out else 0)
    r0, r1, c0, c1 = region.top - 1, region.bottom, region.left - 1, region.right
    window = [row[c0:c1] for row in out[r0:r1]]
    try:
        shifted = func(window)
    except PreconditionFailed as exc:
        raise PreconditionFailed(f"{exc} (in region {region})") from exc
    for row, new in zip(out[r0:r1], shifted):
        row[c0:c1] = new
    return out
