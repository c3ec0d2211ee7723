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
"""

from __future__ import annotations

from dataclasses import dataclass

from .cells import CellGeometry, SignClass, _charges, _sign_class, geometry
from .displacement import Region, _apply_any, h_shift, h_unshift, v_shift, v_unshift
from .errors import (
    InternalInvariantViolation,
    InvalidTuple,
    NegativeClass,
)
from .matrix import AsmMatrix, is_permutation_matrix, minus_count, validate_asm


@dataclass(frozen=True)
class DischargeTuple:
    """(k, P, c, E): opening row, discharged permutation matrix,
    closing-cell sum and electric charge.

    Instances are plain records; :func:`tuple_valid` checks membership in
    the image of :func:`discharge`.
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


@dataclass(frozen=True)
class TupleCheck:
    """Diagnostic result of a membership test, :func:`tuple_valid` or
    :func:`asmc.inv_table.table_valid` (which names it ``TableCheck``):
    the first failed condition and why; condition 0 flags structural
    problems such as negative entries."""

    ok: bool
    condition: int | None = None
    message: str = ""

    def __bool__(self) -> bool:
        return self.ok


def right_side_sum(perm: AsmMatrix, k: int) -> int:
    """Number of 1s strictly below row ``k`` and strictly right of the
    column of row ``k``'s 1 (the quantity written ``x``)."""
    j = perm.rows[k - 1].index(1)
    return sum(1 for row in perm.rows[k:] if row.index(1) > j)


def _non_negative_geometry(a: AsmMatrix) -> CellGeometry:
    """The geometry of ``a``, after checking that ``a`` is not negative."""
    g = geometry(a)
    if _sign_class(a, g) is SignClass.NEGATIVE:
        raise NegativeClass("discharging is defined on non-negative matrices; reflect first")
    return g


def partial_discharge(a: AsmMatrix) -> AsmMatrix:
    """Run the four discharge steps; returns a permutation matrix."""
    return _partial_discharge(a, _non_negative_geometry(a))


def _partial_discharge(a: AsmMatrix, g: CellGeometry) -> AsmMatrix:
    n = a.n
    grid = [list(row) for row in a.rows]

    # step 1: erase the -1 and the closing 1
    grid[g.closing_row - 1][g.opening_col - 1] = 0
    grid[g.closing_row - 1][g.closing_col - 1] = 0

    # step 2: shift the extended closing cell right
    grid = _apply_any(grid, Region(g.closing_row + 1, n, g.opening_col, g.closing_col), h_shift)

    # step 3: shift the extended neutral cell up
    grid = _apply_any(grid, Region(g.opening_row, g.closing_row, 1, g.opening_col - 1), v_shift)

    # step 4: lower the 1s of the extended neutral and charged cells
    moves = []
    for i in range(g.opening_row, g.closing_row + 1):  # extended neutral rows
        for j in range(1, g.opening_col):
            if grid[i - 1][j - 1] == 1:
                moves.append((i, j))
    for i in g.enclosed_rows:  # charged cell rows
        for j in range(g.opening_col + 1, n + 1):
            if grid[i - 1][j - 1] == 1:
                moves.append((i, j))
    for i, j in moves:
        grid[i - 1][j - 1] = 0
    for i, j in moves:
        if grid[i][j - 1] != 0:
            raise InternalInvariantViolation(f"lowering collided at ({i + 1},{j})")
        grid[i][j - 1] = 1

    result = validate_asm(grid)
    if not is_permutation_matrix(result):
        raise InternalInvariantViolation("discharge did not produce a permutation matrix")
    return result


def _partial_discharge_neutral_shortcut(a: AsmMatrix) -> AsmMatrix:
    """Steps 1-2 only; valid for neutral inputs, where steps 3-4 cancel.

    Kept as an independent oracle for the full four-step path.
    """
    g = geometry(a)
    if _sign_class(a, g) is not SignClass.NEUTRAL:
        raise NegativeClass("shortcut applies to neutral matrices only")
    grid = [list(row) for row in a.rows]
    grid[g.closing_row - 1][g.opening_col - 1] = 0
    grid[g.closing_row - 1][g.closing_col - 1] = 0
    grid = _apply_any(
        grid, Region(g.closing_row + 1, a.n, g.opening_col, g.closing_col), h_shift
    )
    return validate_asm(grid)


def discharge(a: AsmMatrix) -> DischargeTuple:
    """Full discharge: ``(k, partial_discharge(a), c, E)``."""
    return _discharge(a, _non_negative_geometry(a))


def _discharge(a: AsmMatrix, g: CellGeometry) -> DischargeTuple:
    ch = _charges(a, g)
    return DischargeTuple(
        opening_row=g.opening_row,
        perm=_partial_discharge(a, g),
        closing_sum=ch.c,
        charge=ch.e,
    )


def tuple_valid(t: DischargeTuple) -> TupleCheck:
    """Check the four membership conditions, reporting the first failure.

    1. ``1 <= k <= n-2``;
    2. the matrix component is a permutation matrix;
    3. row k's 1 lies strictly right of row k+1's 1;
    4. ``c >= 0``, ``E >= 0`` and ``c + E < x``.
    """
    n = t.perm.n
    if not 1 <= t.opening_row <= n - 2:
        return TupleCheck(False, 1, f"k={t.opening_row} outside [1, {n - 2}]")
    if minus_count(t.perm) != 0:
        return TupleCheck(False, 2, "matrix component is not a permutation matrix")
    k = t.opening_row
    j = t.perm.rows[k - 1].index(1)
    m = t.perm.rows[k].index(1)
    if m >= j:
        return TupleCheck(False, 3, f"row {k + 1}'s 1 (column {m + 1}) is not left of row {k}'s (column {j + 1})")
    if t.closing_sum < 0 or t.charge < 0:
        return TupleCheck(False, 4, "c and E must be non-negative")
    x = right_side_sum(t.perm, k)
    if t.closing_sum + t.charge >= x:
        return TupleCheck(False, 4, f"c + E = {t.closing_sum + t.charge} must be < x = {x}")
    return TupleCheck(True)


def recharge(t: DischargeTuple) -> AsmMatrix:
    """Inverse of :func:`discharge`; raises :class:`InvalidTuple` when the
    tuple fails a membership condition."""
    check = tuple_valid(t)
    if not check:
        raise InvalidTuple(check.condition, check.message)
    n = t.perm.n
    k = t.opening_row
    grid = [list(row) for row in t.perm.rows]
    j = grid[k - 1].index(1) + 1  # opening column

    # closing row: topmost row below k where the right-side count reaches E
    count = 0
    closing_row = None
    for q in range(k + 1, n + 1):
        if grid[q - 1].index(1) + 1 > j:
            count += 1
        if count == t.charge:
            closing_row = q
            break
    if closing_row is None or closing_row >= n:
        raise InternalInvariantViolation("no admissible closing row found")

    # reverse step 4: raise the single 1 of each row k+1..closing_row
    lifted = [(q, grid[q - 1].index(1) + 1) for q in range(k + 1, closing_row + 1)]
    for q, col in lifted:
        grid[q - 1][col - 1] = 0
    for q, col in lifted:
        if grid[q - 2][col - 1] != 0:
            raise InternalInvariantViolation(f"raising collided at ({q - 1},{col})")
        grid[q - 2][col - 1] = 1

    # reverse step 3: shift the extended neutral cell back down
    grid = _apply_any(grid, Region(k, closing_row, 1, j - 1), v_unshift)

    # closing column: leftmost column right of j where the below-closing
    # cumulative count reaches c + 1
    total = 0
    closing_col = None
    for col in range(j, n + 1):
        total += sum(1 for q in range(closing_row + 1, n + 1) if grid[q - 1][col - 1])
        if col > j and total == t.closing_sum + 1:
            closing_col = col
            break
    if closing_col is None:
        raise InternalInvariantViolation("no admissible closing column found")

    # reverse step 2, then restore the erased entries
    grid = _apply_any(grid, Region(closing_row + 1, n, j, closing_col), h_unshift)
    if grid[closing_row - 1][j - 1] or grid[closing_row - 1][closing_col - 1]:
        raise InternalInvariantViolation("closing row positions are not free")
    grid[closing_row - 1][j - 1] = -1
    grid[closing_row - 1][closing_col - 1] = 1
    return validate_asm(grid)
