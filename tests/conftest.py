"""Shared fixtures: the canonical worked examples.

The 12x12 matrices are rebuilt from the frozen generalized inversion
table (the canonical fixture builder); every statistic asserted against
them is an independently known value.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from contextlib import contextmanager
from functools import lru_cache
from types import SimpleNamespace

import pytest

import asmc
import asmc.matrix
from asmc import (
    AsmcError,
    AsmMatrix,
    CellGeometry,
    CellSums,
    GenInvTable,
    InternalInvariantViolation,
    InvalidTuple,
    MixedConfiguration,
    MixedPath,
    ParamVector,
    SignClass,
    enumerate_asm,
    pair_from_table,
    partial_discharge,
    restore,
    table_valid,
    validate_asm,
    validate_config,
)
from asmc.displacement import Region, _displace
from asmc.enumeration import _row_moves
from asmc.inv_table import _block_charges
from asmc.paths import _special_k

# the smallest ASM with a -1
DIAMOND_ROWS = ((0, 1, 0), (1, -1, 1), (0, 1, 0))

# frozen encoding of the neutral half of the 12x12 worked example
TABLE12 = GenInvTable(k=10, a=(0, 0, 2, 2, 0, 0, 1, 5, 0, 3, 6, 6), b=4, beta=5)


@pytest.fixture
def diamond() -> AsmMatrix:
    return validate_asm(DIAMOND_ROWS)


@pytest.fixture(scope="session")
def pair12():
    return pair_from_table(TABLE12)


@pytest.fixture(scope="session")
def neutral12(pair12) -> AsmMatrix:
    return pair12.matrix


@pytest.fixture(scope="session")
def charged12(pair12) -> AsmMatrix:
    return restore(pair12)


@pytest.fixture(scope="session")
def perm12(neutral12) -> AsmMatrix:
    return partial_discharge(neutral12)


@lru_cache(maxsize=None)
def all_asm(n: int) -> tuple[AsmMatrix, ...]:
    return tuple(enumerate_asm(n))


@lru_cache(maxsize=None)
def one_minus(n: int) -> tuple[AsmMatrix, ...]:
    return tuple(enumerate_asm(n, s=1))


# ---------------------------------------------------------------------------
# the landmarks and cell sums of a one-minus matrix by definition, searched
# and summed on its dense rows: the oracle of the sparse-view reader


def box_sum(a: AsmMatrix, top: int, bottom: int, left: int, right: int) -> int:
    """Sum of entries in rows top..bottom, columns left..right (1-based,
    inclusive; empty ranges sum to 0)."""
    return sum(sum(row[left - 1 : right]) for row in a.rows[top - 1 : bottom])


def dense_reflection(a: AsmMatrix) -> AsmMatrix:
    """``a`` with every row reversed, written densely: the oracle of
    ``reflect``, which mirrors the sparse view."""
    return AsmMatrix(tuple(tuple(reversed(row)) for row in a.rows))


def dense_geometry(a: AsmMatrix) -> CellGeometry:
    """The landmarks of a one-minus matrix, searched on its rows."""
    closing_row = next(i for i, row in enumerate(a.rows, start=1) if -1 in row)
    closing_line = a.rows[closing_row - 1]
    opening_col = closing_line.index(-1) + 1
    opening_row = next(i + 1 for i in range(a.n) if a.rows[i][opening_col - 1] == 1)
    leading_col = next(
        row[: opening_col - 1].index(1) + 1
        for row in a.rows[opening_row:]
        if 1 in row[: opening_col - 1]
    )
    return CellGeometry(
        opening_row=opening_row,
        opening_col=opening_col,
        closing_row=closing_row,
        left_one_col=closing_line.index(1) + 1,
        closing_col=closing_line.index(1, opening_col) + 1,
        leading_col=leading_col,
        enclosed_rows=range(opening_row + 1, closing_row),
    )


def dense_cells(a: AsmMatrix) -> tuple:
    """``(first, geometry, sign class, cell sums, E)`` of a one-minus
    matrix by definition; a negative matrix gives the cell sums of its
    reflection and minus the reflection's E."""
    g = dense_geometry(a)
    first = tuple(row.index(1) + 1 for row in a.rows)
    sign = SignClass.NEUTRAL
    if g.enclosed_rows:
        lowest = a.rows[g.enclosed_rows[-1] - 1].index(1) + 1
        sign = SignClass.POSITIVE if lowest > g.opening_col else SignClass.NEGATIVE
    if sign is SignClass.NEGATIVE:
        _, _, _, sums, e = dense_cells(dense_reflection(a))
        return first, g, sign, sums, -e
    n = a.n
    sums = CellSums(
        ell=box_sum(a, g.opening_row + 1, n, g.leading_col + 1, g.opening_col - 1),
        c=box_sum(a, g.closing_row + 1, n, g.opening_col + 1, g.closing_col - 1),
        x=box_sum(a, g.opening_row + 1, n, g.opening_col + 1, n),
    )
    e = box_sum(a, g.opening_row + 1, g.closing_row - 1, g.opening_col + 1, n)
    return first, g, sign, sums, e


# ---------------------------------------------------------------------------
# inversion tables by definition, read and written on dense rows through
# running column sums: the oracle of the table codecs on column lists


def dense_table(m: AsmMatrix) -> tuple[int, ...]:
    """``a_1..a_n`` of a permutation or one-minus matrix: walks the rows
    bottom-up, keeping the column sums of the rows below the current one;
    ``a_i`` is the sum of those left of the row's leftmost 1."""
    a = []
    below = [0] * m.n
    for row in reversed(m.rows):
        a.append(sum(below[: row.index(1)]))
        below = [x + y for x, y in zip(below, row)]
    return tuple(a)


def _place_one(colsum: list[int], target: int) -> int:
    """Column (1-based) for a new 1 so that the signed sum of the columns
    left of it, over the rows still to come, equals ``target``: columns
    with a pending 1 (running sum 1) are not available, and the running
    sums make ``(col - 1) - sum(colsum[:col-1])`` strictly increasing over
    the available ones."""
    prefix = 0
    for col in range(1, len(colsum) + 1):
        if colsum[col - 1] == 0 and (col - 1) - prefix == target:
            return col
        prefix += colsum[col - 1]
    raise AssertionError(f"no admissible column for target {target}")


def dense_from_table(t) -> AsmMatrix:
    """The matrix with table ``t``, a :class:`GenInvTable` or the plain
    inversion table of a permutation, written on a grid row by row from
    the top: each entry places the row's (leftmost) 1, the -1 goes under
    the opening 1, and the closing 1 is placed right of it as the others
    are, so that the closing cell sums to ``b``."""
    generalized = isinstance(t, GenInvTable)
    a = t.a if generalized else tuple(t)
    n = len(a)
    opening_row = n + 1 - t.k if generalized else 0
    colsum = [0] * n
    grid = [[0] * n for _ in range(n)]
    for q in range(1, n + 1):
        col = _place_one(colsum, a[n - q])
        grid[q - 1][col - 1] = 1
        colsum[col - 1] += 1
        if q == opening_row:
            opening_col = col
        elif opening_row and q == opening_row + 1:
            grid[q - 1][opening_col - 1] = -1
            colsum[opening_col - 1] -= 1
            closing_col = opening_col + _place_one(colsum[opening_col:], t.b)
            grid[q - 1][closing_col - 1] = 1
            colsum[closing_col - 1] += 1
    return validate_asm(grid)


# ---------------------------------------------------------------------------
# the writers and the inversion count on dense rows: the oracles of the
# one writer (``matrix._write``, which ``perm_matrix`` calls) and of the
# south-west walk (``matrix._walk``) that ``inversions`` and
# ``classical_params`` run over the sparse view


def dense_write(first, extras) -> AsmMatrix:
    """The matrix with this sparse view, ``(first, extras)`` with any number
    of ``(row, minus_col, plus_col)`` pairs, bottom row first and right to
    left, written on zero rows (an entry that is not an ``int`` in ``1..n``
    is not written) and checked by ``validate_asm``.  Rows that are an ASM
    but whose view, read back off them by a walk over every entry, is not
    the one given raise :class:`InternalInvariantViolation`: writes that
    landed on one position, a pair whose 1 is given left of its -1, pairs
    out of order, or an entry left unwritten."""
    view = (first, extras)
    n = len(first)
    rows = [[0] * n for _ in first]
    writes = [(q, col, 1) for q, col in enumerate(first, start=1)]
    for q, minus, plus in extras:
        writes += [(q, minus, -1), (q, plus, 1)]
    for q, col, v in writes:
        if type(q) is int and type(col) is int and 1 <= q <= n and 1 <= col <= n:
            rows[q - 1][col - 1] = v
    a = validate_asm(rows)
    back_first, pairs = [], []
    for q, row in enumerate(a.rows, start=1):
        nonzero = [j for j, v in enumerate(row, start=1) if v]  # 1, -1, 1, ..., 1
        back_first.append(nonzero[0])
        pairs += [(q, minus, plus) for minus, plus in zip(nonzero[1::2], nonzero[2::2])]
    back = tuple(back_first), tuple(reversed(pairs))
    if back != view or any(type(q) is not int or type(col) is not int for q, col, _ in writes):
        raise InternalInvariantViolation(f"{view} is not the sparse view of the rows it writes")
    return a


def dense_perm_matrix(word) -> AsmMatrix:
    """The permutation matrix of a one-line word, written on zero rows (an
    entry that is not an ``int`` in ``1..n`` leaves its row zero) and
    checked by ``validate_asm``."""
    n = len(word)
    rows = [[0] * n for _ in word]
    for row, c in zip(rows, word):
        if type(c) is int and 1 <= c <= n:
            row[c - 1] = 1
    return validate_asm(rows)


def dense_inversions(a: AsmMatrix) -> int:
    """The inversion number of ``a``: walks every entry of the rows
    bottom-up, keeping the column sums of the rows below."""
    n = a.n
    total = 0
    below = [0] * n
    for i in range(n - 1, -1, -1):
        row = a.rows[i]
        prefix = 0  # sum of below[l] for l < current column
        for j in range(n):
            if row[j]:
                total += row[j] * prefix
            prefix += below[j]
        for j in range(n):
            if row[j]:
                below[j] += row[j]
    return total


# ---------------------------------------------------------------------------
# the discharge steps one at a time on the n 1s of a matrix as ``(row,
# column)`` points, through the displacement core: the oracles of the
# fused word kernels ``discharge._discharge_word`` and ``_recharge``


def points_discharge_word(cells) -> tuple[int, ...]:
    """The four steps on the points of the matrix with these cells; returns
    the one-line word of the permutation matrix they leave."""
    g = cells.geometry
    n = len(cells.first)
    points = list(enumerate(cells.first, start=1))  # step 1

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
    word = tuple(j for _, j in points)
    lines = list(range(1, n + 1))
    if [i for i, _ in points] != lines or sorted(word) != lines:
        raise InternalInvariantViolation("discharge did not produce a permutation matrix")
    return word


def points_recharge(n: int, word, k: int, c: int, e: int) -> tuple:
    """The sparse view of ``recharge`` of ``(k, P, c, E)`` given the
    one-line word of P (None if P is not a permutation matrix), the steps
    reversed one at a time on points; the membership conditions are read
    off the points first, and the first that fails raises."""
    if type(k) is not int or type(c) is not int or type(e) is not int:
        raise InvalidTuple(0, "entries must be integers")
    if not 1 <= k <= n - 2:
        raise InvalidTuple(1, f"k={k} outside [1, {n - 2}]")
    if word is None:
        raise InvalidTuple(2, "matrix component is not a permutation matrix")
    col_of = dict(enumerate(word, start=1))
    j, m = col_of[k], col_of[k + 1]  # opening column, and the 1 below it
    if not m < j:
        raise InvalidTuple(3, f"row {k + 1}'s 1 (column {m}) is not left of row {k}'s (column {j})")
    if min(c, e) < 0:
        raise InvalidTuple(4, "c and E must be non-negative")
    x = len([q for q, col in col_of.items() if q > k and col > j])
    if not c + e < x:
        raise InvalidTuple(4, f"c + E = {c + e} must be < x = {x}")

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
    return tuple(col for _, col in sorted(points)), ((closing_row, j, closing_col),)


# ---------------------------------------------------------------------------
# the census counted with one Counter entry per (state or block, value) pair:
# the oracles of the packed-polynomial counts of ``distribution``


def counter_transfer_distribution(n: int, keys: tuple[str, ...]) -> Counter:
    """``distribution`` over r, s and i by a transfer count: going up from
    the bottom row, each column-sum state gets the counts of the (s, i)
    values of the rows that can complete it; the first row, whose 1 gives
    r, is added last."""
    track_s, track_i = "s" in keys, "i" in keys
    below = {(1 << n) - 1: {(0, 0): 1}}
    for depth in range(n - 1, 0, -1):
        layer = {}
        for state in range(1 << n):
            if state.bit_count() != depth:
                continue
            counts: Counter = Counter()
            for _, new_state, minuses, _, inv in _row_moves(n, state):
                ds, di = minuses * track_s, inv * track_i
                for (s, i), count in below[new_state].items():
                    counts[s + ds, i + di] += count
            layer[state] = counts
        below = layer
    out: Counter = Counter()
    for _, new_state, _, r, _ in _row_moves(n, 0):
        for (s, i), count in below[new_state].items():
            values = {"r": r, "s": s, "i": i}
            out[tuple(values[k] for k in keys)] += count
    return out


def counter_table_space_distribution(n: int, keys: tuple[str, ...]) -> Counter:
    """``distribution`` over the valid order-n tables: for each k the free
    entries ``a_i``, i not in {k-1, k}, convolved with every block
    ``(a_{k-1}, a_k, b, beta)`` one by one, which is O(n^5)."""
    want_r, want_i = "r" in keys, "i" in keys
    out: Counter = Counter()
    for k in range(3, n + 1):
        # (r, sum of the free entries), r taken from a_n when it is free
        free: Counter = Counter({(0, 0): 1})
        for i in range(1, n + 1):
            if i in (k - 1, k):
                continue
            step = Counter()
            for (r, total), count in free.items():
                for v in range(i):
                    step[v * want_r if i == n else r, total + v * want_i] += count
            free = step
        block: Counter = Counter()
        for ak1 in range(k - 1):
            for ak in range(ak1 + 1, k - 1):
                for b in range(k - 1 - ak):  # a_k + b <= k-2
                    for beta in range(ak + b - ak1):  # a_{k-1} + beta < a_k + b
                        block[(
                            ak * want_r if k == n else 0,
                            (ak1 + ak + b + 1) * want_i,
                            *_block_charges(ak1, ak, b, beta),
                        )] += 1
        joint: Counter = Counter()
        for (r, total), count in free.items():
            for (rb, ib, e, bb, j), cb in block.items():
                joint[r + rb, total + ib, e, bb, j] += count * cb
        for (r, i, e, b, j), count in joint.items():
            values = {"r": r, "s": 1, "i": i, "E": e, "B": b, "J": j}
            out[tuple(values[key] for key in keys)] += count
    return out


# ---------------------------------------------------------------------------
# configurations written and read on their step strings: the oracles of a
# configuration that keeps its table and of the readers of that table


def dense_config(t: GenInvTable) -> MixedConfiguration:
    """The configuration of table ``t``, its paths written at once."""
    n, k = t.n, t.k
    paths = []
    for i in range(1, n + 1):
        a = t.a[i - 1]
        if i == k - 1:
            steps = "E" * a + "F" * t.beta + "N" + "F" * (k - 2 - a - t.beta)
        elif i == k:
            steps = "E" * a + "S" + "E" * t.b + "F" * (k - 2 - a - t.b)
        else:
            steps = "E" * a + "F" * (i - 1 - a)
        paths.append(MixedPath((0, i), steps))
    return MixedConfiguration(tuple(paths))


def special_vertices(cfg: MixedConfiguration, k: int) -> tuple:
    """The start of the S-step of path k and the end of the N-step of
    path k-1, read by step counts."""
    s_path, n_path = cfg.paths[k - 1], cfg.paths[k - 2]
    return (s_path.vertex_at(s_path.steps.index("S")),
            n_path.vertex_at(n_path.steps.index("N") + 1))


def strings_table(cfg: MixedConfiguration) -> GenInvTable:
    """The table of a one-N configuration, read off its step strings."""
    k = _special_k(cfg)
    a = [p.steps.count("E") for p in cfg.paths]
    (s_x, _), (n_x, _) = special_vertices(cfg, k)
    beta = n_x - 1 - a[k - 2]
    b = a[k - 1] - s_x
    a[k - 1] = s_x
    return GenInvTable(k=k, a=tuple(a), b=b, beta=beta)


def strings_params(cfg: MixedConfiguration) -> ParamVector:
    """(r, i, E, B, J) of a one-N configuration, counted on its steps and
    measured at its special vertices, without its table."""
    k = _special_k(cfg)
    s_path, n_path = cfg.paths[k - 1], cfg.paths[k - 2]
    s_start, n_end = special_vertices(cfg, k)
    # E-steps on level n: Left parts only go down, and only the last path
    # starts on level n
    top = cfg.paths[-1].steps
    r = len(top) - len(top.lstrip("E"))
    # no S-step precedes these two, so their x is their position
    b_run = s_path.steps.count("E", s_start[0] + 1)
    beta_run = n_path.steps.count("F", 0, n_end[0] - 1)
    junction_gap = abs(s_path.junction[0] - n_path.junction[0])
    return ParamVector(
        r=r,
        i=cfg.step_count("E") + 1,
        e=n_end[0] - s_start[0],
        b=b_run - beta_run,
        j=junction_gap,
    )


def junction_dual(cfg: MixedConfiguration) -> MixedConfiguration:
    """The path dual of a configuration with zero or one N-step, by its
    definition: each junction, the S-start and the N-end mirrored through
    ``(x, l) -> (l-1-x, l)``, read as the dual table and written at once."""
    n_steps = validate_config(cfg).step_count("N")
    if n_steps == 1:
        k = _special_k(cfg)
    assert n_steps <= 1
    a = [p.junction[1] - 1 - p.junction[0] for p in cfg.paths]
    if n_steps == 0:
        assert all(0 <= x < i for i, x in enumerate(a, start=1))
        return MixedConfiguration(tuple(
            MixedPath((0, i), "E" * x + "F" * (i - 1 - x)) for i, x in enumerate(a, start=1)
        ))
    (s_x, s_level), (n_x, n_level) = special_vertices(cfg, k)
    new_ak1, top = sorted(a[k - 2 : k])
    a[k - 2 : k] = new_ak1, s_level - 1 - s_x
    dual = GenInvTable(k=k, a=tuple(a), b=top - a[k - 1], beta=n_level - 1 - n_x - new_ak1 - 1)
    return dense_config(table_valid(dual))


def outcome(call, *args) -> tuple:
    """``(None, value)`` of ``call(*args)``, or the class and the message of
    the error it raises; an :class:`InternalInvariantViolation`, which
    names no law of the input, gives its class alone."""
    try:
        return None, call(*args)
    except InternalInvariantViolation:
        return InternalInvariantViolation, None
    except AsmcError as exc:
        return type(exc), str(exc)


def random_valid_table(rng: random.Random, n: int) -> GenInvTable:
    """A valid table of order ``n``: free ``a_i`` in ``[0, i-1]`` (condition
    2), then the block at k drawn inside conditions 3 and 4."""
    k = rng.randint(3, n)
    a = [rng.randint(0, i - 1) for i in range(1, n + 1)]
    ak = rng.randint(1, k - 2)
    ak1 = rng.randint(0, ak - 1)
    b = rng.randint(0, k - 2 - ak)
    beta = rng.randint(0, ak + b - ak1 - 1)
    a[k - 1], a[k - 2] = ak, ak1
    return GenInvTable(k=k, a=tuple(a), b=b, beta=beta)


# dense scans (``matrix._sparse`` calls on a matrix keeping no view) per
# matrix, on average, allowed to each operation on a fresh copy of the
# matrix: each scans once (1.0 measured), with 15% headroom
ORDER7_SCANS = {"charges": 1.15, "neutralize": 1.15, "swap_charges": 1.15}
# writes of a checked view (``matrix._write`` calls) allowed to one call
# of each operation: one per matrix it returns
ORDER7_VALIDATIONS = {"neutralize": 1, "restore": 1, "swap_charges": 2}


@contextmanager
def dense_reads():
    """Count the dense reads of matrices while the block runs: the calls of
    ``matrix._sparse`` that scan rows (on a matrix keeping no view), per
    matrix, and the calls of ``matrix._rows`` (rows written off a view),
    in every ``asmc`` module that binds them.  Yields ``(scans, writes)``: a Counter over the ids of the
    scanned matrices, which stay alive until the block ends, and a
    one-entry list with the number of writes."""
    scans: Counter = Counter()
    scanned = []
    writes = [0]
    real_sparse, real_rows = asmc.matrix._sparse, asmc.matrix._rows

    def sparse(a):
        if "_view" not in vars(a):
            scans[id(a)] += 1
            scanned.append(a)
        return real_sparse(a)

    def rows(*view):
        writes[0] += 1
        return real_rows(*view)

    with pytest.MonkeyPatch.context() as mp:
        for name, real, stub in (("_sparse", real_sparse, sparse), ("_rows", real_rows, rows)):
            for key, mod in list(sys.modules.items()):
                if key.split(".")[0] == "asmc" and getattr(mod, name, None) is real:
                    mp.setattr(mod, name, stub)
        yield scans, writes


@pytest.fixture(scope="session")
def order7_calls():
    """One walk over all order-7 one-minus matrices, counting the dense
    scans (``_sparse`` calls on a matrix keeping no view), ``_write``
    (the one writer, which checks the view of a written matrix),
    ``validate_asm`` and ``reflect`` calls in every ``asmc`` module that
    binds them.

    Returns the modules wrapped for each name, the number of matrices,
    the total dense scans of each operation in ``ORDER7_SCANS``, and
    the most ``_write`` calls (``most``), ``validate_asm`` calls
    (``dense``) and ``reflect`` calls (``reflects``) of one call of each
    operation in ``ORDER7_VALIDATIONS``. The wrapping is undone before the
    tests read it.
    Each operation takes a fresh copy of the matrix, so the landmarks one
    operation keeps on it do not hide the scans of the next.
    """
    counted = (
        (asmc.matrix, "_sparse"),
        (asmc.matrix, "_write"),
        (asmc.matrix, "validate_asm"),
        (asmc.matrix, "reflect"),
    )
    calls = dict.fromkeys([name for _, name in counted], 0)
    wrapped = {}
    scans = dict.fromkeys(ORDER7_SCANS, 0)
    most = dict.fromkeys(ORDER7_VALIDATIONS, 0)
    dense = dict.fromkeys(ORDER7_VALIDATIONS, 0)
    reflects = dict.fromkeys(ORDER7_VALIDATIONS, 0)

    def run(name, arg):
        calls.update(dict.fromkeys(calls, 0))
        out = getattr(asmc, name)(arg)
        if name in scans:
            scans[name] += calls["_sparse"]
        if name in most:
            most[name] = max(most[name], calls["_write"])
            dense[name] = max(dense[name], calls["validate_asm"])
            reflects[name] = max(reflects[name], calls["reflect"])
        return out

    matrices = 0
    with pytest.MonkeyPatch.context() as mp:
        for module, name in counted:
            real = getattr(module, name)

            def counting(*args, real=real, name=name):
                # a _sparse call counts only when it scans rows
                if name != "_sparse" or "_view" not in vars(args[0]):
                    calls[name] += 1
                return real(*args)

            bound = {mod for key, mod in sys.modules.items()
                     if key.split(".")[0] == "asmc" and getattr(mod, name, None) is real}
            for mod in bound:
                mp.setattr(mod, name, counting)
            wrapped[name] = bound
        for m in enumerate_asm(7, s=1):
            run("charges", AsmMatrix(m.rows))
            run("restore", run("neutralize", AsmMatrix(m.rows)))
            run("swap_charges", AsmMatrix(m.rows))
            matrices += 1
    return SimpleNamespace(
        wrapped=wrapped, matrices=matrices, scans=scans, most=most, dense=dense, reflects=reflects
    )
