"""Alternating sign matrices: representation, validation and the classical
parameters.

An order ``n`` alternating sign matrix (ASM) is a square matrix over
``{-1, 0, 1}`` in which the nonzero entries of every row and every column
alternate in sign, beginning and ending with ``1``.  Equivalently, every
row/column prefix sum lies in ``{0, 1}`` and every row and column sums
to ``1``.

All matrices are immutable (tuples of tuples) and therefore hashable,
which the exhaustive bijection checks rely on.  Public coordinates are
1-based throughout: row 1 is the top row, column 1 the leftmost column.

>>> a = validate_asm([[0, 1, 0], [1, -1, 1], [0, 1, 0]])
>>> classical_params(a)
ClassicalParams(r=1, s=1, i=2)
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, groupby, repeat
from typing import Iterable, Iterator, Sequence

from .errors import (
    AlternationViolation,
    BadArgument,
    BadEntry,
    InternalInvariantViolation,
    NotSquare,
    ParseError,
    SumViolation,
)

Grid = tuple[tuple[int, ...], ...]

_ENTRIES = frozenset((-1, 0, 1))
_INT_ONLY = {int}


@dataclass(frozen=True)
class AsmMatrix:
    """A validated alternating sign matrix.

    The constructor does *not* re-check the alternating law; it freezes
    its rows as a tuple of tuples, copying a list or any non-tuple row
    once, and raises :class:`NotSquare` on rows that are not a tuple or
    list, or on a row that is not iterable.  One check of the alternating
    law, :func:`_alternates`, checks a sparse view in O(n + s):
    :func:`validate_asm`, the only check on caller input, runs it on the
    view :func:`_scan` reads off the rows, and :func:`_write`, the one
    writer of a view, on the view it is given.

    Every matrix keeps its *sparse view* ``_view = (first, extras)``
    (:func:`_sparse`, by the keep rule of ``asmc.cells``): the column of
    the first 1 of every row, and one ``(row, minus_col, plus_col)`` per
    -1.  A matrix a writer returns keeps only its view, and ``rows`` is a
    :func:`functools.cached_property` under the field's own name, so
    :func:`_rows` writes them off the view the first time they are read
    and stores them as the field; ``n`` reads the view until then.
    Equality, hashing and repr read ``rows``, so a matrix means the same
    however it was built.  Every reader, and :func:`reflect`, reads the
    view; a matrix built on its rows, as ``enumerate_asm`` builds them, is
    read once by :func:`_scan`, so its readers raise what
    :func:`validate_asm` raises on rows that are not an ASM.

    >>> from asmc import GenInvTable, pair_from_table
    >>> m = pair_from_table(GenInvTable(k=3, a=(0, 0, 1), b=0, beta=0)).matrix
    >>> 'rows' in vars(m), m.n
    (False, 3)
    >>> m == AsmMatrix([[0, 1, 0], [1, -1, 1], [0, 1, 0]]), 'rows' in vars(m)
    (True, True)
    """

    rows: Grid

    def __post_init__(self):
        rows = self.rows
        if not isinstance(rows, (tuple, list)):
            raise NotSquare(f"expected the rows as a tuple or list, got {type(rows).__name__}")
        if type(rows) is not tuple or not {tuple}.issuperset(map(type, rows)):
            object.__setattr__(self, "rows", tuple(map(tuple, _grid(rows))))  # a tuple row is not copied

    @property
    def n(self) -> int:
        if "rows" in self.__dict__:
            return len(self.rows)
        return len(self._view[0])

    def entry(self, i: int, j: int) -> int:
        """Entry at row ``i``, column ``j``, both ``int`` in ``1..n``;
        raises :class:`BadArgument` on any other index."""
        n = self.n
        if not (type(i) is int and type(j) is int and 1 <= i <= n and 1 <= j <= n):
            raise BadArgument(f"expected row and column in 1..{n}, got ({i!r}, {j!r})")
        return self.rows[i - 1][j - 1]

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.rows)

    def __str__(self) -> str:
        return matrix_to_text(self).rstrip("\n")


# a matrix that keeps only its view writes its rows on their first read;
# the list is made a tuple once, at its final length
AsmMatrix.rows = cached_property(lambda self: tuple(_rows(*self._view)))
AsmMatrix.rows.__set_name__(AsmMatrix, "rows")


@dataclass(frozen=True)
class ClassicalParams:
    """The classical statistics of an ASM.

    ``r`` counts the entries to the left of the first row's 1, ``s`` the
    entries equal to -1, and ``i`` the inversions (sum over entry pairs
    in strict south-west position of the product of the two entries).
    """

    r: int
    s: int
    i: int


def _check_line(values: Sequence[int], axis: str, index: int) -> None:
    """Enforce the alternating law on one row or column."""
    prefix = 0
    seen_nonzero = False
    for v in values:
        if v:
            seen_nonzero = True
        prefix += v
        if prefix < 0:
            raise AlternationViolation(axis, index, "begins with -1 or has unmatched -1")
        if prefix > 1:
            raise AlternationViolation(axis, index, "two 1s with no -1 between them")
    if prefix != 1:
        if seen_nonzero:
            raise AlternationViolation(axis, index, "ends with -1")
        raise SumViolation(axis, index, prefix)


def validate_asm(grid: Iterable[Sequence[int]]) -> AsmMatrix:
    """Validate an integer grid and wrap it as an :class:`AsmMatrix`.

    Raises :class:`NotSquare`, :class:`BadEntry`,
    :class:`AlternationViolation` or :class:`SumViolation` on the first
    law the grid breaks (entries row by row, then columns before rows).
    Entries must be ``int`` -1, 0 or 1; booleans, floats and strings are
    bad entries, not converted.  The one scan (:func:`_scan`) tests the
    type of every entry, then reads the sparse view off the rows as given
    and checks it (:func:`_alternates`); the matrix returned keeps only
    that view (by the keep rule of ``asmc.cells``), so it neither holds
    nor copies the caller's rows, which are written from the view when
    first read.
    """
    rows = _grid(grid)
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise NotSquare(f"expected a square matrix, got row lengths {[len(r) for r in rows]}")
    view = _scan(rows)
    if view is None:
        # name the first law broken: a bad entry, row by row, then a bad
        # line; the type test also keeps unhashable entries from the set test
        for i, row in enumerate(rows, start=1):
            if list(map(type, row)).count(int) != n or not _ENTRIES.issuperset(row):
                j, v = next((j, v) for j, v in enumerate(row, start=1)
                            if type(v) is not int or v not in _ENTRIES)
                raise BadEntry(i, j, v)
        for j, column in enumerate(zip(*rows), start=1):
            _check_line(column, "column", j)
        for i, row in enumerate(rows, start=1):
            _check_line(row, "row", i)
        raise InternalInvariantViolation("the alternation check rejected a grid no line of which breaks it")
    return _on_demand(view)


def _grid(grid: Iterable[Sequence[int]]) -> list:
    """The rows of ``grid``, a tuple or list row as given and any other as
    its tuple; raises :class:`NotSquare` on a grid or a row that is not
    iterable."""
    try:
        return [row if type(row) is tuple or type(row) is list else tuple(row) for row in grid]
    except TypeError as exc:
        raise NotSquare(f"expected a square matrix given as rows: {exc}") from exc


def reflect(a: AsmMatrix) -> AsmMatrix:
    """Vertical reflection: entry (i, j) of the result is entry (i, n+1-j).
    The sparse view is mirrored (:func:`_mirror`), and the rows are
    written when first read."""
    return _on_demand(_mirror(*_sparse(a)))


def minus_count(a: AsmMatrix) -> int:
    """Number of entries equal to -1 (the statistic ``s``)."""
    return len(_sparse(a)[1])


def inversions(a: AsmMatrix) -> int:
    """Inversion number of an ASM.

    For each nonzero entry, sum the entries strictly below and strictly to
    its left, and accumulate the product.  On permutation matrices this is
    the usual inversion count of the one-line word.  It is the ``i`` of
    :func:`classical_params`.
    """
    return classical_params(a).i


def classical_params(a: AsmMatrix) -> ClassicalParams:
    """The classical triple (r, s, i) off the sparse view of ``a``
    (:func:`_sparse`): ``r`` from the first row's 1, ``s`` the extra pairs
    and ``i`` one south-west walk (:func:`_walk`), writing no rows.

    >>> from asmc import GenInvTable, pair_from_table, restore
    >>> m = restore(pair_from_table(GenInvTable(k=3, a=(0, 0, 1), b=0, beta=0)))
    >>> classical_params(m), 'rows' in vars(m)
    (ClassicalParams(r=1, s=1, i=2), False)
    """
    first, extras = _sparse(a)
    counts, extra = _walk(first, extras)
    return ClassicalParams(r=first[0] - 1, s=len(extras), i=sum(counts) + extra)


def is_permutation_matrix(a: AsmMatrix) -> bool:
    return minus_count(a) == 0


def perm_one_line(a: AsmMatrix) -> tuple[int, ...]:
    """One-line word of a permutation matrix: the ``first`` of its sparse
    view, which a matrix built by :func:`perm_matrix` keeps; raises
    :class:`BadArgument` on a matrix with a -1."""
    first, extras = _sparse(a)
    if extras:
        raise BadArgument(f"expected a permutation matrix, got one with s={len(extras)}")
    return first


def perm_matrix(word: Sequence[int]) -> AsmMatrix:
    """Permutation matrix from a 1-based one-line word: the matrix the one
    writer, :func:`_write`, builds on the view ``(word, ())``, from which
    :func:`perm_one_line` reads the word back.  On any other word it
    raises what :func:`validate_asm` raises on the dense rows, an entry
    that is not an ``int`` in ``1..n`` leaving its row zero.
    """
    try:
        len(word)
    except TypeError as exc:
        raise NotSquare(f"expected a one-line word, got {type(word).__name__}") from exc
    return _write(tuple(word), ())


# ---------------------------------------------------------------------------
# the sparse view of a matrix (see AsmMatrix)

_Extras = tuple[tuple[int, int, int], ...]
_View = tuple[tuple[int, ...], _Extras]


def _rows(first: tuple[int, ...], extras: _Extras, row: type = tuple) -> list:
    """The dense rows of a sparse view, written as given, whether or not
    it is one: a 1 in column ``first[q-1]`` of each row ``q``, then on
    row ``q`` of each ``(q, minus_col, plus_col)`` of ``extras`` the -1
    and the 1 right of it.  Each row is a ``row``: a tuple for the rows
    of a matrix, a list for its JSON form."""
    line = [0] * len(first)  # one zero line, snapshot with each 1 in turn
    rows = []
    for c in first:
        line[c - 1] = 1
        rows.append(row(line))
        line[c - 1] = 0
    for q, pairs in groupby(extras, lambda pair: pair[0]):  # each row rewritten once
        line = list(rows[q - 1])
        for _, minus, plus in pairs:
            line[minus - 1] = -1
            line[plus - 1] = 1
        rows[q - 1] = row(line)
    return rows


def _mirror(first: tuple[int, ...], extras: _Extras) -> _View:
    """The sparse view of the vertical reflection: every column ``j``
    becomes ``n+1-j`` and each row's nonzero columns are read backwards,
    so the row's last 1 becomes its first and each -1 pairs with the 1
    that was left of it."""
    m = len(first) + 1
    mirrored = [m - col for col in first]
    pairs = []
    for q, minus, plus in reversed(extras):  # top row first, each row left to right
        pairs.append((q, m - minus, mirrored[q - 1]))
        mirrored[q - 1] = m - plus
    pairs.sort(reverse=True)  # bottom row first, each row right to left, as scanned
    return tuple(mirrored), tuple(pairs)


def _sparse(a: AsmMatrix) -> _View:
    """The sparse view ``(first, extras)`` of ``a``: the column of the
    first 1 of every row, and ``(row, minus_col, plus_col)`` for each -1,
    bottom row first and right to left, with the 1 right of it.  A matrix
    keeps it (``_view``, by the keep rule of ``asmc.cells``), and reading
    it writes no rows; a matrix built on its rows alone is read once by
    the one scan, :func:`_scan`, and its check.  Rows that break
    the law raise what :func:`validate_asm` raises on them, and an
    argument that is not a matrix raises :class:`BadArgument`."""
    try:
        view = a.__dict__.get("_view")
    except AttributeError:  # no value at all: refused below
        view = None
    if view is not None:
        return view
    rows = _matrix(a).rows
    view = _scan(rows)
    if view is None:
        validate_asm(rows)  # raises, as its own scan fails too
    object.__setattr__(a, "_view", view)
    return view


def _matrix(a: AsmMatrix) -> AsmMatrix:
    """``a``, or :class:`BadArgument` if it is not an :class:`AsmMatrix`."""
    if not isinstance(a, AsmMatrix):
        raise BadArgument(f"expected an AsmMatrix, got {type(a).__name__}")
    return a


def _scan(rows: Sequence[Sequence[int]]) -> _View | None:
    """The sparse view of ``rows`` if they are an ASM, or None.  Every
    entry must be an ``int``, which one pass over the grid tests first, so
    that no bool, float or str is read as the int it equals.  Each row is
    then read once, in C: the column of its first 1, and for a row with
    more nonzero entries than that, its nonzero columns, whose entries
    must read 1, -1, ..., 1.  The view is then checked by the one check
    of the alternating law, :func:`_alternates`."""
    n = len(rows)
    if not n or list(map(type, chain.from_iterable(rows))).count(int) != n * n:
        return None
    try:
        first = tuple([row.index(1) + 1 for row in rows])  # a list first, so the tuple has its final length
    except ValueError:  # a row with no 1
        return None
    pairs = []  # (row, minus_col, plus_col), top row first, each row left to right
    for q, row in enumerate(rows, start=1):
        if len(row) != n or row.count(0) != n - 1:  # more than its first 1
            nonzero = list(compress(range(1, n + 1), row))  # the first 1, then -1, 1 pairs
            if len(row) != n or [row[j - 1] for j in nonzero] != [1, -1] * (len(nonzero) // 2) + [1]:
                return None
            pairs += zip(repeat(q), nonzero[1::2], nonzero[2::2])
    extras = tuple(reversed(pairs))
    return (first, extras) if _alternates(first, extras) else None


def _alternates(first: tuple[int, ...], extras: _Extras) -> bool:
    """Whether ``(first, extras)`` is the sparse view of an ASM: the one
    check of the alternating law, in O(n + s).  Every entry must be an
    ``int`` and every column of ``first`` in ``1..n``.  The walk then goes
    down the rows with one state per column, taking each row's pairs left
    to right, right of its first 1 in increasing columns up to n (so the
    row reads 1, -1, ..., 1): a 1 needs its column closed and opens it, a
    -1 closes it, and every pair must be reached.  That is the whole law:
    the n + s 1s each open a column and at most n are open, so each -1
    closes an open one, and every column ends open.  With no pairs that
    says the n columns of ``first`` are ``1..n``, which one set test
    checks in C."""
    n = len(first)
    if not extras:
        return n > 0 and _INT_ONLY.issuperset(map(type, first)) and set(first).issuperset(range(1, n + 1))
    if not (n and _INT_ONLY.issuperset(map(type, chain(first, chain.from_iterable(extras))))
            and 0 < min(first) and max(first) <= n):
        return False
    is_open = bytearray(n + 1)  # by column: the entries above sum to 1
    pending = reversed(extras)  # top row first, each row left to right
    reached = 0
    at, minus, plus = next(pending, (0, 0, 0))  # row 0, which the walk never reaches
    for q, col in enumerate(first, start=1):
        if is_open[col]:
            return False
        is_open[col] = 1
        while q == at:
            if not col < minus < plus <= n or is_open[plus]:
                return False
            is_open[minus], is_open[plus] = 0, 1
            col = plus
            reached += 1
            at, minus, plus = next(pending, (0, 0, 0))
    return reached == len(extras)


def _walk(first: tuple[int, ...], extras: _Extras = ()) -> tuple[tuple[int, ...], int]:
    """The south-west counts of the sparse view ``(first, extras)``: walks
    the rows bottom-up, keeping the sorted columns whose entries below the
    row sum to 1 (in an ASM each such sum is 0 or 1), and counts those left
    of each nonzero entry (Knuth, *TAOCP* vol. 3, 5.1.1).  Returns the
    counts at the first 1 of rows n..1 (the inversion table) and the signed
    sum of those at the extra pairs, taken once the row's first 1 is kept:
    that adds 1 to both counts of a pair, leaving their difference."""
    below: list[int] = []
    counts = []
    extra = 0
    pending = iter(extras)
    row, minus, plus = next(pending, (0, 0, 0))
    for q in range(len(first), 0, -1):
        col = first[q - 1]
        k = bisect_left(below, col)
        counts.append(k)
        below.insert(k, col)
        while q == row:
            k, k_plus = bisect_left(below, minus), bisect_left(below, plus)
            extra += k_plus - k
            del below[k]
            below.insert(k_plus - 1, plus)
            row, minus, plus = next(pending, (0, 0, 0))
    return tuple(counts), extra


def _on_demand(view: _View) -> AsmMatrix:
    """The matrix of a checked sparse view, its rows written on their
    first read."""
    a = object.__new__(AsmMatrix)
    object.__setattr__(a, "_view", view)
    return a


def _write(first: tuple[int, ...], extras: _Extras) -> AsmMatrix:
    """The one writer: the matrix with sparse view ``(first, extras)``, any
    number of pairs, checked by :func:`_alternates` and kept.  On a view
    the check rejects it raises what :func:`validate_asm` raises on the
    dense rows of the view's ``int`` entries in ``1..n``.  Should those
    pass, it raises :class:`NotSquare` naming the first entry left
    unwritten, one that is not an ``int`` in ``1..n``; with none, they
    are not the matrix the view stands for (writes on one position, a 1
    given left of its -1), or the check is too strict, and it raises
    :class:`InternalInvariantViolation`."""
    if _alternates(first, extras):
        return _on_demand((first, extras))
    n = len(first)
    rows = [[0] * n for _ in first]
    writes = [(q, col, 1) for q, col in enumerate(first, start=1)]
    for q, minus, plus in extras:
        writes += (q, minus, -1), (q, plus, 1)
    skipped = []
    for q, col, v in writes:
        if type(q) is int and type(col) is int and 1 <= q <= n and 1 <= col <= n:
            rows[q - 1][col - 1] = v
        else:
            skipped.append((q, col))
    validate_asm(rows)
    if skipped:
        q, col = skipped[0]
        raise NotSquare(f"entry at ({q!r},{col!r}): row and column must be ints in 1..{n}")
    raise InternalInvariantViolation("the rows are an ASM, but the writer's check rejected its input")


# ---------------------------------------------------------------------------
# text / JSON formats


def matrix_to_text(a: AsmMatrix) -> str:
    """Canonical text form: one line per row, entries space-separated."""
    return "\n".join(" ".join(str(v) for v in row) for row in _matrix(a).rows) + "\n"


def matrix_from_text(text: str) -> AsmMatrix:
    """Parse the text form; blank lines and ``#`` comments are ignored."""
    _check_text(text)
    rows = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            rows.append(_text_ints(line))
        except ValueError as exc:
            raise ParseError(f"cannot parse matrix line {line!r}") from exc
    if not rows:
        raise ParseError("no matrix rows found in input")
    return validate_asm(rows)


def matrix_to_json(a: AsmMatrix) -> dict:
    """``{"n": n, "rows": [...]}``, the rows written as lists straight from
    the sparse view (:func:`_sparse`), so a matrix whose rows are not
    written yet is left unwritten, and rows that break the law raise what
    :func:`validate_asm` raises on them."""
    rows = _rows(*_sparse(a), list)
    return {"n": len(rows), "rows": rows}


def matrix_from_json(obj: dict | str) -> AsmMatrix:
    if isinstance(obj, str):
        obj = json_object(obj)
    if not isinstance(obj, dict) or "rows" not in obj:
        raise ParseError("matrix JSON must be an object with a 'rows' field")
    a = validate_asm(obj["rows"])
    if "n" in obj and json_int(obj["n"], "n") != a.n:
        raise ParseError(f"declared n={obj['n']} does not match {a.n} rows")
    return a


def _text_ints(text: str) -> list[int]:
    """The whitespace-separated integers of ``text``, each an optional sign
    and ASCII digits 0-9; raises ``ValueError`` otherwise.  ``int`` takes
    exactly these once underscores and non-ASCII characters are ruled out."""
    tokens = text.split()
    joined = "".join(tokens)
    if not joined.isascii() or "_" in joined:
        raise ValueError(f"not decimal integers: {text!r}")
    return [int(tok) for tok in tokens]


def _check_text(text: str) -> None:
    """Raise :class:`ParseError` unless ``text`` is a ``str``."""
    if not isinstance(text, str):
        raise ParseError(f"expected text, got {type(text).__name__}")


def json_object(text: str) -> dict:
    """The JSON object that ``text`` holds; raises :class:`ParseError` on
    text that is not JSON (a number past the interpreter's digit limit or
    nesting past its recursion limit included) or is not an object."""
    _check_text(text)
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError("expected a JSON object")
    return obj


def json_int(value, name: str) -> int:
    """``value`` if it is a JSON integer; raises :class:`ParseError` for
    anything else, booleans and floats included, instead of converting."""
    if type(value) is not int:
        raise ParseError(f"{name} must be an integer, got {value!r}")
    return value
