"""Neutralizing: one-minus ASMs as (neutral matrix, charge) pairs.

Discharging a positive matrix and recharging with the whole charge moved
into the closing sum yields a *neutral* matrix; remembering the charge
gives a reversible pair.  Negative matrices go through vertical
reflection.  The pair (N, E) always satisfies ``-ell(N) <= E <= c(N)``.

On pairs, replacing the charge E by ``c(N) - ell(N) - E`` is an
involution; conjugated back to matrices it swaps the electric and the
magnetic charge while fixing everything else (r, i, J and the rows down
to the opening row).

Both directions are one recharge on sparse views (:func:`_recharged`):
the discharge word of the matrix, recharged with the same ``k`` and
``c + E`` and the new charge, 0 to neutralize and E to restore.  A
negative matrix, or a negative charge, is taken through the mirrored
view, so no reflected matrix is written.  The word kernels check
nothing (a tuple is checked only at ``discharge.tuple_valid`` and
``discharge.recharge``), so the discharge word is recharged as made.
Only the matrix returned is built, by ``matrix._write``, which checks
it once on its view and keeps it; its rows are written when first read,
and its landmarks and cell sums read once off its view
(``cells._cells``), which is all :class:`NeutralPair` checks its
invariants on.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cells import CellSums, SignClass, _Cells, _cells, _read
from .discharge import _discharge_word, _recharge
from .errors import InvalidPair, NotOneMinus, ParseError
from .matrix import AsmMatrix, _mirror, _View, _write, json_int, matrix_from_json, matrix_to_json


@dataclass(frozen=True)
class NeutralPair:
    """A neutral one-minus ASM with an integer charge in
    ``[-ell(N), c(N)]``.  Invariants are checked eagerly; downstream code
    may assume them.

    The cell sums of the matrix, computed for the range check, are kept
    on the matrix outside its dataclass fields, so equality and hashing
    see only ``matrix`` and ``charge``."""

    matrix: AsmMatrix
    charge: int

    def __post_init__(self):
        if not isinstance(self.matrix, AsmMatrix):
            raise InvalidPair(f"pair matrix must be an AsmMatrix, got {type(self.matrix).__name__}")
        if type(self.charge) is not int:
            raise InvalidPair(f"charge must be an integer, got {self.charge!r}")
        try:
            cells = _cells(self.matrix)
        except NotOneMinus as exc:
            raise InvalidPair(f"pair matrix must have exactly one -1: {exc}") from exc
        if cells.sign is not SignClass.NEUTRAL:
            raise InvalidPair(f"pair matrix must be neutral, got {cells.sign.value}")
        sums = cells.sums
        if not -sums.ell <= self.charge <= sums.c:
            raise InvalidPair(
                f"charge {self.charge} outside [{-sums.ell}, {sums.c}]"
            )

    @property
    def sums(self) -> CellSums:
        return _cells(self.matrix).sums

    def to_json(self) -> dict:
        return {"N": matrix_to_json(self.matrix), "E": self.charge}


def pair_from_json(obj: dict) -> NeutralPair:
    try:
        return NeutralPair(matrix=matrix_from_json(obj["N"]), charge=json_int(obj["E"], "E"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"pair JSON needs a matrix N and an integer E: {exc}") from exc


def neutralize(a: AsmMatrix) -> NeutralPair:
    """Encode a one-minus ASM as a (neutral matrix, charge) pair.  The pair
    of a matrix that is not neutral is kept on it (``_pair``, by the keep
    rule of ``asmc.cells``); a neutral matrix keeps none, as its pair
    holds it."""
    cells = _cells(a)  # raises NotOneMinus, or BadArgument on a non-matrix
    if cells.sign is SignClass.NEUTRAL:
        return NeutralPair(a, 0)
    pair = a.__dict__.get("_pair")
    if pair is None:
        pair = NeutralPair(_write(*_recharged(cells, 0)), cells.e)
        object.__setattr__(a, "_pair", pair)
    return pair


def restore(pair: NeutralPair) -> AsmMatrix:
    """Inverse of :func:`neutralize`.  The matrix it returns keeps no pair:
    :func:`neutralize` of it recharges afresh."""
    if _checked(pair).charge == 0:
        return pair.matrix
    return _write(*_recharged(_cells(pair.matrix), pair.charge))


def _checked(pair: NeutralPair) -> NeutralPair:
    """``pair``, or :class:`InvalidPair` if it is not a :class:`NeutralPair`."""
    if not isinstance(pair, NeutralPair):
        raise InvalidPair(f"expected a NeutralPair, got {type(pair).__name__}")
    return pair


def _recharged(cells: _Cells, charge: int) -> _View:
    """The sparse view of the discharge of the matrix with these cells,
    recharged with the same ``k`` and ``c + E`` and with ``charge``; a
    negative matrix, or a negative charge on a neutral one, through the
    mirrored view, where both are non-negative."""
    if cells.sign is SignClass.NEGATIVE or charge < 0:
        return _mirror(*_recharged(_read(*_mirror(*cells.view)), -charge))
    n, k, total = len(cells.first), cells.geometry.opening_row, cells.sums.c + cells.e
    return _recharge(n, _discharge_word(cells), k, total - charge, charge)


def flip_charge(pair: NeutralPair) -> NeutralPair:
    """Reflect the charge within its admissible interval:
    ``E -> c(N) - ell(N) - E``.  An involution."""
    sums = _checked(pair).sums
    return NeutralPair(pair.matrix, sums.c - sums.ell - pair.charge)


def swap_charges(a: AsmMatrix) -> AsmMatrix:
    """The matrix-level involution exchanging electric and magnetic
    charges; preserves r, i, J and commutes with reflection."""
    return restore(flip_charge(neutralize(a)))
