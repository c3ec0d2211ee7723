"""Neutralizing: one-minus ASMs as (neutral matrix, charge) pairs.

Discharging a positive matrix and recharging with the whole charge moved
into the closing sum yields a *neutral* matrix; remembering the charge
gives a reversible pair.  Negative matrices go through vertical
reflection.  The pair (N, E) always satisfies ``-ell(N) <= E <= c(N)``.

On pairs, replacing the charge E by ``c(N) - ell(N) - E`` is an
involution; conjugated back to matrices it swaps the electric and the
magnetic charge while fixing everything else (r, i, J and the rows down
to the opening row).

Both directions discharge and recharge on the one-line word of the
permutation in between; only the matrix returned is built and validated.
Every landmark is read through the memo of :mod:`asmc.cells`
(``cells._keep``): ``discharge._recharge`` and
``inv_table.pair_from_table`` seed the geometry of the matrices they
build, the former also their cell sums, so :class:`NeutralPair` checks
its invariants from facts already known.  A negative matrix is taken
through ``cells._reflect``, which mirrors the column indices of its
geometry instead of scanning the reflected copy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cells import CellSums, SignClass, _cell_sums, _charges, _geometry, _reflect, _sign_class
from .discharge import _discharge_word, _recharge
from .errors import InvalidPair, NotOneMinus
from .matrix import AsmMatrix, json_int, matrix_from_json, matrix_to_json


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
            g = _geometry(self.matrix)
        except NotOneMinus as exc:
            raise InvalidPair(f"pair matrix must have exactly one -1: {exc}") from exc
        cls = _sign_class(self.matrix, g)
        if cls is not SignClass.NEUTRAL:
            raise InvalidPair(f"pair matrix must be neutral, got {cls.value}")
        sums = _cell_sums(self.matrix, g)
        if not -sums.ell <= self.charge <= sums.c:
            raise InvalidPair(
                f"charge {self.charge} outside [{-sums.ell}, {sums.c}]"
            )

    @property
    def sums(self) -> CellSums:
        return _cell_sums(self.matrix, _geometry(self.matrix))

    def to_json(self) -> dict:
        return {"N": matrix_to_json(self.matrix), "E": self.charge}


def pair_from_json(obj: dict) -> NeutralPair:
    from .errors import ParseError

    try:
        return NeutralPair(matrix=matrix_from_json(obj["N"]), charge=json_int(obj["E"], "E"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"pair JSON needs a matrix N and an integer E: {exc}") from exc


def neutralize(a: AsmMatrix) -> NeutralPair:
    """Encode a one-minus ASM as a (neutral matrix, charge) pair."""
    g = _geometry(a)  # raises NotOneMinus
    cls = _sign_class(a, g)
    if cls is SignClass.NEUTRAL:
        return NeutralPair(a, 0)
    if cls is SignClass.NEGATIVE:
        mirrored = neutralize(_reflect(a, g))
        m = mirrored.matrix
        return NeutralPair(_reflect(m, _geometry(m)), -mirrored.charge)
    ch = _charges(a, g)
    neutral = _recharge(a.n, _discharge_word(a, g), g.opening_row, ch.c + ch.e, 0)
    return NeutralPair(neutral, ch.e)


def restore(pair: NeutralPair) -> AsmMatrix:
    """Inverse of :func:`neutralize`."""
    if pair.charge == 0:
        return pair.matrix
    m = pair.matrix
    g = _geometry(m)
    if pair.charge < 0:
        back = restore(NeutralPair(_reflect(m, g), -pair.charge))
        return _reflect(back, _geometry(back))
    # the pair's matrix is neutral: its discharge has charge 0 and closing sum c
    word = _discharge_word(m, g)
    return _recharge(m.n, word, g.opening_row, pair.sums.c - pair.charge, pair.charge)


def flip_charge(pair: NeutralPair) -> NeutralPair:
    """Reflect the charge within its admissible interval:
    ``E -> c(N) - ell(N) - E``.  An involution."""
    sums = pair.sums
    return NeutralPair(pair.matrix, sums.c - sums.ell - pair.charge)


def swap_charges(a: AsmMatrix) -> AsmMatrix:
    """The matrix-level involution exchanging electric and magnetic
    charges; preserves r, i, J and commutes with reflection."""
    return restore(flip_charge(neutralize(a)))
