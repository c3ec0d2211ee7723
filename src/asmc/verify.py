"""Exhaustive small-order verification of every structural property the
library promises.

Each registered property sweeps all matrices (or derived objects) of one
order and either passes or produces a concrete counterexample; the report
collects per-property results with timings.  The registry is the single
source for both the ``verify`` CLI command and the acceptance tests.

The sweep enumerates each order once, as a stream, for every property
that is a check on one matrix: a :class:`_Record` holds the matrix and
its encodings, each computed on first use and shared by every check of
that matrix, and is dropped when the sweep moves on.  A check takes the
one-minus matrices (of chosen sign classes), the permutation matrices or
every ASM.  A bijection onto a counted set is such a check (the image
lies in the set and the inverse rebuilds the matrix) plus one count per
order, of the set, which must equal the matrices checked.  A property of
a whole order (a total, a mirror-symmetric distribution) takes the order
and the cap and enumerates what it needs itself; no list of an order's
matrices, and no set of their images, is kept.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import permutations, product
from math import comb
from typing import Callable, Iterable, Iterator

from . import cells
from . import enumeration as en
from . import inv_table as it
from . import matrix as mx
from . import neutral as nz
from . import paths as pt
from .cells import SignClass, _cells, cell_sums
from .discharge import (
    DischargeTuple,
    _partial_discharge_neutral_shortcut,
    discharge,
    partial_discharge,
    recharge,
    right_side_sum,
    tuple_valid,
)
from .enumeration import DEFAULT_CAP, enumerate_asm, formula_count
from .errors import AsmcError, BadArgument, CapExceeded, InvalidTable
from .inv_table import (
    GenInvTable,
    dual_table,
    pair_from_table,
    table_params,
    table_valid,
)
from .matrix import (
    AsmMatrix,
    classical_params,
    is_permutation_matrix,
    perm_matrix,
    reflect,
    validate_asm,
)
from .neutral import NeutralPair
from .paths import (
    config_params,
    pair_from_config,
    table_from_config,
)


class _Record:
    """One matrix with its encodings, each computed on first use; the
    charges and encodings exist for one-minus matrices only.

    Every field calls its operation through the operation's module, and a
    record is built afresh for each matrix of each sweep, so an operation
    replaced on its module (a deliberately broken involution) is seen.  A
    record lives only while the sweep is at its matrix; keeping records
    would hold every encoding of an order in memory at once.
    """

    def __init__(self, m: AsmMatrix):
        self.m = m

    @cached_property
    def mirror(self) -> _Record:
        """The record of the vertical reflection."""
        return _Record(mx.reflect(self.m))

    @cached_property
    def swapped(self) -> _Record:
        """The record of the charge swap, called live."""
        return _Record(nz.swap_charges(self.m))

    @cached_property
    def cls(self) -> SignClass:
        return cells.sign_class(self.m)

    @cached_property
    def ch(self) -> cells.ChargeParams:
        return cells.charges(self.m)

    @cached_property
    def params(self) -> mx.ClassicalParams:
        return mx.classical_params(self.m)

    @cached_property
    def pair(self) -> NeutralPair:
        return nz.neutralize(self.m)

    @cached_property
    def restored(self) -> AsmMatrix:
        return nz.restore(self.pair)

    @cached_property
    def table(self) -> GenInvTable:
        return it.gen_table(self.pair)

    @cached_property
    def config(self) -> pt.MixedConfiguration:
        return pt.config_from_pair(self.pair)

    @cached_property
    def walked(self) -> pt.MixedConfiguration:
        """The configuration rebuilt on the paths of ``config``, which keep
        no table, walked once by the path check: the path properties read
        these paths, not the table they were written from."""
        return pt.validate_config(pt.MixedConfiguration(self.config.paths))


@dataclass(frozen=True)
class _Each:
    """A relation checked on every matrix with ``s`` entries equal to -1
    (every ASM when ``s`` is None) and, for one-minus matrices, a sign
    class in ``classes``: ``check`` returns what went wrong, or None.
    A bijection also names its ``codomain``, whose size must equal the
    number of matrices checked at each order."""

    check: Callable[[_Record], str | None]
    classes: frozenset[SignClass] = frozenset(SignClass)
    s: int | None = 1
    codomain: Callable[[int, int], tuple[int, str | None]] | None = None

    def takes(self, rec: _Record) -> bool:
        if self.s is None:
            return True
        return rec.params.s == self.s and (self.s != 1 or rec.cls in self.classes)


def _cx(m: AsmMatrix, note: str) -> str:
    return f"{note}; matrix rows {m.rows}"


# --- counted codomains ------------------------------------------------------
# A map with a left inverse into a finite set of its domain's size is a
# bijection onto it.  Each codomain takes (n, cap) and returns (size of
# the set, counterexample | None).  Each membership test accepts exactly
# the counted set: tuple_valid has the conditions of the loops in
# _iter_valid_tuples, NeutralPair those of the sum in _admissible_pairs,
# and table_valid implies the b and beta bounds of _iter_valid_tables.


def _iter_valid_tuples(n: int) -> Iterable[DischargeTuple]:
    for word in permutations(range(1, n + 1)):
        p = perm_matrix(word)
        for k in range(1, n - 1):
            if word[k] >= word[k - 1]:  # row k+1's 1 must be left of row k's
                continue
            x = right_side_sum(p, k)
            for c in range(x):
                for e in range(x - c):
                    yield DischargeTuple(k, p, c, e)


def _iter_valid_tables(n: int) -> Iterable[GenInvTable]:
    for a in product(*[range(i) for i in range(1, n + 1)]):
        for k in range(3, n + 1):
            top = k - 2 - a[k - 1]
            for b in range(max(top, 0) + 1):
                for beta in range(max(a[k - 1] + b - a[k - 2], 0)):
                    t = GenInvTable(k=k, a=a, b=b, beta=beta)
                    try:
                        table_valid(t)
                    except InvalidTable:
                        continue
                    yield t


def _valid_tuples(n: int, cap: int):
    return sum(1 for _ in _iter_valid_tuples(n)), None


def _admissible_pairs(n: int, cap: int):
    neutral = enumerate_asm(n, s=1, sign=SignClass.NEUTRAL, cap=cap)
    return sum(sums.c + sums.ell + 1 for sums in map(cell_sums, neutral)), None


def _valid_tables(n: int, cap: int):
    size = 0
    for t in _iter_valid_tables(n):
        back = it.gen_table(pair_from_table(t))
        if back != t:
            return size, f"table {t.to_text()} does not round-trip (got {back.to_text()})"
        size += 1
    return size, None


# --- whole-order properties -------------------------------------------------
# Each takes (n, cap), enumerates what it needs itself and returns
# (checked_count, counterexample | None).


def _prop_enumeration_totals(n: int, cap: int):
    # rows that strictly increase prove the stream sorted and duplicate-free
    count, last = 0, None
    for m in enumerate_asm(n, cap=cap):
        if last is not None and m.rows <= last:
            if m.rows == last:
                return 0, f"stream repeats a matrix (n={n})"
            return 0, f"stream is not in row-lexicographic order (n={n})"
        validate_asm(m.rows)
        last = m.rows
        count += 1
    if count != formula_count(n):
        return 0, f"enumerated {count} matrices, formula says {formula_count(n)} (n={n})"
    if n <= 3:
        naive = set()
        for entries in product((-1, 0, 1), repeat=n * n):
            grid = [entries[i * n : (i + 1) * n] for i in range(n)]
            try:
                naive.add(validate_asm(grid).rows)
            except AsmcError:
                continue
        if naive != {m.rows for m in enumerate_asm(n, cap=cap)}:
            return 0, f"backtracking disagrees with the naive filter (n={n})"
    return count, None


def _prop_distribution_mirror(n: int, cap: int):
    counts = Counter((ch.e, ch.b) for ch in map(cells.charges, enumerate_asm(n, s=1, cap=cap)))
    e_counts, b_counts = Counter(), Counter()
    for (e, b), count in counts.items():
        e_counts[e] += count
        b_counts[b] += count
    if any(e_counts[v] != e_counts.get(-v, 0) for v in e_counts):
        return 0, f"E-marginal is not mirror-symmetric (n={n})"
    if any(b_counts[v] != b_counts.get(-v, 0) for v in b_counts):
        return 0, f"B-marginal is not mirror-symmetric (n={n})"
    if e_counts != b_counts:
        return 0, f"E and B distributions differ (n={n})"
    if en.distribution(n, ("E", "B"), cap=cap) != counts:
        return 0, f"distribution of (E, B) disagrees with the enumerated matrices (n={n})"
    return 2 * sum(counts.values()), None


# --- per-matrix checks --------------------------------------------------------
# Each takes a record and returns what went wrong, or None; the sweep adds
# the matrix rows.

_FLIP = {
    SignClass.POSITIVE: SignClass.NEGATIVE,
    SignClass.NEGATIVE: SignClass.POSITIVE,
    SignClass.NEUTRAL: SignClass.NEUTRAL,
}
_SIGN_OF = {SignClass.POSITIVE: 1, SignClass.NEUTRAL: 0, SignClass.NEGATIVE: -1}


def _reflect_classical(rec: _Record):
    n, p, rp = rec.m.n, rec.params, rec.mirror.params
    if mx.reflect(rec.mirror.m) != rec.m:
        return "double reflection is not the identity"
    if p.r + rp.r != n - 1:
        return f"r + reflected r = {p.r + rp.r} != {n - 1}"
    if p.i + rp.i != comb(n, 2) + p.s:
        return f"i + reflected i = {p.i + rp.i} != C(n,2)+s"
    if rp.s != p.s:
        return "reflection changed the -1 count"


def _permutation_inversions(rec: _Record):
    word, n = mx.perm_one_line(rec.m), rec.m.n
    oracle = sum(1 for a in range(n) for b in range(a + 1, n) if word[a] > word[b])
    if rec.params.i != oracle:
        return f"inversion count != pairwise oracle {oracle}"


def _perm_table_roundtrip(rec: _Record):
    t = it.perm_table(rec.m)
    if it.perm_from_table(t) != rec.m:
        return f"table {t} does not rebuild the matrix"
    p = rec.params
    if p.r != t[-1] or p.i != sum(t):
        return f"r, i do not match table {t}"
    if it.perm_table(rec.mirror.m) != tuple(i - 1 - v for i, v in enumerate(t, start=1)):
        return "reflected table is not the complement"


def _reflect_charges(rec: _Record):
    if rec.mirror.cls is not _FLIP[rec.cls]:
        return "sign class does not mirror under reflection"
    ch, rch = rec.ch, rec.mirror.ch
    if ch.e + rch.e != 0 or ch.b + rch.b != 0 or ch.j != rch.j:
        return f"charges {ch} vs reflected {rch} break (anti)invariance"


def _neutral_cell_swap(rec: _Record):
    sums, rsums = rec.ch, rec.mirror.ch
    if (rsums.ell, rsums.c) != (sums.c, sums.ell):
        return "reflection does not swap leading and closing sums"


def _discharge_structure(rec: _Record):
    m, n = rec.m, rec.m.n
    p = partial_discharge(m)
    t = discharge(m)
    k = t.opening_row
    if not is_permutation_matrix(p):
        return "discharge output is not a permutation matrix"
    if p.rows[:k] != m.rows[:k]:
        return f"rows 1..{k} changed under discharge"
    j = p.rows[k - 1].index(1)
    mm = p.rows[k].index(1)
    if mm >= j:
        return "row k+1's 1 is not left of row k's in the output"
    lead = sum(p.rows[q][c] for q in range(k, n) for c in range(mm + 1, j))
    ch = rec.ch
    if ch.ell != lead:
        return f"leading sum {ch.ell} != output leading cell {lead}"
    x_in, x_out = ch.x, right_side_sum(p, k)
    if not (t.closing_sum + t.charge < x_in == x_out):
        return f"c+E={t.closing_sum + t.charge}, x={x_in}, x(P)={x_out}"
    if rec.params.i != classical_params(p).i + t.closing_sum + 1 + t.charge:
        return "inversions do not drop by c + 1 + E"


def _discharge_neutral_shortcut(rec: _Record):
    if partial_discharge(rec.m) != _partial_discharge_neutral_shortcut(rec.m):
        return "four-step and two-step discharge disagree"


def _discharge_bijection(rec: _Record):
    t = tuple_valid(discharge(rec.m))
    if recharge(t) != rec.m:
        return "recharge does not invert discharge"


def _neutralize_roundtrip(rec: _Record):
    if rec.restored != rec.m:
        return "restore does not invert neutralize"


def _neutralize_transport(rec: _Record):
    pair, pm, cm = rec.pair, rec.params, rec.ch
    pn, cn = classical_params(pair.matrix), cells.charges(pair.matrix)
    if (pm.r, pm.i) != (pn.r, pn.i):
        return "neutralizing changed r or i"
    if pair.charge != cm.e:
        return f"pair charge {pair.charge} != electric charge {cm.e}"
    if cn.b != cm.b + cm.e:
        return f"B(N)={cn.b} != B(A)+E(A)={cm.b + cm.e}"
    if cn.j != cm.j:
        return "neutralizing changed J"
    if rec.cls is not SignClass.NEGATIVE and cn.x != cm.x:
        return f"x(N)={cn.x} != x(A)={cm.x}"
    if (pair.charge > 0) - (pair.charge < 0) != _SIGN_OF[rec.cls]:
        return "sign of the charge does not match the class"


def _neutralize_reflect(rec: _Record):
    pair = rec.pair
    if rec.mirror.pair != NeutralPair(reflect(pair.matrix), -pair.charge):
        return "neutralize does not commute with reflection"


def _charge_range(rec: _Record):
    sums = cell_sums(rec.pair.matrix)
    b = rec.ch.b
    if not -sums.ell <= b <= sums.c:
        return f"B={b} outside [{-sums.ell}, {sums.c}]"


def _charge_flip_involution(rec: _Record):
    pair = rec.pair
    flipped = nz.flip_charge(pair)
    if flipped.matrix != pair.matrix:
        return "charge flip changed the neutral matrix"
    if nz.flip_charge(flipped) != pair:
        return "charge flip is not an involution"


def _charge_swap(rec: _Record):
    swapped = rec.swapped
    cm, cs = rec.ch, swapped.ch
    if (cs.e, cs.b) != (cm.b, cm.e):
        return f"swap gave E={cs.e}, B={cs.b}; expected {cm.b}, {cm.e}"
    if swapped.swapped.m != rec.m:
        return "charge swap is not an involution"
    pm, ps = rec.params, swapped.params
    if (pm.r, pm.i, cm.j) != (ps.r, ps.i, cs.j):
        return "charge swap changed r, i or J"
    k = _cells(rec.m).geometry.opening_row
    if swapped.m.rows[:k] != rec.m.rows[:k]:
        return "charge swap changed rows 1..k"


def _charge_swap_reflect(rec: _Record):
    if rec.mirror.swapped.m != rec.swapped.mirror.m:
        return "charge swap does not commute with reflection"


def _table_roundtrip(rec: _Record):
    pair, t = rec.pair, table_valid(rec.table)
    if pair_from_table(t) != pair:
        return f"table {t.to_text()} does not rebuild the pair"
    pv = table_params(t)
    cm, pm = rec.ch, rec.params
    if (pv.r, pv.i, pv.e, pv.b, pv.j) != (pm.r, pm.i, cm.e, cm.b, cm.j):
        return f"table params {pv} disagree with matrix params"
    if cell_sums(pair.matrix).ell != t.a[t.k - 1] - 1 - t.a[t.k - 2]:
        return "leading sum != a_k - 1 - a_{k-1}"


def _table_characterization(rec: _Record):
    t = table_valid(rec.table)
    if nz.restore(pair_from_table(t)) != rec.m:
        return f"table {t.to_text()} does not rebuild the matrix"


def _table_duality(rec: _Record):
    t = rec.table
    d = dual_table(t)
    if dual_table(d) != t:
        return "table duality is not an involution"
    if d != rec.mirror.table:
        return "dual table != table of the reflected matrix"
    if d.a[t.k - 2] + t.a[t.k - 1] + t.b != t.k - 2:
        return "dual a_{k-1} does not complement a_k + b to k-2"
    beta_prime = t.b - t.beta + t.a[t.k - 1] - t.a[t.k - 2] - 1
    if d.beta != beta_prime:
        return f"dual beta {d.beta} != charge-swap beta {beta_prime}"
    if GenInvTable(k=t.k, a=t.a, b=t.b, beta=beta_prime) != rec.swapped.table:
        return "replacing beta by beta' is not the charge swap"


def _paths_roundtrip(rec: _Record):
    cfg, t, n = rec.walked, rec.table, rec.m.n
    if cfg.step_count("N") != 1 or cfg.step_count("S") != 1:
        return "configuration does not have exactly one N and one S"
    if "N" not in cfg.paths[t.k - 2].steps or "S" not in cfg.paths[t.k - 1].steps:
        return "special steps are not in consecutive paths k-1, k"
    ends = [p.end for p in cfg.paths]
    expected_ends = [(i - 1, i) for i in range(1, n + 1)]
    expected_ends[t.k - 2], expected_ends[t.k - 1] = (t.k - 1, t.k), (t.k - 2, t.k - 1)
    if ends != expected_ends:
        return f"endpoints {ends} break the endpoint law"
    if pair_from_config(cfg) != rec.pair:
        return "configuration does not decode to its pair"


def _paths_params(rec: _Record):
    pv = config_params(rec.walked)
    cm, pm = rec.ch, rec.params
    if (pv.r, pv.i, pv.e, pv.b, pv.j) != (pm.r, pm.i, cm.e, cm.b, cm.j):
        return f"path params {pv} disagree with matrix params"


def _paths_duality(rec: _Record):
    cfg = rec.walked
    dual = pt.dual_config(cfg)
    if pt.dual_config(dual) != cfg:
        return "path duality is not an involution"
    if dual != rec.mirror.config:
        return "dual configuration != configuration of the reflection"
    if table_from_config(dual) != dual_table(table_from_config(cfg)):
        return "path duality does not realize table duality"
    if (dual.step_count("N"), dual.step_count("S")) != (1, 1):
        return "duality changed the special step counts"
    junctions = sorted(
        (level - 1 - x, level) for (x, level) in (p.junction for p in cfg.paths)
    )
    if junctions != sorted(p.junction for p in dual.paths):
        return "junctions do not map by the level mirror"


_NEUTRAL = frozenset({SignClass.NEUTRAL})
_NON_NEGATIVE = frozenset({SignClass.NEUTRAL, SignClass.POSITIVE})

PROPERTIES: tuple[tuple[str, str, Callable | _Each], ...] = (
    ("reflect-classical", "double reflection is the identity; r, i, s reflection identities", _Each(_reflect_classical, s=None)),
    ("reflect-charges", "sign class mirrors and E, B negate, J invariant under reflection", _Each(_reflect_charges)),
    ("neutral-cell-swap", "reflection swaps the leading and closing sums of a neutral matrix", _Each(_neutral_cell_swap, _NEUTRAL)),
    ("permutation-inversions", "ASM inversion count reduces to pairwise inversions on permutations", _Each(_permutation_inversions, s=0)),
    ("perm-table-roundtrip", "permutation inversion tables encode and decode faithfully", _Each(_perm_table_roundtrip, s=0)),
    ("discharge-structure", "discharge yields a permutation fixing rows 1..k with the stated sums", _Each(_discharge_structure, _NON_NEGATIVE)),
    ("discharge-neutral-shortcut", "steps 3 and 4 cancel on neutral inputs", _Each(_discharge_neutral_shortcut, _NEUTRAL)),
    ("discharge-bijection", "discharge hits every valid 4-tuple exactly once and inverts", _Each(_discharge_bijection, _NON_NEGATIVE, codomain=_valid_tuples)),
    ("neutralize-roundtrip", "restore inverts neutralize on every one-minus matrix", _Each(_neutralize_roundtrip)),
    ("neutralize-image", "neutralize maps onto exactly the admissible (N, E) pairs", _Each(_neutralize_roundtrip, codomain=_admissible_pairs)),
    ("neutralize-transport", "neutralize preserves r, i, J and shifts B by E", _Each(_neutralize_transport)),
    ("neutralize-reflect", "neutralize commutes with vertical reflection", _Each(_neutralize_reflect)),
    ("charge-range", "the magnetic charge shares the electric charge's interval", _Each(_charge_range)),
    ("charge-flip-involution", "flipping the charge in its interval is an involution", _Each(_charge_flip_involution)),
    ("charge-swap", "the matrix involution swaps E and B and fixes r, i, J", _Each(_charge_swap)),
    ("charge-swap-reflect", "the charge swap commutes with reflection", _Each(_charge_swap_reflect)),
    ("table-roundtrip", "generalized tables encode pairs faithfully with matching statistics", _Each(_table_roundtrip)),
    ("table-characterization", "the four table conditions capture exactly the encodable tables", _Each(_table_characterization, codomain=_valid_tables)),
    ("table-duality", "table duality matches reflection and the charge-swap beta", _Each(_table_duality)),
    ("paths-roundtrip", "path configurations encode pairs faithfully with the endpoint law", _Each(_paths_roundtrip)),
    ("paths-params", "statistics read off paths match the matrix statistics", _Each(_paths_params)),
    ("paths-duality", "path duality mirrors junctions and matches reflection", _Each(_paths_duality)),
    ("enumeration-totals", "enumeration is deterministic, duplicate-free and matches the product formula", _prop_enumeration_totals),
    ("distribution-mirror", "E and B marginals are mirror images of each other and equal as multisets", _prop_distribution_mirror),
)


@dataclass
class PropertyResult:
    name: str
    description: str
    checked: int
    counterexample: str | None
    seconds: float

    @property
    def ok(self) -> bool:
        return self.counterexample is None


@dataclass
class OrderResult:
    """Checks completed at one order and the wall time the order took."""

    n: int
    checked: int
    seconds: float

    @property
    def checks_per_s(self) -> float:
        return self.checked / self.seconds if self.seconds else 0.0


@dataclass
class VerifyReport:
    n_max: int
    results: list[PropertyResult] = field(default_factory=list)
    orders: list[OrderResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def to_text(self) -> str:
        width = max(len(r.name) for r in self.results)
        lines = [f"verification sweep up to n = {self.n_max}"]
        for r in self.results:
            status = "ok" if r.ok else "FAIL"
            lines.append(
                f"  {r.name:<{width}}  {status:<4} {r.checked:>9} checks  {r.seconds:7.2f}s"
            )
            if not r.ok:
                lines.append(f"    counterexample: {r.counterexample}")
        for o in self.orders:
            label = f"n = {o.n}"
            lines.append(
                f"  {label:<{width}}       {o.checked:>9} checks  {o.seconds:7.2f}s"
                f"  {o.checks_per_s:9.0f} checks/s"
            )
        passed = sum(1 for r in self.results if r.ok)
        lines.append(f"{passed}/{len(self.results)} properties passed")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {
                "n_max": self.n_max,
                "ok": self.ok,
                "properties": [
                    {
                        "name": r.name,
                        "description": r.description,
                        "checked": r.checked,
                        "ok": r.ok,
                        "counterexample": r.counterexample,
                        "seconds": round(r.seconds, 3),
                    }
                    for r in self.results
                ],
                "orders": [
                    {
                        "n": o.n,
                        "checked": o.checked,
                        "seconds": round(o.seconds, 3),
                        "checks_per_s": round(o.checks_per_s, 1),
                    }
                    for o in self.orders
                ],
            },
            indent=2,
        )


class _Tally:
    """The running result of one property during a sweep."""

    def __init__(self, name: str, description: str, impl):
        self.result = PropertyResult(name, description, 0, None, 0.0)
        self.impl = impl
        self.done = 0  # checks passed at the current order


def _stream(matrices: Iterator[AsmMatrix], tallies: list[_Tally]) -> None:
    """Run the per-matrix checks of ``tallies`` over ``matrices``, one
    record per matrix.  Each check is timed and charged to its property,
    so a record field is charged to the first property that reads it;
    drawing the matrices is charged to the first property."""
    clock = time.perf_counter
    first = tallies[0].result
    while True:
        start = clock()
        m = next(matrices, None)
        first.seconds += clock() - start
        if m is None:
            return
        rec = _Record(m)
        for tally in tallies:
            result, each = tally.result, tally.impl
            if not result.ok:
                continue
            start = clock()
            try:
                note = None
                if each.takes(rec):
                    note = each.check(rec)
                    tally.done += 1
            except AsmcError as exc:
                note = f"raised {type(exc).__name__}: {exc}"
            result.seconds += clock() - start
            if note is not None:
                result.counterexample = _cx(m, note)


def _sweep(
    names: Iterable[str], n_values: Iterable[int], cap: int
) -> tuple[list[PropertyResult], list[OrderResult]]:
    """Run the named properties order by order, each stopping at its first
    counterexample (orders ascend, so it is minimal).  A property failing at
    an order keeps the count of the orders before it."""
    registry = {name: (description, impl) for name, description, impl in PROPERTIES}
    tallies = []
    for name in names:
        if name not in registry:
            raise BadArgument(f"unknown property {name!r}")
        tallies.append(_Tally(name, *registry[name]))
    orders = []
    for n in n_values:
        start = time.perf_counter()
        live = [t for t in tallies if t.result.ok]
        streamed = [t for t in live if isinstance(t.impl, _Each)]
        if streamed:
            # the enumeration keeps only the matrices with the s that every
            # streamed check shares, if they share one
            shared = {t.impl.s for t in streamed}
            _stream(enumerate_asm(n, s=shared.pop() if len(shared) == 1 else None, cap=cap), streamed)
        for tally in live:
            each = isinstance(tally.impl, _Each)
            count = tally.impl.codomain if each else tally.impl
            if count is None or not tally.result.ok:
                continue
            t0 = time.perf_counter()
            try:
                size, note = count(n, cap)
                if each and note is None and size != tally.done:
                    note = f"{size} elements counted in the codomain, {tally.done} checked (n={n})"
                tally.done += size
            except AsmcError as exc:
                note = f"unexpected error at n={n}: {exc}"
            tally.result.counterexample = note
            tally.result.seconds += time.perf_counter() - t0
        checked = 0
        for tally in live:
            if tally.result.ok:
                tally.result.checked += tally.done
                checked += tally.done
            tally.done = 0
        orders.append(OrderResult(n, checked, time.perf_counter() - start))
    return [t.result for t in tallies], orders


def run_property(name: str, n_values: Iterable[int], cap: int = DEFAULT_CAP) -> PropertyResult:
    """Run one registered property over the given orders, stopping at the
    first counterexample (orders ascend, so it is minimal)."""
    return _sweep([name], n_values, cap)[0][0]


def verify_suite(n_max: int, cap: int = DEFAULT_CAP) -> VerifyReport:
    """Run every registered property exhaustively for 3 <= n <= n_max,
    enumerating each order once for all the per-matrix properties."""
    if type(n_max) is not int:
        raise BadArgument(f"n_max must be an int, got {n_max!r}")
    if type(cap) is not int:
        raise BadArgument(f"cap must be an int, got {cap!r}")
    if n_max > cap:
        raise CapExceeded(n_max, cap)
    results, orders = _sweep([name for name, _, _ in PROPERTIES], range(3, n_max + 1), cap)
    return VerifyReport(n_max=n_max, results=results, orders=orders)
