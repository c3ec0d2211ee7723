"""Cell geometry, sign classes and the charge statistics."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import asmc
import asmc.cells
from asmc import (
    AsmMatrix,
    NegativeClass,
    NotOneMinus,
    SignClass,
    cell_sums,
    charges,
    enumerate_asm,
    geometry,
    pair_from_table,
    reflect,
    restore,
    sign_class,
    validate_asm,
)
from asmc.cells import _cells, _mirror, _points, _read
from asmc.matrix import _scan, _sparse, _write
from conftest import (
    ORDER7_SCANS,
    all_asm,
    dense_cells,
    dense_reflection,
    dense_write,
    one_minus,
    outcome,
    random_valid_table,
)


def check_reader(a: AsmMatrix) -> None:
    """The sparse-view reader, the public readers and the reader of the
    mirrored view on ``a`` against the landmarks and sums searched on the
    dense rows."""
    expected = dense_cells(a)
    first, g, sign, sums, e = expected
    view = _points(a)
    assert view[0] == first
    assert tuple(_read(*view)) == expected
    assert geometry(a) == g and sign_class(a) is sign
    ch = charges(a)
    assert (ch.ell, ch.c, ch.x, ch.e) == (sums.ell, sums.c, sums.x, e)
    if sign is not SignClass.NEGATIVE:
        assert cell_sums(a) == sums
    twin = dense_reflection(a)
    assert _mirror(*view) == _points(twin)
    assert reflect(a) == twin
    assert tuple(_read(*_mirror(*_points(AsmMatrix(a.rows))))) == dense_cells(twin)


class TestPointsReader:
    def test_every_one_minus_matrix_and_its_reflection_up_to_order_6(self):
        matrices = 0
        for n in range(3, 7):
            for m in one_minus(n):
                check_reader(m)
                check_reader(reflect(m))
                matrices += 1
        assert matrices == 2617

    @pytest.mark.parametrize("seed", range(2))
    def test_sampled_tables_at_large_n(self, seed):
        rng = random.Random(seed)
        for n in (25, rng.randint(26, 199), 200):
            m = restore(pair_from_table(random_valid_table(rng, n)))
            check_reader(AsmMatrix(m.rows))
            check_reader(reflect(m))


@st.composite
def views(draw) -> tuple:
    """A view of order 3 to 7 with 0 to 3 pairs and entries in ``0..n+1``,
    ``first`` a permutation or not and the pairs in the view's order
    (bottom row first, right to left) or not."""
    n = draw(st.integers(3, 7))
    entry = st.integers(0, n + 1)
    first = draw(st.permutations(range(1, n + 1)) | st.lists(entry, min_size=n, max_size=n))
    extras = draw(st.lists(st.tuples(entry, entry, entry), max_size=3))
    if draw(st.booleans()):
        extras.sort(reverse=True)
    return tuple(first), tuple(extras)


class TestWriter:
    """``_write`` checks the sparse view, not the rows it writes; it must
    accept exactly the views ``dense_write`` accepts (their dense rows
    pass ``validate_asm`` and read back to the view), write the same
    matrix, and raise the same error on the others, whatever the number
    of extra pairs."""

    def test_every_form_in_range_up_to_order_4(self):
        views = accepted = 0
        for n in range(1, 5):
            cols = range(1, n + 1)
            for first in itertools.product(cols, repeat=n):
                for extra in itertools.product(cols, repeat=3):
                    view = (first, (extra,))
                    got = outcome(_write, *view)
                    assert got == outcome(dense_write, *view), view
                    views += 1
                    accepted += got[0] is None
        assert views == 1 + 32 + 729 + 16384
        assert accepted == len(one_minus(3)) + len(one_minus(4))

    def test_every_one_pair_view_over_0_to_n_plus_1_up_to_order_3(self):
        """An entry outside ``1..n`` is refused with an ``AsmcError``: it is
        not written, at a wrapped index or at all, nor read past a row."""
        views = out_of_range = 0
        for n in range(1, 4):
            values = range(n + 2)
            for first in itertools.product(values, repeat=n):
                for extra in itertools.product(values, repeat=3):
                    view = (first, (extra,))
                    got = outcome(_write, *view)
                    assert got == outcome(dense_write, *view), view
                    if not {*first, *extra} <= set(range(1, n + 1)):
                        assert got[0] is not None, view
                        out_of_range += 1
                    views += 1
        assert views == 3 * 27 + 16 * 64 + 125 * 125
        assert out_of_range == views - (1 + 32 + 729)

    def test_the_view_of_every_asm_and_of_every_grid_the_scan_reads(self):
        """``_write`` of the view the scan reads off an ASM is the matrix
        ``validate_asm`` returns, keeping the same view: every ASM up to
        order 6 (s up to 4), every grid of order up to 3 over -1, 0 and 1,
        and random grids of order 4 to 6, on which the scan reads nothing
        else."""
        rng = random.Random(29)
        grids = [m.rows for n in range(1, 7) for m in all_asm(n)]
        grids += [tuple(zip(*[iter(cells)] * n))
                  for n in (1, 2, 3) for cells in itertools.product((-1, 0, 1), repeat=n * n)]
        for _ in range(2000):
            n = rng.randint(4, 6)
            grids.append(tuple(tuple(rng.choices((-1, 0, 1), (1, 6, 3), k=n)) for _ in range(n)))
        asms = 0
        for rows in grids:
            view = _scan(rows)
            if view is None:
                assert outcome(validate_asm, rows)[0] is not None
                continue
            a, b = _write(*view), validate_asm(rows)
            assert a == b and vars(a)["_view"] == vars(b)["_view"] == _sparse(AsmMatrix(rows))
            asms += 1
        # every ASM up to order 6, then again the 10 of order up to 3 among
        # all grids; none of the random grids is one
        assert asms == 7917 + 1 + 2 + 7

    @settings(max_examples=200, deadline=None)
    @given(views())
    @example(((2, 1, 2), ((2, 2, 3),)))  # the diamond
    @example(((3, 2, 1, 2, 3, 6), ((4, 3, 4), (3, 4, 5), (3, 2, 3), (2, 3, 4))))  # four -1s
    @example(((3, 2, 1, 2, 3, 6), ((4, 3, 4), (3, 2, 3), (3, 4, 5), (2, 3, 4))))  # a row's pairs out of order
    @example(((2, 1, 2), ((2, 2, 3), (2, 2, 3))))  # a pair given twice
    @example(((2, 1, 2), ((2, 2, 3), (0, 2, 3))))  # a pair on row 0
    @example(((2, 1, 2), ((4, 2, 3), (2, 2, 3))))  # a pair on row n+1
    @example(((2, True, 2), ((2, 2, 3),)))
    @example(((2, 1, 2), ((2, 2.0, 3),)))
    def test_views_with_up_to_three_pairs(self, view):
        assert outcome(_write, *view) == outcome(dense_write, *view)

    @pytest.mark.parametrize("seed", range(2))
    def test_corrupted_forms_at_large_n(self, seed):
        rng = random.Random(seed)
        for n in (25, rng.randint(26, 199), 200):
            m = restore(pair_from_table(random_valid_table(rng, n)))
            for a in (m, reflect(m)):
                view = _cells(a).view
                assert _write(*view) == a
                for _ in range(20):
                    first, ((closing_row, opening_col, closing_col),) = view
                    first = list(first)
                    kind = rng.randrange(4)
                    if kind == 0:  # move one point
                        first[rng.randrange(n)] = rng.randint(1, n)
                    elif kind == 1:  # swap two rows
                        p, q = rng.sample(range(n), 2)
                        first[p], first[q] = first[q], first[p]
                    elif kind == 2:
                        closing_row = rng.randint(1, n)
                    else:
                        opening_col, closing_col = rng.randint(1, n), rng.randint(1, n)
                    corrupted = (tuple(first), ((closing_row, opening_col, closing_col),))
                    assert outcome(_write, *corrupted) == outcome(dense_write, *corrupted), corrupted


class TestGeometry:
    def test_diamond_landmarks(self, diamond):
        g = geometry(diamond)
        assert g.opening_row == 1
        assert g.opening_col == 2
        assert g.closing_row == 2
        assert g.left_one_col == 1
        assert g.closing_col == 3
        assert g.leading_col == 1
        assert len(g.enclosed_rows) == 0

    def test_worked_example_rows(self, neutral12):
        g = geometry(neutral12)
        assert (g.opening_row, g.closing_row) == (3, 4)

    def test_permutation_matrix_rejected(self):
        with pytest.raises(NotOneMinus) as exc:
            geometry(validate_asm([[1, 0], [0, 1]]))
        assert exc.value.s == 0

    @pytest.mark.parametrize("same_row", [True, False])
    def test_two_minus_ones_rejected_with_their_count(self, same_row):
        m = next(
            m for m in enumerate_asm(5, s=2)
            if any(row.count(-1) == 2 for row in m.rows) == same_row
        )
        with pytest.raises(NotOneMinus) as exc:
            geometry(m)
        assert exc.value.s == 2

    def test_landmark_ordering_invariants(self):
        for m in one_minus(5):
            g = geometry(m)
            assert g.opening_row < g.closing_row
            assert g.left_one_col < g.opening_col < g.closing_col
            assert g.leading_col < g.opening_col
            assert list(g.enclosed_rows) == list(range(g.opening_row + 1, g.closing_row))


class TestSignClass:
    def test_diamond_is_neutral(self, diamond):
        assert sign_class(diamond) is SignClass.NEUTRAL

    def test_worked_example_is_positive(self, charged12):
        assert sign_class(charged12) is SignClass.POSITIVE

    def test_reflection_flips_positive_to_negative(self, charged12):
        assert sign_class(reflect(charged12)) is SignClass.NEGATIVE

    def test_partition_over_order_5(self):
        flip = {
            SignClass.POSITIVE: SignClass.NEGATIVE,
            SignClass.NEGATIVE: SignClass.POSITIVE,
            SignClass.NEUTRAL: SignClass.NEUTRAL,
        }
        for m in one_minus(5):
            assert sign_class(reflect(m)) is flip[sign_class(m)]


class TestCellSums:
    def test_diamond_sums(self, diamond):
        s = cell_sums(diamond)
        assert (s.ell, s.c, s.x) == (0, 0, 1)

    def test_worked_example_sums(self, neutral12, charged12):
        assert (cell_sums(neutral12).ell, cell_sums(neutral12).c) == (2, 4)
        assert cell_sums(charged12).c == 1

    def test_negative_matrix_rejected(self, charged12):
        with pytest.raises(NegativeClass):
            cell_sums(reflect(charged12))

    def test_neutral_reflection_swaps_sums(self):
        for m in one_minus(5):
            if sign_class(m) is not SignClass.NEUTRAL:
                continue
            s, rs = cell_sums(m), cell_sums(reflect(m))
            assert (rs.ell, rs.c) == (s.c, s.ell)


class TestCharges:
    def test_worked_example_charges(self, charged12, neutral12):
        ch = charges(charged12)
        assert (ch.e, ch.b, ch.j) == (3, -1, 7)
        cn = charges(neutral12)
        assert (cn.e, cn.b, cn.j) == (0, 2, 7)

    def test_diamond_charges(self, diamond):
        ch = charges(diamond)
        assert (ch.e, ch.b, ch.j) == (0, 0, 1)

    def test_reflection_negates_charges_keeps_j(self):
        for m in one_minus(4):
            ch, rch = charges(m), charges(reflect(m))
            assert ch.e + rch.e == 0
            assert ch.b + rch.b == 0
            assert ch.j == rch.j

    def test_j_definition_on_non_negative(self):
        for m in one_minus(5):
            if sign_class(m) is SignClass.NEGATIVE:
                continue
            ch = charges(m)
            assert ch.j == ch.c + ch.ell + abs(ch.e) + 1
            assert ch.b == ch.c - ch.ell


class TestLandmarkScans:
    """Average dense scans (``matrix._sparse`` calls on a matrix keeping no
    view) per matrix over all order-7 one-minus matrices, each operation
    on a fresh copy: the first read scans the matrix, and every later one,
    on it or on a matrix the operation builds or reflects, reads the view
    kept on the value."""

    @pytest.mark.parametrize("name", list(ORDER7_SCANS))
    def test_scans_per_matrix_at_order_7(self, order7_calls, name):
        assert {asmc.matrix, asmc.cells} <= order7_calls.wrapped["_sparse"]
        assert order7_calls.matrices == 29400
        assert 0 < order7_calls.scans[name] / order7_calls.matrices <= ORDER7_SCANS[name]
