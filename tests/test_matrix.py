"""Validation, reflection and the classical statistics."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from asmc import (
    AlternationViolation,
    AsmMatrix,
    BadEntry,
    NotSquare,
    ParseError,
    SumViolation,
    charges,
    classical_params,
    matrix_from_json,
    matrix_from_text,
    matrix_to_json,
    matrix_to_text,
    minus_count,
    neutralize,
    pair_from_table,
    perm_matrix,
    perm_one_line,
    reflect,
    restore,
    swap_charges,
    validate_asm,
)
from asmc.errors import BadArgument
from asmc.matrix import _check_line, _mirror, _rows, _sparse, inversions
from conftest import (
    DIAMOND_ROWS,
    all_asm,
    dense_reads,
    dense_inversions,
    dense_perm_matrix,
    dense_reflection,
    one_minus,
    outcome,
    random_valid_table,
)


def line_alternates(values):
    """Independent alternation oracle: nonzeros must read +1, -1, ..., +1."""
    nonzero = [v for v in values if v]
    if not nonzero:
        return False
    return all(v == (1 if idx % 2 == 0 else -1) for idx, v in enumerate(nonzero)) and (
        len(nonzero) % 2 == 1
    )


def grid_is_asm(grid):
    n = len(grid)
    if any(len(row) != n for row in grid):
        return False
    if any(v not in (-1, 0, 1) for row in grid for v in row):
        return False
    cols = [[grid[i][j] for i in range(n)] for j in range(n)]
    return all(line_alternates(line) for line in list(grid) + cols)


class TestValidate:
    def test_identity_is_valid_with_no_minus(self):
        m = validate_asm([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert classical_params(m).s == 0

    def test_diamond_is_valid_with_one_minus(self, diamond):
        assert classical_params(diamond).s == 1

    def test_leading_minus_in_column_is_rejected(self):
        with pytest.raises(AlternationViolation) as info:
            validate_asm([[0, -1, 1], [1, 0, 0], [0, 1, 0]])
        assert info.value.axis == "column"
        assert info.value.index == 2

    def test_zero_row_reports_sum_violation(self):
        # columns are all fine here, so the zero row itself gets reported
        with pytest.raises(SumViolation) as info:
            validate_asm([[0, 0, 0], [1, 0, 1], [0, 1, 0]])
        assert (info.value.axis, info.value.index) == ("row", 1)

    def test_non_square_rejected(self):
        with pytest.raises(NotSquare):
            validate_asm([[1, 0], [0, 1], [0, 0]])

    def test_bad_entry_rejected_with_position(self):
        with pytest.raises(BadEntry) as info:
            validate_asm([[1, 0], [0, 2]])
        assert (info.value.row, info.value.col) == (2, 2)

    @pytest.mark.parametrize("value", [True, False, 1.0, 1.7, "1", None])
    def test_non_int_entry_rejected_not_converted(self, value):
        grid = [[0, 1, 0], [1, -1, 1], [0, 1, 0]]
        grid[2][1] = value
        with pytest.raises(BadEntry) as info:
            validate_asm(grid)
        assert (info.value.row, info.value.col) == (3, 2)
        assert info.value.value is value

    def test_non_iterable_rows_rejected(self):
        with pytest.raises(NotSquare):
            validate_asm(5)
        with pytest.raises(NotSquare):
            validate_asm([1, 0])

    def test_agrees_with_independent_oracle_exhaustively(self):
        n = 3
        for cells in itertools.product((-1, 0, 1), repeat=n * n):
            grid = [list(cells[i * n : (i + 1) * n]) for i in range(n)]
            try:
                validate_asm(grid)
                accepted = True
            except Exception:
                accepted = False
            assert accepted == grid_is_asm(grid), grid



class TestEntry:
    def test_reads_each_entry_at_its_1_based_position(self, diamond):
        for m in (diamond, AsmMatrix(DIAMOND_ROWS), AsmMatrix([list(row) for row in DIAMOND_ROWS])):
            assert tuple(tuple(m.entry(i, j) for j in range(1, 4)) for i in range(1, 4)) == DIAMOND_ROWS

    @pytest.mark.parametrize(
        "i, j", [(0, 0), (1, 0), (4, 1), (1, 4), (-1, 2), (True, 2), (2, False), (1.0, 1), ("1", 1), (None, 1)]
    )
    def test_an_index_that_is_not_an_int_in_1_to_n_is_refused(self, diamond, i, j):
        """``entry(0, 0)`` once read the last entry, ``entry(True, 2)`` row 1
        and ``entry(4, 1)`` leaked an ``IndexError``."""
        with pytest.raises(BadArgument, match=r"in 1\.\.3"):
            diamond.entry(i, j)


def walk_outcome(grid):
    """What the line walk of ``validate_asm`` names on a square grid of
    -1, 0 and 1: the first line that breaks the alternating law, columns
    before rows, as ``outcome`` gives it, or None."""
    rows = tuple(map(tuple, grid))
    lines = [("column", j, col) for j, col in enumerate(zip(*rows), start=1)]
    lines += [("row", i, row) for i, row in enumerate(rows, start=1)]
    for axis, index, line in lines:
        got = outcome(_check_line, line, axis, index)
        if got[0] is not None:
            return got
    return None


class TestKeptView:
    """``validate_asm`` reads the sparse view while it checks the
    alternating law, and the matrix keeps it whatever its number of -1s;
    every reader, and ``reflect``, then reads it instead of the rows."""

    def test_kept_for_every_s_up_to_order_6(self):
        matrices = several = 0
        for n in range(1, 7):
            for m in all_asm(n):
                v = validate_asm(m.rows)
                assert vars(v).keys() == {"_view"}
                assert vars(v)["_view"] == _sparse(AsmMatrix(m.rows))
                matrices += 1
                several += len(vars(v)["_view"][1]) > 1
                assert v.rows == m.rows and vars(v).keys() == {"rows", "_view"}
        assert (matrices, several) == (7917, 4427)

    def test_reflection_with_several_minus_ones_writes_rows_when_read(self):
        """``reflect`` of a validated matrix with s >= 2 mirrors the view it
        keeps: no scan and no row written until the reflection is read,
        and then it is the dense twin."""
        matrices = 0
        for n in range(1, 7):
            for m in all_asm(n):
                v = validate_asm(m.rows)
                if minus_count(v) < 2:
                    continue
                twin = dense_reflection(v)
                params = classical_params(AsmMatrix(twin.rows))
                with dense_reads() as (scans, writes):
                    mirror = reflect(v)
                    assert "rows" not in vars(mirror) and writes == [0]
                    assert classical_params(mirror) == params and writes == [0]
                    assert mirror == twin and writes == [1]
                    assert reflect(mirror) == v
                assert not scans
                matrices += 1
        assert matrices == 4427

    def test_reflection_of_a_diamond_beside_a_permutation_at_order_121(self):
        """Many -1s on a row: the order-101 diamond, with 2,500 -1s and 50
        on its middle row, block-diagonal with the order-20 identity, is
        reflected off its view and written once when read."""
        c, n = 50, 121
        rows = [[0] * n for _ in range(n)]
        for i, j in itertools.product(range(2 * c + 1), repeat=2):
            d = abs(i - c) + abs(j - c)
            rows[i][j] = (-1) ** (c - d) if d <= c else 0
        for i in range(2 * c + 1, n):
            rows[i][i] = 1
        v = validate_asm(rows)
        twin = dense_reflection(v)
        with dense_reads() as (scans, writes):
            mirror = reflect(v)
            assert minus_count(mirror) == c * c and writes == [0]
            assert mirror == twin and writes == [1]
        assert not scans and reflect(mirror) == v and mirror != v

    @pytest.mark.parametrize("seed", range(2))
    def test_a_parsed_matrix_is_read_without_its_rows_at_order_500(self, seed):
        rng = random.Random(seed)
        m = restore(pair_from_table(random_valid_table(rng, 500)))
        for a in (m, reflect(m)):
            parsed = matrix_from_json(matrix_to_json(a))
            with dense_reads() as (scans, writes):
                got = classical_params(parsed), charges(parsed), neutralize(parsed), swap_charges(parsed)
            assert not scans and writes == [0]
            dense = AsmMatrix(a.rows)
            assert got == (classical_params(dense), charges(dense), neutralize(dense), swap_charges(dense))

    def test_every_bad_grid_keeps_its_error(self):
        """Every grid of order 1 to 3 over -1, 0 and 1, and random grids of
        order 4 to 6: ``validate_asm`` and ``matrix_from_json`` raise what
        the line walk names, and ``_sparse`` of an unchecked matrix over
        tuples and over lists gives the same outcome, the error or the
        view, as ``validate_asm``.  A grid of list rows that is an ASM
        keeps only its view until its rows are read."""
        rng = random.Random(3)
        grids = [[list(cells[i * n : i * n + n]) for i in range(n)]
                 for n in (1, 2, 3) for cells in itertools.product((-1, 0, 1), repeat=n * n)]
        for n in (4, 5, 6):
            grids += [[rng.choices((-1, 0, 1), (1, 6, 3), k=n) for _ in range(n)] for _ in range(3000)]
        rejected = 0
        for grid in grids:
            expected = walk_outcome(grid)
            got = outcome(validate_asm, grid)
            parsed = outcome(matrix_from_json, {"n": len(grid), "rows": grid})
            rows = tuple(map(tuple, grid))
            if expected is None:
                assert got[0] is None and parsed[0] is None
                assert "rows" not in vars(got[1]) and "rows" not in vars(parsed[1])
                assert got[1].rows == rows and parsed[1].rows == rows
                view = vars(got[1])["_view"]
                assert tuple(_rows(*view)) == rows
                got = None, view
            else:
                assert got == expected == parsed, grid
                rejected += 1
            for frame in (tuple, list):
                assert outcome(_sparse, AsmMatrix(frame(map(frame, grid)))) == got, (frame, grid)
        assert len(grids) == 3 + 3**4 + 3**9 + 3 * 3000
        assert rejected > len(grids) * 0.9


class TestReflect:
    def test_diamond_is_symmetric(self, diamond):
        assert reflect(diamond) == diamond

    def test_identity_reflects_to_anti_identity(self):
        m = validate_asm([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert reflect(m).rows == ((0, 0, 1), (0, 1, 0), (1, 0, 0))

    def test_involution_over_order_4(self):
        for m in one_minus(4):
            assert reflect(reflect(m)) == m

    @pytest.mark.parametrize("n", [3, 4])
    def test_classical_reflection_identities(self, n):
        from math import comb

        for m in all_asm(n):
            p, rp = classical_params(m), classical_params(reflect(m))
            assert p.r + rp.r == n - 1
            assert p.i + rp.i == comb(n, 2) + p.s
            assert rp.s == p.s


class TestClassicalParams:
    def test_diamond_values(self, diamond):
        p = classical_params(diamond)
        assert (p.r, p.s, p.i) == (1, 1, 2)

    def test_worked_example_values(self, neutral12):
        p = classical_params(neutral12)
        assert (p.r, p.i) == (6, 30)

    def test_inversions_match_double_sum_oracle(self):
        def double_sum(m):
            n = m.n
            return sum(
                m.rows[i][j] * m.rows[k][l]
                for i in range(n)
                for j in range(n)
                for k in range(i + 1, n)
                for l in range(j)
            )

        for n in range(1, 5):
            for m in all_asm(n):
                assert classical_params(m).i == double_sum(m)

    def test_inversions_match_the_dense_walk(self):
        matrices = [m for n in range(1, 6) for m in all_asm(n)] + list(one_minus(6))
        rng = random.Random(0)
        for n in (25, rng.randint(26, 199), 200):
            m = restore(pair_from_table(random_valid_table(rng, n)))
            matrices += [m, reflect(m)]
        for m in matrices:
            assert inversions(m) == dense_inversions(m)
        assert len(matrices) == 1 + 2 + 7 + 42 + 429 + len(one_minus(6)) + 6

    def test_permutation_inversions_match_pairwise_count(self):
        for word in itertools.permutations(range(1, 5)):
            m = perm_matrix(word)
            pairwise = sum(
                1
                for a in range(4)
                for b in range(a + 1, 4)
                if word[a] > word[b]
            )
            assert classical_params(m).i == pairwise

    @given(st.permutations(list(range(1, 8))))
    def test_permutation_inversions_property(self, word):
        m = perm_matrix(word)
        assert perm_one_line(m) == tuple(word)
        pairwise = sum(
            1 for a in range(7) for b in range(a + 1, 7) if word[a] > word[b]
        )
        assert classical_params(m).i == pairwise


class TestSparseView:
    """``matrix._sparse``, the one scan of a dense matrix that ``inversions``,
    ``classical_params``, ``minus_count`` and ``perm_one_line`` read, and
    the mirror and the row writer on its views."""

    @staticmethod
    def rows_of(n, first, extras):
        """The dense rows of a sparse view: a 1 at each row's first
        column, and a -1 and a 1 at each extra pair."""
        rows = [[0] * n for _ in range(n)]
        for row, col in zip(rows, first):
            row[col - 1] = 1
        for q, minus, plus in extras:
            rows[q - 1][minus - 1] = -1
            rows[q - 1][plus - 1] = 1
        return tuple(map(tuple, rows))

    def test_rebuilds_every_asm_up_to_order_6(self):
        matrices = 0
        for n in range(1, 7):
            for m in all_asm(n):
                first, extras = _sparse(m)
                assert self.rows_of(n, first, extras) == m.rows
                assert list(extras) == sorted(extras, key=lambda pair: -pair[0])
                assert inversions(m) == dense_inversions(m)
                s = sum(row.count(-1) for row in m.rows)
                assert minus_count(m) == classical_params(m).s == s
                matrices += 1
        assert matrices == 1 + 2 + 7 + 42 + 429 + 7436

    def test_mirror_and_rows_of_every_asm_up_to_order_6(self):
        """``_mirror`` of a view is the scan of the dense reflection, and
        ``_rows`` of a view writes the rows it was scanned off."""
        matrices = 0
        for n in range(1, 7):
            for m in all_asm(n):
                view = _sparse(AsmMatrix(m.rows))
                assert _mirror(*view) == _sparse(dense_reflection(m))
                assert tuple(_rows(*view)) == m.rows
                matrices += 1
        assert matrices == 7917

    @pytest.mark.parametrize(
        "rows",
        [((0, 0), (0, 0)), ((0, 2), (1, 0)), (1, 0), ((1, 1), (1, 1)), ((1, 0, 0), (0, 1, 0)), ((0, 1), (1, 2)),
         ((1, 0), (1, 0)), ()],
        ids=["zero", "entry-2", "not-rows", "two-ones", "not-square", "2-after-the-1", "column-two-ones", "empty"],
    )
    @pytest.mark.parametrize("reader", [reflect, classical_params, minus_count, charges, perm_one_line])
    def test_rows_the_scan_cannot_read_raise_what_validate_asm_raises(self, rows, reader):
        """Among them ``((1, 0), (1, 0))``: every row a lone 1, and column 1
        with two 1s, which the readers once read as a permutation.  A row
        that is not iterable is refused when the matrix is built."""
        expected = outcome(validate_asm, rows)
        assert expected[0] is not None
        if rows == (1, 0):
            assert outcome(AsmMatrix, rows) == expected
            assert expected == (NotSquare, "expected a square matrix given as rows: 'int' object is not iterable")
            return
        assert outcome(reader, AsmMatrix(rows)) == expected
        if rows == ((1, 0), (1, 0)):
            assert expected == (AlternationViolation, "column 1: two 1s with no -1 between them")

    @pytest.mark.parametrize(
        "rows",
        [((True,),), ((0.0, 1), (1, 0.0)), ((0, 1, 0), (1, -1.0, 1), (0, 1, 0)), ((0, 1), (1, False)),
         ((1, 0), ("0", 1))],
        ids=["bool-one", "float-zeros", "float-minus", "bool-zero", "str-zero"],
    )
    @pytest.mark.parametrize("reader", [reflect, classical_params, minus_count, charges, perm_one_line])
    def test_entries_equal_to_an_int_but_not_int_are_bad_entries(self, rows, reader):
        """The readers of an unchecked matrix test the type of every entry,
        as ``validate_asm`` does, so ``True`` is not read as 1 nor ``0.0``
        as 0."""
        expected = outcome(validate_asm, rows)
        assert expected[0] is BadEntry
        assert outcome(reader, AsmMatrix(rows)) == expected
        assert outcome(reader, AsmMatrix([list(row) for row in rows])) == expected

    def test_the_scan_reads_a_view_that_writes_the_rows_back_or_refuses(self):
        """On every 3x3 grid of -1, 0 and 1, every 2x2 grid of -1, 0, 1 and
        2, and grids that are not square, ``_sparse`` either reads a view
        that ``_rows`` writes back to the rows, or raises what
        ``validate_asm`` raises; it reads the ASMs alone."""
        grids = [tuple(zip(*[iter(cells)] * 3)) for cells in itertools.product((-1, 0, 1), repeat=9)]
        grids += [tuple(zip(*[iter(cells)] * 2)) for cells in itertools.product((-1, 0, 1, 2), repeat=4)]
        grids += [((1, 0, 0), (0, 1, 0)), ((1, 0), (0, 1), (1, 0)), ((1,), (1, 0))]
        read = 0
        for rows in grids:
            got = outcome(_sparse, AsmMatrix(rows))
            if got[0] is None:
                assert tuple(_rows(*got[1])) == rows
                read += 1
            else:
                assert got == outcome(validate_asm, rows)
        # the 7 ASMs of order 3 and the 2 of order 2
        assert read == 7 + 2

    def test_perm_one_line_names_the_s_of_a_matrix_with_a_minus(self):
        for n in range(3, 7):
            for m in all_asm(n):
                s = sum(row.count(-1) for row in m.rows)
                if s:
                    with pytest.raises(BadArgument, match=f"s={s}$"):
                        perm_one_line(m)
                else:
                    assert perm_one_line(m) == tuple(row.index(1) + 1 for row in m.rows)


class TestPermMatrix:
    """``perm_matrix`` checks the word, not the rows it writes; it must
    accept exactly the words whose dense rows ``validate_asm`` accepts,
    write the same matrix, and raise the same error on the others."""

    def test_every_word_up_to_order_5(self):
        accepted = 0
        for n in range(6):
            for word in itertools.product(range(1, n + 1), repeat=n):
                got = outcome(perm_matrix, word)
                assert got == outcome(dense_perm_matrix, word), word
                accepted += got[0] is None
        assert accepted == 1 + 2 + 6 + 24 + 120

    def test_words_with_entries_out_of_range_or_not_int(self):
        for n in range(1, 5):
            for word in itertools.product((0, *range(1, n + 2), True, 1.0), repeat=n):
                assert outcome(perm_matrix, word) == outcome(dense_perm_matrix, word), word

    def test_corrupted_words_at_large_n(self):
        rng = random.Random(0)
        for n in (25, rng.randint(26, 199), 200):
            word = rng.sample(range(1, n + 1), n)
            assert perm_one_line(perm_matrix(word)) == tuple(word)
            for _ in range(20):
                bad = list(word)
                p, q = rng.sample(range(n), 2)
                bad[p], bad[q] = rng.choice([bad[q], rng.randint(0, n + 1), True, 1.0]), bad[p]
                assert outcome(perm_matrix, bad) == outcome(dense_perm_matrix, bad), bad


class TestFormats:
    def test_text_roundtrip_with_comments(self, diamond):
        text = "# a comment\n0 1 0\n\n1 -1 1  # inline\n0 1 0\n"
        assert matrix_from_text(text) == diamond
        assert matrix_from_text(matrix_to_text(diamond)) == diamond
        assert matrix_from_text("+0 1 -0\n01 -1 +1\n0 1 0\n") == diamond  # signs, leading 0s

    def test_text_is_canonical(self, diamond):
        assert matrix_to_text(diamond) == "0 1 0\n1 -1 1\n0 1 0\n"

    def test_json_roundtrip(self, charged12):
        obj = matrix_to_json(charged12)
        assert obj["n"] == 12
        assert matrix_from_json(obj) == charged12

    def test_json_declared_order_must_match(self):
        with pytest.raises(ParseError):
            matrix_from_json({"n": 4, "rows": list(map(list, DIAMOND_ROWS))})

    def test_json_float_entry_rejected(self):
        with pytest.raises(BadEntry):
            matrix_from_json({"rows": [[1.7]]})
        with pytest.raises(BadEntry):
            matrix_from_json({"rows": [[True]]})

    def test_json_declared_order_must_be_an_integer(self):
        with pytest.raises(ParseError):
            matrix_from_json({"n": 1.0, "rows": [[1]]})
        with pytest.raises(ParseError):
            matrix_from_json({"n": True, "rows": [[1]]})

    @pytest.mark.parametrize(
        "text", ["0 0_1\n1 0\n", "\u0661 0\n0 1\n", "1 0\n0 \u00b9\n", "1 0\n0 +-1\n", "1 0\n0 - 1\n"]
    )
    def test_only_a_sign_and_ascii_digits_parse(self, text):
        with pytest.raises(ParseError):
            matrix_from_text(text)

    def test_unparseable_text_rejected(self):
        with pytest.raises(ParseError):
            matrix_from_text("0 x 0\n")
        with pytest.raises(ParseError):
            matrix_from_text("# only comments\n")
