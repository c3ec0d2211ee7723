"""Inversion tables, their characterization and table duality."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from asmc import (
    GenInvTable,
    InvalidTable,
    NeutralPair,
    cell_sums,
    charges,
    classical_params,
    dual_table,
    gen_table,
    geometry,
    neutralize,
    pair_from_table,
    perm_from_table,
    perm_matrix,
    perm_one_line,
    perm_table,
    reflect,
    swap_charges,
    table_from_json,
    table_from_text,
    table_params,
    table_valid,
)
from asmc.errors import BadArgument, NotSquare
from asmc.matrix import _sparse, _walk
from conftest import TABLE12, dense_from_table, dense_inversions, dense_table, one_minus, random_valid_table


class TestPermTables:
    def test_identity_has_zero_table(self):
        assert perm_table(perm_matrix((1, 2, 3, 4))) == (0, 0, 0, 0)

    def test_anti_identity_has_staircase_table(self):
        assert perm_table(perm_matrix((4, 3, 2, 1))) == (0, 1, 2, 3)

    def test_roundtrip_all_order_4(self):
        for word in itertools.permutations(range(1, 5)):
            p = perm_matrix(word)
            assert perm_from_table(perm_table(p)) == p

    def test_statistics_and_complement(self):
        for word in itertools.permutations(range(1, 5)):
            p = perm_matrix(word)
            t = perm_table(p)
            stats = classical_params(p)
            assert stats.r == t[-1]
            assert stats.i == sum(t)
            assert perm_table(reflect(p)) == tuple(
                i - 1 - v for i, v in enumerate(t, start=1)
            )

    def test_invalid_table_rejected(self):
        with pytest.raises(InvalidTable):
            perm_from_table((0, 2, 0))

    def test_empty_table_rejected(self):
        with pytest.raises(NotSquare):
            perm_from_table(())

    def test_matrix_with_a_minus_rejected(self):
        for n in (3, 4, 5):
            for m in one_minus(n):
                with pytest.raises(BadArgument):
                    perm_table(m)
                with pytest.raises(BadArgument):
                    perm_one_line(m)

    @pytest.mark.parametrize("a", [(0, 1.9, True), (0, True), (0, 1.0), (0, "1")])
    def test_non_integer_entries_rejected(self, a):
        with pytest.raises(InvalidTable, match="not an integer"):
            perm_from_table(a)


def gen_table_by_definition(pair: NeutralPair) -> GenInvTable:
    """Reference oracle, cubic: each ``a_i`` summed entry by entry over the
    rows below row ``n+1-i`` and the columns left of that row's 1 (the
    left 1 on the closing row)."""
    m = pair.matrix
    n = m.n
    g = geometry(m)
    a = []
    for i in range(1, n + 1):
        q = n + 1 - i
        ref = g.left_one_col if q == g.closing_row else m.rows[q - 1].index(1) + 1
        a.append(sum(m.rows[qq][c] for qq in range(q, n) for c in range(ref - 1)))
    sums = cell_sums(m)
    return GenInvTable(k=n + 1 - g.opening_row, a=tuple(a), b=sums.c, beta=pair.charge + sums.ell)


class TestGenTable:
    def test_worked_example(self, pair12):
        assert gen_table(pair12) == TABLE12
        assert TABLE12.to_text() == "10; 0 0 2 2 0 0 1 5 0 3 6 6; 4 5"

    def test_diamond(self, diamond):
        assert gen_table(NeutralPair(diamond, 0)) == GenInvTable(
            k=3, a=(0, 0, 1), b=0, beta=0
        )

    def test_matches_definition_on_every_order_6_pair(self):
        for m in one_minus(6):
            pair = neutralize(m)
            assert gen_table(pair) == gen_table_by_definition(pair)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_definition_at_large_n(self, seed):
        rng = random.Random(seed)
        for n in (60, rng.randint(61, 199), 200):
            t = random_valid_table(rng, n)
            assert table_valid(t)
            pair = pair_from_table(t)
            assert gen_table(pair) == gen_table_by_definition(pair) == t

    def test_halves_are_non_negative(self):
        for m in one_minus(5):
            t = gen_table(neutralize(m))
            assert t.b >= 0 and t.beta >= 0
            assert all(v >= 0 for v in t.a)


class TestDenseOracles:
    """The codecs on column lists against the tables read and written on
    dense rows (``conftest.dense_table`` and ``dense_from_table``)."""

    def test_every_one_minus_matrix_and_its_reflection_up_to_order_6(self):
        matrices = 0
        for n in range(3, 7):
            for m in one_minus(n):
                for a in (m, reflect(m)):
                    counts, extra = _walk(*_sparse(a))
                    assert counts == dense_table(a)
                    assert sum(counts) + extra == dense_inversions(a)
                    pair = neutralize(a)
                    t = gen_table(pair)
                    assert t.a == dense_table(pair.matrix)
                    assert pair_from_table(t).matrix == dense_from_table(t) == pair.matrix
                matrices += 1
        assert matrices == 2617

    def test_every_permutation_up_to_order_6(self):
        for n in range(1, 7):
            for word in itertools.permutations(range(1, n + 1)):
                p = perm_matrix(word)
                t = perm_table(p)
                assert t == dense_table(p)
                assert perm_from_table(t) == dense_from_table(t) == p

    @pytest.mark.parametrize("seed", range(2))
    def test_sampled_tables_at_large_n(self, seed):
        rng = random.Random(seed)
        for n in (25, rng.randint(26, 199), 200):
            t = random_valid_table(rng, n)
            pair = pair_from_table(t)
            assert pair.matrix == dense_from_table(t)
            assert gen_table(pair) == t and dense_table(pair.matrix) == t.a
            plain = tuple(rng.randint(0, i - 1) for i in range(1, n + 1))
            p = perm_from_table(plain)
            assert p == dense_from_table(plain)
            assert perm_table(p) == dense_table(p) == plain


class TestTableValidity:
    def test_worked_example_is_valid(self):
        assert table_valid(TABLE12) is TABLE12

    def test_order_two_table_impossible(self):
        with pytest.raises(InvalidTable) as info:
            table_valid(GenInvTable(k=2, a=(0, 1), b=0, beta=0))
        assert info.value.condition == 1

    def test_equal_middle_entries_fail_condition_three(self):
        with pytest.raises(InvalidTable) as info:
            table_valid(GenInvTable(k=3, a=(0, 1, 1), b=0, beta=0))
        assert info.value.condition == 3

    def test_condition_four_both_clauses(self):
        with pytest.raises(InvalidTable) as too_large:
            table_valid(GenInvTable(k=3, a=(0, 0, 1), b=1, beta=0))
        assert too_large.value.condition == 4  # a_k + b > k-2
        with pytest.raises(InvalidTable) as no_gap:
            table_valid(GenInvTable(k=4, a=(0, 0, 0, 1), b=1, beta=2))
        assert no_gap.value.condition == 4  # a_{k-1}+beta >= a_k+b

    def test_negative_entries_fail_structurally(self):
        with pytest.raises(InvalidTable) as info:
            table_valid(GenInvTable(k=3, a=(0, 0, 1), b=0, beta=-1))
        assert info.value.condition == 0

    @pytest.mark.parametrize("table", [
        GenInvTable(k=3, a=(0, 0.0, 1), b=0, beta=0),
        GenInvTable(k=3, a=(0, False, 1), b=0, beta=0),
        GenInvTable(k=3.0, a=(0, 0, 1), b=0, beta=0),
        GenInvTable(k=3, a=(0, 0, 1), b=0.0, beta=0),
        GenInvTable(k=3, a=(0, 0, 1), b=0, beta=False),
    ])
    def test_non_int_entries_fail_condition_zero(self, table):
        with pytest.raises(InvalidTable) as info:
            table_valid(table)
        assert info.value.condition == 0
        assert str(info.value) == "condition 0: entries must be integers"
        for decode in (pair_from_table, table_params, dual_table):
            with pytest.raises(InvalidTable) as info:
                decode(table)
            assert info.value.condition == 0

    def test_oversized_entry_fails_condition_two(self):
        with pytest.raises(InvalidTable) as info:
            table_valid(GenInvTable(k=3, a=(1, 0, 1), b=0, beta=0))
        assert info.value.condition == 2


class TestPairFromTable:
    def test_worked_example_rebuilds_with_known_statistics(self):
        pair = pair_from_table(TABLE12)
        assert pair.charge == 3
        p = classical_params(pair.matrix)
        ch = charges(pair.matrix)
        assert (p.r, p.i, ch.b, ch.j) == (6, 30, 2, 7)

    def test_diamond_table(self, diamond):
        pair = pair_from_table(GenInvTable(k=3, a=(0, 0, 1), b=0, beta=0))
        assert pair == NeutralPair(diamond, 0)

    def test_roundtrip_exhaustive(self):
        for n in (3, 4, 5):
            for m in one_minus(n):
                pair = neutralize(m)
                assert pair_from_table(gen_table(pair)) == pair

    def test_invalid_table_rejected(self):
        with pytest.raises(InvalidTable) as info:
            pair_from_table(GenInvTable(k=2, a=(0, 1), b=0, beta=0))
        assert info.value.condition == 1

    @given(st.data())
    def test_roundtrip_on_generated_tables(self, data):
        n = data.draw(st.integers(3, 9))
        k = data.draw(st.integers(3, n))
        a = [data.draw(st.integers(0, i - 1)) for i in range(1, n + 1)]
        # force the characterization conditions around position k
        ak = data.draw(st.integers(1, k - 2))
        ak1 = data.draw(st.integers(0, ak - 1))
        b = data.draw(st.integers(0, k - 2 - ak))
        beta = data.draw(st.integers(0, ak + b - ak1 - 1))
        a[k - 1], a[k - 2] = ak, ak1
        t = GenInvTable(k=k, a=tuple(a), b=b, beta=beta)
        assert table_valid(t)
        assert gen_table(pair_from_table(t)) == t


class TestTableParams:
    def test_worked_example(self):
        assert tuple(table_params(TABLE12)) == (6, 30, 3, -1, 7)

    def test_diamond(self):
        assert tuple(table_params(GenInvTable(k=3, a=(0, 0, 1), b=0, beta=0))) == (
            1,
            2,
            0,
            0,
            1,
        )

    def test_agreement_with_matrix_statistics(self):
        for m in one_minus(5):
            pair = neutralize(m)
            vec = table_params(gen_table(pair))
            p, ch = classical_params(m), charges(m)
            assert tuple(vec) == (p.r, p.i, ch.e, ch.b, ch.j)

    def test_leading_sum_identity(self):
        for m in one_minus(5):
            pair = neutralize(m)
            t = gen_table(pair)
            assert pair.sums.ell == t.a[t.k - 1] - 1 - t.a[t.k - 2]


def dual_by_formulas(t: GenInvTable) -> GenInvTable:
    """Independent oracle: apply the four duality formulas directly."""
    abar = list(i - 1 - v for i, v in enumerate(t.a, start=1))
    abar[t.k - 2] = t.k - 2 - t.a[t.k - 1] - t.b
    return GenInvTable(
        k=t.k,
        a=tuple(abar),
        b=t.a[t.k - 1] - 1 - t.a[t.k - 2],
        beta=t.a[t.k - 1] + t.b - t.a[t.k - 2] - t.beta - 1,
    )


class TestDualTable:
    def test_worked_example_against_formula_oracle(self):
        d = dual_table(TABLE12)
        assert d == dual_by_formulas(TABLE12)
        assert d.to_text() == "10; 0 1 0 1 4 5 5 2 1 6 4 5; 2 1"

    def test_involution(self):
        for m in one_minus(5):
            t = gen_table(neutralize(m))
            assert dual_table(dual_table(t)) == t

    def test_matches_matrix_reflection(self):
        for m in one_minus(5):
            t = gen_table(neutralize(m))
            assert dual_table(t) == gen_table(neutralize(reflect(m)))

    def test_dual_beta_is_charge_swap_beta(self):
        # the dual's beta equals b - beta + a_k - a_{k-1} - 1, which is the
        # beta of the charge-swapped matrix's table
        d = dual_table(TABLE12)
        assert d.beta == TABLE12.b - TABLE12.beta + TABLE12.a[9] - TABLE12.a[8] - 1 == 1
        for m in one_minus(4):
            t = gen_table(neutralize(m))
            beta_prime = t.b - t.beta + t.a[t.k - 1] - t.a[t.k - 2] - 1
            swapped = GenInvTable(k=t.k, a=t.a, b=t.b, beta=beta_prime)
            assert swapped == gen_table(neutralize(swap_charges(m)))
            assert dual_table(t).beta == beta_prime

    def test_closing_complement_identity(self):
        for m in one_minus(5):
            t = gen_table(neutralize(m))
            d = dual_table(t)
            assert t.a[t.k - 1] + t.b + d.a[t.k - 2] == t.k - 2


class TestTableFormats:
    def test_text_roundtrip(self):
        assert table_from_text(TABLE12.to_text()) == TABLE12
        assert table_from_text("3; 0 0 1; 0 0") == GenInvTable(3, (0, 0, 1), 0, 0)
        assert table_from_text("+3; 0 -0 01; 0 +0") == GenInvTable(3, (0, 0, 1), 0, 0)

    def test_json_roundtrip(self):
        assert table_from_json(TABLE12.to_json()) == TABLE12

    @pytest.mark.parametrize("field", ["k", "b", "beta"])
    @pytest.mark.parametrize("value", [True, 1.9, 3.0, "3"])
    def test_json_non_int_field_rejected(self, field, value):
        from asmc import ParseError

        obj = {**TABLE12.to_json(), field: value}
        with pytest.raises(ParseError, match=field):
            table_from_json(obj)

    @pytest.mark.parametrize("value", [True, 1.9, 2.0, "2"])
    def test_json_non_int_table_entry_rejected(self, value):
        from asmc import ParseError

        obj = TABLE12.to_json()
        obj["a"][2] = value
        with pytest.raises(ParseError):
            table_from_json(obj)

    def test_malformed_text_rejected(self):
        from asmc import ParseError

        with pytest.raises(ParseError):
            table_from_text("3; 0 0 1")
        with pytest.raises(ParseError):
            table_from_text("x; 0 0 1; 0 0")

    @pytest.mark.parametrize(
        "text", ["3; 0 0_1 1; 0 0", "\u0663; 0 0 1; 0 0", "3; 0 0 1; 0 0_0", "3; 0 0 +-1; 0 0", "; 0 0 1; 0 0"]
    )
    def test_only_a_sign_and_ascii_digits_parse(self, text):
        from asmc import ParseError

        with pytest.raises(ParseError):
            table_from_text(text)
