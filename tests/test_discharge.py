"""Discharging, the 4-tuple conditions and recharging."""

import importlib
import random
import sys
import types

import pytest

import asmc

from asmc import (
    AlternationViolation,
    DischargeTuple,
    InvalidTuple,
    NegativeClass,
    NotOneMinus,
    classical_params,
    discharge,
    gen_table,
    neutralize,
    pair_from_table,
    partial_discharge,
    perm_matrix,
    perm_one_line,
    recharge,
    reflect,
    restore,
    sign_class,
    SignClass,
    SumViolation,
    tuple_valid,
    validate_asm,
)
from asmc.cells import _cells, _read
from asmc.discharge import _discharge_word, _fields, _partial_discharge_neutral_shortcut, _recharge, right_side_sum
from asmc.matrix import _mirror, _sparse, _write
from conftest import DIAMOND_ROWS, one_minus, outcome, points_discharge_word, points_recharge, random_valid_table

# frozen from the worked example (independently recomputed by hand)
PERM12_WORD = (7, 8, 4, 1, 10, 3, 2, 5, 11, 12, 6, 9)


class TestPartialDischarge:
    def test_worked_examples_share_their_permutation(self, neutral12, charged12, perm12):
        assert perm_one_line(perm12) == PERM12_WORD
        assert partial_discharge(charged12) == perm12
        assert partial_discharge(neutral12) == perm12

    def test_diamond(self, diamond):
        assert perm_one_line(partial_discharge(diamond)) == (2, 1, 3)

    def test_rows_down_to_opening_row_unchanged(self):
        for m in one_minus(5):
            if sign_class(m) is SignClass.NEGATIVE:
                continue
            t = discharge(m)
            assert t.perm.rows[: t.opening_row] == m.rows[: t.opening_row]

    def test_inversion_drop_is_c_plus_one_plus_e(self):
        for n in (3, 4, 5):
            for m in one_minus(n):
                if sign_class(m) is SignClass.NEGATIVE:
                    continue
                t = discharge(m)
                drop = classical_params(m).i - classical_params(t.perm).i
                assert drop == t.closing_sum + 1 + t.charge

    def test_neutral_shortcut_agrees_with_full_path(self):
        for m in one_minus(5):
            if sign_class(m) is SignClass.NEUTRAL:
                assert partial_discharge(m) == _partial_discharge_neutral_shortcut(m)

    def test_negative_matrix_rejected(self, charged12):
        with pytest.raises(NegativeClass):
            partial_discharge(reflect(charged12))

    def test_permutation_matrix_rejected(self):
        with pytest.raises(NotOneMinus):
            partial_discharge(validate_asm([[1, 0], [0, 1]]))


class TestDischargeTuple:
    def test_worked_example_tuples(self, neutral12, charged12, perm12):
        tc = discharge(charged12)
        tn = discharge(neutral12)
        assert (tc.opening_row, tc.closing_sum, tc.charge) == (3, 1, 3)
        assert (tn.opening_row, tn.closing_sum, tn.charge) == (3, 4, 0)
        assert tc.perm == tn.perm == perm12

    def test_diamond_tuple(self, diamond):
        t = discharge(diamond)
        assert (t.opening_row, t.closing_sum, t.charge) == (1, 0, 0)

    def test_valid_example(self, perm12):
        t = DischargeTuple(3, perm12, 4, 0)
        assert tuple_valid(t) is t

    def test_condition_four_boundary(self, perm12):
        x = right_side_sum(perm12, 3)
        with pytest.raises(InvalidTuple) as info:
            tuple_valid(DischargeTuple(3, perm12, x - 1, 1))
        assert info.value.condition == 4
        assert tuple_valid(DischargeTuple(3, perm12, x - 1, 0))

    def test_condition_one(self):
        p = perm_matrix((4, 3, 2, 1))
        with pytest.raises(InvalidTuple) as info:
            tuple_valid(DischargeTuple(3, p, 0, 0))
        assert info.value.condition == 1

    def test_condition_two(self, diamond):
        with pytest.raises(InvalidTuple) as info:
            tuple_valid(DischargeTuple(1, diamond, 0, 0))
        assert info.value.condition == 2

    def test_condition_three(self):
        p = perm_matrix((1, 2, 4, 3))
        with pytest.raises(InvalidTuple) as info:
            tuple_valid(DischargeTuple(1, p, 0, 0))
        assert info.value.condition == 3

    def test_negative_counts_fail_condition_four(self, perm12):
        with pytest.raises(InvalidTuple) as info:
            tuple_valid(DischargeTuple(3, perm12, -1, 0))
        assert info.value.condition == 4

    @pytest.mark.parametrize("field, value", [
        ("opening_row", 3.0), ("opening_row", True), ("closing_sum", 0.0),
        ("closing_sum", False), ("charge", 0.0), ("charge", True),
    ])
    def test_non_int_field_fails_condition_zero(self, perm12, field, value):
        t = DischargeTuple(**{"opening_row": 3, "perm": perm12, "closing_sum": 4,
                              "charge": 0, field: value})
        with pytest.raises(InvalidTuple) as info:
            tuple_valid(t)
        assert info.value.condition == 0
        assert str(info.value) == "condition 0: entries must be integers"
        with pytest.raises(InvalidTuple) as info:
            recharge(t)
        assert info.value.condition == 0


class TestRecharge:
    def test_worked_example_inverses(self, neutral12, charged12, perm12):
        assert recharge(DischargeTuple(3, perm12, 4, 0)) == neutral12
        assert recharge(DischargeTuple(3, perm12, 1, 3)) == charged12

    def test_roundtrip_exhaustive(self):
        for n in (3, 4, 5):
            for m in one_minus(n):
                if sign_class(m) is SignClass.NEGATIVE:
                    continue
                assert recharge(discharge(m)) == m

    def test_class_matches_charge_sign(self, perm12):
        assert sign_class(recharge(DischargeTuple(3, perm12, 4, 0))) is SignClass.NEUTRAL
        assert sign_class(recharge(DischargeTuple(3, perm12, 1, 3))) is SignClass.POSITIVE

    def test_invalid_tuple_rejected_with_condition(self, perm12):
        with pytest.raises(InvalidTuple) as info:
            recharge(DischargeTuple(11, perm12, 0, 0))
        assert info.value.condition == 1

    def test_json_roundtrip(self, charged12):
        from asmc import tuple_from_json

        t = discharge(charged12)
        assert tuple_from_json(t.to_json()) == t

    @pytest.mark.parametrize("field", ["k", "c", "E"])
    @pytest.mark.parametrize("value", [True, 1.0, 1.5, "1"])
    def test_json_non_int_field_rejected(self, charged12, field, value):
        from asmc import ParseError, tuple_from_json

        obj = {**discharge(charged12).to_json(), field: value}
        with pytest.raises(ParseError, match=field):
            tuple_from_json(obj)


def kernels_match_oracles(cells) -> int:
    """Check the word kernels against the points oracles on the matrix
    with these non-negative cells: its discharge word, and the recharge of
    that word with each split of ``c + E`` into a closing sum and a charge,
    as ``neutral`` makes them.  Returns the number of splits."""
    n, k, total = len(cells.first), cells.geometry.opening_row, cells.sums.c + cells.e
    word = _discharge_word(cells)
    assert word == points_discharge_word(cells)
    assert _recharge(n, word, k, cells.sums.c, cells.e) == cells.view
    for e in range(total + 1):
        assert _recharge(n, word, k, total - e, e) == points_recharge(n, word, k, total - e, e)
    return total + 1


class TestWordKernels:
    """``_discharge_word`` and ``_recharge`` run the steps on the one-line
    word; the oracles in ``conftest`` run them one at a time on points,
    through the displacement core."""

    def test_every_non_negative_matrix_up_to_order_7(self):
        matrices = splits = 0
        for n in range(3, 8):
            for m in one_minus(n):
                cells = _cells(m)
                if cells.sign is not SignClass.NEGATIVE:
                    splits += kernels_match_oracles(cells)
                    matrices += 1
        assert (matrices, splits) == (22975, 48991)

    @pytest.mark.parametrize("seed", range(3))
    def test_sampled_tables_at_large_n(self, seed):
        rng = random.Random(seed)
        for n in (25, rng.randint(26, 199), 200):
            cells = _cells(restore(pair_from_table(random_valid_table(rng, n))))
            # a negative matrix is discharged through its mirrored view
            for view in (cells.view, _mirror(*cells.view)):
                read = _read(*view)
                if read.sign is not SignClass.NEGATIVE:
                    kernels_match_oracles(read)

    @pytest.mark.parametrize("k, word, c, e, condition", [
        (3, PERM12_WORD, 4, 2, 4),
        (3, PERM12_WORD, -1, 0, 4),
        (3, (4, 3, 2, 1), 0, 0, 1),
        (11, PERM12_WORD, 0, 0, 1),
        (1, None, 0, 0, 2),
        (1, (1, 2, 4, 3), 0, 0, 3),
        (3.0, PERM12_WORD, 4, 0, 0),
        (3, PERM12_WORD, True, 0, 0),
    ])
    def test_invalid_tuples_raise_the_same_condition(self, k, word, c, e, condition):
        perm = validate_asm(DIAMOND_ROWS) if word is None else perm_matrix(word)
        got = outcome(_fields, DischargeTuple(k, perm, c, e))
        assert got == outcome(points_recharge, perm.n, word, k, c, e)
        assert got[0] is InvalidTuple and got[1].startswith(f"condition {condition}:")
        with pytest.raises(InvalidTuple) as info:
            recharge(DischargeTuple(k, perm, c, e))
        assert info.value.condition == condition


def broken_views(m, rng=None):
    """Views one fault away from those the kernels make from the
    non-negative one-minus matrix ``m``: its discharge word with one row
    moved onto another row's column; its recharged view with the closing
    row's first 1 moved onto the opening column or any column right of it,
    the closing column among them; and the view ``pair_from_table`` makes
    of its neutral pair with that left 1 moved right of the opening column.
    With ``rng``, a sample of each: 20 moved rows and 10 moved first 1s."""
    cells = _cells(m)
    n, k = len(cells.first), cells.geometry.opening_row
    word = _discharge_word(cells)
    moves = [(p, q) for p in range(n) for q in range(n) if p != q]
    for p, q in rng.sample(moves, 20) if rng else moves:
        yield word[:q] + (word[p],) + word[q + 1 :], ()
    recharged = _recharge(n, word, k, cells.sums.c, cells.e)
    decoded = _sparse(pair_from_table(gen_table(neutralize(m))).matrix)
    for (first, extras), right_of in ((recharged, 0), (decoded, 1)):
        ((cr, j, _),) = extras
        cols = range(j + right_of, n + 1)
        for col in rng.sample(cols, min(10, len(cols))) if rng else cols:
            yield first[: cr - 1] + (col,) + first[cr:], extras


class TestWriteRejectsBrokenKernelViews:
    """The word kernels and ``pair_from_table`` check nothing they make;
    ``matrix._write`` refuses every view a collision or a misplaced left 1
    would give them, naming the law it breaks."""

    @staticmethod
    def refused(views) -> int:
        count = 0
        for view in views:
            error, _ = outcome(_write, *view)
            assert error in (SumViolation, AlternationViolation), (view, error)
            count += 1
        return count

    def test_every_non_negative_matrix_up_to_order_6(self):
        matrices = views = 0
        for n in range(3, 7):
            for m in one_minus(n):
                if sign_class(m) is not SignClass.NEGATIVE:
                    views += self.refused(broken_views(m))
                    matrices += 1
        assert (matrices, views) == (1975, 69923)

    @pytest.mark.parametrize("seed", range(3))
    def test_sampled_matrices_at_order_200(self, seed):
        rng = random.Random(seed)
        m = restore(pair_from_table(random_valid_table(rng, 200)))
        if sign_class(m) is SignClass.NEGATIVE:
            m = reflect(m)
        assert self.refused(broken_views(m, rng)) == 40


class TestSubmoduleShadowing:
    """The function ``discharge`` shadows the submodule ``asmc.discharge``;
    the module is reached through ``sys.modules``."""

    def test_the_attribute_and_the_import_give_the_function(self):
        import asmc.discharge as shadowed

        assert shadowed is asmc.discharge is discharge
        assert not isinstance(shadowed, types.ModuleType)

    def test_the_module_is_in_sys_modules(self):
        module = sys.modules["asmc.discharge"]
        assert isinstance(module, types.ModuleType)
        assert module.discharge is discharge and module.recharge is recharge
        assert importlib.import_module("asmc.discharge") is module
