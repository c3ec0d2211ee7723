"""Neutralizing, the charge flip and the charge-swap involution."""

import sys

import pytest

import asmc.matrix
from asmc import (
    InvalidPair,
    NeutralPair,
    NotOneMinus,
    ParseError,
    cell_sums,
    charges,
    classical_params,
    flip_charge,
    neutralize,
    pair_from_json,
    reflect,
    restore,
    swap_charges,
    validate_asm,
)
from conftest import ORDER7_VALIDATIONS, one_minus


class TestNeutralize:
    def test_worked_example(self, charged12, pair12):
        assert neutralize(charged12) == pair12
        assert pair12.charge == 3

    def test_neutral_matrix_is_fixed(self, neutral12):
        assert neutralize(neutral12) == NeutralPair(neutral12, 0)

    def test_commutes_with_reflection(self, charged12, neutral12):
        assert neutralize(reflect(charged12)) == NeutralPair(reflect(neutral12), -3)

    def test_permutation_matrix_rejected(self):
        with pytest.raises(NotOneMinus):
            neutralize(validate_asm([[1, 0], [0, 1]]))

    def test_roundtrip_exhaustive(self):
        for n in (3, 4, 5):
            for m in one_minus(n):
                assert restore(neutralize(m)) == m

    def test_image_is_exactly_the_admissible_pairs(self):
        from asmc import SignClass, sign_class

        n = 4
        image = {neutralize(m) for m in one_minus(n)}
        assert len(image) == len(one_minus(n))  # injective
        expected = {
            NeutralPair(m, e)
            for m in one_minus(n)
            if sign_class(m) is SignClass.NEUTRAL
            for e in range(-cell_sums(m).ell, cell_sums(m).c + 1)
        }
        assert image == expected

    def test_parameter_transport(self):
        for m in one_minus(5):
            pair = neutralize(m)
            pm, pn = classical_params(m), classical_params(pair.matrix)
            cm, cn = charges(m), charges(pair.matrix)
            assert (pm.r, pm.i) == (pn.r, pn.i)
            assert pair.charge == cm.e
            assert cn.b == cm.b + cm.e
            assert cn.j == cm.j


class TestPairInvariants:
    def test_out_of_range_charge_rejected(self, neutral12):
        # the example's closing sum is 4, so a charge of 5 is inadmissible
        with pytest.raises(InvalidPair):
            NeutralPair(neutral12, 5)

    @pytest.mark.parametrize("charge", [0.0, False, 1.0, True, "1"])
    def test_non_int_charge_rejected(self, neutral12, charge):
        with pytest.raises(InvalidPair):
            NeutralPair(neutral12, charge)

    def test_charged_matrix_rejected(self, charged12):
        with pytest.raises(InvalidPair):
            NeutralPair(charged12, 0)

    def test_json_roundtrip(self, pair12):
        assert pair_from_json(pair12.to_json()) == pair12

    @pytest.mark.parametrize("value", [True, 3.0, 2.5, "3"])
    def test_json_non_int_charge_rejected(self, pair12, value):
        with pytest.raises(ParseError):
            pair_from_json({**pair12.to_json(), "E": value})

    def test_stored_sums_stay_out_of_equality(self, pair12):
        twin = NeutralPair(pair12.matrix, pair12.charge)
        assert twin == pair12 and hash(twin) == hash(pair12)
        assert twin.sums == cell_sums(pair12.matrix)
        assert "sums" not in repr(twin)


class TestRestore:
    def test_worked_example(self, pair12, charged12, neutral12):
        assert restore(pair12) == charged12
        assert restore(NeutralPair(neutral12, 0)) == neutral12

    def test_negative_charge_restores_reflection(self, neutral12, charged12):
        assert restore(NeutralPair(reflect(neutral12), -3)) == reflect(charged12)


class TestChargeFlip:
    def test_worked_example_values(self, neutral12):
        assert flip_charge(NeutralPair(neutral12, 3)) == NeutralPair(neutral12, -1)
        assert flip_charge(NeutralPair(neutral12, 0)) == NeutralPair(neutral12, 2)

    def test_involution_over_order_5(self):
        for m in one_minus(5):
            pair = neutralize(m)
            assert flip_charge(flip_charge(pair)) == pair


class TestChargeSwap:
    def test_worked_example_swaps_charges(self, charged12):
        swapped = swap_charges(charged12)
        ch = charges(swapped)
        assert (ch.e, ch.b) == (-1, 3)

    def test_diamond_is_fixed(self, diamond):
        assert swap_charges(diamond) == diamond

    def test_commutes_with_reflection(self):
        for m in one_minus(5):
            assert swap_charges(reflect(m)) == reflect(swap_charges(m))

    def test_preserves_r_i_j(self):
        for m in one_minus(4):
            swapped = swap_charges(m)
            pm, ps = classical_params(m), classical_params(swapped)
            assert (ps.r, ps.i) == (pm.r, pm.i)
            assert charges(swapped).j == charges(m).j


class TestValidationsPerCall:
    """The one writer runs only on the matrices an encoding returns:
    discharging and recharging in between act on the permutation word,
    and no encoding runs the dense ``validate_asm`` or reflects a dense
    matrix."""

    def test_at_most_one_per_returned_matrix_at_order_7(self, order7_calls):
        assert sys.modules["asmc.neutral"] in order7_calls.wrapped["_write"]
        assert asmc.matrix in order7_calls.wrapped["validate_asm"]
        assert order7_calls.matrices == 29400
        assert order7_calls.most == ORDER7_VALIDATIONS
        assert order7_calls.dense == dict.fromkeys(ORDER7_VALIDATIONS, 0)

    def test_no_reflected_copy_at_order_7(self, order7_calls):
        """A negative matrix is taken through its mirrored sparse view."""
        assert asmc.matrix in order7_calls.wrapped["reflect"]
        assert order7_calls.matrices == 29400
        assert order7_calls.reflects == dict.fromkeys(ORDER7_VALIDATIONS, 0)
