"""Public operations reject malformed records and arguments with an
``AsmcError`` subclass; no raw ``TypeError`` or ``AttributeError``
escapes, and no argument is coerced."""

import pytest

import asmc
from asmc import (
    AlternationViolation,
    AsmMatrix,
    BadEntry,
    DischargeTuple,
    GenInvTable,
    InvalidPair,
    InvalidTable,
    InvalidTuple,
    MalformedConfiguration,
    MixedConfiguration,
    MixedPath,
    NeutralPair,
    NotSquare,
    PreconditionFailed,
    Region,
    SumViolation,
    apply_in_region,
    charges,
    config_from_json,
    config_from_table,
    distribution,
    dual_config,
    enumerate_asm,
    formula_count,
    h_shift,
    matrix_from_json,
    matrix_from_text,
    matrix_to_json,
    pair_from_config,
    perm_from_table,
    perm_matrix,
    perm_table,
    recharge,
    render_ascii,
    render_svg,
    table_from_text,
    table_valid,
    tuple_valid,
    v_shift,
    validate_asm,
    validate_config,
    verify_suite,
)
from asmc.errors import BadArgument, ParseError
from asmc.matrix import json_object

DIAMOND_ROWS = ((0, 1, 0), (1, -1, 1), (0, 1, 0))


@pytest.mark.parametrize("call, args, error", [
    (NeutralPair, (DIAMOND_ROWS, 0), InvalidPair),
    (NeutralPair, (None, 0), InvalidPair),
    (table_valid, (GenInvTable(3, None, 0, 0),), InvalidTable),
    (tuple_valid, (DischargeTuple(1, None, 0, 0),), InvalidTuple),
    (recharge, (DischargeTuple(1, None, 0, 0),), InvalidTuple),
    (validate_config, (MixedConfiguration(None),), MalformedConfiguration),
    (validate_config, (MixedConfiguration((MixedPath((0, 1), None),)),), MalformedConfiguration),
    (validate_config, (MixedConfiguration((MixedPath(None, ""),)),), MalformedConfiguration),
    (pair_from_config, (MixedConfiguration(None),), MalformedConfiguration),
    (dual_config, (MixedConfiguration((MixedPath((0, 1), None),)),), MalformedConfiguration),
    (validate_config, (None,), MalformedConfiguration),
    (validate_config, (MixedPath((0, 1), ""),), MalformedConfiguration),
    (table_valid, (None,), InvalidTable),
    (table_valid, ((3, (0, 0, 1), 0, 0),), InvalidTable),
    (tuple_valid, (None,), InvalidTuple),
    (recharge, ((1, None, 0, 0),), InvalidTuple),
    (config_from_table, (None,), InvalidTable),
    (config_from_table, (GenInvTable(3, (0, 0, 1.0), 0, 0),), InvalidTable),
    (config_from_table, (GenInvTable(3, (0, 0, True), 0, 0),), InvalidTable),
    (config_from_table, (GenInvTable(3, (0, 0, 1), -1, 0),), InvalidTable),
], ids=[
    "pair-of-rows", "pair-of-none", "table-a-none", "tuple-perm-none",
    "recharge-perm-none", "config-paths-none", "config-steps-none", "config-start-none",
    "decode-paths-none", "dual-steps-none", "config-none", "config-of-a-path",
    "table-none", "table-of-a-tuple", "tuple-none", "recharge-of-a-tuple",
    "config-table-none", "config-table-float-entry", "config-table-bool-entry",
    "config-table-negative-b",
])
def test_record_of_the_wrong_container_is_rejected(call, args, error):
    with pytest.raises(error) as info:
        call(*args)
    if error in (InvalidTable, InvalidTuple):
        assert info.value.condition == 0
    if error is MalformedConfiguration:
        assert info.value.problems


def test_a_table_over_a_list_is_frozen():
    """A list ``a`` is frozen as a tuple, not refused: the table equals its
    twin and builds the same configuration."""
    t, twin = GenInvTable(3, [0, 0, 1], 0, 0), GenInvTable(3, (0, 0, 1), 0, 0)
    assert t == twin and hash(t) == hash(twin) and type(t.a) is tuple
    assert config_from_table(t) == config_from_table(twin)


@pytest.mark.parametrize("call", [
    lambda: tuple_valid(DischargeTuple(1, AsmMatrix(None), 0, 0)),
    lambda: NeutralPair(AsmMatrix(None), 0),
    lambda: charges(AsmMatrix(None)),
    lambda: perm_table(AsmMatrix(None)),
], ids=["tuple", "pair", "charges", "perm-table"])
def test_matrix_without_rows_is_rejected(call):
    with pytest.raises(NotSquare):
        call()


@pytest.mark.parametrize("rows, error", [
    (((2,),), BadEntry),
    (((1, 0), (1, 0)), AlternationViolation),
    (((0, 0), (1, 0)), SumViolation),
], ids=["bad-entry", "alternation", "sum"])
def test_json_of_an_unchecked_matrix_raises_what_validation_raises(rows, error):
    """``matrix_to_json`` writes every matrix from its sparse view, so rows
    that break the law raise the class ``validate_asm`` raises on them."""
    with pytest.raises(error):
        validate_asm(rows)
    with pytest.raises(error):
        matrix_to_json(AsmMatrix(rows))


@pytest.mark.parametrize("call, args, kwargs, error", [
    (enumerate_asm, (True,), {}, BadArgument),
    (enumerate_asm, (3,), {"s": 1.0}, BadArgument),
    (enumerate_asm, (3,), {"s": "1"}, BadArgument),
    (distribution, (3.0, ["r"]), {}, BadArgument),
    (verify_suite, (3.5,), {}, BadArgument),
    (formula_count, (2.5,), {}, BadArgument),
    (formula_count, (-1,), {}, BadArgument),
    (perm_matrix, ([1.0, 2],), {}, SumViolation),
    (perm_matrix, (["a"],), {}, SumViolation),
    (perm_matrix, (None,), {}, NotSquare),
    (perm_matrix, (3,), {}, NotSquare),
    (Region, (1.5, 2, 1, 2), {}, PreconditionFailed),
    (Region, ("a", 2, 1, 2), {}, PreconditionFailed),
    (enumerate_asm, (3,), {"cap": "x"}, BadArgument),
    (enumerate_asm, (3,), {"s": 1, "sign": "neutral"}, BadArgument),
    (distribution, (4, None), {}, BadArgument),
    (verify_suite, (3,), {"cap": None}, BadArgument),
    (verify_suite, (3,), {"cap": "7"}, BadArgument),
], ids=[
    "enumerate-bool-order", "enumerate-float-s", "enumerate-str-s", "distribution-float-order",
    "verify-float-order", "formula-float-order", "formula-negative-order",
    "perm-float-entry", "perm-str-entry", "perm-none-word", "perm-int-word",
    "region-float-bound", "region-str-bound",
    "enumerate-str-cap", "enumerate-str-sign", "distribution-none-keys",
    "verify-none-cap", "verify-str-cap",
])
def test_integer_argument_is_not_coerced(call, args, kwargs, error):
    with pytest.raises(error):
        call(*args, **kwargs)


@pytest.mark.parametrize("call, args, error", [
    (h_shift, (0,), PreconditionFailed),
    (v_shift, (0,), PreconditionFailed),
    (h_shift, ([1, 0],), PreconditionFailed),
    (perm_from_table, (0,), InvalidTable),
    (apply_in_region, ([[1, 0]], (1, 1, 1, 1), h_shift), PreconditionFailed),
    (formula_count, (2**70,), BadArgument),
], ids=["h-shift-int", "v-shift-int", "h-shift-rows-of-ints", "perm-from-table-int",
        "region-of-a-tuple", "formula-past-factorials"])
def test_argument_of_the_wrong_kind_is_refused_at_its_boundary(call, args, error):
    """An argument of the wrong kind is refused with the boundary's own
    class, not a raw ``TypeError``, ``AttributeError`` or ``OverflowError``."""
    with pytest.raises(error) as info:
        call(*args)
    if error is InvalidTable:
        assert info.value.condition == 0


@pytest.mark.parametrize("call, arg", [
    (matrix_from_text, None),
    (table_from_text, 0),
    (json_object, None),
    (matrix_from_json, '{"rows": ' + "1" * 5000 + "}"),
    (config_from_json, "[" * 100_000),
    (json_object, "[]"),
], ids=["matrix-text-none", "table-text-int", "json-none", "json-past-digit-limit",
        "json-past-recursion-limit", "json-not-an-object"])
def test_text_parser_refuses_what_is_not_its_text(call, arg):
    with pytest.raises(ParseError):
        call(arg)


@pytest.mark.parametrize("render", [render_ascii, render_svg])
@pytest.mark.parametrize("cfg", [
    MixedConfiguration(None),
    MixedConfiguration((MixedPath((0, 1), "Q"),)),
    MixedConfiguration((MixedPath((0, 1), "EE"),)),
], ids=["paths-none", "unknown-step", "off-grid"])
def test_malformed_configuration_is_not_rendered(render, cfg):
    with pytest.raises(MalformedConfiguration) as info:
        render(cfg)
    assert info.value.problems


MATRIX_READERS = [
    "reflect", "minus_count", "inversions", "classical_params", "is_permutation_matrix", "perm_one_line",
    "matrix_to_text", "matrix_to_json", "sign_class", "cell_sums", "charges", "geometry", "neutralize",
    "swap_charges", "partial_discharge", "discharge", "perm_table",
]
PAIR_READERS = ["restore", "flip_charge", "gen_table", "config_from_pair"]
DIAMOND = AsmMatrix(DIAMOND_ROWS)
NOT_VALUES = {"none": None, "int": 3, "diamond": DIAMOND, "pair": NeutralPair(DIAMOND, 0)}


@pytest.mark.parametrize("arg", ["none", "int", "pair"])
@pytest.mark.parametrize("name", MATRIX_READERS)
def test_matrix_reader_refuses_a_non_matrix(name, arg):
    with pytest.raises(BadArgument, match=f"expected an AsmMatrix, got {type(NOT_VALUES[arg]).__name__}$"):
        getattr(asmc, name)(NOT_VALUES[arg])


@pytest.mark.parametrize("arg", ["none", "int", "diamond"])
@pytest.mark.parametrize("name", PAIR_READERS)
def test_pair_reader_refuses_a_non_pair(name, arg):
    with pytest.raises(InvalidPair, match=f"expected a NeutralPair, got {type(NOT_VALUES[arg]).__name__}$"):
        getattr(asmc, name)(NOT_VALUES[arg])
