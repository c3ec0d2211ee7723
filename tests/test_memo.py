"""Facts kept on values outside their dataclass fields: the sparse view
of a matrix, kept by the writers (``matrix._on_demand``,
``matrix.validate_asm``) or by the one scan of any other matrix built on
tuples (``matrix._sparse``), what the sparse-view reader of
``asmc.cells`` reads off a matrix (its first 1s, landmarks, sign class,
cell sums and charge), kept by ``cells._cells``, the table of a mixed
configuration built from a valid table, kept by ``paths.config_from_table``,
and the mark of one that has passed validation, kept by ``matrix._keep``.

A kept view must equal a fresh scan of the dense rows, every kept cells
fact the landmarks and cell sums searched and summed by definition on
the dense rows (``conftest.dense_cells``), a kept table the table read
off the paths (``conftest.strings_table``), and a kept mark a fresh
validation; no kept fact may change what a value is: equality, hashing
and repr see only the dataclass fields, and a value built over lists
keeps nothing.
"""

import random
from collections import Counter

import pytest

from asmc import (
    AsmMatrix,
    GenInvTable,
    InvalidTable,
    MalformedConfiguration,
    MixedConfiguration,
    NeutralPair,
    SignClass,
    charges,
    config_from_pair,
    config_from_table,
    config_params,
    dual_config,
    gen_table,
    geometry,
    neutralize,
    pair_from_config,
    pair_from_table,
    reflect,
    restore,
    sign_class,
    swap_charges,
    table_valid,
    validate_asm,
    validate_config,
)
from asmc.matrix import _sparse
from conftest import dense_cells, one_minus, random_valid_table, strings_table

FACTS = {"_view", "_cells", "_table", "_valid"}


def kept_facts(value) -> set[str]:
    """Check each fact kept on ``value`` (a matrix, the matrix of a pair,
    or a configuration) against the dense oracle or a fresh validation of
    an unmemoized copy; returns the names of the facts found."""
    if isinstance(value, NeutralPair):
        value = value.matrix
    kept = {name: fact for name, fact in vars(value).items() if name.startswith("_")}
    assert set(kept) <= FACTS
    if "_view" in kept:
        assert kept["_view"] == _sparse(AsmMatrix(value.rows))
    if "_cells" in kept:
        assert tuple(kept["_cells"]) == dense_cells(AsmMatrix(value.rows))
    if "_table" in kept:
        fresh = MixedConfiguration(value.paths)
        assert validate_config(fresh) is fresh
        assert kept["_table"] == strings_table(fresh)
    if "_valid" in kept:
        assert kept["_valid"] is True
        fresh = MixedConfiguration(value.paths)
        assert validate_config(fresh) is fresh
    return set(kept)


def outputs(m: AsmMatrix, copy=AsmMatrix):
    """``(name, value)`` for the outputs of ``neutralize``, ``restore``,
    ``swap_charges``, ``pair_from_table``, ``config_from_pair`` and
    ``dual_config`` on fresh copies of ``m`` and of its encodings, made by
    ``copy`` from their rows: dense, or validated."""
    pair = neutralize(copy(m.rows))
    yield "neutralize", pair
    yield "restore", restore(NeutralPair(copy(pair.matrix.rows), pair.charge))
    yield "swap_charges", swap_charges(copy(m.rows))
    yield "pair_from_table", pair_from_table(gen_table(pair))
    cfg = config_from_pair(NeutralPair(copy(pair.matrix.rows), pair.charge))
    yield "config_from_pair", cfg
    yield "dual_config", dual_config(cfg)


# the facts each output may hold: every matrix keeps its sparse view,
# whether built on it, validated or scanned, and its cells once a pair has
# checked it; a configuration built from a table keeps the table
EXPECTED = {
    "neutralize": ({"_view", "_cells"},),
    "restore": ({"_view", "_cells"}, {"_view"}),
    "swap_charges": ({"_view", "_cells"}, {"_view"}),
    "pair_from_table": ({"_view", "_cells"},),
    "config_from_pair": ({"_table"},),
    "dual_config": ({"_table"},),
}


def check_outputs(m: AsmMatrix, found: Counter, copy=AsmMatrix) -> None:
    for name, value in outputs(m, copy):
        facts = kept_facts(value)
        assert facts in EXPECTED[name], (name, m.rows)
        found.update(facts)


class TestKeptFactsOracle:
    def test_every_one_minus_matrix_up_to_order_6(self):
        found = Counter()
        matrices = 0
        for n in range(3, 7):
            for m in one_minus(n):
                check_outputs(m, found)
                matrices += 1
        assert matrices == 2617
        # 1,284 of the matrices are not neutral; see EXPECTED for the rest
        assert found == {"_view": 10468, "_cells": 7900, "_table": 2 * matrices}

    def test_validated_copies_up_to_order_6(self):
        found = Counter()
        matrices = 0
        for n in range(3, 7):
            for m in one_minus(n):
                assert kept_facts(validate_asm(m.rows)) == {"_view"}
                check_outputs(m, found, validate_asm)
                matrices += 1
        assert matrices == 2617
        assert found == {"_view": 10468, "_cells": 7900, "_table": 2 * matrices}

    @pytest.mark.parametrize("seed", range(2))
    def test_sampled_tables_at_large_n(self, seed):
        rng = random.Random(seed)
        for n in (25, rng.randint(26, 199), 200):
            pair = pair_from_table(random_valid_table(rng, n))
            assert kept_facts(pair) == {"_view", "_cells"}
            m = restore(pair)
            assert kept_facts(m) == {"_view"}
            found = Counter()
            check_outputs(m, found)
            check_outputs(reflect(m), found)
            check_outputs(m, found, validate_asm)
            assert found["_table"] == 6

    @pytest.mark.parametrize("t, condition", [
        (GenInvTable(k=2, a=(0, 1, 0), b=0, beta=0), 1),
        (GenInvTable(k=4, a=(0, 2, 0, 1), b=0, beta=0), 2),
        (GenInvTable(k=3, a=(0, 1, 1), b=0, beta=0), 3),
        (GenInvTable(k=3, a=(0, 0, 1), b=0, beta=1), 4),
        (GenInvTable(k=4, a=(0, 1, 0, 1), b=2, beta=0), 4),
    ], ids=["condition-1", "condition-2", "condition-3", "condition-4-lower", "condition-4-upper"])
    def test_configuration_of_an_invalid_table_keeps_nothing(self, t, condition):
        with pytest.raises(InvalidTable) as info:
            table_valid(t)
        assert info.value.condition == condition
        cfg = config_from_table(t)
        assert kept_facts(cfg) == set()
        with pytest.raises(MalformedConfiguration):
            validate_config(cfg)
        assert kept_facts(cfg) == set()


class TestValueSemantics:
    def test_kept_facts_stay_out_of_equality_hash_and_repr(self, charged12):
        pair = neutralize(AsmMatrix(charged12.rows))
        m = restore(pair)
        cfg = config_from_pair(pair)
        config_params(cfg)
        assert kept_facts(m) == {"_view"}
        assert kept_facts(cfg) == {"_table"}
        twins = (
            (m, AsmMatrix(m.rows)),
            (pair, NeutralPair(AsmMatrix(pair.matrix.rows), pair.charge)),
            (cfg, MixedConfiguration(cfg.paths)),
        )
        for value, twin in twins:
            assert value == twin and hash(value) == hash(twin)
            assert repr(value) == repr(twin)
        assert repr(m) == f"AsmMatrix(rows={m.rows!r})"
        assert vars(pair).keys() == {"matrix", "charge"}

    @pytest.mark.parametrize("frame", [list, tuple])
    def test_matrix_over_lists_follows_its_rows(self, frame):
        by_class = {sign_class(m): m for m in one_minus(4)}
        first, second = by_class[SignClass.POSITIVE], by_class[SignClass.NEGATIVE]
        rows = frame([list(row) for row in first.rows])
        m = AsmMatrix(rows)
        assert charges(m) == charges(first)
        assert geometry(m) == geometry(first)
        assert tuple(map(tuple, neutralize(m).matrix.rows)) == neutralize(first).matrix.rows
        for row, new in zip(rows, second.rows):
            row[:] = new
        assert charges(m) == charges(second)
        assert sign_class(m) is SignClass.NEGATIVE
        assert tuple(map(tuple, swap_charges(m).rows)) == swap_charges(second).rows
        assert vars(m).keys() == {"rows"}

    def test_configuration_over_a_list_is_validated_again(self, pair12):
        cfg = config_from_pair(pair12)
        paths = list(cfg.paths)
        loose = MixedConfiguration(paths)
        assert config_params(loose) == config_params(cfg)
        assert pair_from_config(loose) == pair12
        assert vars(loose).keys() == {"paths"}
        paths[0], paths[1] = paths[1], paths[0]
        with pytest.raises(MalformedConfiguration):
            validate_config(loose)
        with pytest.raises(MalformedConfiguration):
            config_params(loose)
        with pytest.raises(MalformedConfiguration):
            pair_from_config(loose)
