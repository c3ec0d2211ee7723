"""Facts kept on values outside their dataclass fields, by the one keep
rule stated in the ``asmc.cells`` module docstring: every value is
immutable once built, so the function that computes a fact keeps it on
its argument.

A kept view must equal a fresh scan of the dense rows, every kept cells
fact the landmarks and cell sums searched and summed by definition on
the dense rows (``conftest.dense_cells``), a kept pair the pair of a
fresh copy, a kept table of a pair the table read on the dense rows
(``conftest.dense_table``), a kept table of a configuration the table
read off the paths (``conftest.strings_table``), and a kept mark a fresh
validation; no kept fact may change what a value is: equality, hashing
and repr see only the dataclass fields, and a value built over lists
freezes them, so it equals its twin built over tuples.  No inverse seeds
a fact on what it returns, so each round trip still computes both
directions.
"""

import copy
import dataclasses
import pickle
import random
import sys
from collections import Counter

import pytest

import asmc
import asmc.neutral
from asmc import (
    AsmMatrix,
    GenInvTable,
    InvalidTable,
    MalformedConfiguration,
    MixedConfiguration,
    MixedPath,
    NeutralPair,
    SignClass,
    charges,
    classical_params,
    config_from_pair,
    config_from_table,
    config_params,
    dual_config,
    flip_charge,
    gen_table,
    geometry,
    matrix_from_json,
    matrix_to_json,
    neutralize,
    pair_from_config,
    pair_from_table,
    reflect,
    restore,
    sign_class,
    swap_charges,
    table_params,
    table_valid,
    validate_asm,
    validate_config,
)
from asmc.matrix import _sparse
from conftest import dense_cells, dense_table, one_minus, random_valid_table, strings_table

FACTS = {"_view", "_cells", "_pair", "_table", "_valid"}


def kept_facts(value) -> set[str]:
    """Check each fact kept on ``value`` (a matrix, a pair and its matrix,
    a configuration or a table) against the dense oracle or a fresh
    computation on an unmemoized copy; returns the names of the facts
    found, a pair's own as ``pair._table``."""
    kept = {name: fact for name, fact in vars(value).items() if name.startswith("_")}
    assert set(kept) <= FACTS
    if isinstance(value, GenInvTable):
        assert set(kept) <= {"_valid"}
        if kept:
            assert kept["_valid"] is True and table_valid(dataclasses.replace(value)) == value
        return set(kept)
    if isinstance(value, NeutralPair):
        assert set(kept) <= {"_table"}
        if kept:
            t = kept["_table"]
            assert t.a == dense_table(AsmMatrix(value.matrix.rows))
            assert pair_from_table(dataclasses.replace(t)) == value
        return {f"pair{name}" for name in kept} | kept_facts(value.matrix)
    if "_view" in kept:
        assert kept["_view"] == _sparse(AsmMatrix(value.rows))
    if "_cells" in kept:
        assert tuple(kept["_cells"]) == dense_cells(AsmMatrix(value.rows))
    if "_pair" in kept:
        fresh = AsmMatrix(value.rows)
        assert sign_class(fresh) is not SignClass.NEUTRAL
        assert kept["_pair"] == neutralize(fresh) and restore(kept["_pair"]) == fresh
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
# checked it; a configuration built from a table keeps the table; no
# matrix that restore returns keeps a pair, and no pair that
# pair_from_table returns keeps a table
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
        # the pair keeps the table config_from_pair read off it
        assert vars(pair).keys() == {"matrix", "charge", "_table"}
        assert repr(pair) == repr(twins[1][1]) and "_table" not in repr(pair)

    @pytest.mark.parametrize("frame", [list, tuple])
    def test_matrix_over_lists_is_frozen(self, frame):
        """A matrix built over the caller's lists copies them once, as a
        tuple of tuples; changing the lists afterwards changes neither the
        matrix nor the facts it keeps."""
        by_class = {sign_class(m): m for m in one_minus(4)}
        first, second = by_class[SignClass.POSITIVE], by_class[SignClass.NEGATIVE]
        rows = frame([list(row) for row in first.rows])
        m = AsmMatrix(rows)
        assert m.rows == first.rows and type(m.rows) is tuple
        assert charges(m) == charges(first) and geometry(m) == geometry(first)
        pair = neutralize(m)
        assert pair == neutralize(first)
        for row, new in zip(rows, second.rows):
            row[:] = new
        if frame is list:
            rows.append([0] * 4)
        assert m == first and hash(m) == hash(first) and m.rows == first.rows
        assert charges(m) == charges(first) and sign_class(m) is SignClass.POSITIVE
        assert neutralize(m) is pair and swap_charges(m) == swap_charges(first)
        assert kept_facts(m) == {"_view", "_cells", "_pair"}

    def test_configuration_over_a_list_is_frozen(self, pair12):
        """A configuration built over a list of paths copies it once, as a
        tuple; reordering the list afterwards leaves it valid and keeping
        its mark."""
        cfg = config_from_pair(pair12)
        paths = list(cfg.paths)
        loose = MixedConfiguration(paths)
        assert type(loose.paths) is tuple and loose == cfg and hash(loose) == hash(cfg)
        assert config_params(loose) == config_params(cfg)
        assert pair_from_config(loose) == pair12
        assert kept_facts(loose) == {"_valid"}
        paths[0], paths[1] = paths[1], paths[0]
        paths.pop()
        assert loose == cfg and validate_config(loose) is loose
        assert config_params(loose) == config_params(cfg) and pair_from_config(loose) == pair12
        assert kept_facts(loose) == {"_valid"}


class TestFrozenValues:
    """A matrix, pair or configuration built over lists equals its twin
    built over tuples, hashes the same, serves as a set and dict key, and
    keeps facts that check out against the dense oracles."""

    @staticmethod
    def check(m: AsmMatrix, key) -> None:
        pair = neutralize(m)
        cfg = config_from_pair(pair)
        listed = (
            AsmMatrix([list(row) for row in m.rows]),
            NeutralPair(AsmMatrix([list(row) for row in pair.matrix.rows]), pair.charge),
            MixedConfiguration(list(cfg.paths)),
        )
        twins = (AsmMatrix(tuple(m.rows)), NeutralPair(AsmMatrix(tuple(pair.matrix.rows)), pair.charge), cfg)
        for value, twin in zip(listed, twins):
            assert value == twin and hash(value) == hash(twin) and repr(value) == repr(twin)
            assert {value, twin} == {twin} and {twin: key}[value] == key
        a, p, c = listed
        assert neutralize(a) == pair and classical_params(a) == classical_params(m)
        assert gen_table(p) == gen_table(pair) and config_params(c) == config_params(cfg)
        neutral = sign_class(m) is SignClass.NEUTRAL
        assert kept_facts(a) == {"_view", "_cells"} | (set() if neutral else {"_pair"})
        assert kept_facts(p) == {"pair_table", "_view", "_cells"}
        assert kept_facts(c) == {"_valid"}

    def test_every_one_minus_matrix_up_to_order_5(self):
        matrices = 0
        for n in range(3, 6):
            for m in one_minus(n):
                self.check(m, n)
                matrices += 1
        assert matrices == 1 + 16 + 200

    @pytest.mark.parametrize("seed", range(2))
    def test_sampled_tables_at_large_n(self, seed):
        rng = random.Random(seed)
        for n in (25, rng.randint(26, 199), 200):
            m = restore(pair_from_table(random_valid_table(rng, n)))
            self.check(m, n)
            self.check(reflect(m), n)

    def test_a_table_and_its_paths_over_lists_are_frozen(self):
        """A table over a list ``a`` and paths over list starts equal and
        hash as their tuple twins, and check and build as they do; changing
        the caller's list changes neither."""
        rng = random.Random(61)
        for n in (3, 25, 200):
            t = random_valid_table(rng, n)
            a = list(t.a)
            listed = GenInvTable(t.k, a, t.b, t.beta)
            a[0] = n
            assert listed == t and hash(listed) == hash(t) and {t: n}[listed] == n
            assert table_valid(listed) is listed and config_from_table(listed) == config_from_table(t)
            cfg = config_from_table(t)
            paths = MixedConfiguration(tuple(MixedPath(list(p.start), p.steps) for p in cfg.paths))
            assert paths == cfg and hash(paths) == hash(cfg) and {cfg: n}[paths] == n
            assert validate_config(paths) is paths and config_params(paths) == table_params(t)


@pytest.fixture
def table_checks(monkeypatch):
    """Counts the calls of ``inv_table.table_valid`` that run its full
    body, those on a table not marked valid yet, in every ``asmc`` module
    that binds it."""
    calls = Counter()
    real = table_valid

    def counting(t):
        if "_valid" not in vars(t):
            calls["full"] += 1
        return real(t)

    for key, mod in list(sys.modules.items()):
        if key.split(".")[0] == "asmc" and getattr(mod, "table_valid", None) is real:
            monkeypatch.setattr(mod, "table_valid", counting)
    assert asmc.inv_table.table_valid is counting and asmc.paths.table_valid is counting
    return calls


@pytest.fixture
def recharges(monkeypatch):
    """Counts the recharges (``neutral._recharged`` calls from the top),
    one per ``neutralize`` or ``restore`` that computes its result."""
    calls = Counter()
    real = asmc.neutral._recharged

    def counting(cells, charge):
        calls["top"] += 1
        monkeypatch.setattr(asmc.neutral, "_recharged", real)  # the mirrored inner call is not counted
        try:
            return real(cells, charge)
        finally:
            monkeypatch.setattr(asmc.neutral, "_recharged", counting)

    monkeypatch.setattr(asmc.neutral, "_recharged", counting)
    return calls


def sampled_by_class(seed: int, n_range: tuple[int, int]):
    """``(t, m)``: a sampled valid table and its matrix, until a positive,
    a neutral and a negative matrix have each been drawn."""
    rng = random.Random(seed)
    seen = set()
    while len(seen) < 3:
        t = random_valid_table(rng, rng.randint(*n_range))
        m = restore(pair_from_table(dataclasses.replace(t)))
        if sign_class(m) not in seen:
            seen.add(sign_class(m))
            yield t, m


class TestEachFactOnce:
    @pytest.mark.parametrize("seed", range(2))
    def test_a_large_round_trip_checks_three_tables(self, seed, table_checks):
        """One round trip of the large-order benchmark at n near 100 runs the
        full table check three times: on the input table, on the table
        ``gen_table`` reads and on the one ``dual_table`` writes; every
        other check finds the mark."""
        for t, _ in sampled_by_class(seed, (95, 105)):
            table_checks.clear()
            pair = pair_from_table(t)
            m = restore(pair)
            m2 = matrix_from_json(matrix_to_json(m))
            params, ch = classical_params(m2), charges(m2)
            pair2 = neutralize(m2)
            t2 = gen_table(pair2)
            cfg = config_from_pair(pair2)
            pv = config_params(cfg)
            dual = dual_config(cfg)
            swapped = swap_charges(m2)
            assert table_checks == {"full": 3}
            assert (m2, pair2, t2) == (m, pair, t)
            assert tuple(pv) == tuple(table_params(t)) == (params.r, params.i, ch.e, ch.b, ch.j)
            assert dual == config_from_pair(neutralize(AsmMatrix(reflect(m).rows)))
            assert (charges(swapped).e, charges(swapped).b) == (ch.b, ch.e)

    def test_the_inverses_seed_no_fact(self, recharges):
        """``restore`` keeps no pair on its matrix and ``pair_from_table`` no
        table on its pair, so neutralizing a restored matrix and tabulating a
        decoded pair compute afresh; the function that computed a fact
        returns it kept on a second call."""
        for t, m in sampled_by_class(5, (20, 60)):
            pair = pair_from_table(t)
            assert "_table" not in vars(pair)
            t2 = gen_table(pair)
            assert t2 == t and t2 is not t and gen_table(pair) is t2
            m = restore(pair)
            assert "_pair" not in vars(m)
            neutral = sign_class(m) is SignClass.NEUTRAL
            recharges.clear()
            back = neutralize(m)
            assert back == pair and recharges == ({} if neutral else {"top": 1})
            assert (neutralize(m) is back) is not neutral
            assert ("_pair" in vars(m)) is not neutral
            # the swap reuses the kept pair and recharges only to restore
            # (not at all when the flipped charge is 0); the swap of the swap
            # neutralizes afresh, as its matrix keeps no pair
            flipped = flip_charge(back).charge != 0
            recharges.clear()
            swapped = swap_charges(m)
            assert "_pair" not in vars(swapped) and recharges["top"] == flipped
            recharges.clear()
            assert swap_charges(swapped) == m and recharges["top"] == flipped + (not neutral)

    def test_a_grid_of_list_rows_is_neither_held_nor_copied(self, charged12):
        grid = [list(row) for row in charged12.rows]
        a = validate_asm(grid)
        parsed = matrix_from_json({"n": len(grid), "rows": grid})
        assert vars(a).keys() == vars(parsed).keys() == {"_view"}
        grid[0][:] = grid[1]
        grid.append([0] * 12)
        assert a == charged12 and parsed == charged12 and a.rows == charged12.rows

    def test_a_grid_of_tuple_rows_keeps_only_its_view(self, charged12):
        rows = tuple(tuple(row) for row in charged12.rows)
        for grid in (rows, list(rows)):
            a = validate_asm(grid)
            assert vars(a).keys() == {"_view"}
            assert a == AsmMatrix(grid) == charged12 and a.rows == rows

    def test_json_of_an_unread_matrix_leaves_it_unread(self):
        rng = random.Random(6)
        for n in (3, 40, 200):
            m = restore(pair_from_table(random_valid_table(rng, n)))
            parsed = matrix_from_json(matrix_to_json(m))
            for a in (m, reflect(m), parsed):
                js = matrix_to_json(a)
                assert "rows" not in vars(a)
                assert js == {"n": n, "rows": [list(row) for row in AsmMatrix(a.rows).rows]}
                assert all(type(row) is list for row in js["rows"]) and len(set(map(id, js["rows"]))) == n
                js["rows"][0][0] = 5
                assert matrix_to_json(a) != js

    @pytest.mark.parametrize("how", ["pickle", "deepcopy", "replace"])
    def test_kept_facts_survive_copies(self, how):
        """A copy of a marked table, of a pair keeping its table and of a
        matrix keeping its pair equals the value with the same hash;
        pickling and deep copying keep the facts, which still check out,
        and ``dataclasses.replace`` builds a new value that keeps none."""
        for t, m in sampled_by_class(7, (20, 60)):
            table_valid(t)
            m = AsmMatrix(m.rows)
            pair = neutralize(m)
            gen_table(pair)
            for value in (t, pair, m):
                facts = kept_facts(value)
                c = {
                    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
                    "deepcopy": copy.deepcopy,
                    "replace": dataclasses.replace,
                }[how](value)
                assert type(c) is type(value)
                assert c == value and hash(c) == hash(value) and repr(c) == repr(value)
                if how == "replace":
                    assert not {"_valid", "_table", "_pair"} & set(vars(c))
                else:
                    assert kept_facts(c) == facts
            assert "pair_table" in kept_facts(pair)
            assert ("_pair" in kept_facts(m)) is (sign_class(m) is not SignClass.NEUTRAL)
