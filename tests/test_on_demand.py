"""Values written on demand: ``matrix._write``, the one writer, and
``perm_matrix``, which calls it, check a sparse view or a one-line word
with the one check of the alternating law and return a matrix that
keeps its sparse view and whose dense rows are written the first time
``rows`` is read; ``reflect`` of any matrix mirrors its view.
``config_from_table`` of a valid table, and so ``dual_config``, return a
configuration that keeps its table and whose paths are written the first
time ``paths`` is read.

Those rows and paths must be the ones the dense writers of ``conftest``
write, the value must mean what its dense twin means (equality, hashing,
repr, pickling and copying), and the encodings must write no rows or
paths and reflect no matrix before a caller reads one.
"""

import copy
import dataclasses
import itertools
import pickle
import random
import sys
import threading
from collections import Counter

import pytest

import asmc
import asmc.matrix
import asmc.paths
from asmc import (
    AsmMatrix,
    MixedConfiguration,
    NeutralPair,
    SignClass,
    classical_params,
    config_from_table,
    config_params,
    discharge,
    dual_config,
    dual_table,
    gen_table,
    inversions,
    minus_count,
    neutralize,
    pair_from_config,
    pair_from_table,
    partial_discharge,
    perm_matrix,
    perm_one_line,
    perm_table,
    recharge,
    reflect,
    render_ascii,
    restore,
    sign_class,
    swap_charges,
    table_from_config,
    table_params,
    validate_asm,
)
from asmc.cells import _cells
from asmc.errors import BadArgument
from asmc.matrix import _write
from conftest import (
    dense_config,
    dense_perm_matrix,
    dense_reflection,
    dense_table,
    dense_write,
    one_minus,
    outcome,
    random_valid_table,
)

# an order-6 ASM with four -1s, two of them on one row, whose reflection
# is another matrix
SEVERAL_ROWS = (
    (0, 0, 1, 0, 0, 0),
    (0, 1, -1, 1, 0, 0),
    (1, -1, 1, -1, 1, 0),
    (0, 1, -1, 1, 0, 0),
    (0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 0, 1),
)


def field(value) -> str:
    """The field written on demand: a configuration's paths, a matrix's
    rows."""
    return "paths" if isinstance(value, MixedConfiguration) else "rows"


def unread(value) -> bool:
    return field(value) not in vars(value)


def check_written(a: AsmMatrix) -> None:
    """``a`` is a one-minus matrix written on demand and not read yet; its
    rows, and those of the permutation its discharge leaves, equal the
    dense writers' rows."""
    assert unread(a)
    view = _cells(a).view
    assert a.n == len(view[0]) and unread(a)
    assert a.rows == dense_write(*view).rows
    if sign_class(a) is not SignClass.NEGATIVE:
        p = partial_discharge(a)
        assert unread(p)
        assert p.rows == dense_perm_matrix(perm_one_line(p)).rows


def check_outputs(m: AsmMatrix) -> None:
    """The sparse view of ``m`` written again, and the outputs of the
    encodings on a dense copy of ``m``, against the dense writers."""
    check_written(_write(*_cells(m).view))
    pair = neutralize(AsmMatrix(m.rows))
    if pair.charge:
        check_written(pair.matrix)
        check_written(restore(NeutralPair(AsmMatrix(pair.matrix.rows), pair.charge)))
        check_written(swap_charges(AsmMatrix(m.rows)))


class TestRowsOracle:
    def test_every_one_minus_matrix_and_its_reflection_up_to_order_6(self):
        matrices = 0
        for n in range(3, 7):
            for m in one_minus(n):
                check_outputs(m)
                check_outputs(reflect(m))
                matrices += 1
        assert matrices == 2617

    @pytest.mark.parametrize("seed", range(2))
    def test_sampled_tables_at_large_n(self, seed):
        rng = random.Random(seed)
        for n in (25, rng.randint(26, 199), 200):
            m = restore(pair_from_table(random_valid_table(rng, n)))
            check_written(m)
            check_outputs(m)
            check_outputs(reflect(m))

    def test_permutation_words_up_to_order_5(self):
        rng = random.Random(5)
        for n in range(1, 6):
            for _ in range(20):
                word = rng.sample(range(1, n + 1), n)
                p = perm_matrix(word)
                word.reverse()  # the matrix keeps its own copy of the word
                assert unread(p) and p.n == n
                assert p.rows == dense_perm_matrix(word[::-1]).rows

    def test_reflection_of_every_built_matrix_up_to_order_6(self):
        """``reflect`` of a one-minus matrix written by ``_write`` and of a
        permutation matrix written by ``perm_matrix`` mirrors the view and
        writes no rows; read, it is the reflected dense twin."""
        built = 0
        for n in range(1, 7):
            words = itertools.permutations(range(1, n + 1))
            for b in [*(_write(*_cells(m).view) for m in one_minus(n)), *map(perm_matrix, words)]:
                mirror = reflect(b)
                assert unread(mirror) and unread(b) and mirror.n == n
                dense = dense_reflection(b)
                assert mirror == dense and reflect(mirror) == b
                assert minus_count(mirror) == minus_count(dense)
                built += 1
        assert built == 2617 + 873


def readers(a: AsmMatrix) -> tuple:
    """What the readers of the sparse view give on ``a``, or raise."""
    return outcome(classical_params, a), outcome(minus_count, a), outcome(perm_one_line, a)


class TestSparseReaders:
    """``classical_params``, ``minus_count`` and ``perm_one_line`` of a
    built matrix read its sparse view, leaving its rows unwritten, and
    give what they give on its dense twin."""

    @staticmethod
    def check(b: AsmMatrix) -> bool:
        """Whether ``b`` is built; if so, its readers against its twin's."""
        if not unread(b):
            return False  # an input passed through
        got = readers(b)
        assert unread(b)
        assert got == readers(AsmMatrix(b.rows))
        return True

    def test_every_built_output_up_to_order_6(self):
        built = 0
        for n in range(3, 7):
            for m in one_minus(n):
                t = gen_table(neutralize(AsmMatrix(m.rows)))
                for build in (
                    lambda: neutralize(AsmMatrix(m.rows)).matrix,
                    lambda: swap_charges(AsmMatrix(m.rows)),
                    lambda: pair_from_table(t).matrix,
                    lambda: restore(pair_from_table(t)),
                    lambda: reflect(restore(pair_from_table(t))),
                ):
                    built += self.check(build())
            for word in itertools.permutations(range(1, n + 1)):
                built += self.check(perm_matrix(word)) + self.check(reflect(perm_matrix(word)))
        # three table builds per matrix and the built encodings of the
        # charged ones, then every permutation and its reflection
        assert built == 11151 + 2 * (6 + 24 + 120 + 720)


@pytest.fixture(scope="module")
def written():
    """Builders of a one-minus matrix and of a permutation matrix written
    on demand, and of their reflections, each with its dense twin, of the
    reflection of a validated matrix with four -1s, and of the
    configuration of the matrix's table and its dual."""
    t = random_valid_table(random.Random(2), 40)
    m = restore(pair_from_table(t))
    view = _cells(m).view
    word = perm_one_line(partial_discharge(m if sign_class(m) is SignClass.POSITIVE else reflect(m)))
    builders = (
        (lambda: _write(*view), dense_write(*view)),
        (lambda: perm_matrix(word), dense_perm_matrix(word)),
    )
    several = validate_asm(SEVERAL_ROWS)
    return (
        *builders,
        *((lambda build=build: reflect(build()), dense_reflection(twin)) for build, twin in builders),
        (lambda: reflect(several), dense_reflection(several)),
        (lambda: config_from_table(t), dense_config(t)),
        (lambda: dual_config(config_from_table(t)), dense_config(dual_table(t))),
    )


class TestValueSemantics:
    def test_keeps_only_its_view_until_read(self, written):
        """A matrix keeps its view, a configuration its table; its type is
        its dense twin's before and after the read."""
        for build, twin in written:
            b = build()
            assert vars(b).keys() == {"_table" if field(twin) == "paths" else "_view"}
            assert type(b) is type(twin)
            getattr(b, field(b))
            assert type(b) is type(twin) and not unread(b)

    def test_equals_its_dense_twin_with_equal_hash_and_repr(self, written):
        for build, twin in written:
            assert unread(build())
            assert build() == twin and twin == build() and build() == build()
            assert not build() != twin and not twin != build()
            assert hash(build()) == hash(twin)
            assert repr(build()) == repr(twin)
            assert (build(), 1) == (twin, 1) and {build(), twin} == {twin}
            assert build().n == twin.n
            if field(twin) == "rows":
                assert str(build()) == str(twin)
                assert list(build()) == list(twin.rows)
                assert build().entry(2, 3) == twin.entry(2, 3)
            else:
                assert build().to_json() == twin.to_json()
                assert build().step_count("E") == twin.step_count("E")

    @pytest.mark.parametrize("read", [False, True], ids=["unread", "read"])
    @pytest.mark.parametrize("how", ["pickle", "deepcopy", "replace"])
    def test_round_trips(self, written, how, read):
        for build, twin in written:
            b = build()
            if read:
                getattr(b, field(b))
            c = {
                "pickle": lambda x: pickle.loads(pickle.dumps(x)),
                "deepcopy": copy.deepcopy,
                "replace": dataclasses.replace,
            }[how](b)
            assert type(c) is type(b) is type(twin)
            if how != "replace":
                assert unread(c) is unread(b)
            assert c == twin and hash(c) == hash(twin) and c.n == twin.n

    def test_threads_read_the_rows_at_once(self, written):
        """More readers than cores, switching often: every read returns the
        dense rows and none raises."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for build, twin in written:
                for _ in range(10):
                    b = build()
                    start = threading.Barrier(4)
                    got, errors = [], []

                    def read():
                        try:
                            start.wait(timeout=10)
                            got.append(getattr(b, field(b)))
                        except Exception as exc:  # reported below
                            errors.append(exc)

                    threads = [threading.Thread(target=read) for _ in range(4)]
                    for t in threads:
                        t.start()
                    for t in threads:
                        t.join(timeout=10)
                    assert not any(t.is_alive() for t in threads)
                    assert errors == [] and got == [getattr(twin, field(twin))] * 4
        finally:
            sys.setswitchinterval(interval)

    def test_missing_attributes_still_raise(self, written):
        a = written[0][0]()
        with pytest.raises(AttributeError):
            a.columns
        assert not hasattr(a, "__deepcopy__")
        with pytest.raises(AttributeError):
            object.__new__(AsmMatrix).rows  # no view
        with pytest.raises(AttributeError):
            object.__new__(MixedConfiguration).paths  # no table
        cfg = written[-1][0]()
        with pytest.raises(AttributeError):
            cfg.rows
        assert unread(cfg)


class TestNoDenseWork:
    """At n=500 the encodings build every matrix on its view: they write
    no dense rows (``matrix._rows`` calls) and reflect no matrix, and each
    matrix they return writes its rows once, on the first read."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = Counter()
        for module, name in ((asmc.matrix, "_rows"), (asmc.matrix, "reflect")):
            real = getattr(module, name)

            def counting(*args, real=real, name=name):
                calls[name] += 1
                return real(*args)

            bound = [mod for key, mod in sys.modules.items()
                     if key.split(".")[0] == "asmc" and getattr(mod, name, None) is real]
            assert asmc.matrix in bound
            for mod in bound:
                monkeypatch.setattr(mod, name, counting)
        return calls

    @pytest.mark.parametrize("seed", range(2))
    def test_sampled_tables_at_order_500(self, seed, calls):
        rng = random.Random(seed)
        t = random_valid_table(rng, rng.randint(490, 510))
        signs = Counter()

        def built(value) -> AsmMatrix:
            a = value.matrix if isinstance(value, NeutralPair) else value
            assert calls == {} and unread(a)
            a.rows
            assert calls == {"_rows": 1}
            a.rows
            assert calls == {"_rows": 1}
            calls.clear()
            return a

        pair = pair_from_table(t)
        assert pair.charge
        built(pair)
        m = built(restore(pair))
        mirror = built(reflect(restore(pair)))
        for a in (m, mirror):
            signs[sign_class(a)] += 1
            dense = AsmMatrix(a.rows)
            image = neutralize(dense)
            built(image)
            built(restore(NeutralPair(AsmMatrix(image.matrix.rows), image.charge)))
            built(swap_charges(dense))
        assert signs == {SignClass.POSITIVE: 1, SignClass.NEGATIVE: 1}

    def test_readers_write_no_rows_at_order_500(self, calls):
        """``classical_params``, ``inversions``, ``minus_count``,
        ``perm_one_line`` and ``perm_table`` read an unread built matrix
        on its sparse view."""
        rng = random.Random(4)
        m = restore(pair_from_table(random_valid_table(rng, 500)))
        p = perm_matrix(rng.sample(range(1, 501), 500))
        mirror = reflect(m)
        calls.clear()
        for a in (m, mirror, p):
            params = classical_params(a)
            assert (minus_count(a), inversions(a)) == (params.s, params.i)
        assert perm_table(p)[-1] == classical_params(p).r
        assert perm_one_line(p) and minus_count(m) == 1
        with pytest.raises(BadArgument, match="s=1$"):
            perm_one_line(m)
        assert calls == {} and unread(m) and unread(mirror) and unread(p)

    def test_permutation_words_at_order_500(self, calls):
        """A permutation built by ``perm_matrix`` gives its one-line word
        back without writing its rows, so recharging a discharge and
        tabulating a permutation write none."""
        rng = random.Random(3)
        m = restore(pair_from_table(random_valid_table(rng, 500)))
        while sign_class(m) is SignClass.NEGATIVE:
            m = restore(pair_from_table(random_valid_table(rng, 500)))
        calls.clear()
        t = discharge(m)
        back = recharge(t)
        word = perm_one_line(t.perm)
        table = perm_table(perm_matrix(word))
        assert calls == {} and unread(t.perm) and unread(back)
        assert t.perm == dense_perm_matrix(word) and back == m
        assert table == dense_table(dense_perm_matrix(word))


class TestNoPathsWritten:
    """At n=500 the readers of a configuration built from a table read the
    table: they write no paths (``paths._paths`` calls), and the readers
    of its paths write them once."""

    @pytest.fixture
    def writes(self, monkeypatch):
        calls = Counter()
        real = asmc.paths._paths

        def counting(t):
            calls["_paths"] += 1
            return real(t)

        monkeypatch.setattr(asmc.paths, "_paths", counting)
        return calls

    @pytest.mark.parametrize("seed", range(2))
    def test_sampled_tables_at_order_500(self, seed, writes):
        rng = random.Random(seed)
        t = random_valid_table(rng, rng.randint(490, 510))
        cfg = config_from_table(t)
        assert config_params(cfg) == table_params(t)
        assert table_from_config(cfg) == t
        assert pair_from_config(cfg) == pair_from_table(t)
        dual = dual_config(cfg)
        assert table_from_config(dual) == dual_table(t) and config_params(dual_config(dual)) == table_params(t)
        assert writes == {} and unread(cfg) and unread(dual)
        twin = dense_config(t)
        for read in (render_ascii, MixedConfiguration.to_json, lambda c: twin == c):
            c = config_from_table(t)
            assert read(c)
            assert writes == {"_paths": 1} and not unread(c)
            read(c)
            assert writes == {"_paths": 1}
            writes.clear()
