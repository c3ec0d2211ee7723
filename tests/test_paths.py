"""Mixed path configurations: encoding, validation, duality, rendering."""

import hashlib
import random
from collections import Counter
from itertools import chain, permutations, product

import pytest

import asmc.paths

from asmc import (
    GenInvTable,
    InvalidTable,
    MalformedConfiguration,
    MixedConfiguration,
    MixedPath,
    NeutralPair,
    NotOneNStep,
    charges,
    classical_params,
    config_from_json,
    config_from_pair,
    config_from_table,
    config_params,
    dual_config,
    dual_table,
    gen_table,
    neutralize,
    pair_from_config,
    pair_from_table,
    perm_table,
    perm_matrix,
    reflect,
    table_params,
    render_ascii,
    render_svg,
    table_from_config,
    table_valid,
    validate_config,
)
from asmc.verify import _iter_valid_tables, run_property
from conftest import (
    TABLE12,
    dense_config,
    junction_dual,
    one_minus,
    pixel_svg,
    random_valid_table,
    strings_params,
    strings_table,
)

DIAMOND_TABLE = GenInvTable(k=3, a=(0, 0, 1), b=0, beta=0)

# golden snapshot of the diamond configuration, fixed at first implementation
DIAMOND_ASCII = "o-o=o\n /|\no o\n\no\n"

# renders of the worked example (TABLE12) and of its dual, pinned byte for
# byte before MixedPath.vertices stopped building its tuple by resizing
WORKED_ASCII = (
    'o-o-o-o-o-o-o=o=o=o=o=o\n'
    '\n'
    'o-o-o-o-o-o-o=o=o=o=o\n'
    '\n'
    'o-o-o-o . . o=o=o=o\n'
    '      |    /\n'
    'o=o=o=o-o-o-o-o=o\n'
    '\n'
    'o-o-o-o-o-o=o=o\n'
    '\n'
    'o-o=o=o=o=o=o\n'
    '\n'
    'o=o=o=o=o=o\n'
    '\n'
    'o=o=o=o=o\n'
    '\n'
    'o-o-o=o\n'
    '\n'
    'o-o-o\n'
    '\n'
    'o=o\n'
    '\n'
    'o\n'
)
WORKED_DUAL_ASCII = (
    'o-o-o-o-o-o=o=o=o=o=o=o\n'
    '\n'
    'o-o-o-o-o=o=o=o=o=o=o\n'
    '\n'
    'o-o-o-o-o-o-o=o=o=o\n'
    '     /      |\n'
    'o-o=o . . . o-o-o\n'
    '\n'
    'o-o-o=o=o=o=o=o\n'
    '\n'
    'o-o-o-o-o-o=o\n'
    '\n'
    'o-o-o-o-o-o\n'
    '\n'
    'o-o-o-o-o\n'
    '\n'
    'o-o=o=o\n'
    '\n'
    'o=o=o\n'
    '\n'
    'o-o\n'
    '\n'
    'o\n'
)
WORKED_SVG_SHA256 = "34a1ef8f83977a34c61c0c455c31ce7b36581f8094688f4461ca628d5d13aeb0"
WORKED_DUAL_SVG_SHA256 = "87fb012251492fd8b64fb1208db4180cbcdc47fc1a6600f5962a493c5f4c334e"


class TestEncoding:
    def test_diamond_paths(self, diamond):
        cfg = config_from_pair(NeutralPair(diamond, 0))
        assert [p.steps for p in cfg.paths] == ["", "NF", "ES"]
        assert cfg.paths[0].start == (0, 1) and cfg.paths[0].end == (0, 1)
        assert cfg.paths[1].vertices() == ((0, 2), (1, 3), (2, 3))
        assert cfg.paths[2].vertices() == ((0, 3), (1, 3), (1, 2))

    def test_worked_example_paths(self, pair12):
        cfg = config_from_pair(pair12)
        assert cfg.paths[8].steps == "FFFFFNFFF"  # five, rise, three
        assert cfg.paths[9].steps == "EEESEEEEF"
        for i, p in enumerate(cfg.paths, start=1):
            if i not in (9, 10):
                a = TABLE12.a[i - 1]
                assert p.steps == "E" * a + "F" * (i - 1 - a)

    def test_exactly_one_rise_and_fall_in_consecutive_paths(self):
        for m in one_minus(4):
            cfg = config_from_pair(neutralize(m))
            assert cfg.step_count("N") == 1 and cfg.step_count("S") == 1
            k = next(i for i, p in enumerate(cfg.paths, start=1) if "S" in p.steps)
            assert "N" in cfg.paths[k - 2].steps

    def test_endpoint_law(self):
        for m in one_minus(5):
            pair = neutralize(m)
            t = gen_table(pair)
            cfg = config_from_pair(pair)
            for i, p in enumerate(cfg.paths, start=1):
                if i == t.k - 1:
                    assert p.end == (t.k - 1, t.k)
                elif i == t.k:
                    assert p.end == (t.k - 2, t.k - 1)
                else:
                    assert p.end == (i - 1, i)


class TestDecoding:
    def test_diamond_roundtrip(self, diamond):
        pair = NeutralPair(diamond, 0)
        assert pair_from_config(config_from_pair(pair)) == pair

    def test_roundtrip_exhaustive(self):
        for n in (3, 4, 5):
            for m in one_minus(n):
                pair = neutralize(m)
                assert pair_from_config(config_from_pair(pair)) == pair

    def test_two_rises_rejected(self):
        # a well-formed configuration with two N-steps: the data model
        # supports it, but decoding is defined for exactly one
        cfg = MixedConfiguration(
            (
                MixedPath((0, 1), ""),
                MixedPath((0, 2), "NF"),
                MixedPath((0, 3), "NFF"),
                MixedPath((0, 4), "ESS"),
            )
        )
        assert validate_config(cfg) is cfg
        with pytest.raises(NotOneNStep) as info:
            pair_from_config(cfg)
        assert info.value.count == 2

    def test_horizontal_configuration_rejected(self):
        cfg = config_from_table(DIAMOND_TABLE)
        flat = MixedConfiguration(
            tuple(MixedPath((0, i), "F" * (i - 1)) for i in range(1, 4))
        )
        with pytest.raises(NotOneNStep):
            pair_from_config(flat)
        assert validate_config(flat) is flat  # still a valid zero-rise configuration
        assert validate_config(cfg) is cfg


class TestValidation:
    def test_encoded_configurations_are_valid(self):
        for m in one_minus(4):
            t = gen_table(neutralize(m))
            cfg = config_from_pair(neutralize(m))
            assert vars(cfg) == {"_table": t} and validate_config(cfg) is cfg
            fresh = MixedConfiguration(cfg.paths)
            assert validate_config(fresh) is fresh
            assert asmc.paths._check_paths(cfg) is cfg

    def test_horizontal_identity_configuration(self):
        cfg = MixedConfiguration(
            tuple(MixedPath((0, i), "E" * (i - 1)) for i in range(1, 5))
        )
        assert validate_config(cfg) is cfg

    def test_left_collision_reported(self):
        # equal junction abscissas in the two special paths
        bad = config_from_table(GenInvTable(k=3, a=(0, 1, 1), b=0, beta=0))
        problems = problems_of(bad)
        assert any("Left parts" in p for p in problems)

    def test_right_collision_reported(self):
        bad = config_from_table(GenInvTable(k=3, a=(0, 0, 1), b=0, beta=1))
        problems = problems_of(bad)
        assert any("Right parts" in p for p in problems)

    def test_wrong_start_reported(self):
        cfg = MixedConfiguration((MixedPath((0, 2), ""), MixedPath((0, 2), "F")))
        assert any("starts at" in p for p in problems_of(cfg))

    def test_out_of_grid_reported(self):
        cfg = MixedConfiguration((MixedPath((0, 1), "E"), MixedPath((0, 2), "F")))
        assert any("leaves the grid" in p for p in problems_of(cfg))

    def test_left_after_right_reported(self):
        cfg = MixedConfiguration((MixedPath((0, 1), ""), MixedPath((0, 2), "FS")))
        assert any("after a Right step" in p for p in problems_of(cfg))


class TestDuality:
    def test_matches_the_table_dual(self, pair12):
        cfg = config_from_pair(pair12)
        assert table_from_config(dual_config(cfg)) == dual_table(TABLE12)

    def test_matches_matrix_reflection(self):
        for m in one_minus(4):
            cfg = config_from_pair(neutralize(m))
            assert dual_config(cfg) == config_from_pair(neutralize(reflect(m)))

    def test_involution(self):
        for m in one_minus(4):
            cfg = config_from_pair(neutralize(m))
            assert dual_config(dual_config(cfg)) == cfg

    def test_junctions_map_by_level_mirror(self, pair12):
        cfg = config_from_pair(pair12)
        dual = dual_config(cfg)
        mapped = sorted((l - 1 - x, l) for x, l in (p.junction for p in cfg.paths))
        assert mapped == sorted(p.junction for p in dual.paths)

    def test_horizontal_dual_is_the_complement(self):
        p = perm_matrix((2, 4, 1, 3))
        t = perm_table(p)
        cfg = MixedConfiguration(
            tuple(
                MixedPath((0, i), "E" * a + "F" * (i - 1 - a))
                for i, a in enumerate(t, start=1)
            )
        )
        dual = dual_config(cfg)
        expected = tuple(i - 1 - a for i, a in enumerate(t, start=1))
        assert tuple(p2.steps.count("E") for p2 in dual.paths) == expected
        assert expected == perm_table(reflect(p))

    def test_two_rises_rejected(self):
        cfg = MixedConfiguration(
            (
                MixedPath((0, 1), ""),
                MixedPath((0, 2), "N"),
                MixedPath((0, 3), "EN"),
            )
        )
        with pytest.raises(MalformedConfiguration):
            dual_config(cfg)


class TestConfigParams:
    def test_worked_example(self, pair12):
        cfg = config_from_pair(pair12)
        assert tuple(config_params(cfg)) == (6, 30, 3, -1, 7)

    def test_diamond(self):
        cfg = config_from_table(DIAMOND_TABLE)
        assert tuple(config_params(cfg)) == (1, 2, 0, 0, 1)

    def test_agreement_with_matrix_statistics(self):
        for m in one_minus(4):
            cfg = config_from_pair(neutralize(m))
            p, ch = classical_params(m), charges(m)
            assert tuple(config_params(cfg)) == (p.r, p.i, ch.e, ch.b, ch.j)

    def test_zero_rise_rejected(self):
        flat = MixedConfiguration((MixedPath((0, 1), ""), MixedPath((0, 2), "F")))
        with pytest.raises(NotOneNStep):
            config_params(flat)


class TestRender:
    def test_diamond_golden_block(self):
        cfg = config_from_table(DIAMOND_TABLE)
        assert render_ascii(cfg) == DIAMOND_ASCII

    def test_render_is_pure(self, pair12):
        cfg = config_from_pair(pair12)
        assert render_ascii(cfg) == render_ascii(cfg)
        assert render_svg(cfg) == render_svg(cfg)

    def test_empty_path_renders_as_lone_vertex(self):
        cfg = MixedConfiguration((MixedPath((0, 1), ""),))
        assert render_ascii(cfg) == "o\n"

    def test_svg_structure(self, pair12):
        cfg = config_from_pair(pair12)
        svg = render_svg(cfg)
        assert svg.startswith("<svg ")
        for cls in ("step-E", "step-S", "step-F", "step-N"):
            assert cls in svg
        assert ">1<" in svg and ">12'<" in svg  # labeled start and end vertices

    def test_ascii_uses_distinct_step_marks(self, pair12):
        art = render_ascii(config_from_pair(pair12))
        for mark in "-=|/":
            assert mark in art

    @pytest.mark.parametrize(
        "table, ascii_art, svg_sha256",
        [
            (TABLE12, WORKED_ASCII, WORKED_SVG_SHA256),
            (dual_table(TABLE12), WORKED_DUAL_ASCII, WORKED_DUAL_SVG_SHA256),
        ],
        ids=["worked", "worked-dual"],
    )
    def test_worked_example_bytes_pinned(self, table, ascii_art, svg_sha256):
        cfg = config_from_table(table)
        assert render_ascii(cfg) == ascii_art
        assert hashlib.sha256(render_svg(cfg).encode()).hexdigest() == svg_sha256

    def test_svg_is_the_pixel_oracle_byte_for_byte(self):
        """``render_svg``, which formats each coordinate once per order, writes
        the bytes of the oracle that formats every coordinate where it is
        drawn: every one-minus configuration up to order 6 and its dual,
        every zero-N (permutation) configuration up to order 6, and sampled
        tables at orders 25 to 60."""
        cfgs = []
        for n in range(1, 7):
            for m in one_minus(n):
                cfg = config_from_pair(neutralize(m))
                cfgs += cfg, dual_config(cfg)
            cfgs += (MixedConfiguration(tuple(MixedPath((0, i), "E" * x + "F" * (i - 1 - x))
                                              for i, x in enumerate(a, start=1)))
                     for a in product(*(range(i) for i in range(1, n + 1))))
        rng = random.Random(25)
        cfgs += (config_from_table(random_valid_table(rng, n)) for n in range(25, 61))
        for cfg in cfgs:
            assert render_svg(cfg) == pixel_svg(cfg)
        assert len(cfgs) == 2 * 2617 + 873 + 36


class TestJson:
    def test_roundtrip(self, pair12):
        cfg = config_from_pair(pair12)
        assert config_from_json(cfg.to_json()) == cfg

    def test_malformed_rejected(self):
        from asmc import ParseError

        with pytest.raises(ParseError):
            config_from_json({"paths": [{"start": [0, 1], "steps": "Q"}]})
        with pytest.raises(ParseError):
            config_from_json({"paths": "nope"})

    def test_first_unknown_step_is_named(self):
        from asmc import ParseError

        paths = [{"start": [0, 1], "steps": ""}, {"start": [0, 2], "steps": "FQX"},
                 {"start": [0, 3], "steps": "Z"}]
        with pytest.raises(ParseError, match=r"^unknown step 'Q'$"):
            config_from_json({"paths": paths})

    @pytest.mark.parametrize("steps", [None, 5, ["E"], {"E": 1}], ids=["none", "int", "list", "dict"])
    def test_steps_that_are_not_a_string_rejected(self, steps):
        """Steps are not coerced with ``str``: ``None`` is not the string
        ``"None"``, nor ``["E"]`` the step E."""
        from asmc import ParseError

        with pytest.raises(ParseError, match="steps must be a string"):
            config_from_json({"paths": [{"start": [0, 1], "steps": steps}]})

    @pytest.mark.parametrize("start", [[0, True], [0.0, 1], [0, 1.5], ["0", 1], [0, 1, 2], [0]])
    def test_non_int_or_malformed_start_rejected(self, start):
        from asmc import ParseError

        with pytest.raises(ParseError):
            config_from_json({"paths": [{"start": start, "steps": ""}]})


def problems_of(cfg):
    """The problems :func:`validate_config` raises on an unmarked copy of
    ``cfg``, or [] when it returns the copy: a configuration built from a
    valid table is marked valid and would pass unchecked."""
    fresh = MixedConfiguration(cfg.paths)
    try:
        assert validate_config(fresh) is fresh
    except MalformedConfiguration as exc:
        assert str(exc) == "; ".join(exc.problems)
        return exc.problems
    return []


def validate_config_by_vertices(cfg):
    """Reference oracle: every vertex of every path as a tuple, the bounds
    checked vertex by vertex and disjointness by a set of the vertices of
    each part."""
    problems = []
    n = cfg.n
    walks = []
    for i, p in enumerate(cfg.paths, start=1):
        if not set(p.steps) <= set("ESFN"):
            s = next(s for s in p.steps if s not in "ESFN")
            problems.append(f"path {i}: unknown step {s!r}")
            return problems
        if p.start != (0, i):
            problems.append(f"path {i} starts at {p.start}, expected (0, {i})")
        left = p.left_len
        late = p.steps[left:].lstrip("FN")
        if late:
            problems.append(f"path {i}: Left step {late[0]!r} after a Right step")
        verts = p.vertices()
        bad = [v for v in verts if not 0 <= v[0] < v[1] <= n]
        if bad:
            problems.append(f"path {i} leaves the grid at ({bad[0][0]},{bad[0][1]})")
        walks.append((verts, left))
    if problems:
        return problems
    ends = [verts[-1] for verts, _ in walks]
    sigma = [level for _, level in ends]
    if sorted(sigma) != list(range(1, n + 1)):
        problems.append(f"end levels {sigma} are not a permutation of 1..{n}")
    for i, (x, level) in enumerate(ends, start=1):
        if x != level - 1:
            problems.append(f"path {i} ends at {(x, level)}, not on the diagonal")
    for label, vertex_sets in (
        ("Left", [verts[: left + 1] for verts, left in walks]),
        ("Right", [verts[left:] for verts, left in walks]),
    ):
        seen = {}
        for i, vs in enumerate(vertex_sets, start=1):
            for v in vs:
                if v in seen:
                    problems.append(f"{label} parts of paths {seen[v]} and {i} meet at {v}")
                else:
                    seen[v] = i
    return problems


def mutate(cfg, rng):
    """One seeded edit of a configuration: E<->F, S->E, N->F, a step
    inserted or deleted, two step strings swapped, or a start moved."""
    paths = list(cfg.paths)
    special = [i for i, p in enumerate(paths) if "S" in p.steps or "N" in p.steps]
    # mostly a path with the S- or the N-step, where parts can be made to meet
    i = rng.choice(special) if special and rng.random() < 0.7 else rng.randrange(len(paths))
    start, steps = paths[i].start, paths[i].steps
    kind = rng.choice((0, 1, 1, 1, 2, 3, 3, 3, 4, 4, 5, 6))
    if kind == 0 and steps:
        # mostly next to the junction, where a flip keeps the step order
        left = paths[i].left_len
        near = [pos for pos in (left - 1, left) if 0 <= pos < len(steps)]
        pos = rng.choice(near) if near and rng.random() < 0.8 else rng.randrange(len(steps))
        swap = {"E": "F", "F": "E"}.get(steps[pos], steps[pos])
        steps = steps[:pos] + swap + steps[pos + 1 :]
    elif kind == 1:
        steps = steps.replace("S", "E")
    elif kind == 2:
        steps = steps.replace("N", "F")
    elif kind == 3:  # mostly where it keeps Left steps before Right ones
        step, left = rng.choice("ESFN"), paths[i].left_len
        pos = rng.randint(*((0, left) if step in "ES" else (left, len(steps))))
        pos = pos if rng.random() < 0.8 else rng.randint(0, len(steps))
        steps = steps[:pos] + step + steps[pos:]
    elif kind == 4 and steps:
        pos = rng.randrange(len(steps))
        steps = steps[:pos] + steps[pos + 1 :]
    elif kind == 5:
        j = rng.randrange(len(paths))
        paths[j] = MixedPath(paths[j].start, steps)
        steps = cfg.paths[j].steps
    else:
        start = (start[0] + rng.choice((-1, 0, 1)), start[1] + rng.choice((-1, 1)))
    paths[i] = MixedPath(start, steps)
    return MixedConfiguration(tuple(paths))


class TestValidationByRuns:
    """The run-based validation names the same problems, in the same order,
    as the vertex-by-vertex oracle."""

    def test_every_configuration_from_valid_tables_up_to_order_5(self):
        count = 0
        for n in (3, 4, 5):
            for t in _iter_valid_tables(n):
                cfg = config_from_table(t)
                assert problems_of(cfg) == validate_config_by_vertices(cfg) == []
                count += 1
        assert count == 1 + 16 + 200

    def test_seeded_mutations(self):
        rng = random.Random(7)
        meets = problems = 0
        for _ in range(6000):
            cfg = config_from_table(random_valid_table(rng, rng.randint(3, 40)))
            for _ in range(rng.randint(1, 2)):
                cfg = mutate(cfg, rng)
            found = problems_of(cfg)
            assert found == validate_config_by_vertices(cfg), cfg
            problems += bool(found)
            meets += any("meet" in p for p in found)
        assert meets >= 1000 and problems >= 4000

    @pytest.mark.parametrize("seed", range(3))
    def test_large_orders(self, seed):
        rng = random.Random(seed)
        for n in (60, rng.randint(61, 199), 200):
            t = random_valid_table(rng, n)
            cfg = config_from_table(t)
            dual = dual_config(cfg)
            assert problems_of(cfg) == validate_config_by_vertices(cfg) == []
            assert validate_config_by_vertices(dual) == []
            assert config_params(cfg) == table_params(t)
            assert dual == config_from_table(dual_table(t))
            for p in chain(cfg.paths, dual.paths):
                verts = p.vertices()
                assert [p.vertex_at(pos) for pos in range(len(verts))] == list(verts)
                assert p.end == verts[-1] and p.junction == verts[p.left_len]


class TestNoVertexWalks:
    """Validation, parameters and duality read valid configurations by
    runs and step counts, without building their vertices; each call
    takes an unmarked copy, so that validation runs."""

    def test_no_vertices_call_on_valid_configurations(self, monkeypatch):
        calls = 0
        real = MixedPath.vertices

        def counting(self):
            nonlocal calls
            calls += 1
            return real(self)

        monkeypatch.setattr(MixedPath, "vertices", counting)
        rng = random.Random(60)
        for _ in range(5):
            paths = config_from_table(random_valid_table(rng, 60)).paths
            cfg = MixedConfiguration(paths)
            assert validate_config(cfg) is cfg
            config_params(MixedConfiguration(paths))
            dual_config(MixedConfiguration(paths))
        assert calls == 0
        cfg.paths[-1].vertices()  # the counter sees a call
        assert calls == 1

    def test_off_grid_path_named_without_building_its_vertices(self, monkeypatch):
        def refuse(self):
            raise AssertionError("vertices built")

        monkeypatch.setattr(MixedPath, "vertices", refuse)
        # a_1 = 10**6 draws path 1 a million E-steps long; its first step
        # leaves the grid
        cfg = config_from_table(GenInvTable(3, (10**6, 0, 1), 0, 0))
        with pytest.raises(MalformedConfiguration) as exc:
            validate_config(cfg)
        assert "path 1 leaves the grid at (1,1)" in exc.value.problems


def table_outcome(t):
    """The condition ``t`` fails, or None when :func:`table_valid` passes."""
    try:
        table_valid(t)
    except InvalidTable as exc:
        return exc.condition
    return None


def table_agrees_with_paths(t) -> bool:
    """Whether ``config_from_table(t)`` keeps its table, and a copy of it
    on its paths passes the path walk and has the one-N shape, exactly
    when ``t`` passes :func:`table_valid`; returns whether it does."""
    built = config_from_table(t)
    ok = table_outcome(t) is None
    assert vars(built).get("_table") is (t if ok else None), t
    assert ok == paths_pass(MixedConfiguration(built.paths)), t
    return ok


def paths_pass(cfg) -> bool:
    """Whether ``cfg`` passes the path walk and has the one-N shape."""
    try:
        asmc.paths._check_paths(cfg)
        asmc.paths._special_k(cfg)
    except (MalformedConfiguration, NotOneNStep):
        return False
    return True


def in_range_tables(n):
    """Every table with 2 <= k <= n, 0 <= a_i < i and 0 <= b, beta < n."""
    for a in product(*(range(i) for i in range(1, n + 1))):
        for k, b, beta in product(range(2, n + 1), range(n), range(n)):
            yield GenInvTable(k=k, a=a, b=b, beta=beta)


def corrupt(t, rng):
    """One seeded edit of a table keeping its entries non-negative ints:
    k, one entry of a (mostly a_{k-1} or a_k), b or beta moved by a step
    or onto the bound of its condition."""
    n, k, a, b, beta = t.n, t.k, list(t.a), t.b, t.beta
    kind = rng.randrange(4)
    if kind == 0:
        k = rng.choice((k - 1, k + 1, 2, n, n + 1, n + 2))
    elif kind == 1:
        i = rng.choice((k - 1, k, k, rng.randint(1, n)))
        a[i - 1] = max(0, rng.choice((a[i - 1] - 1, a[i - 1] + 1, i - 1, i, i + 1, 0, a[k - 2])))
    elif kind == 2:
        b = max(0, rng.choice((b - 1, b + 1, k - 1 - a[k - 1])))
    else:
        beta = max(0, rng.choice((beta - 1, beta + 1, a[k - 1] + b - a[k - 2])))
    return GenInvTable(k=k, a=tuple(a), b=b, beta=beta)


class TestTableCheck:
    """A configuration built from a table is valid exactly when the table
    is, so the table check may stand in for the walk of its paths, and
    the configuration of a valid table alone keeps it."""

    def test_every_in_range_table_up_to_order_5(self):
        valid, seen = Counter(), 0
        for n in (3, 4, 5):
            for t in in_range_tables(n):
                valid[n] += table_agrees_with_paths(t)
                seen += 1
        assert seen == 13260
        assert valid == {3: 1, 4: 16, 5: 200}

    @pytest.mark.parametrize("seed", range(3))
    def test_corrupted_tables_at_large_n(self, seed):
        rng = random.Random(seed)
        outcomes = Counter()
        for n in (25, rng.randint(26, 199), 200):
            for _ in range(30):
                t = corrupt(random_valid_table(rng, n), rng)
                table_agrees_with_paths(t)
                outcomes[table_outcome(t)] += 1
        assert outcomes.keys() == {None, 1, 2, 3, 4}


class TestKeptTable:
    """A configuration built from a valid table keeps it, and its readers
    read the table in O(n); on the twin built on its paths they read the
    step strings.  Both must give what the string readers of ``conftest``
    give on the twin, and the dual what the junction mirror gives."""

    @staticmethod
    def check(t):
        cfg = config_from_table(t)
        twin = dense_config(t)
        expected = strings_table(twin), strings_params(twin), junction_dual(twin)
        assert expected[0] == t
        for value in (cfg, twin):
            got = table_from_config(value), config_params(value), dual_config(value)
            assert got == expected, t
            assert pair_from_config(value) == pair_from_table(t)
        dual = dual_config(cfg)
        assert vars(cfg) == {"_table": t} and vars(dual) == {"_table": dual_table(t)}
        assert cfg == twin and dual_config(dual) == cfg

    def test_every_valid_table_up_to_order_6(self):
        count = 0
        for n in range(3, 7):
            for t in _iter_valid_tables(n):
                self.check(t)
                count += 1
        assert count == 2617

    @pytest.mark.parametrize("seed", range(2))
    def test_sampled_tables_at_large_n(self, seed):
        rng = random.Random(seed)
        for n in (25, rng.randint(26, 199), 200):
            for _ in range(5):
                self.check(random_valid_table(rng, n))

    def test_every_configuration_with_no_n_step_up_to_order_5(self):
        """With no N-step a configuration is the inversion table of a
        permutation, and its dual the complement: the junction mirror."""
        count = 0
        for n in range(1, 6):
            for word in permutations(range(1, n + 1)):
                cfg = MixedConfiguration(tuple(
                    MixedPath((0, i), "E" * a + "F" * (i - 1 - a))
                    for i, a in enumerate(perm_table(perm_matrix(word)), start=1)
                ))
                dual = dual_config(cfg)
                assert dual == junction_dual(cfg) and dual_config(dual) == cfg
                count += 1
        assert count == 1 + 2 + 6 + 24 + 120


class TestPathWalks:
    """The library walks no path of what it builds: ``config_from_pair``,
    ``config_params``, ``dual_config`` and ``table_from_config`` run no
    ``_check_paths`` on built configurations, and the paths-roundtrip
    sweep runs one per matrix."""

    @pytest.fixture
    def walks(self, monkeypatch):
        count = Counter()
        real = asmc.paths._check_paths

        def counting(cfg):
            count["walks"] += 1
            return real(cfg)

        monkeypatch.setattr(asmc.paths, "_check_paths", counting)
        return count

    @staticmethod
    def encode(pair):
        cfg = config_from_pair(pair)
        dual = dual_config(cfg)
        return config_params(cfg), table_from_config(cfg), table_from_config(dual)

    def test_none_on_every_matrix_up_to_order_6(self, walks):
        matrices = 0
        for n in range(3, 7):
            for m in one_minus(n):
                self.encode(neutralize(m))
                matrices += 1
        assert matrices == 2617
        assert walks["walks"] == 0

    @pytest.mark.parametrize("seed", range(2))
    def test_none_on_sampled_matrices_at_large_n(self, seed, walks):
        rng = random.Random(seed)
        for n in (25, rng.randint(26, 199), 200):
            t = random_valid_table(rng, n)
            params, table, dual = self.encode(pair_from_table(t))
            assert (params, table, dual) == (table_params(t), t, dual_table(t))
        assert walks["walks"] == 0

    def test_one_per_record_in_the_roundtrip_sweep(self, walks):
        result = run_property("paths-roundtrip", range(3, 6))
        assert result.ok and result.checked == 217
        assert walks["walks"] == 217
        # the caller's own check still walks a marked configuration
        cfg = config_from_table(TABLE12)
        assert asmc.paths._check_paths(cfg) is cfg and validate_config(cfg) is cfg
        assert walks["walks"] == 218
