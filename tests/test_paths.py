"""Mixed path configurations: encoding, validation, duality, rendering."""

import pytest

from asmc import (
    GenInvTable,
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
    perm_table,
    perm_matrix,
    reflect,
    render_ascii,
    render_svg,
    table_from_config,
    validate_config,
)
from conftest import TABLE12, one_minus

DIAMOND_TABLE = GenInvTable(k=3, a=(0, 0, 1), b=0, beta=0)

# golden snapshot of the diamond configuration, fixed at first implementation
DIAMOND_ASCII = "o-o=o\n /|\no o\n\no\n"


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
        assert validate_config(cfg) == []
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
        assert validate_config(flat) == []  # still a valid zero-rise configuration
        assert validate_config(cfg) == []


class TestValidation:
    def test_encoded_configurations_are_valid(self):
        for m in one_minus(4):
            assert validate_config(config_from_pair(neutralize(m))) == []

    def test_horizontal_identity_configuration(self):
        cfg = MixedConfiguration(
            tuple(MixedPath((0, i), "E" * (i - 1)) for i in range(1, 5))
        )
        assert validate_config(cfg) == []

    def test_left_collision_reported(self):
        # equal junction abscissas in the two special paths
        bad = config_from_table(GenInvTable(k=3, a=(0, 1, 1), b=0, beta=0))
        problems = validate_config(bad)
        assert any("Left parts" in p for p in problems)

    def test_right_collision_reported(self):
        bad = config_from_table(GenInvTable(k=3, a=(0, 0, 1), b=0, beta=1))
        problems = validate_config(bad)
        assert any("Right parts" in p for p in problems)

    def test_wrong_start_reported(self):
        cfg = MixedConfiguration((MixedPath((0, 2), ""), MixedPath((0, 2), "F")))
        assert any("starts at" in p for p in validate_config(cfg))

    def test_out_of_grid_reported(self):
        cfg = MixedConfiguration((MixedPath((0, 1), "E"), MixedPath((0, 2), "F")))
        assert any("leaves the grid" in p for p in validate_config(cfg))

    def test_left_after_right_reported(self):
        cfg = MixedConfiguration((MixedPath((0, 1), ""), MixedPath((0, 2), "FS")))
        assert any("after a Right step" in p for p in validate_config(cfg))


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
        assert render_svg(cfg, shifted=True) != svg

    def test_ascii_uses_distinct_step_marks(self, pair12):
        art = render_ascii(config_from_pair(pair12))
        for mark in "-=|/":
            assert mark in art


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

    @pytest.mark.parametrize("start", [[0, True], [0.0, 1], [0, 1.5], ["0", 1], [0, 1, 2], [0]])
    def test_non_int_or_malformed_start_rejected(self, start):
        from asmc import ParseError

        with pytest.raises(ParseError):
            config_from_json({"paths": [{"start": start, "steps": ""}]})
