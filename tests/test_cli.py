"""Command-line behavior: formats, pipes, exit codes."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asmc
from asmc.cli import build_parser, main

DIAMOND_TEXT = "0 1 0\n1 -1 1\n0 1 0\n"
TABLE12_TEXT = "10; 0 0 2 2 0 0 1 5 0 3 6 6; 4 5"


def run_cli(args, stdin="", monkeypatch=None, capsys=None):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


class TestBasics:
    def test_validate(self, monkeypatch, capsys):
        code, out, _ = run_cli(["validate"], DIAMOND_TEXT, monkeypatch, capsys)
        assert code == 0
        assert out == "ok: n=3 s=1\n"

    def test_validate_json(self, monkeypatch, capsys):
        code, out, _ = run_cli(["validate", "--format", "json"], DIAMOND_TEXT, monkeypatch, capsys)
        assert code == 0
        assert json.loads(out) == {"n": 3, "s": 1}

    def test_params_text_block(self, monkeypatch, capsys):
        code, out, _ = run_cli(["params"], DIAMOND_TEXT, monkeypatch, capsys)
        assert code == 0
        assert out == "r=1\ns=1\ni=2\nE=0\nB=0\nJ=1\n"

    def test_params_without_charges_for_permutations(self, monkeypatch, capsys):
        code, out, _ = run_cli(["params"], "1 0\n0 1\n", monkeypatch, capsys)
        assert code == 0
        assert out == "r=0\ns=0\ni=0\n"

    def test_params_json(self, monkeypatch, capsys):
        code, out, _ = run_cli(
            ["params", "--format", "json"], DIAMOND_TEXT, monkeypatch, capsys
        )
        assert json.loads(out) == {"r": 1, "s": 1, "i": 2, "E": 0, "B": 0, "J": 1}

    def test_reflect_twice_is_identity(self, monkeypatch, capsys):
        _, once, _ = run_cli(["reflect"], DIAMOND_TEXT, monkeypatch, capsys)
        _, twice, _ = run_cli(["reflect"], once, monkeypatch, capsys)
        assert twice == DIAMOND_TEXT

    @pytest.mark.parametrize(
        "argv, written",
        [(["validate", "-o=--"], "ok: n=3 s=1\n"), (["enumerate", "-n=3", "-s=1", "--output=--"], DIAMOND_TEXT)],
    )
    def test_output_file_named_dashes(self, tmp_path, monkeypatch, capsys, argv, written):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(argv, DIAMOND_TEXT, monkeypatch, capsys)
        assert (code, out) == (0, "")
        assert (tmp_path / "--").read_text() == written

    def test_file_input_and_output(self, tmp_path, monkeypatch, capsys):
        src = tmp_path / "m.txt"
        dst = tmp_path / "out.txt"
        src.write_text(DIAMOND_TEXT)
        code = main(["reflect", str(src), "-o", str(dst)])
        assert code == 0
        assert dst.read_text() == DIAMOND_TEXT  # symmetric matrix


class TestPipelines:
    def test_neutralize_restore_roundtrip_bytes(self, monkeypatch, capsys):
        _, pair_json, _ = run_cli(["neutralize"], DIAMOND_TEXT, monkeypatch, capsys)
        _, back, _ = run_cli(["restore"], pair_json, monkeypatch, capsys)
        assert back == DIAMOND_TEXT

    def test_discharge_recharge_roundtrip_bytes(self, monkeypatch, capsys):
        _, tup, _ = run_cli(["discharge"], DIAMOND_TEXT, monkeypatch, capsys)
        assert json.loads(tup)["k"] == 1
        _, back, _ = run_cli(["recharge"], tup, monkeypatch, capsys)
        assert back == DIAMOND_TEXT

    def test_from_table_then_params(self, monkeypatch, capsys):
        _, matrix_text, _ = run_cli(["from-table"], TABLE12_TEXT, monkeypatch, capsys)
        code, out, _ = run_cli(["params"], matrix_text, monkeypatch, capsys)
        assert code == 0
        assert out == "r=6\ns=1\ni=30\nE=3\nB=-1\nJ=7\n"

    def test_table_inverts_from_table(self, monkeypatch, capsys):
        _, matrix_text, _ = run_cli(["from-table"], TABLE12_TEXT, monkeypatch, capsys)
        _, table_text, _ = run_cli(["table"], matrix_text, monkeypatch, capsys)
        assert table_text.strip() == TABLE12_TEXT

    def test_prime_is_involutive_through_the_cli(self, monkeypatch, capsys):
        _, matrix_text, _ = run_cli(["from-table"], TABLE12_TEXT, monkeypatch, capsys)
        _, once, _ = run_cli(["prime"], matrix_text, monkeypatch, capsys)
        _, twice, _ = run_cli(["prime"], once, monkeypatch, capsys)
        assert twice == matrix_text
        assert once != matrix_text

    def test_paths_and_dual(self, monkeypatch, capsys):
        _, matrix_text, _ = run_cli(["from-table"], TABLE12_TEXT, monkeypatch, capsys)
        _, cfg_json, _ = run_cli(["paths"], matrix_text, monkeypatch, capsys)
        _, dual_json, _ = run_cli(["dual"], cfg_json, monkeypatch, capsys)
        _, reflected, _ = run_cli(["reflect"], matrix_text, monkeypatch, capsys)
        _, expected, _ = run_cli(["paths"], reflected, monkeypatch, capsys)
        assert json.loads(dual_json) == json.loads(expected)

    def test_paths_ascii_and_svg(self, monkeypatch, capsys):
        _, art, _ = run_cli(
            ["paths", "--format", "ascii"], DIAMOND_TEXT, monkeypatch, capsys
        )
        assert art == "o-o=o\n /|\no o\n\no\n"
        _, svg, _ = run_cli(
            ["paths", "--format", "svg"], DIAMOND_TEXT, monkeypatch, capsys
        )
        assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")

    def test_pipeline_bundle(self, monkeypatch, capsys):
        code, out, _ = run_cli(["pipeline"], DIAMOND_TEXT, monkeypatch, capsys)
        assert code == 0
        bundle = json.loads(out)
        assert set(bundle) == {"matrix", "pair", "table", "paths", "params"}
        assert bundle["table"] == {"k": 3, "a": [0, 0, 1], "b": 0, "beta": 0}
        assert bundle["params"]["J"] == 1

    def test_pipeline_bundle_respects_duality(self, monkeypatch, capsys):
        from asmc import dual_table, table_from_json

        _, matrix_text, _ = run_cli(["from-table"], TABLE12_TEXT, monkeypatch, capsys)
        _, bundle_json, _ = run_cli(["pipeline"], matrix_text, monkeypatch, capsys)
        _, reflected, _ = run_cli(["reflect"], matrix_text, monkeypatch, capsys)
        _, mirror_json, _ = run_cli(["pipeline"], reflected, monkeypatch, capsys)
        bundle, mirror = json.loads(bundle_json), json.loads(mirror_json)
        assert bundle["table"] == {
            "k": 10,
            "a": [0, 0, 2, 2, 0, 0, 1, 5, 0, 3, 6, 6],
            "b": 4,
            "beta": 5,
        }
        assert table_from_json(mirror["table"]) == dual_table(
            table_from_json(bundle["table"])
        )
        assert mirror["params"]["E"] == -bundle["params"]["E"]
        assert mirror["params"]["B"] == -bundle["params"]["B"]
        assert mirror["params"]["J"] == bundle["params"]["J"]


def _moved_entry(t):
    """The table with ``a_3`` lowered and ``a_4`` raised by one: same
    statistics, another pair."""
    a = list(t.a)
    a[2], a[3] = a[2] - 1, a[3] + 1
    return asmc.GenInvTable(k=t.k, a=tuple(a), b=t.b, beta=t.beta)


class TestPipelineCrossCheck:
    """The bundle reads its path statistics and round trip off the paths it
    emits, not off the table they were written from, so paths written
    wrongly from a right table make it fail."""

    @pytest.mark.parametrize("corrupt, error", [
        (lambda write, t: write(asmc.dual_table(t)), "AsmcError: paths statistics"),
        (lambda write, t: write(_moved_entry(t)), "AsmcError: representations do not round-trip"),
        (lambda write, t: (write(t)[1], write(t)[0], *write(t)[2:]), "MalformedConfiguration"),
    ], ids=["dual-paths", "moved-entry", "swapped-paths"])
    def test_corrupted_paths_make_the_bundle_fail(self, monkeypatch, capsys, corrupt, error):
        _, matrix_text, _ = run_cli(["from-table"], TABLE12_TEXT, monkeypatch, capsys)
        code, out, _ = run_cli(["pipeline"], matrix_text, monkeypatch, capsys)
        assert code == 0 and json.loads(out)["table"]["a"] == [0, 0, 2, 2, 0, 0, 1, 5, 0, 3, 6, 6]
        write = asmc.paths._paths
        monkeypatch.setattr(asmc.paths, "_paths", lambda t: corrupt(write, t))
        code, out, err = run_cli(["pipeline"], matrix_text, monkeypatch, capsys)
        assert code == 2 and out == "" and error in err


class TestEnumerationCommands:
    def test_enumerate_count(self, monkeypatch, capsys):
        code, out, _ = run_cli(["enumerate", "-n", "3", "--count"], "", monkeypatch, capsys)
        assert (code, out) == (0, "7\n")

    def test_enumerate_stream_blocks(self, monkeypatch, capsys):
        _, out, _ = run_cli(["enumerate", "-n", "2"], "", monkeypatch, capsys)
        assert out == "0 1\n1 0\n\n1 0\n0 1\n"

    def test_enumerate_minus_filter(self, monkeypatch, capsys):
        _, out, _ = run_cli(
            ["enumerate", "-n", "3", "-s", "1"], "", monkeypatch, capsys
        )
        assert out == DIAMOND_TEXT

    def test_dist_text(self, monkeypatch, capsys):
        code, out, _ = run_cli(["dist", "-n", "3", "--keys", "r"], "", monkeypatch, capsys)
        assert code == 0
        assert out == "r=0 count=2\nr=1 count=3\nr=2 count=2\n"

    def test_dist_json(self, monkeypatch, capsys):
        _, out, _ = run_cli(
            ["dist", "-n", "3", "--keys", "r,s", "--format", "json"],
            "",
            monkeypatch,
            capsys,
        )
        payload = json.loads(out)
        assert payload["keys"] == ["r", "s"]
        assert {"values": [1, 1], "count": 1} in payload["counts"]

    def test_verify_command(self, monkeypatch, capsys):
        code, out, _ = run_cli(["verify", "--n-max", "3"], "", monkeypatch, capsys)
        assert code == 0
        assert "properties passed" in out

    def test_verify_json(self, monkeypatch, capsys):
        code, out, _ = run_cli(
            ["verify", "--n-max", "3", "--format", "json"], "", monkeypatch, capsys
        )
        assert code == 0 and json.loads(out)["ok"] is True

    def test_verify_json_orders(self, monkeypatch, capsys):
        code, out, _ = run_cli(
            ["verify", "--n-max", "4", "--format", "json"], "", monkeypatch, capsys
        )
        payload = json.loads(out)
        assert code == 0
        assert [o["n"] for o in payload["orders"]] == [3, 4]
        assert sum(o["checked"] for o in payload["orders"]) == sum(
            p["checked"] for p in payload["properties"]
        )
        assert all(o["seconds"] >= 0 and o["checks_per_s"] > 0 for o in payload["orders"])

    def test_verify_exits_nonzero_on_failure(self, monkeypatch, capsys):
        import asmc.cli as cli_mod
        from asmc.verify import PropertyResult, VerifyReport

        failing = VerifyReport(
            n_max=3,
            results=[PropertyResult("p", "d", 1, "matrix rows (...)", 0.0)],
        )
        monkeypatch.setattr(cli_mod, "verify_suite", lambda n_max, cap: failing)
        code, out, _ = run_cli(["verify", "--n-max", "3"], "", monkeypatch, capsys)
        assert code == 2
        assert "counterexample" in out


class TestExitCodes:
    def test_domain_error_exits_two(self, monkeypatch, capsys):
        code, out, err = run_cli(["discharge"], "1 0\n0 1\n", monkeypatch, capsys)
        assert code == 2
        assert "NotOneMinus" in err
        assert out == ""

    def test_domain_error_carries_position(self, monkeypatch, capsys):
        code, _, err = run_cli(["validate"], "0 -1 1\n1 0 0\n0 1 0\n", monkeypatch, capsys)
        assert code == 2
        assert "AlternationViolation" in err and "column 2" in err

    def test_parse_error_exits_two(self, monkeypatch, capsys):
        code, _, err = run_cli(["restore"], "not json", monkeypatch, capsys)
        assert code == 2 and "ParseError" in err

    @pytest.mark.parametrize(
        "command", ["validate", "params", "recharge", "restore", "from-table", "dual", "pipeline"]
    )
    def test_malformed_json_is_one_parse_error(self, tmp_path, monkeypatch, capsys, command):
        """Every command that reads JSON says the same of a file that is not JSON."""
        path = tmp_path / "bad.json"
        path.write_text('{"k": ', encoding="utf-8")
        with pytest.raises(json.JSONDecodeError) as info:
            json.loads('{"k": ')
        code, out, err = run_cli([command, str(path)], "", monkeypatch, capsys)
        assert code == 2 and out == ""
        assert err == f"error: ParseError: invalid JSON: {info.value}\n"

    @pytest.mark.parametrize(
        "argv, stdin",
        [
            (["validate"], "0 0_1\n1 0\n"),
            (["params"], "\u0661 0\n0 1\n"),
            (["from-table"], "3; 0 0_1 1; 0 0"),
        ],
    )
    def test_token_beyond_sign_and_ascii_digits_exits_two(self, monkeypatch, capsys, argv, stdin):
        code, out, err = run_cli(argv, stdin, monkeypatch, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ParseError: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("validate", {"rows": [[1.7]]}),
            ("validate", {"rows": [[True]]}),
            ("validate", {"rows": [["1"]]}),
            ("from-table", {"k": 3, "a": [0, 0, 1.9], "b": 0, "beta": 0}),
            ("restore", {"N": {"rows": [[0, 1, 0], [1, -1, 1], [0, 1, 0]]}, "E": 0.0}),
            ("recharge", {"k": True, "P": {"rows": [[0, 1, 0], [1, 0, 0], [0, 0, 1]]}, "c": 0, "E": 0}),
            ("dual", {"paths": [{"start": [0, 1.0], "steps": ""}]}),
        ],
    )
    def test_non_integer_json_file_exits_two(self, tmp_path, capsys, command, payload):
        src = tmp_path / "input.json"
        src.write_text(json.dumps(payload))
        code = main([command, str(src)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["dist", "-n", "0", "--keys", "r"],
            ["dist", "-n", "3", "--keys", "q"],
            ["dist", "-n", "3", "--keys", "r,,"],
            ["enumerate", "-n", "0"],
            ["dist", "-n=3", "--keys=--"],  # argparse hands over an empty list
        ],
    )
    def test_bad_argument_exits_two(self, monkeypatch, capsys, argv):
        code, out, err = run_cli(argv, "", monkeypatch, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: BadArgument: ") and len(err.splitlines()) == 1

    def test_malformed_env_cap_exits_two(self, monkeypatch, capsys):
        monkeypatch.setenv("ASMC_CAP", "abc")
        code, out, err = run_cli(["enumerate", "-n", "3", "--count"], "", monkeypatch, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: BadArgument: ") and "ASMC_CAP" in err

    def test_usage_error_exits_one(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["no-such-command"])
        assert info.value.code == 1

    @pytest.mark.parametrize(
        "argv",
        [["enumerate", "-n=--"], ["verify", "--n-max=--"], ["dist", "-n=3", "--keys=r", "--cap=--"], ["params", "--format=--"]],
    )
    def test_dashes_for_a_number_or_choice_exits_one(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1
        assert "invalid value '--'" in capsys.readouterr().err

    def test_cap_violation_exits_two(self, monkeypatch, capsys):
        code, _, err = run_cli(
            ["enumerate", "-n", "9", "--count"], "", monkeypatch, capsys
        )
        assert code == 2 and "CapExceeded" in err

    def test_env_cap_is_honored(self, monkeypatch, capsys):
        monkeypatch.setenv("ASMC_CAP", "3")
        code, _, err = run_cli(
            ["enumerate", "-n", "4", "--count"], "", monkeypatch, capsys
        )
        assert code == 2 and "CapExceeded" in err
        monkeypatch.setenv("ASMC_CAP", "4")
        code, out, _ = run_cli(
            ["enumerate", "-n", "4", "--count"], "", monkeypatch, capsys
        )
        assert (code, out) == (0, "42\n")


class TestIntegerOptions:
    """``-n``, ``-s``, ``--cap``, ``--n-max`` and ``ASMC_CAP`` take an
    optional sign and ASCII digits, as the matrix text format does."""

    @pytest.mark.parametrize(
        "template, value",
        [(["enumerate", "-n", "{}", "--count"], value)
         for value in ("\u0663", "0_3", "\uff13", "3.0", " 3", "3 ", "", "+", "0x3")]
        + [
            (template, value)
            for template in (
                ["enumerate", "-n", "3", "-s", "{}", "--count"],
                ["enumerate", "-n", "3", "--minus-ones={}", "--count"],
                ["enumerate", "-n", "3", "--cap", "{}", "--count"],
                ["dist", "-n", "{}", "--keys", "r"],
                ["dist", "-n", "3", "--keys", "r", "--cap={}"],
                ["verify", "--n-max={}"],
                ["verify", "--cap", "{}"],
            )
            for value in ("\u0661", "0_1")
        ],
    )
    def test_beyond_sign_and_ascii_digits_is_a_usage_error(self, capsys, template, value):
        argv = [part.format(value) for part in template]
        with pytest.raises(SystemExit) as info:
            main(argv)
        out, err = capsys.readouterr()
        assert info.value.code == 1 and out == ""
        assert "expected an optional sign and ASCII digits" in err

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["enumerate", "-n=+3", "--count"], "7\n"),
            (["enumerate", "-n", "3", "-s", "1", "--cap", "3", "--count"], "1\n"),
            (["dist", "-n", "3", "--keys", "s", "--cap=03"], "s=0 count=6\ns=1 count=1\n"),
        ],
    )
    def test_sign_and_ascii_digits_are_read(self, monkeypatch, capsys, argv, expected):
        assert run_cli(argv, "", monkeypatch, capsys)[:2] == (0, expected)

    @pytest.mark.parametrize("value", ["0_7", "\u0667", " 7", "7.0"])
    def test_env_cap_beyond_sign_and_ascii_digits_exits_two(self, monkeypatch, capsys, value):
        monkeypatch.setenv("ASMC_CAP", value)
        code, out, err = run_cli(["enumerate", "-n", "3", "--count"], "", monkeypatch, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: BadArgument: ASMC_CAP ") and len(err.splitlines()) == 1


class TestReusedParser:
    """``main`` builds its parser once per process and keeps no state from
    one call to the next."""

    def test_no_parser_built_after_the_first_call(self, monkeypatch, capsys):
        run_cli(["validate"], DIAMOND_TEXT, monkeypatch, capsys)
        built = 0
        real = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            nonlocal built
            built += 1
            real(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        for argv in (["validate"], ["params", "--format", "json"], ["reflect"], ["table"]) * 2 + (
            ["enumerate", "-n", "3", "--count"],
            ["dist", "-n", "3", "--keys", "r"],
        ):
            assert run_cli(argv, DIAMOND_TEXT, monkeypatch, capsys)[0] == 0
        assert built == 0
        assert build_parser() is build_parser()

    @pytest.mark.parametrize(
        "before, plain",
        [
            (["params", "--format=xml"], ["params"]),
            (["enumerate", "-n", "0_3", "--count"], ["enumerate", "-n", "3"]),
            (["validate", "-o=--"], ["validate"]),
            (["enumerate", "-n=3", "-s=1", "--output=--"], ["enumerate", "-n", "3"]),
            (["params", "--format", "json"], ["params"]),
            (["dist", "-n", "3", "--keys", "r", "--format", "json", "--cap", "5"], ["dist", "-n", "3", "--keys", "r"]),
        ],
    )
    def test_a_call_leaves_the_next_one_with_the_defaults(self, tmp_path, monkeypatch, capsys, before, plain):
        monkeypatch.chdir(tmp_path)
        build_parser.cache_clear()
        fresh = run_cli(plain, DIAMOND_TEXT, monkeypatch, capsys)
        try:
            run_cli(before, DIAMOND_TEXT, monkeypatch, capsys)
        except SystemExit as exc:
            assert exc.code == 1
            capsys.readouterr()
        assert run_cli(plain, DIAMOND_TEXT, monkeypatch, capsys) == fresh
        assert fresh[0] == 0 and fresh[1]


def _exit_code_and_streams(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with mock.patch.object(sys, "stdin", io.StringIO(stdin)):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    return code, out.getvalue(), err.getvalue()


def _assert_clean_exit(label, code, err):
    assert code in (0, 1, 2), label
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ") and len(err.splitlines()) == 1


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(-2, 9),
    keys=st.text(alphabet="rsiEBJq, -=", max_size=12),
    count_n=st.integers(-2, 5),
)
def test_fuzzed_counting_commands_exit_zero_or_two(n, keys, count_n):
    """``dist`` and ``enumerate --count`` answer or exit 2 with one
    ``error:`` line, whatever the order and key string."""
    for argv in (["dist", f"-n={n}", f"--keys={keys}"], ["enumerate", f"-n={count_n}", "--count"]):
        code, _, err = _exit_code_and_streams(argv)
        assert code in (0, 2), argv
        _assert_clean_exit(argv, code, err)


SMALL_MATRICES = [asmc.matrix_to_text(m) for n in (2, 3, 4) for m in asmc.enumerate_asm(n)]
MATRIX_COMMANDS = ("validate", "params", "reflect", "discharge", "neutralize", "prime", "table", "paths", "pipeline")


@settings(max_examples=40, deadline=None)
@given(
    text=st.one_of(
        st.sampled_from(SMALL_MATRICES),
        st.text(alphabet=' 01-2\n#{}[]":,rowsn', max_size=40),
    )
)
def test_fuzzed_matrix_commands_exit_cleanly(text):
    """Every matrix-reading command answers, or exits 1 or 2 with one
    ``error:`` line, on any input text."""
    for command in MATRIX_COMMANDS:
        code, _, err = _exit_code_and_streams([command], text)
        _assert_clean_exit(command, code, err)


@settings(max_examples=10, deadline=None)
@given(n_max=st.integers(-2, 4))
def test_fuzzed_verify_exits_cleanly(n_max):
    code, _, err = _exit_code_and_streams(["verify", f"--n-max={n_max}"])
    _assert_clean_exit(n_max, code, err)


def test_module_entrypoint_subprocess():
    # the child imports the same asmc as this process, installed or not
    src = str(Path(asmc.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "asmc.cli", "params"],
        input=DIAMOND_TEXT,
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "r=1"
