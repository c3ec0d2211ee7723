"""Command-line front end.

Every subcommand is a thin adapter over one library operation (or a
short composition); no arithmetic lives here.  Matrices travel as the
text format (one row per line, ``#`` comments allowed) or as JSON;
tuples, pairs, tables and path configurations use their module-declared
JSON schemas.  Commands read a file argument or stdin and write stdout
(or ``-o``), so they compose in shell pipes.  Every JSON output but the
``verify`` report is one line, the ``pipeline`` bundle included.

Exit codes: 0 success, 1 usage error, 2 domain error (the error class
name and any 1-based position appear in the message).  ``verify`` exits
2 when a property fails.  Integer options and ``ASMC_CAP`` take an
optional sign and ASCII digits, as the matrix text format does.

:func:`main` returns the exit code and may be called repeatedly in one
process; the parser is built on the first call and reused.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from contextlib import nullcontext

from .cells import charges
from .discharge import discharge, recharge, tuple_from_json
from .enumeration import DEFAULT_CAP, DISTRIBUTION_KEYS, distribution, enumerate_asm
from .errors import AsmcError, BadArgument
from .inv_table import (
    gen_table,
    pair_from_table,
    table_from_json,
    table_from_text,
    table_params,
)
from .matrix import (
    _text_ints,
    classical_params,
    json_object,
    matrix_from_json,
    matrix_from_text,
    matrix_to_json,
    matrix_to_text,
    minus_count,
    reflect,
)
from .neutral import neutralize, pair_from_json, restore, swap_charges
from .paths import (
    MixedConfiguration,
    config_from_json,
    config_from_pair,
    config_from_table,
    dual_config,
    render_ascii,
    render_svg,
    table_from_config,
    validate_config,
)
from .verify import verify_suite


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract wants 1.  argparse
    also stores [] for an option given the value "--" (``-o=--``); a
    string option gets "--" back, any other option is a usage error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        for action in self._actions:
            if action.option_strings and getattr(namespace, action.dest, None) == []:
                if action.type or action.choices:
                    self.error(f"argument {'/'.join(action.option_strings)}: invalid value '--'")
                setattr(namespace, action.dest, "--")
        return namespace, extras


def _integer(text: str) -> int:
    """An integer option or ``ASMC_CAP``: one token of the matrix text
    format, an optional sign and ASCII digits."""
    try:
        if text.split() == [text]:
            return _text_ints(text)[0]
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an optional sign and ASCII digits, got {text!r}")


def _read_input(args) -> str:
    if args.input and args.input != "-":
        with open(args.input, "r", encoding="utf-8") as fh:
            return fh.read()
    return sys.stdin.read()


def _read_matrix(args):
    text = _read_input(args)
    if text.lstrip().startswith("{"):
        return matrix_from_json(text)
    return matrix_from_text(text)


def _write(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _params_dict(p, ch) -> dict:
    """r, s, i from the classical params ``p`` and, unless ``ch`` is None,
    E, B, J from the charges ``ch``."""
    out = {"r": p.r, "s": p.s, "i": p.i}
    if ch is not None:
        out.update({"E": ch.e, "B": ch.b, "J": ch.j})
    return out


def _emit_matrix(args, m) -> None:
    if args.format == "json":
        _write(args, json.dumps(matrix_to_json(m)) + "\n")
    else:
        _write(args, matrix_to_text(m))


def _pipeline_bundle(m) -> dict:
    """All four representations of a one-minus matrix plus its statistics,
    cross-checked for agreement before emitting.  The path statistics and
    round trip are read off the emitted paths, rebuilt as a configuration
    that keeps no table, by the string reader of ``table_from_config``."""
    pair = neutralize(m)
    table = gen_table(pair)
    cfg = config_from_table(table)
    read = table_from_config(MixedConfiguration(cfg.paths))
    p, ch = classical_params(m), charges(m)
    stats = (p.r, p.i, ch.e, ch.b, ch.j)
    for label, t in (("table", table), ("paths", read)):
        vec = tuple(table_params(t))
        if vec != stats:
            raise AsmcError(f"{label} statistics {vec} disagree with matrix {stats}")
    if restore(pair) != m or pair_from_table(table) != pair or pair_from_table(read) != pair:
        raise AsmcError("representations do not round-trip")
    return {
        "matrix": matrix_to_json(m),
        "pair": pair.to_json(),
        "table": table.to_json(),
        "paths": cfg.to_json(),
        "params": _params_dict(p, ch),
    }


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="asmc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, fmt=("text", "json")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", nargs="?", default="-", help="input file (default stdin)")
        p.add_argument("-o", "--output", help="output file (default stdout)")
        if fmt:
            p.add_argument("--format", choices=fmt, default=fmt[0])
        return p

    add("validate", "check a matrix against the alternating sign laws")
    add("params", "print r, s, i (and E, B, J for one-minus matrices)")
    add("reflect", "vertical reflection")
    add("discharge", "matrix -> (k, P, c, E) tuple", fmt=("json", "text"))
    add("recharge", "(k, P, c, E) tuple JSON -> matrix")
    add("neutralize", "matrix -> (neutral matrix, charge) pair", fmt=("json",))
    add("restore", "(neutral matrix, charge) pair JSON -> matrix")
    add("prime", "swap the electric and magnetic charges")
    add("table", "matrix -> generalized inversion table")
    add("from-table", "generalized inversion table -> matrix")
    add("paths", "matrix -> mixed path configuration", fmt=("json", "ascii", "svg"))
    add("dual", "configuration JSON -> its path dual", fmt=("json", "ascii", "svg"))
    add("pipeline", "matrix -> all representations as one JSON bundle", fmt=("json",))

    p = sub.add_parser("enumerate", help="stream all order-n matrices")
    p.add_argument("-n", type=_integer, required=True)
    p.add_argument("-s", "--minus-ones", type=_integer, default=None)
    p.add_argument("--count", action="store_true", help="print only the total")
    p.add_argument("--cap", type=_integer, default=None)
    p.add_argument("-o", "--output")

    p = sub.add_parser("dist", help="distribution of statistics over order n")
    p.add_argument("-n", type=_integer, required=True)
    p.add_argument("--keys", required=True, help=f"comma-separated subset of {','.join(DISTRIBUTION_KEYS)}")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--cap", type=_integer, default=None)
    p.add_argument("-o", "--output")

    p = sub.add_parser("verify", help="run the exhaustive property sweep")
    p.add_argument("--n-max", type=_integer, default=5)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--cap", type=_integer, default=None)
    p.add_argument("-o", "--output")
    return parser


def _resolve_cap(args) -> int:
    if getattr(args, "cap", None) is not None:
        return args.cap
    env = os.environ.get("ASMC_CAP")
    if not env:
        return DEFAULT_CAP
    try:
        return _integer(env)
    except argparse.ArgumentTypeError as exc:
        raise BadArgument(f"ASMC_CAP must be an integer: {exc}") from exc


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "validate":
        m = _read_matrix(args)
        if args.format == "json":
            _write(args, json.dumps({"n": m.n, "s": minus_count(m)}) + "\n")
        else:
            _write(args, f"ok: n={m.n} s={minus_count(m)}\n")
    elif cmd == "params":
        m = _read_matrix(args)
        p = classical_params(m)
        params = _params_dict(p, charges(m) if p.s == 1 else None)
        if args.format == "json":
            _write(args, json.dumps(params) + "\n")
        else:
            _write(args, "".join(f"{key}={value}\n" for key, value in params.items()))
    elif cmd == "reflect":
        _emit_matrix(args, reflect(_read_matrix(args)))
    elif cmd == "discharge":
        t = discharge(_read_matrix(args))
        if args.format == "text":
            _write(
                args,
                f"k={t.opening_row} c={t.closing_sum} E={t.charge}\n"
                + matrix_to_text(t.perm),
            )
        else:
            _write(args, json.dumps(t.to_json()) + "\n")
    elif cmd == "recharge":
        _emit_matrix(args, recharge(tuple_from_json(json_object(_read_input(args)))))
    elif cmd == "neutralize":
        _write(args, json.dumps(neutralize(_read_matrix(args)).to_json()) + "\n")
    elif cmd == "restore":
        _emit_matrix(args, restore(pair_from_json(json_object(_read_input(args)))))
    elif cmd == "prime":
        _emit_matrix(args, swap_charges(_read_matrix(args)))
    elif cmd == "table":
        t = gen_table(neutralize(_read_matrix(args)))
        if args.format == "json":
            _write(args, json.dumps(t.to_json()) + "\n")
        else:
            _write(args, t.to_text() + "\n")
    elif cmd == "from-table":
        text = _read_input(args)
        t = table_from_json(json_object(text)) if text.lstrip().startswith("{") else table_from_text(text)
        _emit_matrix(args, restore(pair_from_table(t)))
    elif cmd == "paths":
        cfg = config_from_pair(neutralize(_read_matrix(args)))
        _emit_config(args, cfg)
    elif cmd == "dual":
        cfg = dual_config(config_from_json(json_object(_read_input(args))))
        _emit_config(args, cfg)
    elif cmd == "pipeline":
        _write(args, json.dumps(_pipeline_bundle(_read_matrix(args))) + "\n")
    elif cmd == "enumerate":
        cap = _resolve_cap(args)
        if args.count:
            total = sum(1 for _ in enumerate_asm(args.n, s=args.minus_ones, cap=cap))
            _write(args, f"{total}\n")
        else:
            stream = enumerate_asm(args.n, s=args.minus_ones, cap=cap)
            with open(args.output, "w", encoding="utf-8") if args.output else nullcontext(sys.stdout) as sink:
                for idx, m in enumerate(stream):
                    sink.write(("\n" if idx else "") + matrix_to_text(m))
    elif cmd == "dist":
        keys = tuple(k.strip() for k in args.keys.split(","))
        counts = distribution(args.n, keys, cap=_resolve_cap(args))
        if args.format == "json":
            payload = [{"values": list(k), "count": v} for k, v in sorted(counts.items())]
            _write(args, json.dumps({"n": args.n, "keys": list(keys), "counts": payload}) + "\n")
        else:
            lines = [
                " ".join(f"{key}={val}" for key, val in zip(keys, vals)) + f" count={count}"
                for vals, count in sorted(counts.items())
            ]
            _write(args, "\n".join(lines) + "\n")
    elif cmd == "verify":
        report = verify_suite(args.n_max, cap=_resolve_cap(args))
        _write(args, report.to_json() + "\n" if args.format == "json" else report.to_text())
        if not report.ok:
            return 2
    else:  # pragma: no cover - argparse enforces the choices
        raise AssertionError(cmd)
    return 0


def _emit_config(args, cfg) -> None:
    validate_config(cfg)
    if args.format == "ascii":
        _write(args, render_ascii(cfg))
    elif args.format == "svg":
        _write(args, render_svg(cfg))
    else:
        _write(args, json.dumps(cfg.to_json()) + "\n")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except AsmcError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
