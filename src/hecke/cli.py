"""Command-line surface: enumeration, bijection maps, RSK, and verification.

Each enum kind, map direction and verify check has its own sub-parser that
declares only the flags its driver reads, so argparse refuses a missing,
malformed or unknown flag (exit 2) before any work is done.  A driver
imports the layer it calls (rsk, decomp, oracle) when it runs, so a command
loads only the modules its job needs.  `enum` streams: each record is one
write, made as the enumeration yields it, then a count footer.
Every command is deterministic; identical inputs give byte-identical output.
`verify` writes its elapsed seconds to stderr, never into the report.
Exit codes: 0 success / verified, 1 mathematical counterexample, 2 argument
or parse failure, 3 guard exceeded, 4 input outside M_mu or N_mu.  A closed
stdout ends a command quietly: `enum` and `map` exit 0, `verify` its verdict.
Diagnostics go to stderr; results go to stdout or --output.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time

from hecke.gf import Field, _is_int, enumerate_irreducibles, field_order, format_poly
from hecke.guards import GuardExceeded
from hecke.hecke_index import (
    MembershipError,
    bijection_check,
    enumerate_m_mu,
    enumerate_n_mu,
    matrix_of_v,
    monomial_from_obj,
    monomial_to_obj,
    polymatrix_from_obj,
    polymatrix_to_obj,
    v_of_matrix,
)
from hecke.shapes import partitions_of


def _parse_mu(text: str) -> tuple:
    try:
        mu = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse composition {text!r}") from None
    if any(m < 1 for m in mu):
        raise argparse.ArgumentTypeError(f"composition parts must be positive: {text!r}")
    return mu


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, not {text!r}")
    return value


def _load(layer: str):
    """The hecke module a driver calls, imported when the driver runs."""
    return importlib.import_module(f"hecke.{layer}")


def _field(args):
    # A job that declares no --k (`map rsk`, `verify pieri`) reads no field:
    # --p gets the checks a Field makes, and no table is built.
    if not hasattr(args, "k"):
        field_order(args.p)
        return None
    return Field(args.p, args.k)


_encode = json.JSONEncoder(separators=(",", ":")).encode  # json.dumps builds one per call


class _Writer:
    def __init__(self, args):
        self.fmt = args.format
        self.path = args.output
        self.handle = open(self.path, "w") if self.path else sys.stdout
        self.header_done = False

    def record(self, obj: dict):
        # One write call per record: on unbuffered stdout each call is one
        # write(2) into the pipe.
        if self.fmt == "json":
            self.handle.write(_encode(obj) + "\n")
            return
        row = "\t".join(
            v if isinstance(v, str) else _encode(v)
            for v in obj.values()
        )
        if not self.header_done:
            row = "\t".join(obj) + "\n" + row
            self.header_done = True
        self.handle.write(row + "\n")

    def footer(self, count: int):
        if self.fmt == "tsv":
            self.handle.write(f"# count={count}\n")
        else:
            self.handle.write(json.dumps({"count": count}) + "\n")

    def close(self):
        if self.path:
            self.handle.close()


# -- enum -----------------------------------------------------------------------


def _enum_pairs(K: Field, a):
    rsk = _load("rsk")
    return (rsk.pair_to_obj(K, pair) for pair in rsk.enumerate_pairs(K, a.mu))


ENUMS = {  # kind -> (flags it reads, driver returning a stream of records)
    "n_mu": (
        ("--k", "--mu"),
        lambda K, a: (monomial_to_obj(K, v) for v in enumerate_n_mu(K, a.mu)),
    ),
    "m_mu": (
        ("--k", "--mu"),
        lambda K, a: (polymatrix_to_obj(K, m) for m in enumerate_m_mu(K, a.mu)),
    ),
    "irreducibles": (
        ("--k", "--max-deg"),
        lambda K, a: ({"poly": format_poly(K, f)} for f in enumerate_irreducibles(K, a.max_deg)),
    ),
    "pairs": (("--k", "--mu"), _enum_pairs),
}


def cmd_enum(args) -> int:
    K = _field(args)
    writer = _Writer(args)
    count = 0
    for record in args.driver(K, args):
        writer.record(record)
        count += 1
    writer.footer(count)
    writer.close()
    return 0


# -- map ------------------------------------------------------------------------


def _read_input(args):
    if args.input:
        with open(args.input) as handle:
            return json.load(handle)
    return json.load(sys.stdin)


def _a_to_v(K: Field, data, args) -> dict:
    a = polymatrix_from_obj(K, data)
    return {"mu": list(a.mu), **monomial_to_obj(K, v_of_matrix(K, a))}


def _v_to_a(K: Field, data, args) -> dict:
    return polymatrix_to_obj(K, matrix_of_v(K, monomial_from_obj(K, data), args.mu))


def _rsk(K: Field, data, args) -> dict:
    b = data.get("b") if isinstance(data, dict) else data
    rows = b if isinstance(b, list) and all(isinstance(row, list) for row in b) else []
    if not rows or any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("b must be a rectangular matrix")
    if not all(_is_int(x) and x >= 0 for row in b for x in row):
        raise ValueError("b must have nonnegative integer entries")
    rsk = _load("rsk")
    array = rsk.two_line_array(b)
    P, Q = rsk.rsk_classical(b)
    return {
        "two_line": [[i for i, _ in array], [j for _, j in array]],
        "P": [list(row) for row in P],
        "Q": [list(row) for row in Q],
    }


def _rsk_general(K: Field, data, args) -> dict:
    rsk = _load("rsk")
    pair = rsk.rsk_generalized(K, polymatrix_from_obj(K, data))
    return {**rsk.pair_to_obj(K, pair), "weight": list(rsk.family_weight(pair[0]))}


MAPS = {  # direction -> (flags it reads, driver returning one record)
    "a_to_v": (("--k",), _a_to_v),
    "v_to_a": (("--k", "--mu"), _v_to_a),
    "rsk": ((), _rsk),  # reads no field
    "rsk_general": (("--k",), _rsk_general),
}


def cmd_map(args) -> int:
    K = _field(args)
    data = _read_input(args)
    writer = _Writer(args)
    writer.record(args.driver(K, data, args))
    writer.close()
    return 0


# -- verify ---------------------------------------------------------------------


def _verify_pieri(args) -> dict:
    _field(args)
    decomp = _load("decomp")
    if args.nu is not None:
        nu = tuple(int(x) for x in args.nu.split(",")) if args.nu else ()
        return decomp.pieri_check(nu, 1 if args.add is None else args.add, args.vars)
    if args.add is not None:
        raise ValueError("--add needs --nu: the default grid sets its own row sizes")
    cases = [(nu, n) for size in range(5) for nu in partitions_of(size) for n in range(1, 4)]
    for nu, n in cases:
        decomp.check_pieri_input(nu, n, args.vars)
    subreports = []
    ok = True
    for nu, n in cases:
        rep = decomp.pieri_check(nu, n, args.vars)
        ok = ok and rep["pass"]
        subreports.append({"nu": list(nu), "n": n, "pass": rep["pass"]})
    return {"check": "pieri", "variables": args.vars, "cases": subreports, "pass": ok}


CHECKS = {  # check -> (flags it reads, driver returning the report)
    "bijection": (("--k", "--mu"), lambda a: bijection_check(_field(a), a.mu)),
    "dim_identity": (
        ("--k", "--mu"),
        lambda a: _load("decomp").dim_identity_check(_field(a), a.mu),
    ),
    "rsk_bijectivity": (
        ("--k", "--mu"),
        lambda a: _load("rsk").rsk_bijectivity_check(_field(a), a.mu),
    ),
    "basis": (("--k", "--mu"), lambda a: _load("oracle").basis_check(_field(a), a.mu)),
    "commutativity": (
        ("--k", "--n"),
        lambda a: _load("oracle").commutativity_check(_field(a), a.n),
    ),
    "levi": (("--k", "--mu"), lambda a: _load("oracle").levi_embedding_check(_field(a), a.mu)),
    "cosets": (("--k", "--n"), lambda a: _load("oracle").coset_check(_field(a), a.n)),
    "pieri": (("--nu", "--add", "--vars"), _verify_pieri),  # reads no field
}


def cmd_verify(args) -> int:
    start = time.perf_counter()
    report = args.driver(args)
    args.verdict = 0 if report["pass"] else 1  # stands if stdout's reader has gone
    handle = open(args.output, "w") if args.output else sys.stdout
    handle.write(json.dumps(report, indent=2, default=str) + "\n")
    handle.flush()  # a closed stdout shows before the elapsed line
    if args.output:
        handle.close()
    print(f"elapsed: {time.perf_counter() - start:.3f} s", file=sys.stderr)
    return args.verdict


# -- parser ----------------------------------------------------------------------

FLAGS = {  # every flag a sub-parser can declare
    "--p": dict(type=int, required=True, help="field characteristic"),
    "--k": dict(type=int, default=1, help="extension degree (q = p^k)"),
    "--mu": dict(type=_parse_mu, required=True, help="composition, comma-separated parts"),
    "--n": dict(type=_positive, required=True, help="matrix rank"),
    "--max-deg": dict(type=_positive, required=True, help="largest label degree"),
    "--nu": dict(help="partition, comma-separated (may be empty); default: a fixed grid"),
    "--add": dict(type=int, help="row size n in s_nu * s_(n); needs --nu (default 1)"),
    "--vars": dict(type=int, default=5, help="variable count"),
    "--input": dict(help="JSON input file (stdin when omitted)"),
    "--format": dict(choices=("json", "tsv"), default="json"),
    "--output": dict(help="write results to a file instead of stdout"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hecke",
        description="Unipotent Hecke algebra combinatorics for GL_n(F_q).",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for command, help_text, dest, jobs, shared, handler in (
        ("enum", "stream canonical enumerations", "kind", ENUMS, ("--format",), cmd_enum),
        ("map", "apply a bijection or RSK", "direction", MAPS, ("--input", "--format"), cmd_map),
        ("verify", "run a verification driver", "check", CHECKS, (), cmd_verify),
    ):
        job_parsers = commands.add_parser(command, help=help_text).add_subparsers(
            dest=dest, required=True
        )
        for job, (flags, driver) in jobs.items():
            job_parser = job_parsers.add_parser(job)
            for flag in ("--p", *flags, *shared, "--output"):
                job_parser.add_argument(flag, **FLAGS[flag])
            job_parser.set_defaults(func=handler, driver=driver)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as err:  # argparse: 2 for bad arguments, 0 after --help
        return err.code
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter shutdown
        return code
    except BrokenPipeError:  # stdout's reader has gone: the command is done
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the last flush
        return getattr(args, "verdict", 0)
    except GuardExceeded as err:
        print(f"guard exceeded: {err}", file=sys.stderr)
        return 3
    except MembershipError as err:
        print(f"input rejected: {err}", file=sys.stderr)
        return 4
    except (ValueError, KeyError, json.JSONDecodeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
