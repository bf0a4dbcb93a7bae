"""Command-line surface: enumeration, bijection maps, RSK, and verification.

Each enum kind, map direction and verify check has its own sub-parser that
declares only the flags its driver reads, so argparse refuses a missing,
malformed or unknown flag (exit 2) before any work is done; a line that
names its job gets that job's sub-parser alone.  This module loads only gf
and guards, and holds the parser, `verify` and the table of each job's
layers.  Every other module loads only for a job that runs it: main
imports the named job's layers (LAYERS) before it builds the parser, and a
handler reaches them through _load.  `enum` and `map` run in records, which
holds their text and JSON forms and the writer; a `verify` check prices
its work with prices; bijection holds the exhaustive bijection witnesses.
So a command loads only the modules its job needs: `verify pieri` loads
decomp, shapes and prices, `enum irreducibles` records alone.  Every job
makes its field from --p (and --k) with Field, which finds its modulus and
builds its tables on first use: a verify check's guard, which opens the
check, reads only q and runs before them.
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

from hecke.gf import Field
from hecke.guards import GuardExceeded, MembershipError


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


def _field(args) -> Field:
    # A job that declares no --k (`map rsk`, `verify pieri`) reads no table,
    # so its field checks --p and builds none.
    return Field(args.p, getattr(args, "k", 1))


# -- enum and map: hecke.records holds their drivers, records and writer ----------

ENUMS = {  # kind -> (flags it reads, keys of its records)
    "n_mu": (("--k", "--mu"), ("perm", "entries")),
    "m_mu": (("--k", "--mu"), ("mu", "entries")),
    "irreducibles": (("--k", "--max-deg"), ("poly",)),
    "pairs": (("--k", "--mu"), ("P", "Q")),
}

MAPS = {  # direction -> (flags it reads,)
    "a_to_v": (("--k",),),
    "v_to_a": (("--k", "--mu"),),
    "rsk": ((),),
    "rsk_general": (("--k",),),
}


def _enum(args) -> int:
    return _load("records").cmd_enum(args, _field(args), ENUMS[args.kind][1])


def _map(args) -> int:
    return _load("records").cmd_map(args, _field(args))


# -- verify ---------------------------------------------------------------------


def _verify_pieri(args) -> dict:
    _field(args)
    nu = args.nu and tuple(int(x) for x in args.nu.split(","))  # None, "" (no parts) or parts
    return _load("decomp").pieri_report(nu, args.add, args.vars)


def _check(layer: str, name: str, size: str):
    """The driver that loads `layer` and calls its check `name` on the field
    and on --mu or --n; the check runs its guard before any field table."""
    return lambda a: getattr(_load(layer), name)(_field(a), getattr(a, size))


CHECKS = {  # check -> (flags it reads, driver returning the report)
    "bijection": (("--k", "--mu"), _check("bijection", "bijection_check", "mu")),
    "dim_identity": (("--k", "--mu"), _check("decomp", "dim_identity_check", "mu")),
    "rsk_bijectivity": (("--k", "--mu"), _check("bijection", "rsk_bijectivity_check", "mu")),
    "basis": (("--k", "--mu"), _check("oracle", "basis_check", "mu")),
    "commutativity": (("--k", "--n"), _check("oracle", "commutativity_check", "n")),
    "levi": (("--k", "--mu"), _check("oracle", "levi_embedding_check", "mu")),
    "cosets": (("--k", "--n"), _check("oracle", "coset_check", "n")),
    "pieri": (("--nu", "--add", "--vars"), _verify_pieri),  # reads no field
}


def cmd_verify(args) -> int:
    start = time.perf_counter()
    report = CHECKS[args.check][1](args)
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


COMMANDS = {  # command -> (help, job dest, jobs, flags every job shares, handler)
    "enum": ("stream canonical enumerations", "kind", ENUMS, ("--format",), _enum),
    "map": ("apply a bijection or RSK", "direction", MAPS, ("--input", "--format"), _map),
    "verify": ("run a verification driver", "check", CHECKS, (), cmd_verify),
}


# The layers each job's driver loads.  main imports those of the job named on
# the command line before it builds the parser: compiled after the parser,
# on top of its objects, they raised a child's peak RSS by about 0.2 MB.
LAYERS = {
    **dict.fromkeys(("n_mu", "m_mu", "a_to_v", "v_to_a"), ("hecke_index", "records")),
    "irreducibles": ("records",),
    **dict.fromkeys(("pairs", "rsk"), ("rsk", "records")),
    "rsk_general": ("hecke_index", "rsk", "records"),
    "bijection": ("bijection",),
    "rsk_bijectivity": ("rsk", "bijection"),
    "dim_identity": ("rsk", "bijection", "decomp"),
    **dict.fromkeys(("basis", "commutativity", "levi", "cosets"), ("oracle",)),
    "pieri": ("decomp",),
}


def _named_job(argv):
    """(command, job) when argv names a command and one of its jobs, else None."""
    jobs = COMMANDS[argv[0]][2] if argv and argv[0] in COMMANDS else {}
    return tuple(argv[:2]) if argv[1:2] and argv[1] in jobs else None


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser of every command and job.  When argv names a command and
    one of its jobs, that job's sub-parser is the only one built: argparse
    hands the rest of that line to it alone, and the three command parsers
    keep the root usage line and every message as the full parser has them."""
    parser = argparse.ArgumentParser(
        prog="hecke",
        description="Unipotent Hecke algebra combinatorics for GL_n(F_q).",
    )
    named = _named_job(argv)
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, dest, jobs, shared, handler) in COMMANDS.items():
        job_parsers = commands.add_parser(command, help=help_text).add_subparsers(
            dest=dest, required=True
        )
        for job, (flags, *_) in jobs.items():
            if named in (None, (command, job)):
                job_parser = job_parsers.add_parser(job)
                job_parser.set_defaults(func=handler)
                for flag in ("--p", *flags, *shared, "--output"):
                    job_parser.add_argument(flag, **FLAGS[flag])
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    named = _named_job(argv)
    if named:
        for layer in LAYERS.get(named[1], ()):
            _load(layer)
    try:
        args = build_parser(argv).parse_args(argv)
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
    except (ValueError, KeyError, OSError) as err:  # a json.JSONDecodeError is a ValueError
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
