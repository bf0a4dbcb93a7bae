"""Command-line surface: enumeration, bijection maps, RSK, and verification.

JOBS holds each enum kind, map direction and verify check once: the flags
its driver reads, the module that holds its driver and the driver's name
there.  read_line reads a well-formed line from JOBS and FLAGS alone: a job,
then each flag its sub-parser declares, spelled out, once, with a value
that its type and choices take.  Every other line goes to the full
argparse parser, which is built (and argparse imported) only then: it
writes every help text and refuses a missing, malformed or unknown flag
(exit 2) before any work is done, and it makes the reader's namespace of
every line the reader takes.  This module loads only gf and guards, and
holds the reader, the parser, `verify` and the job table.  Every other
module loads only for a job that runs it: once the line is read and the
field made, main imports the module that holds the job's driver, whose own
imports load the rest, and runs the driver; a help line, or one refused
before its driver runs, loads none.  `enum` drivers are in records, which holds the text and JSON
forms of records and the writer; `map` drivers are in maps, which reads
every outside input and writes through records; a `verify` check prices
its work with prices; bijection holds the exhaustive bijection witnesses.
So a command loads only the modules its job needs: `verify pieri` loads
decomp, shapes and prices, `enum irreducibles` records alone, `map
rsk_general` matrices, rsk, maps and records, but neither hecke_index nor
shapes.  Every job makes its field from --p (and --k) with Field, which
finds its modulus and builds its tables on first use: a verify check's
guard, which opens the check, reads only q and runs before them.
Every command is deterministic; identical inputs give byte-identical output.
`verify` writes its elapsed seconds to stderr, never into the report.
Exit codes: 0 success / verified, 1 mathematical counterexample, 2 argument
or parse failure, 3 guard exceeded, 4 input outside M_mu or N_mu.  A closed
stdout ends a command quietly: `enum` and `map` exit 0, `verify` its verdict.
Diagnostics go to stderr; results go to stdout or --output.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from types import SimpleNamespace

from hecke.gf import Field
from hecke.guards import GuardExceeded, MembershipError


def _invalid(message: str) -> Exception:
    """argparse's error for a value its type refuses, imported only then."""
    from argparse import ArgumentTypeError

    return ArgumentTypeError(message)


def _parse_mu(text: str) -> tuple:
    try:
        mu = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise _invalid(f"cannot parse composition {text!r}") from None
    if any(m < 1 for m in mu):
        raise _invalid(f"composition parts must be positive: {text!r}")
    return mu


def _parse_nu(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(",")) if text else ()
    except ValueError:
        raise _invalid(f"cannot parse partition {text!r}") from None


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise _invalid(f"expected a positive integer, not {text!r}")
    return value


def _load(module: str):
    """The hecke module a driver calls, imported when the driver runs."""
    return importlib.import_module(f"hecke.{module}")


# -- the jobs ----------------------------------------------------------------------

# (command, job) -> (flags it reads, the module that holds its driver, the
# driver's name there).  The driver is called on the job's field in place of
# --k and on the value of each other flag, in this order; a `map` driver also
# on the input record.  An `enum` driver streams its records' keys, then the
# JSON texts of each record's values.
JOBS = {
    ("enum", "n_mu"): (("--k", "--mu"), "records", "n_mu_records"),
    ("enum", "m_mu"): (("--k", "--mu"), "records", "m_mu_records"),
    ("enum", "irreducibles"): (("--k", "--max-deg"), "records", "irreducible_records"),
    ("enum", "pairs"): (("--k", "--mu"), "records", "pair_records"),
    ("map", "a_to_v"): (("--k",), "maps", "a_to_v_record"),
    ("map", "v_to_a"): (("--k", "--mu"), "maps", "v_to_a_record"),
    ("map", "rsk"): ((), "maps", "classical_record"),
    ("map", "rsk_general"): (("--k",), "maps", "generalized_record"),
    ("verify", "bijection"): (("--k", "--mu"), "bijection", "bijection_check"),
    ("verify", "dim_identity"): (("--k", "--mu"), "decomp", "dim_identity_check"),
    ("verify", "rsk_bijectivity"): (("--k", "--mu"), "bijection", "rsk_bijectivity_check"),
    ("verify", "basis"): (("--k", "--mu"), "oracle", "basis_check"),
    ("verify", "commutativity"): (("--k", "--n"), "oracle", "commutativity_check"),
    ("verify", "levi"): (("--k", "--mu"), "oracle", "levi_embedding_check"),
    ("verify", "cosets"): (("--k", "--n"), "oracle", "coset_check"),
    ("verify", "pieri"): (("--nu", "--add", "--vars"), "decomp", "pieri_report"),
}


def _job(args) -> tuple:
    """The driver of the job args names and what it is called on.  Every job
    makes its field, so --p is checked even where no driver reads it."""
    flags, module, name = JOBS[args.command, getattr(args, COMMANDS[args.command][1])]
    K = Field(args.p, getattr(args, "k", 1))  # no table is built until one is read
    values = [K if flag == "--k" else getattr(args, flag[2:].replace("-", "_")) for flag in flags]
    return getattr(_load(module), name), values


def _enum(args, driver, values) -> int:
    return _load("records").cmd_enum(args, driver, values)


def _map(args, driver, values) -> int:
    return _load("maps").cmd_map(args, driver, values)


def cmd_verify(args, check, values) -> int:
    start = time.perf_counter()
    report = check(*values)
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
    "--nu": dict(
        type=_parse_nu, help="partition, comma-separated (may be empty); default: a fixed grid"
    ),
    "--add": dict(type=int, help="row size n in s_nu * s_(n); needs --nu (default 1)"),
    "--vars": dict(type=int, default=5, help="variable count"),
    "--input": dict(help="JSON input file (stdin when omitted)"),
    "--format": dict(choices=("json", "tsv"), default="json"),
    "--output": dict(help="write results to a file instead of stdout"),
}


COMMANDS = {  # command -> (help, job dest, flags every job shares, handler)
    "enum": ("stream canonical enumerations", "kind", ("--format",), _enum),
    "map": ("apply a bijection or RSK", "direction", ("--input", "--format"), _map),
    "verify": ("run a verification driver", "check", (), cmd_verify),
}


def _declared(command: str, job: str) -> tuple:
    """The flags the job's sub-parser declares, in order."""
    return ("--p", *JOBS[command, job][0], *COMMANDS[command][2], "--output")


def read_line(argv):
    """The namespace the full parser makes of argv, when argv is well formed:
    a job of JOBS, then each flag its sub-parser declares at most once, spelled
    out and followed by a value that does not start with "-", every required
    flag among them.  Each value goes through its FLAGS type and choices; a
    flag left out gets its default.  Any other line, or a value its type or
    choices refuse, gives None, and argparse answers it."""
    key = tuple(argv[:2])
    if key not in JOBS:
        return None
    pairs = argv[2:]
    given = dict(zip(pairs[::2], pairs[1::2]))
    declared = _declared(*key)
    if len(pairs) % 2 or len(given) < len(pairs) // 2 or not given.keys() <= set(declared):
        return None
    if any(value.startswith("-") for value in given.values()):
        return None
    args = {"command": key[0], COMMANDS[key[0]][1]: key[1]}
    for flag in declared:
        spec = FLAGS[flag]
        if flag not in given:
            if spec.get("required"):
                return None
            value = spec.get("default")
        else:
            try:
                value = spec.get("type", str)(given[flag])
            except Exception:  # argparse calls the type again: it names the fault or raises it
                return None
            if value not in spec.get("choices", (value,)):
                return None
        args[flag[2:].replace("-", "_")] = value
    return SimpleNamespace(**args)


def build_parser():
    """The parser of every command and job: the source of every help text
    and of every message about a line that read_line declines."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="hecke",
        description="Unipotent Hecke algebra combinatorics for GL_n(F_q).",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    job_parsers = {
        command: commands.add_parser(command, help=help_text).add_subparsers(
            dest=dest, required=True
        )
        for command, (help_text, dest, *_) in COMMANDS.items()
    }
    for command, job in JOBS:
        job_parser = job_parsers[command].add_parser(job)
        for flag in _declared(command, job):
            job_parser.add_argument(flag, **FLAGS[flag])
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = read_line(argv)
    if args is None:  # help, an error, or a line only argparse reads
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as err:  # argparse: 2 for bad arguments, 0 after --help
            return err.code
    try:
        code = COMMANDS[args.command][3](args, *_job(args))
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
