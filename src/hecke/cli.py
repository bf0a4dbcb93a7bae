"""Command-line surface: enumeration, bijection maps, RSK, and verification.

Each enum kind, map direction and verify check has its own sub-parser that
declares only the flags its driver reads, so argparse refuses a missing,
malformed or unknown flag (exit 2) before any work is done; a line that
names its job gets that job's sub-parser alone.  This module loads only gf
and guards.  The driver-time layers (hecke_index, rsk, decomp, oracle) load
only for a job that calls them: main imports the named job's layers before
it builds the parser, and a driver reaches them through _load.  So a
command loads only the modules its job needs: `verify pieri` loads decomp
and shapes, `enum irreducibles` nothing more.  Every job makes its field
from --p (and --k) with Field, which builds its tables on first use: a
verify check's guard, which opens the check, reads only q and runs before
them.
`enum` streams: the first record is written and flushed alone as soon as
the enumeration yields it; the rest go out in blocks of BLOCK records, one
write call each, and the last block carries the count footer.
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

from hecke.gf import Field, element_to_obj, enumerate_irreducibles, format_poly
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


_encode = json.JSONEncoder(separators=(",", ":")).encode  # json.dumps builds one per call


BLOCK = 256  # records per write after the first: 18-30 KiB at 70-120 bytes a record


class _Writer:
    """Writes records given as the JSON texts of their values, under keys
    given once when the writer is made: a JSON object per line, or TSV rows
    after a header of the keys, where a string value shows unquoted."""

    def __init__(self, args, keys: tuple):
        self.fmt = args.format
        self.path = args.output
        self.handle = open(self.path, "w") if self.path else sys.stdout
        self.block = []  # the lines made and not yet written
        if self.fmt == "json":
            self.row = "{" + ",".join(f"{_encode(key)}:%s" for key in keys) + "}\n"
            self.first = self.row
        else:
            self.row = "\t".join("%s" for _ in keys) + "\n"
            self.first = "\t".join(keys) + "\n" + self.row  # the header shares the first row

    def record(self, texts: tuple):
        # The first record is written and flushed alone, so a reader sees it
        # at once; the rest go out BLOCK lines per write call, since on
        # unbuffered stdout each call is one write(2) into the pipe.
        if self.fmt == "tsv":
            texts = tuple(json.loads(t) if t[0] == '"' else t for t in texts)
        if self.first:
            self.handle.write(self.first % texts)
            self.handle.flush()
            self.first = None
            return
        self.block.append(self.row % texts)
        if len(self.block) == BLOCK:
            self._write_block()

    def _write_block(self):
        if self.block:
            self.handle.write("".join(self.block))
            self.block = []

    def footer(self, count: int):
        # The last block carries the footer.
        if self.fmt == "tsv":
            self.block.append(f"# count={count}\n")
        else:
            self.block.append(json.dumps({"count": count}) + "\n")
        self._write_block()

    def close(self):
        self._write_block()
        if self.path:
            self.handle.close()


# -- enum -----------------------------------------------------------------------


# The M_mu and N_mu records are joins of texts that walk_m_mu has each
# encoded once: an entry's polynomial, or a sub-block's 1-based rows and
# entries.


def _enum_m_mu(K: Field, a):
    l = len(a.mu)
    mu, rows = _encode(list(a.mu)), range(0, l * l, l)
    walk = _load("hecke_index").walk_m_mu(K, a.mu, lambda f, r: _encode(format_poly(K, f)))
    for _, choices in walk:
        for flat in choices:
            yield mu, "[[" + "],[".join([",".join(flat[k : k + l]) for k in rows]) + "]]"


def _enum_n_mu(K: Field, a):
    index = _load("hecke_index")

    def block_texts(f, r) -> tuple:
        block = index.v_block(K, f, r)
        return (
            ",".join(str(x + 1) for x in block.perm),
            ",".join(_encode(element_to_obj(K, e)) for e in block.entries),
        )

    for columns, choices in index.walk_m_mu(K, a.mu, block_texts):
        for flat in choices:
            perms, entries = zip(*[flat[k] for k in columns])
            yield "[" + ",".join(perms) + "]", "[" + ",".join(entries) + "]"


def _enum_pairs(K: Field, a):
    rsk = _load("rsk")
    for pair in rsk.enumerate_pairs(K, a.mu):
        yield tuple(_encode(rsk.family_to_obj(K, family)) for family in pair)


ENUMS = {  # kind -> (flags it reads, keys of its records, driver streaming value texts)
    "n_mu": (("--k", "--mu"), ("perm", "entries"), _enum_n_mu),
    "m_mu": (("--k", "--mu"), ("mu", "entries"), _enum_m_mu),
    "irreducibles": (
        ("--k", "--max-deg"),
        ("poly",),
        lambda K, a: ((_encode(format_poly(K, f)),) for f in enumerate_irreducibles(K, a.max_deg)),
    ),
    "pairs": (("--k", "--mu"), ("P", "Q"), _enum_pairs),
}


def cmd_enum(args) -> int:
    _, keys, driver = ENUMS[args.kind]
    K = _field(args)
    writer = _Writer(args, keys)
    count = 0
    try:
        for texts in driver(K, args):
            writer.record(texts)
            count += 1
        writer.footer(count)
    finally:  # a stream cut short still writes the records it made
        writer.close()
    return 0


# -- map ------------------------------------------------------------------------


def _read_input(args):
    if args.input:
        with open(args.input) as handle:
            return json.load(handle)
    return json.load(sys.stdin)


def _a_to_v(K: Field, data, args) -> dict:
    index = _load("hecke_index")
    a = index.polymatrix_from_obj(K, data)
    return {"mu": list(a.mu), **index.monomial_to_obj(K, index.v_of_matrix(K, a))}


def _v_to_a(K: Field, data, args) -> dict:
    index = _load("hecke_index")
    v = index.monomial_from_obj(K, data)
    return index.polymatrix_to_obj(K, index.matrix_of_v(K, v, args.mu))


def _rsk_general(K: Field, data, args) -> dict:
    rsk = _load("rsk")
    pair = rsk.rsk_generalized(K, _load("hecke_index").polymatrix_from_obj(K, data))
    return {**rsk.pair_to_obj(K, pair), "weight": list(rsk.family_weight(pair[0]))}


MAPS = {  # direction -> (flags it reads, driver returning the record)
    "a_to_v": (("--k",), _a_to_v),
    "v_to_a": (("--k", "--mu"), _v_to_a),
    "rsk": ((), lambda K, data, a: _load("rsk").classical_record(data)),
    "rsk_general": (("--k",), _rsk_general),
}


def cmd_map(args) -> int:
    driver = MAPS[args.direction][1]
    K = _field(args)
    record = driver(K, _read_input(args), args)
    writer = _Writer(args, tuple(record))
    writer.record(tuple(map(_encode, record.values())))
    writer.close()
    return 0


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
    "bijection": (("--k", "--mu"), _check("hecke_index", "bijection_check", "mu")),
    "dim_identity": (("--k", "--mu"), _check("decomp", "dim_identity_check", "mu")),
    "rsk_bijectivity": (("--k", "--mu"), _check("rsk", "rsk_bijectivity_check", "mu")),
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
    "enum": ("stream canonical enumerations", "kind", ENUMS, ("--format",), cmd_enum),
    "map": ("apply a bijection or RSK", "direction", MAPS, ("--input", "--format"), cmd_map),
    "verify": ("run a verification driver", "check", CHECKS, (), cmd_verify),
}


# The layers each job's driver loads.  main imports those of the job named on
# the command line before it builds the parser: compiled after the parser,
# on top of its objects, they raised a child's peak RSS by about 0.2 MB.
LAYERS = {
    **dict.fromkeys(("n_mu", "m_mu", "a_to_v", "v_to_a", "bijection"), ("hecke_index",)),
    **dict.fromkeys(("pairs", "rsk", "rsk_general", "rsk_bijectivity"), ("rsk",)),
    **dict.fromkeys(("basis", "commutativity", "levi", "cosets"), ("oracle",)),
    "dim_identity": ("rsk", "decomp"),
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
    except (ValueError, KeyError, json.JSONDecodeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
