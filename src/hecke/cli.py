"""Command-line surface: enumeration, bijection maps, RSK, and verification.

Every command is deterministic; identical inputs give byte-identical output.
`verify` writes its elapsed seconds to stderr, never into the report.
Exit codes: 0 success / verified, 1 mathematical counterexample, 2 argument
or parse failure, 3 guard exceeded, 4 input outside M_mu or N_mu.
Diagnostics go to stderr; results go to stdout or --output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from hecke import decomp, oracle, rsk
from hecke.gf import Field, enumerate_irreducibles, format_poly
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
    except ValueError as err:
        raise ValueError(f"cannot parse composition {text!r}") from err
    if not mu or any(m < 1 for m in mu):
        raise ValueError(f"composition parts must be positive: {text!r}")
    return mu


def _field(args) -> Field:
    return Field(args.p, args.k)


class _Writer:
    def __init__(self, args):
        self.fmt = getattr(args, "format", "json")
        self.path = getattr(args, "output", None)
        self.handle = open(self.path, "w") if self.path else sys.stdout
        self.header_done = False

    def record(self, obj: dict):
        if self.fmt == "tsv":
            if not self.header_done:
                print("\t".join(obj), file=self.handle)
                self.header_done = True
            print(
                "\t".join(
                    v if isinstance(v, str) else json.dumps(v, separators=(",", ":"))
                    for v in obj.values()
                ),
                file=self.handle,
            )
        else:
            print(json.dumps(obj, separators=(",", ":")), file=self.handle)

    def footer(self, count: int):
        if self.fmt == "tsv":
            print(f"# count={count}", file=self.handle)
        else:
            print(json.dumps({"count": count}), file=self.handle)

    def close(self):
        if self.path:
            self.handle.close()


# -- enum -----------------------------------------------------------------------


def cmd_enum(args) -> int:
    K = _field(args)
    writer = _Writer(args)
    count = 0
    if args.kind == "irreducibles":
        for f in enumerate_irreducibles(K, args.max_deg):
            writer.record({"poly": format_poly(K, f)})
            count += 1
    elif args.kind == "m_mu":
        for a in enumerate_m_mu(K, _parse_mu(args.mu)):
            writer.record(polymatrix_to_obj(K, a))
            count += 1
    elif args.kind == "n_mu":
        for v in enumerate_n_mu(K, _parse_mu(args.mu)):
            writer.record(monomial_to_obj(K, v))
            count += 1
    elif args.kind == "pairs":
        for pair in rsk.enumerate_pairs(K, _parse_mu(args.mu)):
            writer.record(rsk.pair_to_obj(K, pair))
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


def cmd_map(args) -> int:
    K = _field(args)
    data = _read_input(args)
    writer = _Writer(args)
    if args.direction == "a_to_v":
        a = polymatrix_from_obj(K, data)
        v = v_of_matrix(K, a)
        writer.record({"mu": list(a.mu), **monomial_to_obj(K, v)})
    elif args.direction == "v_to_a":
        mu = _parse_mu(args.mu)
        v = monomial_from_obj(K, data)
        writer.record(polymatrix_to_obj(K, matrix_of_v(K, v, mu)))
    elif args.direction == "rsk":
        b = data["b"] if isinstance(data, dict) else data
        if not b or any(len(row) != len(b[0]) for row in b):
            raise ValueError("b must be a rectangular matrix")
        if any(not isinstance(x, int) or x < 0 for row in b for x in row):
            raise ValueError("b must have nonnegative integer entries")
        array = rsk.two_line_array(b)
        P, Q = rsk.rsk_classical(b)
        writer.record(
            {
                "two_line": [[i for i, _ in array], [j for _, j in array]],
                "P": [list(row) for row in P],
                "Q": [list(row) for row in Q],
            }
        )
    elif args.direction == "rsk_general":
        a = polymatrix_from_obj(K, data)
        pair = rsk.rsk_generalized(K, a)
        obj = rsk.pair_to_obj(K, pair)
        obj["weight"] = list(rsk.family_weight(pair[0]))
        writer.record(obj)
    writer.close()
    return 0


# -- verify ---------------------------------------------------------------------


def cmd_verify(args) -> int:
    start = time.perf_counter()
    if args.check == "pieri":
        report = _verify_pieri(args)
    else:
        K = _field(args)
        if args.check == "bijection":
            report = bijection_check(K, _parse_mu(args.mu))
        elif args.check == "dim_identity":
            report = decomp.dim_identity_check(K, _parse_mu(args.mu))
        elif args.check == "rsk_bijectivity":
            report = rsk.rsk_bijectivity_check(K, _parse_mu(args.mu))
        elif args.check == "basis":
            report = oracle.basis_check(K, _parse_mu(args.mu))
        elif args.check == "commutativity":
            report = oracle.commutativity_check(K, args.n)
        elif args.check == "levi":
            report = oracle.levi_embedding_check(K, _parse_mu(args.mu))
        elif args.check == "cosets":
            report = oracle.coset_check(K, args.n)
    handle = open(args.output, "w") if args.output else sys.stdout
    print(json.dumps(report, indent=2, default=str), file=handle)
    if args.output:
        handle.close()
    print(f"elapsed: {time.perf_counter() - start:.3f} s", file=sys.stderr)
    return 0 if report["pass"] else 1


def _verify_pieri(args) -> dict:
    if args.nu is not None:
        nu = tuple(int(x) for x in args.nu.split(",")) if args.nu else ()
        return decomp.pieri_check(nu, args.add, args.vars)
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


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hecke",
        description="Unipotent Hecke algebra combinatorics for GL_n(F_q).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, mu=False, n=False):
        p.add_argument("--p", type=int, required=True, help="field characteristic")
        p.add_argument("--k", type=int, default=1, help="extension degree (q = p^k)")
        if mu:
            p.add_argument("--mu", help="composition, comma-separated parts")
        if n:
            p.add_argument("--n", type=int, help="matrix rank")
        p.add_argument("--format", choices=("json", "tsv"), default="json")
        p.add_argument("--output", help="write results to a file instead of stdout")
        p.add_argument("--seed", type=int, default=0, help="reserved; unused by core math")

    enum = sub.add_parser("enum", help="stream canonical enumerations")
    enum.add_argument("kind", choices=("n_mu", "m_mu", "irreducibles", "pairs"))
    add_common(enum, mu=True)
    enum.add_argument("--max-deg", type=int, dest="max_deg", help="for irreducibles")
    enum.set_defaults(func=cmd_enum)

    mp = sub.add_parser("map", help="apply the bijections and RSK to one input")
    mp.add_argument("direction", choices=("a_to_v", "v_to_a", "rsk", "rsk_general"))
    add_common(mp, mu=True)
    mp.add_argument("--input", help="JSON input file (stdin when omitted)")
    mp.set_defaults(func=cmd_map)

    ver = sub.add_parser("verify", help="run a verification driver")
    ver.add_argument(
        "check",
        choices=(
            "bijection",
            "dim_identity",
            "rsk_bijectivity",
            "basis",
            "commutativity",
            "levi",
            "cosets",
            "pieri",
        ),
    )
    add_common(ver, mu=True, n=True)
    ver.add_argument("--nu", help="partition for pieri, comma-separated (may be empty)")
    ver.add_argument("--add", type=int, default=1, help="row size n in s_nu * s_(n)")
    ver.add_argument("--vars", type=int, default=5, help="variable count for pieri")
    ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        required_mu = (
            args.command == "enum"
            and args.kind in ("n_mu", "m_mu", "pairs")
            or args.command == "map"
            and args.direction == "v_to_a"
            or args.command == "verify"
            and args.check in ("bijection", "dim_identity", "rsk_bijectivity", "basis", "levi")
        )
        if required_mu and not getattr(args, "mu", None):
            raise ValueError("--mu is required for this command")
        if args.command == "enum" and args.kind == "irreducibles" and not args.max_deg:
            raise ValueError("--max-deg is required for enum irreducibles")
        if args.command == "verify" and args.check in ("commutativity", "cosets") and not args.n:
            raise ValueError("--n is required for this check")
        return args.func(args)
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
