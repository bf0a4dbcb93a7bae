"""The benchmark workloads: fixed lists of `hecke` CLI commands.

Each workload stresses one layer and leaves the others nearly idle, so that
an optimisation of one layer has a workload where it shows and workloads
where it must not move anything.  The seed changes only the coefficients of
the seeded map inputs of `combinatorics`; every grid is fixed.  The grids
end at the largest rung that keeps a whole run within the benchmark's time
budget.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable

import expect


@dataclass
class Command:
    args: tuple  # arguments after `hecke`
    check: Callable[[str], list]  # stdout -> problems; empty means correct
    stdin: str | None = None
    stdin_from: int | None = None  # index of the command whose stdout is piped in
    request: bool = False  # timed as a single request (request_p50_s)

    @property
    def kind(self) -> str:
        return self.args[0]

    def field(self):
        """(p, k) of the field the command builds, or None (verify pieri)."""
        if self.args[:2] == ("verify", "pieri"):
            return None
        opts = dict(zip(self.args[2::2], self.args[3::2]))
        return int(opts["--p"]), int(opts.get("--k", 1))


@dataclass
class Workload:
    name: str
    why: str
    passes: int  # passes over the commands in an untraced run, whatever the host speed
    commands: list = field(default_factory=list)

    def fields(self) -> list:
        return sorted({c.field() for c in self.commands if c.field()})


def _field_args(p: int, k: int) -> tuple:
    return ("--p", str(p)) + (("--k", str(k)) if k > 1 else ())


def _mu_arg(mu) -> str:
    return ",".join(map(str, mu))


def verify(check: str, p: int, k: int = 1, request: bool = False, **params) -> Command:
    args = ("verify", check) + _field_args(p, k)
    if "mu" in params:
        args += ("--mu", _mu_arg(params["mu"]))
    if "n" in params:
        args += ("--n", str(params["n"]))
    q = p**k
    return Command(
        args, lambda out: expect.check_verify(out, check, q, params), request=request
    )


def pieri(nu=None, add=None, variables=None) -> Command:
    args = ("verify", "pieri", "--p", "2")
    params = {}
    if nu is not None:
        args += ("--nu", _mu_arg(nu), "--add", str(add), "--vars", str(variables))
        params = {"nu": tuple(nu), "add": add}
    # A single case is a request; the default grid is a batch.
    return Command(
        args, lambda out: expect.check_verify(out, "pieri", 2, params), request=bool(params)
    )


def enum(kind: str, p: int, k: int = 1, mu=None, max_deg=None) -> Command:
    args = ("enum", kind) + _field_args(p, k)
    q = p**k
    if kind == "irreducibles":
        args += ("--max-deg", str(max_deg))
        count = expect.irreducible_count(q, max_deg)
    else:
        args += ("--mu", _mu_arg(mu))
        count = expect.m_mu_size(q, tuple(mu))  # |M_mu| = |N_mu| = |pairs|
    return Command(args, lambda out: expect.check_enum(out, count))


# -- seeded single requests --------------------------------------------------------


def random_unit_poly(rng: random.Random, p: int, degree: int) -> str:
    """A random monic polynomial over F_p of the given degree with nonzero
    constant term, in the CLI's canonical text format."""
    if degree == 0:
        return "1"
    coeffs = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(degree - 1)] + [1]
    return "+".join(str(c) if d == 0 else f"{c}*X^{d}" for d, c in enumerate(coeffs) if c)


def random_polymatrix(rng: random.Random, p: int, mu: tuple, degrees: tuple) -> dict:
    return {
        "mu": list(mu),
        "entries": [[random_unit_poly(rng, p, d) for d in row] for row in degrees],
    }


# a -> v -> a round trips over F_7, and generalized RSK over F_31.  The
# degree patterns are fixed and only the coefficients vary, so the cost of a
# pass does not depend on the seed.  A round trip is little more than the
# start-up of its two processes; an rsk_general request spends nearly as much
# again enumerating the irreducibles up to degree 2 that label its tableaux,
# so the rsk_general requests are the ones timed as requests.
ROUND_TRIPS = (
    (7, (2, 2), ((1, 1), (1, 1))),
    (7, (3, 1), ((2, 1), (1, 0))),
)
RSK_GENERAL = (
    (31, (3, 1), ((2, 1), (1, 0))),
    (31, (2, 2), ((2, 0), (0, 2))),
    (31, (3, 1), ((2, 1), (1, 0))),
    (31, (2, 2), ((2, 0), (0, 2))),
)


def round_trip(p: int, a: dict, index: int) -> list:
    """`map a_to_v` on a, then `map v_to_a` on its output; `index` is the
    position the first of the two commands will have in the list."""
    return [
        Command(
            ("map", "a_to_v", "--p", str(p)),
            lambda out: expect.check_a_to_v(out, a),
            stdin=_dumps(a),
        ),
        Command(
            ("map", "v_to_a", "--p", str(p), "--mu", _mu_arg(a["mu"])),
            lambda out: expect.check_v_to_a(out, a),
            stdin_from=index,
        ),
    ]


def rsk_general(p: int, a: dict) -> Command:
    return Command(
        ("map", "rsk_general", "--p", str(p)),
        lambda out: expect.check_rsk_general(out, a),
        stdin=_dumps(a),
        request=True,
    )


def seeded_maps(seed: int) -> list:
    rng = random.Random(seed)
    commands = []
    for p, mu, degrees in ROUND_TRIPS:
        commands += round_trip(p, random_polymatrix(rng, p, mu, degrees), len(commands))
    for p, mu, degrees in RSK_GENERAL:
        commands.append(rsk_general(p, random_polymatrix(rng, p, mu, degrees)))
    return commands


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":")) + "\n"


CLASSICAL_RSK_INPUT = [[1, 1, 0], [0, 0, 2], [0, 1, 0]]


# Two small streaming enums on the workloads without one of their own, so
# that first_record_s is the time to a first streamed record everywhere and
# does not repeat wall_s: a verify report is printed whole when its check ends.
def first_record_probes() -> list:
    return [enum("m_mu", 2, mu=(2, 1)), enum("n_mu", 2, mu=(2, 1))]


def build(name: str, seed: int) -> Workload:
    if name == "combinatorics":
        return Workload(
            name,
            "exhaustive bijection, RSK and counting checks at n=4-7, q in {2,3,4,5}, and seeded "
            "map requests over F_7 and F_31: hecke_index and rsk dominate, no oracle or Schur calls",
            4,
            seeded_maps(seed)
            + [
                Command(
                    ("map", "rsk", "--p", "2"),
                    lambda out: expect.check_rsk(out, CLASSICAL_RSK_INPUT),
                    stdin=_dumps({"b": CLASSICAL_RSK_INPUT}),
                ),
                verify("bijection", 3, mu=(3, 3)),
                verify("bijection", 3, mu=(3, 2, 1)),
                verify("bijection", 5, mu=(2, 2)),
                verify("bijection", 2, mu=(3, 2, 2)),
                verify("rsk_bijectivity", 3, mu=(2, 2, 1)),
                verify("rsk_bijectivity", 5, mu=(2, 2)),
                verify("dim_identity", 2, 2, mu=(2, 2, 1)),
                enum("m_mu", 5, mu=(3, 3)),
                # Over F_4 rather than F_5: n_mu builds its whole list before
                # its first line, and at F_5 that is 1.5 s of computation,
                # too long for the reference scaling to follow the host.
                enum("n_mu", 2, 2, mu=(3, 3)),
                enum("pairs", 3, mu=(3, 3)),
            ],
        )
    if name == "oracle":
        return Workload(
            name,
            "group-algebra verify checks: AlgebraElement products, mat_mul and Cyclotomic "
            "arithmetic dominate; where Bruhat-based multiplication shows",
            4,
            [
                # The requests are the three small checks of near-equal cost,
                # so that their pooled median does not jump between commands.
                verify("basis", 2, mu=(2, 1), request=True),
                verify("basis", 3, mu=(2, 1)),
                verify("basis", 2, mu=(1, 1, 1), request=True),
                verify("basis", 5, mu=(1, 1)),
                verify("levi", 2, mu=(2, 1)),
                verify("levi", 3, mu=(1, 1)),
                verify("commutativity", 2, n=3),
                verify("commutativity", 3, n=2),
                verify("cosets", 2, n=3, request=True),
                verify("cosets", 3, n=3),
            ]
            + first_record_probes(),
        )
    if name == "schur":
        return Workload(
            name,
            "Pieri checks: schur_jacobi_trudi/mp_mul and enumerate_cst, only F_2 built; "
            "a Schur cache shows here, gf/hecke_index/oracle changes must leave it flat",
            3,
            [
                pieri(),
                pieri((3, 3), 3, 5),
                pieri((3, 1), 3, 5),
                pieri((4, 2), 2, 5),
            ]
            + first_record_probes(),
        )
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("combinatorics", "oracle", "schur")
