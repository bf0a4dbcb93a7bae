"""Desk-scale guards: every guard limit, check_guard, which refuses a size
over its limit, and GuardExceeded and MembershipError, which the CLI maps to
exits 3 and 4.  The price of each `verify` check is in hecke.prices, which
only `verify` loads.  HECKE_GUARD_OVERRIDE=<int> raises every guard to at
least that.
"""

import math
import os

WORK_GUARD = 1_000_000  # |M_mu| grid entries, label work, group products, Bruhat eliminations
U_GUARD = 4096  # |U|, before U is built
G_GUARD = 200_000  # |GL_n(F_q)|, before G is streamed
PIERI_GUARD = 500_000  # pieri_work, in monomials
FIELD_GUARD = 1024  # largest q a Field builds tables for
DEGREE_GUARD = 100_000  # largest degree parse_poly accepts
TWO_LINE_GUARD = 10_000  # sum b_ij: classical_record's insertions cost its square
BITS = 4096  # past this many bits an estimate is inf: str() of it is slow or refused


class GuardExceeded(RuntimeError):
    pass


class MembershipError(ValueError):
    """Input outside M_mu or N_mu."""


def check_guard(value: int, default_limit: int, what: str):
    override = os.environ.get("HECKE_GUARD_OVERRIDE") or 0
    try:
        limit = max(default_limit, int(override))
    except ValueError:
        raise ValueError(f"HECKE_GUARD_OVERRIDE = {override!r} is not an integer") from None
    if value > limit:
        shown = math.inf if value >= 1 << BITS else value
        raise GuardExceeded(f"{what} = {shown} exceeds the guard ({limit})")


def u_order(q: int, n: int) -> int:
    """|U| = q^(n(n-1)/2), refused over U_GUARD before U is built."""
    e = n * (n - 1) // 2
    size = q**e if e * q.bit_length() <= BITS else math.inf
    check_guard(size, U_GUARD, "|U|")
    return size


def gl_order(q: int, n: int) -> int:
    return math.prod(q**n - q**i for i in range(n))
