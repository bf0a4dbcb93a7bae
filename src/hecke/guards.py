"""Desk-scale guards: every guard limit, the price of each `verify` check,
and GuardExceeded and MembershipError, which the CLI maps to exits 3 and 4.

A check opens with its price, which reads only q and mu or n (or nu, add,
vars) and refuses before any table, U, G or enumeration is built.  It forms
each estimate once the one before has passed, never one past BITS bits (that
is inf), and imports m_mu_size only when it runs: only some commands load
hecke_index.  HECKE_GUARD_OVERRIDE=<int> raises every guard to at least that.
"""

import math
import os
from collections import Counter

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


def pieri_work(nu: tuple, n: int, m: int) -> float:
    """Estimated work of pieri_check: 2^(nu_1+n) Laplace minors times a bound
    on the e-monomials of degree d = |nu|+n with parts <= k = min(m, d): the
    smaller of C(d+k-1, k-1) and p(d) < exp(pi*sqrt(2d/3)) (Erdos).  Formed
    through logarithms, so that an absurd input costs nothing to refuse."""
    a = (nu[0] if nu else 0) + n
    d = sum(nu) + n
    k = min(m, max(d, 1))
    lg = math.lgamma
    bound = min(lg(d + k) - lg(d + 1) - lg(k), math.pi * math.sqrt(2 * d / 3))
    try:
        return round(2.0 ** (a + bound / math.log(2)))
    except OverflowError:
        return math.inf


# -- the price of each verify check; `verify cosets` is priced by u_order alone ----


def price_m_mu(q: int, mu: tuple):
    """|M_mu| l^2, the entries of the l-by-l grids of M_mu that `verify
    bijection`, `rsk_bijectivity` and `dim_identity` walk: first a lower
    bound formed without counting, l^2 times the prod_k m_k! degree matrices
    that permute the m_k parts equal to k in diag(mu), each with
    prod_i (q-1) q^(mu_i-1) fillings (|M_mu| l^2 when mu has one part or only
    parts 1), its bits from logarithms; then the row-by-row count."""
    mults, grid = Counter(mu).values(), len(mu) ** 2
    bits = sum(math.lgamma(m + 1) for m in mults) / math.log(2) + math.log2(grid)
    bits += len(mu) * math.log2(q - 1) + (sum(mu) - len(mu)) * math.log2(q)
    bound = math.inf
    if bits < BITS + 0.5:  # the half bit absorbs rounding; check_guard shows the rest
        fillings = math.prod((q - 1) * q ** (m - 1) for m in mu)
        bound = math.prod(map(math.factorial, mults)) * fillings * grid
    exact = len(mu) == 1 or max(mu) == 1
    what = "|M_mu| * l^2" if exact else "|M_mu| * l^2 >= l^2 prod_k m_k! prod_i (q-1) q^(mu_i-1)"
    check_guard(bound, WORK_GUARD, what)
    from hecke.hecke_index import m_mu_size

    check_guard(m_mu_size(q, mu) * grid, WORK_GUARD, "|M_mu| * l^2")


def price_labels(q: int, degree: int):
    """The trial divisions `verify rsk_bijectivity` and `dim_identity` make,
    once |M_mu| has passed, to list the labels and factor every entry, all of
    degree at most D = max(mu): each of the (q-1) q^(d-1) polynomials of
    degree 2 <= d <= D is tested as a label and factored as an entry, each
    pass trying at most ceil(q^e/e) monic irreducibles of each degree
    e <= d/2 (X among them)."""
    if (degree + degree // 2 + 1) * q.bit_length() > BITS:
        work = math.inf
    else:
        ceils = [-(-(q**e) // e) for e in range(1, degree // 2 + 1)]  # ceil(q^e/e)
        work = 2 * (q - 1) * sum(q ** (d - 1) * sum(ceils[: d // 2]) for d in range(2, degree + 1))
    check_guard(work, WORK_GUARD, "label trial divisions sum_d 2 (q-1) q^(d-1) sum_e ceil(q^e/e)")


def price_basis(q: int, n: int):
    """e_mu e_mu, then e_mu v e_mu for the |N| = n! (q-1)^n monomial v, |U|^2
    group products each.  |N| is formed once |U| has passed, so n <= 64."""
    size_u = u_order(q, n)
    products = (math.factorial(n) * (q - 1) ** n + 1) * size_u**2
    check_guard(products, WORK_GUARD, "group products (|N| + 1) * |U|^2")


def price_bruhat(q: int, mus):
    """The eliminations sum |N_mu|^2 |U| of the structure-constant tables
    over mus; each |U| is refused before the |N_mu| it bounds is counted."""
    from hecke.hecke_index import m_mu_size

    work = 0
    for mu in mus:
        size_u = u_order(q, sum(mu))
        work += m_mu_size(q, mu) ** 2 * size_u
    check_guard(work, WORK_GUARD, "Bruhat eliminations sum |N_mu|^2 * |U|")


def price_pieri(nu: tuple, n: int, m: int):
    check_guard(pieri_work(nu, n, m), PIERI_GUARD, "pieri work estimate (monomials)")
