"""The price of each `verify` check: an estimate of the work it would do,
refused over its guard (hecke.guards) before any table, U, G or enumeration
is built.  `verify cosets` is priced by guards.u_order alone.

A price reads only q and mu or n (or nu, add, vars).  It forms each estimate
once the one before has passed, never one past guards.BITS bits (that is
inf), and imports m_mu_size only when it runs: not every check loads
hecke_index.
"""

import math
from collections import Counter

from hecke.guards import BITS, PIERI_GUARD, WORK_GUARD, check_guard, u_order


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
