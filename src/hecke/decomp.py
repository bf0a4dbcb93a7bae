"""Multiplicity combinatorics for the unipotent Hecke algebras.

The irreducible-module index sets are label-indexed partition families
("label shapes"); their filling counts give module dimensions, the sum of
squared counts recovers the basis size, and Levi weight-space dimensions
come from per-label Kostka products.

Symmetric-function cross-checks expand Schur polynomials by the dual
Jacobi-Trudi determinant over e_1..e_m, row by row (Laplace), memoised over
the set of used columns, with e-monomials packed into single ints; each s_nu
is made once per (nu, m, packing width) and kept as an immutable tuple.
Pieri checks compare both sides in this e-basis, which is exact: e_1..e_m
are algebraically independent.  schur_jacobi_trudi substitutes x-monomials
for each e_r; the tableau generating function in the tests is its witness.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from hecke.gf import Field, format_poly, poly_deg
from hecke.prices import price_labels, price_m_mu, price_pieri
from hecke.shapes import check_partition, conjugate, horizontal_strips, kostka, partitions_of


def shape_height(shape) -> int:
    """Largest number of rows over the labels of a label shape."""
    return max((len(lam) for _, lam in shape), default=0)


def shape_size(shape) -> int:
    return sum(poly_deg(g) * sum(lam) for g, lam in shape)


def shape_to_obj(K: Field, shape) -> dict:
    return {format_poly(K, g): list(lam) for g, lam in shape}


def h_hat(K: Field, mu: tuple) -> tuple:
    """All label shapes of size |mu| admitting a filling of degree-weighted
    weight mu, each with its filling count (the module dimension)."""
    from hecke.rsk import enumerate_phi_fillings, enumerate_phi_shapes
    mu = tuple(mu)
    out = []
    for shape in enumerate_phi_shapes(K, mu):
        count = len(enumerate_phi_fillings(shape, mu))
        if count:
            out.append((shape, count))
    return tuple(out)


def dim_identity_check(K: Field, mu: tuple) -> dict:
    """|N_mu| four ways: the monomial matrices passing the pattern test
    (enumerate_pattern_n_mu), the elements of M_mu streamed, the closed form
    m_mu_size, and the sum of squared filling counts; priced as rsk_bijectivity."""
    price_m_mu(K.q, mu)
    price_labels(K.q, max(mu))
    from hecke.bijection import enumerate_pattern_n_mu
    from hecke.hecke_index import enumerate_m_mu, m_mu_size
    mu = tuple(mu)
    n_mu_count = sum(1 for _ in enumerate_pattern_n_mu(K, mu))
    m_mu_count = sum(1 for _ in enumerate_m_mu(K, mu))
    closed_form = m_mu_size(K.q, mu)
    table = h_hat(K, mu)
    sum_of_squares = sum(count**2 for _, count in table)
    return {
        "check": "dim_identity",
        "mu": list(mu),
        "q": K.q,
        "n_mu_count": n_mu_count,
        "m_mu_count": m_mu_count,
        "m_mu_closed_form": closed_form,
        "sum_of_squares": sum_of_squares,
        "shapes": [
            {"shape": shape_to_obj(K, shape), "count": count} for shape, count in table
        ],
        "pass": n_mu_count == m_mu_count == closed_form == sum_of_squares,
    }


# -- Levi weight spaces -------------------------------------------------------------


def enumerate_levi_weights(K: Field, mu: tuple) -> list:
    """All tuples (gamma_1, ..., gamma_l) of height-one label shapes with
    |gamma_i| = mu_i."""
    factor_sets = []
    for m in mu:
        shapes = [shape for shape, _ in h_hat(K, (m,))]
        assert all(shape_height(s) == 1 for s in shapes)
        factor_sets.append(shapes)
    return list(itertools.product(*factor_sets))


def weight_space_dims(K: Field, lam, mu: tuple) -> tuple:
    """For each Levi weight gamma, the number of family fillings of lam whose
    per-label weight is (|gamma_1 at the label|, ..., |gamma_l at the label|).
    Only nonzero dimensions are listed; they sum to the filling count of lam."""
    mu = tuple(mu)
    if shape_size(lam) != sum(mu):
        raise ValueError("label shape size does not match |mu|")
    lam_parts = dict(lam)
    out = []
    for gamma in enumerate_levi_weights(K, mu):
        per_label: dict = {}
        for i, gamma_i in enumerate(gamma):
            for g, row in gamma_i:
                per_label.setdefault(g, [0] * len(mu))[i] = row[0]
        if set(per_label) - set(lam_parts):
            continue
        dim = 1
        for g, shape in lam_parts.items():
            w = tuple(per_label.get(g, [0] * len(mu)))
            if sum(w) != sum(shape):
                dim = 0
                break
            dim *= kostka(shape, w)
        if dim:
            out.append((gamma, dim))
    return tuple(out)


# -- symmetric-function cross-checks ---------------------------------------------
#
# Inside this section a polynomial maps packed exponents to integer
# coefficients.  An exponent vector is packed into one int (Kronecker
# substitution): variable i holds bits [i*width, (i+1)*width), so a monomial
# product is one integer add.  Schur polynomials live in the e-basis, variable
# r-1 being e_r; only schur_jacobi_trudi expands them into x_1..x_m.  A check
# of total degree d packs both at width = bit length of d: a minor on t rows
# of the determinant below is a sum of products of t elementary functions, so
# its e_r exponents are at most t <= d, and its x exponents after substitution
# are at most the number of factors, again <= d.  Hence no add carries from
# one variable into the next.  Public functions speak dicts keyed by exponent
# tuples.

def _width(degree: int) -> int:
    """Bits per variable that hold every exponent up to `degree`."""
    return max(degree, 1).bit_length()


def _unpack(key: int, m: int, width: int) -> tuple:
    mask = (1 << width) - 1
    return tuple(key >> (width * i) & mask for i in range(m))


def _addmul(out: dict, f, g, sign: int = 1) -> dict:
    """out += sign * f * g, with f and g given as (packed exponent, coefficient)
    pairs; zero coefficients may remain in out."""
    for e1, c1 in f:
        c1 *= sign
        for e2, c2 in g:
            e = e1 + e2
            out[e] = out.get(e, 0) + c1 * c2
    return out


def _nonzero(f: dict) -> dict:
    return {e: c for e, c in f.items() if c}


_ONE = ((0, 1),)


def _elementary(r: int, m: int, width: int) -> tuple:
    """e_r in m variables, packed in the x-basis."""
    return tuple(
        (sum(1 << (width * i) for i in subset), 1)
        for subset in itertools.combinations(range(m), r)
    )


@lru_cache(maxsize=None)
def _schur_packed(nu: tuple, m: int, width: int) -> tuple:
    """s_nu in m variables as det(e_(nu'_i - i + j)) in the e-basis, packed
    at `width`: e_0 = 1, e_r is one monomial for 1 <= r <= m, 0 beyond.

    The determinant is expanded row by row (Laplace).  After row i, each
    minor on the first i+1 rows is kept once per set of columns it uses (a
    bitmask), so the expansion makes at most nu_1 * 2^(nu_1 - 1) products."""
    nuc = conjugate(nu)
    e = [_ONE] + [((1 << width * r, 1),) for r in range(min(m, sum(nu)))]  # no index exceeds |nu|
    minors = {0: {0: 1}}
    for i, part in enumerate(nuc):
        grown: dict = {}
        for used, minor in minors.items():
            for j in range(max(0, i - part), min(len(nuc), m + i - part + 1)):
                if not used >> j & 1:
                    sign = -1 if (used >> j).bit_count() & 1 else 1
                    target = grown.setdefault(used | 1 << j, {})
                    _addmul(target, minor.items(), e[part - i + j], sign)
        minors = {used: f for used, g in grown.items() if (f := _nonzero(g))}
    return tuple(minors.get((1 << len(nuc)) - 1, {}).items())


def schur_jacobi_trudi(nu: tuple, m: int) -> dict:
    """The Schur polynomial in m variables: _schur_packed with each e_r
    expanded into its C(m, r) x-monomials, over the integers.  Returns a
    fresh dict on every call."""
    nu = tuple(nu)
    check_partition(nu)
    if m < len(nu):
        raise ValueError("need at least as many variables as rows")
    width = _width(sum(nu))
    e = [_elementary(r, m, width) for r in range(1, m + 1)]
    out: dict = {}
    for key, c in _schur_packed(nu, m, width):
        term = ((0, c),)
        for r, power in enumerate(_unpack(key, m, width)):
            for _ in range(power):
                term = _addmul({}, term, e[r]).items()
        _addmul(out, term, _ONE)
    return {_unpack(key, m, width): c for key, c in out.items() if c}


def check_pieri_input(nu: tuple, n: int, m: int):
    """Refuse a Pieri case before any work: ValueError for malformed input,
    then its price, prices.price_pieri."""
    check_partition(nu)
    if n < 0:
        raise ValueError(f"the added row must have nonnegative length, not {n}")
    if m < len(nu) + 1:
        raise ValueError("need at least len(nu)+1 variables")
    price_pieri(nu, n, m)


def pieri_report(nu, add, m: int) -> dict:
    """The `verify pieri` report: the case s_nu * s_(add) (add defaults to 1)
    when nu is given, else the default grid (|nu| <= 4, add = 1..3), every
    case of which is checked for input and guard before any is run."""
    if nu is not None:
        return pieri_check(nu, 1 if add is None else add, m)
    if add is not None:
        raise ValueError("--add needs --nu: the default grid sets its own row sizes")
    cases = [(nu, n) for size in range(5) for nu in partitions_of(size) for n in range(1, 4)]
    for nu, n in cases:
        check_pieri_input(nu, n, m)
    subreports = []
    ok = True
    for nu, n in cases:
        rep = pieri_check(nu, n, m)
        ok = ok and rep["pass"]
        subreports.append({"nu": list(nu), "n": n, "pass": rep["pass"]})
    return {"check": "pieri", "variables": m, "cases": subreports, "pass": ok}


def pieri_check(nu: tuple, n: int, m: int) -> dict:
    """s_nu * s_(n) against the sum of s_gamma over the shapes gamma for which
    gamma/nu is a horizontal n-strip, listed as partitions_of lists them; both
    sides are compared as packed polynomials in e_1..e_m."""
    check_pieri_input(nu, n, m)
    nu = tuple(nu)
    width = _width(sum(nu) + n)
    lhs = _addmul({}, _schur_packed(nu, m, width), _schur_packed((n,) if n else (), m, width))
    rhs: dict = {}
    gammas = list(horizontal_strips(nu, n))[::-1]
    for gamma in gammas:
        _addmul(rhs, _schur_packed(gamma, m, width), _ONE)
    return {
        "check": "pieri",
        "nu": list(nu),
        "n": n,
        "variables": m,
        "expansion": [list(g) for g in gammas],
        "pass": _nonzero(lhs) == _nonzero(rhs),
    }
