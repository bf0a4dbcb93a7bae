"""The exhaustive witnesses of the paper's two bijections, which only
`verify` runs.

`bijection_check` walks M_mu through a -> v_a (hecke_index) and compares
the image with the monomial matrices that pass the pattern test, listed by
`enumerate_pattern_n_mu`; where |U| <= 27 it also compares the pattern test
with the literal definition, hecke_index.is_in_n_mu_direct, which reads the
matrices over F_q through the helpers at the end of this module.
`rsk_bijectivity_check` walks M_mu through the generalized RSK (rsk) and
compares the image with the enumerated pairs of label families.

Each check opens with its price from hecke.prices.  The two checks call
hecke_index and rsk through their modules, so that a tracer
(perfbench/tracer.py) or a test that rebinds a function there sees the call.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Iterator

from hecke import hecke_index
from hecke.gf import Field
from hecke.hecke_index import _block_ends, _column_rule
from hecke.matrices import MonomialMatrix
from hecke.prices import price_labels, price_m_mu


def enumerate_pattern_n_mu(K: Field, mu: tuple) -> Iterator[MonomialMatrix]:
    """Stream the monomial matrices that pass the pattern test, in the order
    of enumerate_n: units are chosen freely on the columns not tied to the
    one before and copied along the ties.

    Only the permutations that pass are reached, by a depth-first walk in
    lexicographic order that cuts a prefix as soon as a column fails (Knuth,
    TAOCP 4A, 7.2.1.2, Algorithm X): column c is decided by _column_rule
    when perm[c+1] is placed, or at once when c is in E.  The walk yields
    each passing permutation once, with its ties; its (q-1)^(n-ties) entry
    tuples are then read off the free units through one column-to-unit map.
    The work is |N_mu| = |M_mu| plus the prefixes cut, never n!."""
    n, ends = sum(mu), _block_ends(mu)
    perm = [0] * n

    def extend(k: int, placed: int, copies: tuple):
        if k == n:
            yield tuple(perm), copies
            return
        for x in range(n):
            if placed >> x & 1:
                continue
            now, tied = placed | 1 << x, copies
            if k and not ends >> (k - 1) & 1:  # column k-1 waited for perm[k]
                tie = _column_rule(ends, k - 1, perm[k - 1], x, placed)
                if tie is None:
                    continue
                if tie:
                    tied = copies + (k,)
            if ends >> k & 1 and _column_rule(ends, k, x, None, now) is None:
                continue
            perm[k] = x
            yield from extend(k + 1, now, tied)

    for done, copies in extend(0, 0, ()):
        # Column c takes the free unit of the last untied column up to c (column
        # 0 is never tied).  With a tie n >= 2, so itemgetter returns a tuple.
        unit_of = itertools.accumulate((c not in copies for c in range(1, n)), initial=0)
        pick = itemgetter(*unit_of) if copies else tuple
        for units in itertools.product(K.units(), repeat=n - len(copies)):
            yield MonomialMatrix(done, pick(units))


def bijection_check(K: Field, mu: tuple) -> dict:
    """Exhaustive verification that a -> v_a maps M_mu bijectively onto the
    monomial matrices passing the pattern test, with exact roundtrips.  The
    image is compared with enumerate_pattern_n_mu, which never calls
    v_of_matrix, so it is an independent witness for surjectivity.  Each
    side has |M_mu| elements, which prices.price_m_mu prices before anything
    is enumerated.  Where |U| <= 27 the fast test is also compared with the
    literal definition over all of U, on every monomial matrix."""
    price_m_mu(K.q, mu)
    mu = tuple(mu)
    n = sum(mu)
    image, count = set(), 0
    roundtrip_ok = membership_ok = True
    for a in hecke_index.enumerate_m_mu(K, mu):
        v = hecke_index.v_of_matrix(K, a)
        membership_ok = membership_ok and hecke_index.is_in_n_mu_fast(v, mu)
        # v = v_of_matrix(a), so _decode(v) == a is also matrix_of_v's gate.
        roundtrip_ok = roundtrip_ok and hecke_index._decode(v, mu) == a
        image.add(v)
        count += 1
    injective = len(image) == count
    filtered = set(enumerate_pattern_n_mu(K, mu))
    surjective = image == filtered
    direct_checked = K.q ** (n * (n - 1) // 2) <= 3**3
    direct_ok = True
    if direct_checked:
        for v in hecke_index.enumerate_n(K, n):
            if hecke_index.is_in_n_mu_fast(v, mu) != hecke_index.is_in_n_mu_direct(K, v, mu):
                direct_ok = False
                break
    return {
        "check": "bijection",
        "q": K.q,
        "mu": list(mu),
        "m_mu_count": count,
        "n_mu_count": len(filtered),
        "membership_ok": membership_ok,
        "roundtrip_ok": roundtrip_ok,
        "injective": injective,
        "image_equals_filter": surjective,
        "direct_test_checked": direct_checked,
        "direct_test_ok": direct_ok,
        "pass": membership_ok and roundtrip_ok and injective and surjective and direct_ok,
    }


def rsk_bijectivity_check(K: Field, mu: tuple) -> dict:
    """The generalized correspondence is injective on M_mu and fills out the
    enumerated codomain exactly; weights come out degree-weighted to mu."""
    from hecke import rsk

    price_m_mu(K.q, mu)
    price_labels(K.q, max(mu))
    mu = tuple(mu)
    image, codomain = set(), set()
    m_mu_count = pairs_count = 0
    weights_ok = shapes_ok = True
    for a in hecke_index.enumerate_m_mu(K, mu):
        labels = rsk.phi_factor_matrix(K, a)
        same, wt_p, wt_q = rsk._label_weights(labels, len(mu))
        shapes_ok = shapes_ok and same
        weights_ok = weights_ok and wt_p == mu == wt_q
        image.add(rsk._families(labels))
        m_mu_count += 1
    injective = len(image) == m_mu_count
    for pair in rsk.enumerate_pairs(K, mu):
        codomain.add(pair)
        pairs_count += 1
    onto = image == codomain
    return {
        "check": "rsk_bijectivity",
        "q": K.q,
        "mu": list(mu),
        "m_mu_count": m_mu_count,
        "pairs_count": pairs_count,
        "shapes_match": shapes_ok,
        "weights_match": weights_ok,
        "injective": injective,
        "image_equals_codomain": onto,
        "pass": shapes_ok and weights_ok and injective and onto,
    }


# -- the literal membership test's matrices over F_q ------------------------------


def mat_inv(K: Field, A: tuple) -> tuple:
    n = len(A)
    work = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(A)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        inv = K.inv(work[col][col])
        work[col] = [K.mul(inv, x) for x in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                c = work[r][col]
                work[r] = [K.sub(x, K.mul(c, y)) for x, y in zip(work[r], work[col])]
    return tuple(tuple(row[n:]) for row in work)


def is_unipotent_upper(A: tuple) -> bool:
    n = len(A)
    return all(A[i][i] == 1 for i in range(n)) and all(
        A[i][j] == 0 for i in range(n) for j in range(i)
    )


def monomial_to_matrix(K: Field, v: MonomialMatrix) -> tuple:
    n = v.n
    rows = [[0] * n for _ in range(n)]
    for c in range(n):
        rows[v.perm[c]][c] = v.entries[c]
    return tuple(tuple(r) for r in rows)


def psi_mu_eval(K: Field, u: tuple, mu: tuple):
    """psi_mu(u), an oracle.Cyclotomic: the product of psi over the
    superdiagonal entries at rows not in the boundary set of mu."""
    from hecke.oracle import Cyclotomic, _psi_columns, _psi_exponent

    if not is_unipotent_upper(u):
        raise ValueError("psi_mu is only defined on unipotent upper-triangular matrices")
    return Cyclotomic.root_power(K.p, _psi_exponent(K, u, _psi_columns(mu)))
