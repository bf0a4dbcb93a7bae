"""Exact verification in the group algebra of GL_n(F_q).

Coefficients live in Q(zeta_p) as integers: p counts, one per p-th root of
unity, over one positive denominator (|U| for e_mu).  A `Cyclotomic` keeps
them in lowest terms on the power basis 1, zeta, ..., zeta^(p-2), so every
check is an exact equality.  Group elements are tuples of row tuples.

`_u_psi` builds U, each u with its psi_mu exponent, once per (K, n, mu) for
`e_mu`, `t_v` and `structure_constants`.  `AlgebraElement.__mul__` is the
brute-force convolution, one `mat_mul` per pair of terms, which the tests
run as the witness for `t_v`; `basis_check` reads e_mu^2 from `t_v` as
T_1 = e_mu 1 e_mu.  `t_v` and `double_coset_reps` form the products
u v u' on integer codes, and `enumerate_gl` streams G as codes:
vector c of F_q^n is the c-th in itertools.product order, a matrix with
row codes r_i is sum r_i (q^n)^(n-1-i), `_u_orbit` builds U v u' row by
row, and `hecke.gf._vector_codes` adds and scales codes by tables of
q^(2n) + q^(n+1) entries (K's own at n = 1; at n >= 2 at most 4 |G| and
twice the priced `verify basis` work).
`structure_constants` forms no group-algebra element: e_mu x =
x e_mu = psi(x) e_mu for x in U, so from the Bruhat decomposition
u y v = x_y w_y z_y (Gaussian elimination, O(n^3)),
T_u T_v = |U|^-1 sum_{y in U} psi(y)^-1 psi(x_y) psi(z_y) T_{w_y}, where
T_w = 0 for w outside N_mu and psi(y)^-1 = zeta^-e for the exponent e of
y in `_u_psi`; the commutativity and Levi checks read its tables.  The
tests compare these paths with the convolution wherever it reaches.

Each check opens with its price from hecke.prices, before e_mu, U, G or a
code table is built; `_u_psi` and `enumerate_gl` also refuse |U| and
|GL_n(F_q)| over their guards there.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import lru_cache
from typing import Iterator, NamedTuple

from hecke.gf import Field, _vector_codes, enumerate_monic_units
from hecke.guards import G_GUARD, check_guard, gl_order, u_order
from hecke.hecke_index import (
    enumerate_m_mu,
    enumerate_n,
    is_in_n_mu_fast,
    m_mu_size,
    monomial_identity,
    monomial_to_obj,
    v_of_matrix,
)
from hecke.matrices import MonomialMatrix, PolyMatrix
from hecke.prices import price_basis, price_bruhat


# -- exact cyclotomic rationals ------------------------------------------------


class Cyclotomic:
    """An element of Q(zeta_p) as sum(nums[i] * zeta^i, i < p-1) / den.

    Built from p integer counts, one per p-th root of unity, over a positive
    denominator.  Since 1 + zeta + ... + zeta^(p-1) = 0, subtracting the
    last count from every count leaves the power basis; dividing the
    numerators and den by their gcd makes the form canonical, so equality
    and hashing are structural.  p = 2 is plain rationals.
    """

    __slots__ = ("p", "nums", "den")

    def __init__(self, p: int, counts, den: int = 1):
        if len(counts) != p or den < 1:
            raise ValueError(f"need {p} counts and a positive denominator for p = {p}")
        last = counts[-1]
        nums = [c - last for c in counts[:-1]]
        g = math.gcd(den, *nums)
        self.p = p
        self.nums = tuple(c // g for c in nums)
        self.den = den // g

    @classmethod
    def root_power(cls, p: int, e: int, den: int = 1) -> "Cyclotomic":
        """zeta_p ** e / den."""
        counts = [0] * p
        counts[e % p] = 1
        return cls(p, counts, den)

    def _sparse_counts(self, scale: int = 1) -> tuple:
        """self * den * scale as ((e, count), ...) over zeta^0, ..., zeta^(p-1).
        Adding one count to all p roots changes nothing (their sum is 0), so
        the commonest count is subtracted: zeta^(p-1) is one count, not p-1."""
        counts = self.nums + (0,)
        base = max(set(counts), key=counts.count)
        return tuple((e, (c - base) * scale) for e, c in enumerate(counts) if c != base)

    def __mul__(self, other):
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        if self.p != other.p:
            raise ValueError("mixed cyclotomic orders")
        p = self.p
        counts = [0] * p
        for e, x in self._sparse_counts():
            for f, y in other._sparse_counts():
                counts[(e + f) % p] += x * y
        return Cyclotomic(p, counts, self.den * other.den)

    def __eq__(self, other):
        return (
            isinstance(other, Cyclotomic)
            and self.p == other.p
            and self.nums == other.nums
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.p, self.nums, self.den))

    def __bool__(self):
        return any(self.nums)

    def __repr__(self):
        return f"Cyclotomic({self.p}, {self.nums + (0,)}, {self.den})"


# -- matrices over F_q ---------------------------------------------------------


def identity_matrix(n: int) -> tuple:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_mul(K: Field, A: tuple, B: tuple) -> tuple:
    cols = tuple(zip(*B))
    add, mul = K.add, K.mul
    out = []
    for row in A:
        new = []
        for col in cols:
            acc = 0
            for a, b in zip(row, col):
                if a and b:
                    acc = add(acc, mul(a, b))
            new.append(acc)
        out.append(tuple(new))
    return tuple(out)


def monomial_to_matrix(K: Field, v: MonomialMatrix) -> tuple:
    n = v.n
    rows = [[0] * n for _ in range(n)]
    for c in range(n):
        rows[v.perm[c]][c] = v.entries[c]
    return tuple(tuple(r) for r in rows)


def is_unipotent_upper(A: tuple) -> bool:
    n = len(A)
    return all(A[i][i] == 1 for i in range(n)) and all(
        A[i][j] == 0 for i in range(n) for j in range(i)
    )


def enumerate_u(K: Field, n: int) -> list:
    """All unipotent upper-triangular matrices, |U| = q^(n(n-1)/2): the
    product of the rows, row i being e_i followed by any tail."""
    tails = [itertools.product(K.elements(), repeat=n - 1 - i) for i in range(n)]
    rows = [[(0,) * i + (1,) + t for t in ts] for i, ts in enumerate(tails)]
    return list(itertools.product(*rows))


def enumerate_gl(K: Field, n: int) -> Iterator[int]:
    """Stream the code of every invertible n-by-n matrix, built row by row
    avoiding the span of the previous rows, a set of codes.  |GL_n(F_q)| is
    refused over its guard at the call, before any table is built."""
    check_guard(gl_order(K.q, n), G_GUARD, "|GL_n(F_q)|")
    (add, scale), Q = _vector_codes(K, n)[2:], K.q**n

    def extend(head, rows, span):  # head: the code of the rows so far
        free = itertools.filterfalse(span.__contains__, range(Q))
        if rows == n - 1:  # the last row: one C-level map, not a frame per level
            yield map((head * Q).__add__, free)
            return
        for vec in free:  # grown: span plus every c vec + s, c a unit
            grown = span.union(*(map(add[s[vec]].__getitem__, span) for s in scale[1:]))
            yield from extend(head * Q + vec, rows + 1, grown)

    return (g for last_rows in extend(0, 0, {0}) for g in last_rows)  # a generator: traceable


def _u_orbit(K: Field, x: list, cols: frozenset = frozenset()) -> dict:
    """{e: [codes of u x]} over all u in U, grouped by psi_mu(u) = zeta_p ** e
    for the psi_mu whose _psi_columns are cols; x is a list of row codes.

    Row i of u x is row i of x plus sum_{j>i} u[i][j] (row j of x), and
    psi_mu reads only u[i][i+1] of that row, so from the bottom up each row
    ranges over its own q^(n-1-i) candidates, each carrying its share of e.
    """
    (add, scale), p, Q = _vector_codes(K, len(x))[2:], K.p, K.q ** len(x)
    orbit, combos, shift = {0: [x[-1]]}, [0], 1
    for i in range(len(x) - 2, -1, -1):
        # sum_{j>i} c_j (row j of x) over all (c_(i+1), ...), c_(i+1) slowest
        combos = [add[s[x[i + 1]]][t] for s in scale for t in combos]
        psi = K._trace if i + 1 in cols else (0,)  # the exponent of each c_(i+1)
        row, size, shift = add[x[i]], len(combos) // len(psi), shift * Q
        orbit, below = {}, orbit  # below: the orbit codes of rows i+1, ..., n-1
        for c, f in enumerate(psi):
            heads = [row[t] * shift for t in combos[c * size : c * size + size]]
            for e, tails in below.items():
                orbit.setdefault((e + f) % p, []).extend([h + t for h in heads for t in tails])
    return orbit


# -- the character psi_mu and the idempotent e_mu -------------------------------


def _psi_columns(mu: tuple) -> frozenset:
    """The columns j whose superdiagonal entry (j-1, j) psi_mu reads: the
    rows j = 1..n-1 that are not partial sums of mu."""
    boundary = set(itertools.accumulate(mu))
    return frozenset(j for j in range(1, sum(mu)) if j not in boundary)


def _psi_exponent(K: Field, u: tuple, cols: frozenset) -> int:
    """psi_mu(u) = zeta_p ** exponent: the traces of the superdiagonal
    entries (j-1, j) of u over the columns j of _psi_columns(mu)."""
    return sum(K.trace(u[j - 1][j]) for j in cols)


class AlgebraElement:
    """A finitely supported map from group elements to Q(zeta_p)."""

    __slots__ = ("K", "n", "terms")

    def __init__(self, K: Field, n: int, terms: dict):
        self.K = K
        self.n = n
        self.terms = {g: c for g, c in terms.items() if c}

    def _check(self, other: "AlgebraElement"):
        if self.K != other.K or self.n != other.n:
            raise ValueError("mixed group algebras")

    def _sparse_terms(self) -> tuple:
        """(denom, [(g, sparse counts)]): every coefficient as integer counts
        per root of unity over the one common denominator of all of them."""
        denom = math.lcm(*(c.den for c in self.terms.values()))
        return denom, [(g, c._sparse_counts(denom // c.den)) for g, c in self.terms.items()]

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check(other)
        K, p = self.K, self.K.p
        denom_a, a = self._sparse_terms()
        denom_b, b = other._sparse_terms()
        acc: dict = {}  # g*h -> p integer counts over denom_a * denom_b
        for g, cg in a:
            for h, ch in b:
                gh = mat_mul(K, g, h)
                counts = acc.get(gh)
                if counts is None:
                    counts = acc[gh] = [0] * p
                for e, x in cg:
                    for f, y in ch:
                        counts[(e + f) % p] += x * y
        denom = denom_a * denom_b
        terms = {g: Cyclotomic(p, counts, denom) for g, counts in acc.items()}
        return AlgebraElement(K, self.n, terms)

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and self.K == other.K
            and self.n == other.n
            and self.terms == other.terms
        )

    def __bool__(self):
        return bool(self.terms)

    def coeff(self, g: tuple) -> Cyclotomic:
        return self.terms.get(g, Cyclotomic(self.K.p, (0,) * self.K.p))

    def __repr__(self):
        return f"AlgebraElement(n={self.n}, support={len(self.terms)})"


@lru_cache(maxsize=None)
def _u_psi(K: Field, n: int, mu: tuple) -> tuple:
    """Each u in U with its psi_mu exponent e, psi_mu(u) = zeta_p ** e, as
    ((u, e), ...); refused over the |U| guard before U is built."""
    if sum(mu) != n:
        raise ValueError(f"mu = {mu} is not a composition of {n}")
    u_order(K.q, n)
    cols = _psi_columns(mu)
    return tuple((u, _psi_exponent(K, u, cols)) for u in enumerate_u(K, n))


def e_mu(K: Field, n: int, mu: tuple) -> AlgebraElement:
    """The idempotent averaging psi_mu^(-1) over U: psi_mu(u)^-1 / |U| at each u."""
    U = _u_psi(K, n, mu)
    terms = {u: Cyclotomic.root_power(K.p, -e, len(U)) for u, e in U}
    return AlgebraElement(K, n, terms)


def t_v(K: Field, v: MonomialMatrix, mu: tuple) -> AlgebraElement:
    """The double-coset element T_v = e_mu v e_mu; nonzero iff v is in N_mu.

    The |U|^2 pairs u v u' are counted as `AlgebraElement.__mul__` counts them,
    each with psi_mu(u)^-1 psi_mu(u')^-1 over |U|^2, but as codes: v u' moves
    and scales rows, U v u' is one _u_orbit, and only nonzero terms (p counts
    not all equal) are decoded.
    """
    n, p, mu = v.n, K.p, tuple(mu)
    U, cols = _u_psi(K, n, mu), _psi_columns(mu)
    vectors, index, _, scale = _vector_codes(K, n)
    moves = [(c, scale[v.entries[c]]) for c in sorted(range(n), key=v.perm.__getitem__)]
    pairs: dict = {}  # k -> u v u', once per pair (u, u') with zeta^k
    for u, e in U:
        x = [s[index[u[c]]] for c, s in moves]  # row v.perm[c] of v u: v.entries[c] (row c of u)
        for f, orbit in _u_orbit(K, x, cols).items():
            pairs.setdefault(-(e + f) % p, []).extend(orbit)
    counts = {k: Counter(g) for k, g in pairs.items()}
    weights = [len(vectors) ** i for i in reversed(range(n))]
    made, terms = {}, {}  # one Cyclotomic per count vector, shared: it has no mutators
    for g in set().union(*counts.values()):
        key = [0] * p
        for k, c in counts.items():
            key[k] = c.get(g, 0)
        if key.count(key[0]) < p:  # not all equal: a nonzero coefficient
            key = tuple(key)
            if key not in made:
                made[key] = Cyclotomic(p, key, len(U) ** 2)
            terms[tuple([vectors[g // w % len(vectors)] for w in weights])] = made[key]
    return AlgebraElement(K, n, terms)


# -- Hecke products by the Bruhat decomposition ----------------------------------


def _bruhat(K: Field, g) -> tuple:
    """g = x w z with x, z in U and w monomial, by Gaussian elimination.

    Column by column from the left, the lowest nonzero entry is the pivot:
    adding multiples of its row to the rows above clears its column, then
    adding multiples of its column to the columns on its right clears its
    row.  Returns (x, w, z): w as a MonomialMatrix, x and z as lists of
    factors (i, j, c), i < j, each the matrix 1 + c E_ij; x and z are the
    products of their factors in list order.
    """
    n = len(g)
    sub, mul, inv = K.sub, K.mul, K.inv
    a = [list(row) for row in g]
    x, z, perm, entries = [], [], [], []
    for col in range(n):
        r = next(i for i in reversed(range(n)) if a[i][col])
        pivot_row = a[r]
        s = inv(pivot_row[col])
        for i in range(r):
            row = a[i]
            if row[col]:
                c = mul(row[col], s)
                for j in range(col + 1, n):
                    if pivot_row[j]:
                        row[j] = sub(row[j], mul(c, pivot_row[j]))
                row[col] = 0
                x.append((i, r, c))
        for j in range(col + 1, n):
            if pivot_row[j]:
                z.append((col, j, mul(s, pivot_row[j])))
                pivot_row[j] = 0
        perm.append(r)
        entries.append(pivot_row[col])
    z.reverse()
    return x, MonomialMatrix(tuple(perm), tuple(entries)), z


def _sandwich(K: Field, u: MonomialMatrix, y: tuple, v: MonomialMatrix) -> list:
    """u y v for monomial u and v: entry (u.perm[a], c) is
    u.entries[a] * y[a][v.perm[c]] * v.entries[c]."""
    mul = K.mul
    rows = [None] * len(y)
    for r, s, row in zip(u.perm, u.entries, y):
        rows[r] = [mul(mul(s, row[b]), t) for b, t in zip(v.perm, v.entries)]
    return rows


# -- verification drivers --------------------------------------------------------


class StructureConstants(NamedTuple):
    basis: tuple  # MonomialMatrix per basis slot, canonical N_mu order
    table: dict  # (i, j) -> tuple of (k, Cyclotomic), sparse expansion of T_i T_j


def structure_constants(K: Field, mu: tuple) -> StructureConstants:
    """Exact expansion T_u T_v = sum c_uv^w T_w over the N_mu basis.

    T_u T_v = |U|^-1 sum_{y in U} psi(y)^-1 psi(x_y) psi(z_y) T_{w_y} for the
    Bruhat decomposition u y v = x_y w_y z_y; terms with w_y outside N_mu
    vanish.  Each c_uv^w is counted as p integers, one per p-th root of
    unity, over the single denominator |U|.
    """
    mu = tuple(mu)
    p, trace = K.p, K.trace
    U = _u_psi(K, sum(mu), mu)  # refuses |U| over its guard before N_mu is listed
    basis = tuple(v_of_matrix(K, a) for a in enumerate_m_mu(K, mu))  # N_mu's canonical order
    index = {v: k for k, v in enumerate(basis)}
    cols = _psi_columns(mu)
    table = {}
    for i, u in enumerate(basis):
        for j, v in enumerate(basis):
            counts: dict = {}  # k -> p integer counts over |U|
            for y, e in U:
                x, w, z = _bruhat(K, _sandwich(K, u, y, v))
                k = index.get(w)
                if k is None:
                    continue
                e = -e  # psi(y)^-1 = zeta^-e
                for a, b, c in x + z:
                    if b == a + 1 and b in cols:
                        e += trace(c)
                counts.setdefault(k, [0] * p)[e % p] += 1
            entries = ((k, Cyclotomic(p, counts[k], len(U))) for k in sorted(counts))
            table[(i, j)] = tuple((k, c) for k, c in entries if c)
    return StructureConstants(basis, table)


def basis_check(K: Field, mu: tuple) -> dict:
    """T_v != 0 exactly on N_mu, e_mu is idempotent, and the nonzero count
    matches |N_mu| (the dimension of e_mu CG e_mu)."""
    price_basis(K.q, sum(mu))
    mu = tuple(mu)
    n = sum(mu)
    e = e_mu(K, n, mu)
    idempotent = t_v(K, monomial_identity(n), mu) == e  # T_1 = e_mu 1 e_mu = e_mu^2
    mismatches = []
    nonzero = 0
    for v in enumerate_n(K, n):
        expected = is_in_n_mu_fast(v, mu)
        actual = bool(t_v(K, v, mu))
        if actual:
            nonzero += 1
        if expected != actual:
            mismatches.append(monomial_to_obj(K, v))
    n_mu_size = m_mu_size(K.q, mu)
    report = {
        "check": "basis",
        "n": n,
        "q": K.q,
        "mu": list(mu),
        "idempotent": idempotent,
        "nonzero_t_v": nonzero,
        "n_mu_size": n_mu_size,
        "pass": idempotent and not mismatches and nonzero == n_mu_size,
    }
    if mismatches:
        report["counterexample"] = mismatches[0]
    return report


def commutativity_check(K: Field, n: int) -> dict:
    """T_u T_v = T_v T_u for the one-part composition (Gelfand-Graev case)."""
    price_bruhat(K.q, [(n,)])
    sc = structure_constants(K, (n,))
    counterexample = None
    for i, j in itertools.combinations(range(len(sc.basis)), 2):
        if sc.table[(i, j)] != sc.table[(j, i)]:
            counterexample = {
                "u": monomial_to_obj(K, sc.basis[i]),
                "v": monomial_to_obj(K, sc.basis[j]),
            }
            break
    report = {
        "check": "commutativity",
        "n": n,
        "q": K.q,
        "mu": [n],
        "basis_size": len(sc.basis),
        "pass": counterexample is None,
    }
    if counterexample:
        report["counterexample"] = counterexample
    return report


def levi_embedding_check(K: Field, mu: tuple) -> dict:
    """The tensor product of the one-part algebras embeds in H_mu.

    Basis tensors indexed by tuples (f_1, ..., f_l) of monic units map to
    T_a for the diagonal polynomial matrix a = diag(f_i) with off-diagonal
    entries 1; the check compares multiplication tables exactly.
    """
    price_bruhat(K.q, [(m,) for m in mu] + [tuple(mu)])  # the factor tables and the full one
    mu = tuple(mu)
    factor_sc = [structure_constants(K, (m,)) for m in mu]
    factor_sizes = [len(sc.basis) for sc in factor_sc]
    full_sc = structure_constants(K, mu)
    index_of = {v: k for k, v in enumerate(full_sc.basis)}
    # Slot t of factor i's basis is the t-th monic unit of degree mu_i: M_(mu_i)
    # has the one degree matrix (mu_i), so it lists its 1-by-1 matrices in that order.
    units = [enumerate_monic_units(K, m) for m in mu]

    def embed(tensor: tuple) -> int:
        l = len(mu)
        grid = tuple(
            tuple(units[i][tensor[i]] if i == j else (1,) for j in range(l)) for i in range(l)
        )
        return index_of[v_of_matrix(K, PolyMatrix(grid, mu))]

    tensors = list(itertools.product(*[range(s) for s in factor_sizes]))
    image_of = {t: embed(t) for t in tensors}
    image_dim = len(set(image_of.values()))
    injective = image_dim == len(tensors)
    counterexample = None
    for x in tensors:
        for y in tensors:
            lhs = dict(full_sc.table[(image_of[x], image_of[y])])
            rhs: dict = {}
            # One term of T_x T_y per choice of a term from each factor's expansion.
            expansions = [sc.table[xy] for sc, xy in zip(factor_sc, zip(x, y))]
            for terms in itertools.product(*expansions):
                c = math.prod((ct for _, ct in terms), start=Cyclotomic.root_power(K.p, 0))
                if c:
                    rhs[image_of[tuple(h for h, _ in terms)]] = c
            if {k: c for k, c in lhs.items() if c} != rhs:
                counterexample = {
                    "x": [monomial_to_obj(K, factor_sc[t].basis[x[t]]) for t in range(len(mu))],
                    "y": [monomial_to_obj(K, factor_sc[t].basis[y[t]]) for t in range(len(mu))],
                }
                break
        if counterexample:
            break
    report = {
        "check": "levi",
        "n": sum(mu),
        "q": K.q,
        "mu": list(mu),
        "tensor_dim": len(tensors),
        "image_dim": image_dim,
        "injective": injective,
        "pass": injective and counterexample is None,
    }
    if counterexample:
        report["counterexample"] = counterexample
    return report


class CosetError(RuntimeError):
    """The double cosets UvU over monomial v overlap or miss part of G."""


def _double_cosets(K: Field, n: int):
    """Yield (v, UvU as a set of _u_orbit's matrix codes) for each monomial v.

    U v U is the union of the left cosets U x over x in v U, and those
    cosets are equal or disjoint, so an x already in the coset adds nothing.
    """
    q, Q, scale = K.q, K.q**n, _vector_codes(K, n)[3]
    # U by row codes: row i is e_i, code q^(n-1-i), plus any tail below that
    U = list(itertools.product(*(range(q**i, 2 * q**i) for i in reversed(range(n)))))
    for v in enumerate_n(K, n):
        moves = [(c, scale[v.entries[c]]) for c in sorted(range(n), key=v.perm.__getitem__)]
        coset: set = set()
        for u in U:
            x = [s[u[c]] for c, s in moves]
            code = 0
            for row in x:
                code = code * Q + row
            if code not in coset:
                coset.update(_u_orbit(K, x)[0])
        yield v, coset


def double_coset_reps(K: Field, n: int) -> list:
    """Confirms G = union of UvU over monomial v, returning (v, |UvU|) pairs.

    The cosets come from _double_cosets and are checked disjoint as their
    union is marked in `seen`, one byte per matrix code.  G comes from
    enumerate_gl, which builds it independently and streams it as codes:
    each g is unmarked, so a g missing or repeated, a mark left over, or a
    code outside [0, q^(n^2)) on either side means the cosets do not cover
    G.  The check holds q^(n^2) < 3.47 |G| bytes of marks, allocated after
    enumerate_gl's guard, and the one coset set being built.
    """
    G, size = enumerate_gl(K, n), K.q ** (n * n)
    seen = bytearray(size)
    out = []
    for v, coset in _double_cosets(K, n):
        for c in coset:
            if not 0 <= c < size:  # a negative code would wrap into seen
                raise CosetError("double cosets do not cover the group")
            if seen[c]:
                raise CosetError("double cosets are not disjoint")
            seen[c] = 1
        out.append((v, len(coset)))
    for g in G:
        if not (0 <= g < size and seen[g]):
            raise CosetError("double cosets do not cover the group")
        seen[g] = 0
    if 1 in seen:
        raise CosetError("double cosets do not cover the group")
    return out


def coset_check(K: Field, n: int) -> dict:
    u_order(K.q, n)  # the price: |U|, before enumerate_gl checks |GL_n(F_q)|
    try:
        reps, ok, detail = double_coset_reps(K, n), True, None
    except CosetError as err:
        reps, ok, detail = [], False, str(err)
    report = {
        "check": "cosets",
        "n": n,
        "q": K.q,
        "num_cosets": len(reps),
        "coset_sizes_sum": sum(size for _, size in reps),
        "group_order": gl_order(K.q, n),
        "pass": ok,
    }
    if detail:
        report["counterexample"] = detail
    return report
