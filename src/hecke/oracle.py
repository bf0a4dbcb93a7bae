"""Exact brute-force verification in the group algebra of GL_n(F_q).

Coefficients live in Q(zeta_p), represented on the power basis
1, zeta, ..., zeta^(p-2) with Fraction coordinates, so every check is an
exact equality.  Group elements are tuples of row tuples of field codes.
All computations are desk-scale and guarded: |U| <= 4096 and |G| <= 200000
by default (see hecke.guards).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from hecke.gf import Field, enumerate_monic_units
from hecke.guards import check_guard
from hecke.hecke_index import (
    MonomialMatrix,
    PolyMatrix,
    enumerate_m_mu,
    enumerate_n,
    enumerate_n_mu,
    is_in_n_mu_fast,
    monomial_to_obj,
    v_of_matrix,
)
from hecke.shapes import boundary_set

U_GUARD = 4096
G_GUARD = 200_000


# -- exact cyclotomic rationals ------------------------------------------------


class Cyclotomic:
    """An element of Q(zeta_p) as sum(coords[i] * zeta^i, i < p-1).

    The relation 1 + zeta + ... + zeta^(p-1) = 0 reduces everything to the
    power basis, so equality is coordinatewise.  p = 2 is plain rationals.
    """

    __slots__ = ("p", "coords")

    def __init__(self, p: int, coords):
        self.p = p
        self.coords = tuple(Fraction(c) for c in coords)
        if len(self.coords) != p - 1:
            raise ValueError(f"need {p - 1} coordinates for p = {p}")

    @classmethod
    def zero(cls, p: int) -> "Cyclotomic":
        return cls(p, (0,) * (p - 1))

    @classmethod
    def one(cls, p: int) -> "Cyclotomic":
        return cls.from_rational(p, 1)

    @classmethod
    def from_rational(cls, p: int, r) -> "Cyclotomic":
        return cls(p, (Fraction(r),) + (Fraction(0),) * (p - 2))

    @classmethod
    def root_power(cls, p: int, e: int) -> "Cyclotomic":
        """zeta_p ** e."""
        e %= p
        if e < p - 1:
            return cls(p, tuple(Fraction(int(i == e)) for i in range(p - 1)))
        return cls(p, (Fraction(-1),) * (p - 1))

    def _check(self, other: "Cyclotomic"):
        if self.p != other.p:
            raise ValueError("mixed cyclotomic orders")

    def __add__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._check(other)
        return Cyclotomic(self.p, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.p, tuple(a * other for a in self.coords))
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        self._check(other)
        p = self.p
        conv = [Fraction(0)] * (2 * p - 3 if p > 2 else 1)
        for i, a in enumerate(self.coords):
            if a:
                for j, b in enumerate(other.coords):
                    if b:
                        conv[i + j] += a * b
        out = [Fraction(0)] * (p - 1)
        carry = Fraction(0)
        for e, c in enumerate(conv):
            if c:
                e %= p
                if e == p - 1:
                    carry += c
                else:
                    out[e] += c
        if carry:
            out = [c - carry for c in out]
        return Cyclotomic(p, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, Cyclotomic)
            and self.p == other.p
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.p, self.coords))

    def __bool__(self):
        return any(self.coords)

    def __repr__(self):
        return f"Cyclotomic({self.p}, {[str(c) for c in self.coords]})"


# -- matrices over F_q ---------------------------------------------------------


def identity_matrix(n: int) -> tuple:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_mul(K: Field, A: tuple, B: tuple) -> tuple:
    n = len(A)
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


def enumerate_u(K: Field, n: int) -> list:
    """All unipotent upper-triangular matrices, |U| = q^(n(n-1)/2)."""
    positions = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = []
    for values in itertools.product(K.elements(), repeat=len(positions)):
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        for (i, j), val in zip(positions, values):
            rows[i][j] = val
        out.append(tuple(tuple(r) for r in rows))
    return out


def gl_order(q: int, n: int) -> int:
    order = 1
    for i in range(n):
        order *= q**n - q**i
    return order


def enumerate_gl(K: Field, n: int) -> list:
    """All invertible n-by-n matrices, built row by row avoiding the span of
    the previous rows."""
    check_guard(gl_order(K.q, n), G_GUARD, "|GL_n(F_q)|")
    vectors = list(itertools.product(K.elements(), repeat=n))
    out = []

    def extend(rows, span):
        if len(rows) == n:
            out.append(tuple(rows))
            return
        for vec in vectors:
            if vec in span:
                continue
            new_span = set(span)
            for s in span:
                for c in K.units():
                    new_span.add(tuple(K.add(x, K.mul(c, y)) for x, y in zip(s, vec)))
            extend(rows + [vec], new_span)

    extend([], {(0,) * n})
    return out


# -- the character psi_mu and the idempotent e_mu -------------------------------


def psi_mu_eval(K: Field, u: tuple, mu: tuple) -> Cyclotomic:
    """psi_mu(u): the product of psi over the superdiagonal entries at rows
    not in the boundary set of mu."""
    if not is_unipotent_upper(u):
        raise ValueError("psi_mu is only defined on unipotent upper-triangular matrices")
    n = len(u)
    B = set(boundary_set(mu))
    exponent = 0
    for i in range(1, n):
        if i not in B:
            exponent += K.trace(u[i - 1][i])
    return Cyclotomic.root_power(K.p, exponent)


class AlgebraElement:
    """A finitely supported map from group elements to Q(zeta_p)."""

    __slots__ = ("K", "n", "terms")

    def __init__(self, K: Field, n: int, terms: dict):
        self.K = K
        self.n = n
        self.terms = {g: c for g, c in terms.items() if c}

    @classmethod
    def delta(cls, K: Field, g: tuple) -> "AlgebraElement":
        return cls(K, len(g), {g: Cyclotomic.one(K.p)})

    def _check(self, other: "AlgebraElement"):
        if self.K != other.K or self.n != other.n:
            raise ValueError("mixed group algebras")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        terms = dict(self.terms)
        for g, c in other.terms.items():
            terms[g] = terms[g] + c if g in terms else c
        return AlgebraElement(self.K, self.n, terms)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return AlgebraElement(self.K, self.n, {g: c * other for g, c in self.terms.items()})
        self._check(other)
        terms: dict = {}
        K = self.K
        for g, cg in self.terms.items():
            for h, ch in other.terms.items():
                gh = mat_mul(K, g, h)
                c = cg * ch
                terms[gh] = terms[gh] + c if gh in terms else c
        return AlgebraElement(K, self.n, terms)

    def __rmul__(self, scalar):
        return self * scalar

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
        return self.terms.get(g, Cyclotomic.zero(self.K.p))

    def __repr__(self):
        return f"AlgebraElement(n={self.n}, support={len(self.terms)})"


@lru_cache(maxsize=None)
def e_mu(K: Field, n: int, mu: tuple) -> AlgebraElement:
    """The idempotent averaging psi_mu^(-1) over U."""
    if sum(mu) != n:
        raise ValueError(f"mu = {mu} is not a composition of {n}")
    check_guard(K.q ** (n * (n - 1) // 2), U_GUARD, "|U|")
    U = enumerate_u(K, n)
    scale = Fraction(1, len(U))
    terms = {u: psi_mu_eval(K, mat_inv(K, u), mu) * scale for u in U}
    return AlgebraElement(K, n, terms)


def t_v(K: Field, v: MonomialMatrix, mu: tuple) -> AlgebraElement:
    """The double-coset element T_v = e_mu v e_mu; nonzero iff v is in N_mu."""
    e = e_mu(K, v.n, tuple(mu))
    return e * AlgebraElement.delta(K, monomial_to_matrix(K, v)) * e


# -- verification drivers --------------------------------------------------------


class StructureConstants(NamedTuple):
    basis: tuple  # MonomialMatrix per basis slot, canonical N_mu order
    table: dict  # (i, j) -> tuple of (k, Cyclotomic), sparse expansion of T_i T_j


def structure_constants(K: Field, mu: tuple) -> StructureConstants:
    """Exact expansion T_u T_v = sum c_uv^w T_w over the N_mu basis.

    Coefficients are read off at each monomial matrix w (the supports of
    distinct T_w lie in distinct double cosets) and divided by T_w's own
    coefficient at w, which is the positive rational |U ∩ wUw^-1| / |U|^2;
    the residual after subtracting the expansion must vanish identically.
    """
    mu = tuple(mu)
    basis = tuple(enumerate_n_mu(K, mu))
    elems = [t_v(K, v, mu) for v in basis]
    mats = [monomial_to_matrix(K, v) for v in basis]
    diag = [el.coeff(m).coords for el, m in zip(elems, mats)]
    if not all(d[0] > 0 and not any(d[1:]) for d in diag):
        raise RuntimeError("a basis element is not a positive rational at its representative")
    table = {}
    for i, j in itertools.product(range(len(basis)), repeat=2):
        prod = elems[i] * elems[j]
        expansion = []
        residual = prod
        for k in range(len(basis)):
            c = prod.coeff(mats[k])
            if c:
                c = c * (1 / diag[k][0])
                expansion.append((k, c))
                residual = residual - c * elems[k]
        if residual:
            raise RuntimeError(
                f"product T_{i} T_{j} does not lie in the span of the basis"
            )
        table[(i, j)] = tuple(expansion)
    return StructureConstants(basis, table)


def basis_check(K: Field, mu: tuple) -> dict:
    """T_v != 0 exactly on N_mu, e_mu is idempotent, and the nonzero count
    matches |N_mu| (the dimension of e_mu CG e_mu)."""
    mu = tuple(mu)
    n = sum(mu)
    e = e_mu(K, n, mu)
    idempotent = e * e == e
    mismatches = []
    nonzero = 0
    for v in enumerate_n(K, n):
        expected = is_in_n_mu_fast(v, mu)
        actual = bool(t_v(K, v, mu))
        if actual:
            nonzero += 1
        if expected != actual:
            mismatches.append(monomial_to_obj(K, v))
    n_mu_size = sum(1 for _ in enumerate_m_mu(K, mu))
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
    mu = (n,)
    basis = list(enumerate_n_mu(K, mu))
    elems = [t_v(K, v, mu) for v in basis]
    counterexample = None
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if elems[i] * elems[j] != elems[j] * elems[i]:
                counterexample = {
                    "u": monomial_to_obj(K, basis[i]),
                    "v": monomial_to_obj(K, basis[j]),
                }
                break
        if counterexample:
            break
    report = {
        "check": "commutativity",
        "n": n,
        "q": K.q,
        "mu": [n],
        "basis_size": len(basis),
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
    mu = tuple(mu)
    factor_sc = [structure_constants(K, (m,)) for m in mu]
    factor_sizes = [len(sc.basis) for sc in factor_sc]
    full_sc = structure_constants(K, mu)
    index_of = {v: k for k, v in enumerate(full_sc.basis)}

    def embed(tensor: tuple) -> int:
        units = [enumerate_monic_units(K, m)[t] for m, t in zip(mu, tensor)]
        l = len(mu)
        grid = tuple(
            tuple(units[i] if i == j else (1,) for j in range(l)) for i in range(l)
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
                c = Cyclotomic.one(K.p)
                for _, ct in terms:
                    c = c * ct
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


def double_coset_reps(K: Field, n: int) -> list:
    """Confirms G = union of UvU over monomial v, returning (v, |UvU|) pairs."""
    check_guard(K.q ** (n * (n - 1) // 2), U_GUARD, "|U|")
    G = enumerate_gl(K, n)
    U = enumerate_u(K, n)
    seen: set = set()
    out = []
    for v in enumerate_n(K, n):
        vm = monomial_to_matrix(K, v)
        left = [mat_mul(K, u, vm) for u in U]
        coset = {mat_mul(K, x, u2) for x in left for u2 in U}
        if coset & seen:
            raise RuntimeError("double cosets are not disjoint")
        seen |= coset
        out.append((v, len(coset)))
    if len(seen) != len(G) or seen != set(G):
        raise RuntimeError("double cosets do not cover the group")
    return out


def coset_check(K: Field, n: int) -> dict:
    try:
        reps = double_coset_reps(K, n)
        ok = True
        detail = None
    except RuntimeError as err:
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
