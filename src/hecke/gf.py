"""Exact arithmetic for F_q and univariate polynomials over F_q.

Elements of F_q (q = p**k) are plain integers in range(q): the integer
c0 + c1*p + ... + c_{k-1}*p**(k-1) encodes the coordinate vector of
c0 + c1*g + ... + c_{k-1}*g**(k-1), where g is the class of the variable
modulo the defining polynomial.  A Field instance builds its operation
tables the first time an operation reads one; all bulk enumeration works
directly on these integer codes.  They are the codes of the vectors of
F_p^k: an extension field builds its tables from `_vector_codes`, the add
and scale tables of the codes of F_q^n that the oracle also reads.

Polynomials are tuples of element codes, lowest degree first, with no
trailing zeros.  The zero polynomial is the empty tuple and has degree -1.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from hecke.guards import BITS, FIELD_GUARD, check_guard

Poly = tuple  # tuple of element codes, lowest degree first

ZERO_DEGREE = -1  # degree sentinel for the zero polynomial


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class Field:
    """The finite field F_q, q = p**k, with operation tables built on first use.

    Construction checks p >= 2 and k >= 1 (ValueError), the size guard, then
    p prime (ValueError).  The modulus and the q-by-q tables are made the
    first time an operation reads one, so a guard that reads only q runs
    before them.  For k > 1 the modulus is canonical: the lexicographically
    smallest monic irreducible of degree k over F_p (coefficient tuples
    compared low degree first), so (p, k) alone says which field it is.
    Desk scale only: q is guarded.
    """

    def __init__(self, p: int, k: int = 1):
        if p < 2:
            raise ValueError(f"p = {p} is not prime")
        if k < 1:
            raise ValueError(f"k = {k} must be positive")
        q = p**k if k * p.bit_length() <= BITS else math.inf  # never a huge p**k
        check_guard(q, FIELD_GUARD, f"field size q = {p}**{k}")
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        self.p = p
        self.k = k
        self.q = q
        if k == 1:
            self.modulus = None  # an extension field finds its modulus with its tables
        self._hash = hash((p, k))  # every cache keyed by K reads it

    def __getattr__(self, name):
        # Runs only while `name` is unset: the first read of the modulus or
        # a table makes them all, and later reads find them in the instance.
        if name not in ("modulus", "_add", "_mul", "_neg", "_inv", "_trace"):
            raise AttributeError(f"'Field' object has no attribute {name!r}")
        self._build_tables()
        return vars(self)[name]

    def _build_tables(self):
        p, k, q = self.p, self.k, self.q
        if k == 1:
            self._add = [tuple((a + b) % p for b in range(q)) for a in range(q)]
            self._mul = [tuple((a * b) % p for b in range(q)) for a in range(q)]
            self._neg = tuple(-a % p for a in range(q))
        else:
            self.modulus = _smallest_irreducible(p, k)
            add, scale = _vector_codes(Field(p), k)[2:]
            self._add, self._neg = add, scale[p - 1]
            top = p ** (k - 1)
            x_k = self.from_coords(-m for m in self.modulus[:k])  # X^k mod the modulus
            self._mul = []
            for a in range(q):
                row, x = [0], a  # row: the F_p-span of a, aX, ..., newest coefficient slowest
                for _ in range(k):
                    row = [add[s[x]][t] for s in scale for t in row]
                    x = add[x % top * p][scale[x // top][x_k]]  # x X: a shift and X^k
                self._mul.append(tuple(row))
        self._inv = (0,) + tuple(self.pow(a, q - 2) for a in range(1, q))
        # Tr(x) = x + x^p + ... + x^(p^(k-1)) lies in the prime subfield.
        trace = []
        for a in range(q):
            t, x = 0, a
            for _ in range(k):
                t = self._add[t][x]
                x = self.pow(x, p)
            trace.append(t)
        self._trace = tuple(trace)

    # -- element codes <-> coordinate vectors ------------------------------

    def coords(self, a: int) -> tuple:
        cs = []
        for _ in range(self.k):
            cs.append(a % self.p)
            a //= self.p
        return tuple(cs)

    def from_coords(self, cs) -> int:
        a = 0
        for c in reversed(tuple(cs)):
            a = a * self.p + (c % self.p)
        return a

    # -- field operations ---------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        return self._inv[a]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv(a), -e
        r = 1
        while e:
            if e & 1:
                r = self._mul[r][a]
            a = self._mul[a][a]
            e >>= 1
        return r

    def trace(self, a: int) -> int:
        """Trace to the prime subfield, returned as a residue in [0, p)."""
        return self._trace[a]

    def elements(self):
        return range(self.q)

    def units(self):
        return range(1, self.q)

    def __eq__(self, other):
        return isinstance(other, Field) and (self.p, self.k) == (other.p, other.k)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.k == 1:
            return f"Field({self.p})"
        return f"Field({self.p}, {self.k})"


@lru_cache(maxsize=None)
def _vector_codes(K: Field, n: int) -> tuple:
    """(vectors, index, add, scale) for the codes of F_q^n: vector c is
    vectors[c], index maps it back, add[a][b] is the code of a + b and
    scale[c][a] that of c a.  At n = 1 codes are field elements."""
    vectors = list(itertools.product(K.elements(), repeat=n))
    index = {vec: c for c, vec in enumerate(vectors)}
    if n == 1:
        return vectors, index, K._add, K._mul
    q, (add, scale) = K.q, _vector_codes(K, n - 1)[2:]
    codes = list(range(q**n))  # one int per code, shared by every entry that holds it
    # a code is q times the code of the first n-1 entries, plus the last entry
    add = [tuple([codes[h * q + l] for h in add[a // q] for l in K._add[a % q]]) for a in codes]
    scale = [tuple([h * q + l for h in s for l in m]) for s, m in zip(scale, K._mul)]
    return vectors, index, add, scale


def _smallest_irreducible(p: int, k: int) -> tuple:
    fp = Field(p)
    monic = (low + (1,) for low in itertools.product(range(p), repeat=k))
    return next(f for f in monic if is_irreducible(fp, f))


# -- polynomial arithmetic ---------------------------------------------------


def poly_trim(cs) -> Poly:
    cs = tuple(cs)
    n = len(cs)
    while n and cs[n - 1] == 0:
        n -= 1
    return cs[:n]


def poly_deg(f: Poly) -> int:
    return len(f) - 1 if f else ZERO_DEGREE


def is_monic(f: Poly) -> bool:
    return bool(f) and f[-1] == 1


def poly_add(K: Field, f: Poly, g: Poly) -> Poly:
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] = K.add(out[i], c)
    return poly_trim(out)


def poly_mul(K: Field, f: Poly, g: Poly) -> Poly:
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = K.add(out[i + j], K.mul(a, b))
    return poly_trim(out)


def poly_divrem(K: Field, f: Poly, g: Poly) -> tuple:
    """Quotient and remainder with deg(remainder) < deg(g)."""
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    rem = list(f)
    dg = poly_deg(g)
    lead_inv = K.inv(g[-1])
    quot = [0] * max(len(f) - dg, 0)
    for d in range(len(rem) - 1, dg - 1, -1):
        c = rem[d]
        if c:
            q = K.mul(c, lead_inv)
            quot[d - dg] = q
            for j, b in enumerate(g):
                rem[d - dg + j] = K.sub(rem[d - dg + j], K.mul(q, b))
    return poly_trim(quot), poly_trim(rem)


def poly_eval(K: Field, f: Poly, x: int) -> int:
    r = 0
    for c in reversed(f):
        r = K.add(K.mul(r, x), c)
    return r


def poly_pow(K: Field, f: Poly, e: int) -> Poly:
    r: Poly = (1,)
    for _ in range(e):
        r = poly_mul(K, r, f)
    return r


def poly_scale(K: Field, c: int, f: Poly) -> Poly:
    return poly_trim(K.mul(c, a) for a in f)


def poly_key(f: Poly) -> tuple:
    """Canonical sort key: by degree, then coefficient tuples compared from
    the highest degree down (pins the order of the irreducible sequence)."""
    return (len(f), tuple(reversed(f)))


# -- enumeration of monic polynomials and irreducibles -----------------------


def enumerate_monic(K: Field, n: int):
    """All monic polynomials of degree exactly n, in canonical order."""
    if n == 0:
        yield (1,)
        return
    for high_first in itertools.product(range(K.q), repeat=n):
        yield tuple(reversed(high_first)) + (1,)


@lru_cache(maxsize=None)
def enumerate_monic_units(K: Field, n: int) -> tuple:
    """All monic degree-n polynomials with nonzero constant term, in
    canonical order, made once per (K, n).

    There are (q-1)*q**(n-1) of them for n >= 1, and just the constant 1
    for n = 0.
    """
    return tuple(f for f in enumerate_monic(K, n) if f[0] != 0)


@lru_cache(maxsize=None)
def _irreducibles_through(K: Field, max_degree: int) -> tuple:
    """All monic irreducibles of degree 1..max_degree: X, then the labels."""
    return ((0, 1),) + tuple(enumerate_irreducibles(K, max_degree)) if max_degree >= 1 else ()


def enumerate_irreducibles(K: Field, max_degree: int):
    """Stream the canonical label sequence: monic irreducibles f with
    1 <= deg(f) <= max_degree and f(0) != 0, in order of (degree,
    coefficients from the top).  Exactly X is excluded by the constant-term
    condition.  Each polynomial is tested as the stream reaches it."""
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    monic = (f for d in range(1, max_degree + 1) for f in enumerate_monic(K, d))
    return (f for f in monic if f[0] != 0 and is_irreducible(K, f))


def is_irreducible(K: Field, f: Poly) -> bool:
    d = poly_deg(f)
    if d < 1:
        return False
    for g in _irreducibles_through(K, d // 2):
        if not poly_divrem(K, f, g)[1]:
            return False
    return True


@lru_cache(maxsize=None)
def factorize(K: Field, f: Poly) -> tuple:
    """Complete factorization f = unit * prod(g**m) into monic irreducibles,
    computed once per (K, f).

    Returns (unit, factors) with factors a tuple of (g, multiplicity) pairs
    in canonical order.  Trial division by the irreducibles g in canonical
    order stops once 2*deg(g) exceeds the degree of what remains: that
    cofactor has no factor of degree <= half its own, so it is irreducible
    (or 1), and it sorts after every g tried.
    """
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    unit = f[-1]
    if unit != 1:
        f = poly_scale(K, K.inv(unit), f)
    factors = []
    for g in _irreducibles_through(K, poly_deg(f) // 2):
        if 2 * poly_deg(g) > poly_deg(f):
            break
        m = 0
        while True:
            quot, rem = poly_divrem(K, f, g)
            if rem:
                break
            f, m = quot, m + 1
        if m:
            factors.append((g, m))
    if poly_deg(f) >= 1:
        factors.append((f, 1))
    return unit, tuple(factors)


# -- text format ---------------------------------------------------------------
#
# A field element prints as its code for prime fields and as its coordinate
# vector "[c0,c1,...]" for extension fields.  Polynomial terms "c*X^d" are
# joined by "+", lowest degree first: X^3 + X + 1 over F_2 prints as
# "1+1*X^1+1*X^3".  hecke.maps reads both forms back.


def format_coeff(K: Field, a: int) -> str:
    return str(a if K.k == 1 else list(K.coords(a))).replace(" ", "")


@lru_cache(maxsize=None)
def format_poly(K: Field, f: Poly) -> str:
    terms = [format_coeff(K, c) + (f"*X^{d}" if d else "") for d, c in enumerate(f) if c]
    return "+".join(terms) if terms else "0"
