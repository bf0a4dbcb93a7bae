"""The sets N_mu and M_mu, and the bijection between them.

The two matrix types, MonomialMatrix and PolyMatrix, are in hecke.matrices.
Only hecke.maps, which reads outside data, checks that a polynomial matrix
is in M_mu; every function given a PolyMatrix relies on its caller.  The
exhaustive witnesses of the bijection are in hecke.bijection; the literal
membership test reads its matrices over F_q and psi_mu from hecke.oracle.
Only degree_matrices and m_mu_size read hecke.shapes, and each imports it
when it runs: `map a_to_v`, `map v_to_a` and `verify cosets` load no shapes.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterator

from hecke.gf import Field, Poly, enumerate_monic_units, format_poly, is_monic, poly_deg
from hecke.guards import MembershipError, u_order
from hecke.matrices import MonomialMatrix, PolyMatrix


def monomial_identity(n: int) -> MonomialMatrix:
    return MonomialMatrix(tuple(range(n)), (1,) * n)


# -- the map f -> v_(f) on 1x1 blocks ----------------------------------------


@lru_cache(maxsize=None)
def v_of_poly(K: Field, f: Poly) -> MonomialMatrix:
    """The monomial matrix of a monic polynomial with nonzero constant term,
    made once per (K, f); a refusal is raised again on every call.

    For f = a_0 + a_1 X^{i_1} + ... + a_r X^{i_r} + X^n this is the product
    of the full reversal with the direct sum of the scaled reversals whose
    sizes are the gaps between consecutive exponents in the support of f.
    The constant polynomial 1 gives the empty 0x0 matrix.
    """
    if f == (1,):
        return MonomialMatrix((), ())
    if not is_monic(f) or f[0] == 0:
        raise MembershipError(f"{format_poly(K, f)} is not monic with f(0) != 0")
    n = poly_deg(f)
    support = [d for d in range(n) if f[d] != 0]
    perm = [0] * n
    entries = [0] * n
    for t, start in enumerate(support):
        end = support[t + 1] if t + 1 < len(support) else n
        size = end - start
        for c in range(start, end):
            perm[c] = n - size - start + (c - start)
            entries[c] = f[start]
    return MonomialMatrix(tuple(perm), tuple(entries))


# -- the bijection M_mu <-> N_mu ----------------------------------------------


@lru_cache(maxsize=2)
def _layout(mu: tuple, lengths: tuple) -> tuple:
    """(i, j, first row, first column, size) of each nonempty sub-block of
    v_a, where entry (i, j) of a has lengths[i][j] coefficients, so its
    block has size d[i][j] = lengths[i][j] - 1; by first column, the order in
    which their columns make up v_a.  Within block row i the sub-blocks stack
    top to bottom by decreasing column index j; within block column j they
    run left to right by decreasing row index i.

    The key has the shape of a.entries, so v_of_matrix reads it with len
    alone and no tuple of a new length is made per element.  walk_m_mu makes
    the layout of each degree matrix as it meets it, and v_of_matrix and
    _decode find it here while the stream is on that matrix; two entries
    keep no layout of a matrix the stream has passed."""
    base = [*itertools.accumulate(mu, initial=0)]  # sum(mu[:i]) for each i
    col, blocks = base[:-1], []  # next free column of each block column
    for i in reversed(range(len(mu))):
        r = base[i]
        for j in reversed(range(len(mu))):
            size = lengths[i][j] - 1
            if size:
                blocks.append((i, j, r, col[j], size))
                r += size
                col[j] += size
    return tuple(sorted(blocks, key=lambda b: b[3]))


@lru_cache(maxsize=None)
def _block_of(mu: tuple) -> tuple:
    """The block of mu that holds each index 0..n-1, row or column."""
    return tuple(i for i, part in enumerate(mu) for _ in range(part))


def v_of_matrix(K: Field, a: PolyMatrix) -> MonomialMatrix:
    """v_a for a polynomial matrix a, unchecked: the caller guarantees a in M_mu.
    The sub-blocks v_(f) join column by column, each moved down to its first row."""
    grid, perm, entries = a.entries, [], []
    for i, j, r, _, _ in _layout(a.mu, tuple([tuple(map(len, row)) for row in grid])):
        sub = v_of_poly(K, grid[i][j])
        perm += map(r.__add__, sub.perm)
        entries += sub.entries
    return MonomialMatrix(tuple(perm), tuple(entries))


def _decode(v: MonomialMatrix, mu: tuple) -> PolyMatrix:
    """The polynomial matrix v encodes if v is in N_mu, unchecked: reads the
    degree matrix off the block pattern of v and inverts v_of_poly on each
    sub-block, where a run of columns carries the coefficient at its first
    column, whose row says where the run ends.  Every step moves right, so
    off N_mu it still ends, and returns a grid, which v_of_matrix does not
    map back to v.  Yet for any v of size |mu| it is in M_mu, as
    matrix_of_v's unchecked re-encoding needs: d[i][j] counts the columns of
    block column j whose row is in block row i, so the degree sums are mu;
    each entry is 1 or has degree d[i][j], leading coefficient 1 and, as
    constant term, v's nonzero entry in its sub-block's first column."""
    n = sum(mu)
    if v.n != n:  # before _block_of, whose size is n
        raise MembershipError(f"matrix size {v.n} does not match |mu| = {n}")
    blocks, l, perm, entries = _block_of(mu), len(mu), v.perm, v.entries
    lengths = [[1] * l for _ in range(l)]  # d[i][j] + 1, the key of _layout
    for c, r in enumerate(perm):
        lengths[blocks[r]][blocks[c]] += 1
    grid = [[(1,)] * l for _ in range(l)]
    for i, j, r, c, size in _layout(mu, tuple(map(tuple, lengths))):
        coeffs, start, end = [0] * size + [1], c, c + size
        while start < end:
            coeffs[start - c] = entries[start]
            step = end + r - perm[start]  # the column after the run
            start = step if step > start else start + 1
        grid[i][j] = tuple(coeffs)
    return PolyMatrix(tuple(map(tuple, grid)), mu)


def matrix_of_v(K: Field, v: MonomialMatrix, mu: tuple) -> PolyMatrix:
    """The unique a in M_mu with v_of_matrix(a) = v.

    Decodes v (_decode), then re-encodes once: v_of_matrix maps only into
    N_mu, so v is in N_mu exactly when the re-encoding is v, and
    MembershipError is raised otherwise.
    """
    a = _decode(v, tuple(mu))
    if v_of_matrix(K, a) != v:
        raise MembershipError("v fails the N_mu membership test")
    return a


# -- membership tests for N_mu ------------------------------------------------


@lru_cache(maxsize=None)
def _block_ends(mu: tuple) -> int:
    """The bitmask of E, the 0-based last index of each block of mu."""
    return sum(1 << (b - 1) for b in itertools.accumulate(mu))


def _column_rule(ends: int, c: int, r: int, following, placed: int):
    """The pattern test at column c, whose row is r: None if the column
    fails, else whether its entry is tied to column c+1's.

    ends is _block_ends(mu); following is perm[c+1], read only when c is not
    in E; placed is the bitmask of the rows of columns 0..c, so row r+1 lies
    right of c exactly when it is not in placed.  Column c fails when: c not
    in E, r in E and perm[c+1] > r; c in E, r not in E and row r+1 right of
    c; or c, r not in E, perm[c+1] != r+1, and perm[c+1] > r or row r+1
    right of c.  It is tied when c, r not in E and perm[c+1] = r+1.
    """
    if ends >> r & 1:
        return None if not ends >> c & 1 and following > r else False
    if ends >> c & 1:
        return False if placed >> (r + 1) & 1 else None
    if following == r + 1:
        return True
    return None if following > r or not placed >> (r + 1) & 1 else False


def _pattern_ties(perm: tuple, mu: tuple):
    """The entry-free part of the pattern test, in one pass over the columns:
    the pairs c < c' with perm[c] < perm[c'] avoid the forbidden
    superdiagonal configurations iff every column passes _column_rule.
    Returns None if some column fails, else the columns tied to the next,
    whose entry must equal column c+1's."""
    ends, placed, ties = _block_ends(mu), 0, []
    for c, (r, following) in enumerate(zip(perm, (*perm[1:], None))):
        placed |= 1 << r
        tie = _column_rule(ends, c, r, following, placed)
        if tie is None:
            return None
        if tie:
            ties.append(c)
    return tuple(ties)


def is_in_n_mu_fast(v: MonomialMatrix, mu: tuple) -> bool:
    """Pattern test: v indexes a nonzero double-coset basis element iff its
    permutation passes _pattern_ties and its entries agree along the ties."""
    ties = _pattern_ties(v.perm, mu)
    return ties is not None and all(v.entries[c] == v.entries[c + 1] for c in ties)


def is_in_n_mu_direct(K: Field, v: MonomialMatrix, mu: tuple) -> bool:
    """Literal membership check: conjugation by v preserves psi_mu wherever
    it stays inside U.  Iterates over all of U; ground-truth oracle only.
    v^-1 is the transpose of v with each entry inverted."""
    from hecke import oracle

    n = v.n
    u_order(K.q, n)
    cols = oracle._psi_columns(mu)
    vm = oracle.monomial_to_matrix(K, v)
    vinv = tuple(tuple(x and K.inv(x) for x in col) for col in zip(*vm))
    for u in oracle.enumerate_u(K, n):
        w = oracle.mat_mul(K, oracle.mat_mul(K, vm, u), vinv)
        if oracle.is_unipotent_upper(w):
            if (oracle._psi_exponent(K, u, cols) - oracle._psi_exponent(K, w, cols)) % K.p:
                return False
    return True


# -- enumeration ---------------------------------------------------------------


def degree_matrices(mu: tuple):
    """All nonnegative l-by-l matrices with row and column sums mu, in
    row-major lexicographic order.  Each row is bounded by the column sums
    still to fill, so the last row is exactly what is left.  The rows are
    walked with a stack of their choices, not by recursion, so no part
    count meets the interpreter's recursion limit."""
    from hecke.shapes import weak_compositions

    l, rows = len(mu), []
    if not l:
        yield ()
        return
    rests = [tuple(mu)]  # rests[i]: the column sums rows i, i+1, ... fill
    choices = [weak_compositions(mu[0], rests[0])]  # choices[i]: row i's untried options
    while choices:
        i = len(rows)  # row i is next: rows holds the rows above it
        row = next(choices[i], None)
        if row is None:  # row i has no option left: row i-1 takes its next
            del choices[i], rests[i]
            rows = rows[:-1]
        elif i + 1 == l:
            yield (*rows, row)
        else:
            rows.append(row)
            rests.append(tuple(r - x for r, x in zip(rests[i], row)))
            choices.append(weak_compositions(mu[i + 1], rests[-1]))


def m_mu_size(q: int, mu: tuple) -> int:
    """|M_mu| = |N_mu| in closed form, counted row by row: a degree-d entry
    has (q-1) q^(d-1) choices, and the partial counts are keyed by the
    sorted column sums still to fill (which column has which sum does not
    change the count), so no degree matrix is formed."""
    from hecke.shapes import weak_compositions

    counts = {tuple(sorted(mu)): 1}
    for part in mu:
        filled: dict = {}
        for rem, count in counts.items():
            for row in weak_compositions(part, rem):
                key = tuple(sorted(r - x for r, x in zip(rem, row)))
                weight = math.prod((q - 1) * q ** (x - 1) for x in row if x)
                filled[key] = filled.get(key, 0) + count * weight
        counts = filled
    return sum(counts.values())


def walk_m_mu(K: Field, mu: tuple, piece) -> Iterator[tuple]:
    """M_mu as products of pieces, each made once.

    For each degree matrix d, in degree_matrices order, yields (columns,
    choices).  choices is the product, over the entries (i, j) in row-major
    order, of piece(f, r) for each monic unit f of degree d[i][j], r being
    the first row of block (i, j) of v_a: its k-th tuple holds the pieces of
    the k-th element of M_mu with degree matrix d, in the order of
    enumerate_m_mu.  columns lists the indices i*l + j of the nonempty
    blocks by first column, the order in which v_a joins them.  Only the
    blocks of _layout vary: each has its pieces made once per degree matrix
    and dropped with it, and every entry of degree 0 shares the one choice
    piece((1,), None), made once per walk.
    """
    l, empty = len(mu), [piece((1,), None)]
    for d in degree_matrices(mu):
        blocks = _layout(mu, tuple([tuple([x + 1 for x in row]) for row in d]))
        options = [empty] * (l * l)
        for i, j, r, _, size in blocks:
            options[i * l + j] = [piece(f, r) for f in enumerate_monic_units(K, size)]
        yield [i * l + j for i, j, *_ in blocks], itertools.product(*options)


def enumerate_m_mu(K: Field, mu: tuple) -> Iterator[PolyMatrix]:
    """Stream M_mu, ordered by degree matrix then entrywise by polynomial."""
    mu, l = tuple(mu), len(mu)
    for _, choices in walk_m_mu(K, mu, lambda f, r: f):
        for flat in choices:
            yield PolyMatrix(tuple(flat[k : k + l] for k in range(0, l * l, l)), mu)


def enumerate_n(K: Field, n: int) -> Iterator[MonomialMatrix]:
    """Stream all monomial matrices, in (permutation, entries) lexicographic order."""
    for perm in itertools.permutations(range(n)):
        for entries in itertools.product(K.units(), repeat=n):
            yield MonomialMatrix(perm, entries)


# -- serialization --------------------------------------------------------------


def monomial_to_obj(K: Field, v: MonomialMatrix) -> dict:
    """v as `map a_to_v` and the verify reports print it: 1-based rows, and
    each entry as its code, or its coordinates when k > 1."""
    return {
        "perm": [r + 1 for r in v.perm],
        "entries": [e if K.k == 1 else list(K.coords(e)) for e in v.entries],
    }
