"""Column-insertion RSK and its generalization to M_mu.

The insertion displaces, in the first column, the smallest entry that is at
least the inserted value (appending at the bottom when every entry is
smaller), then carries the displaced entry into the next column, and so on.
Two-line arrays list the matrix positions with the top line weakly
increasing and the bottom line weakly decreasing within blocks.

A label family (the P and Q of the generalized correspondence) is a tuple
of (irreducible polynomial, tableau rows) pairs in the canonical label
order, with empty tableaux omitted.  The correspondence is classical RSK
label by label, so one label's pair depends only on its multiplicity
matrix, and so do its shapes and contents, which the bijectivity check
(hecke.bijection) reads once per matrix and weights by the label's
degree.  The fillings of a label shape depend on its labels only through
their degrees.  Each pair and summary is made once per matrix, each
filling list once per degree signature, each tableau list once per (shape,
weight), all kept as immutable tuples.  The JSON forms of the families
are in hecke.records; reading them back, and the `map rsk` record with the
checks of its matrix, are in hecke.maps.

Only insert_column and the enumeration of label shapes, fillings and
tableaux read hecke.shapes, and each imports it when it runs: `map rsk` and
`map rsk_general` load no shapes.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from functools import lru_cache
from typing import TYPE_CHECKING, Iterator

from hecke.gf import Field, _irreducibles_through, factorize, poly_deg, poly_key

if TYPE_CHECKING:  # read by annotations only: `map rsk` and `enum pairs` load no matrices
    from hecke.matrices import PolyMatrix


def _transpose(lines) -> tuple:
    """The columns of a tableau held as rows, or its rows when held as columns."""
    width = len(lines[0]) if lines else 0
    return tuple(tuple(line[k] for line in lines if k < len(line)) for k in range(width))


def _bump(cols, entry) -> int:
    """Column insertion into a tableau held as its columns, in place; returns
    the index of the column that grew."""
    for c, col in enumerate(cols):
        idx = bisect_left(col, entry)
        if idx == len(col):
            col.append(entry)
            return c
        col[idx], entry = entry, col[idx]
    cols.append([entry])
    return len(cols) - 1


def insert_column(rows, entry: int) -> tuple:
    """Column insertion of a positive entry into a column-strict tableau."""
    from hecke.shapes import cst_check

    rows = tuple(tuple(r) for r in rows)
    shape = tuple(len(r) for r in rows)
    if not cst_check(rows, shape):
        raise ValueError("insertion requires a column-strict tableau")
    if entry < 1:
        raise ValueError("entries must be positive")
    cols = [list(col) for col in _transpose(rows)]
    _bump(cols, entry)
    return _transpose(cols)


def two_line_array(b) -> tuple:
    """b_{ij} copies of the pair (i, j), top line weakly increasing and the
    bottom line weakly decreasing within constant blocks of the top."""
    pairs = []
    for i, row in enumerate(b, start=1):
        for j in range(len(row), 0, -1):
            pairs.extend([(i, j)] * row[j - 1])
    return tuple(pairs)


def rsk_classical(b) -> tuple:
    """The (P, Q) pair of the matrix b, made once per matrix: b is keyed as a
    tuple of tuples, so a list of lists gives the same pair."""
    return _rsk_classical(tuple(map(tuple, b)))


@lru_cache(maxsize=None)
def _rsk_classical(b: tuple) -> tuple:
    """Fold column insertion over the bottom line, with P and Q held as
    columns, and append each top-line entry to the column of Q whose twin in
    P grew.  Rows are formed once, at the end."""
    P: list = []
    Q: list = []
    for i, j in two_line_array(b):
        c = _bump(P, j)
        if c == len(Q):
            Q.append([])
        Q[c].append(i)
    return _transpose(P), _transpose(Q)


# -- generalized RSK on M_mu -----------------------------------------------------


def phi_factor_matrix(K: Field, a: PolyMatrix) -> tuple:
    """Entry-by-entry factorization of a in M_mu, unchecked (the caller
    guarantees a in M_mu): for each irreducible label dividing some entry,
    the matrix of multiplicities, in canonical label order."""
    l = len(a.mu)
    mats: dict = {}
    for i in range(l):
        for j in range(l):
            _, factors = factorize(K, a.entries[i][j])
            for g, m in factors:
                mats.setdefault(g, [[0] * l for _ in range(l)])[i][j] = m
    return tuple(
        (g, tuple(tuple(row) for row in mats[g])) for g in sorted(mats, key=poly_key)
    )


def rsk_generalized(K: Field, a: PolyMatrix) -> tuple:
    """Componentwise classical RSK over the factorization labels of a, which
    the caller guarantees is in M_mu.  Both families share their shape label
    by label, and both have degree-weighted weight mu."""
    return _families(phi_factor_matrix(K, a))


def _families(labels) -> tuple:
    """The P and Q families of the labelled multiplicity matrices."""
    fam_p, fam_q = [], []
    for g, mat in labels:
        P, Q = _rsk_classical(mat)
        fam_p.append((g, P))
        fam_q.append((g, Q))
    return tuple(fam_p), tuple(fam_q)


@lru_cache(maxsize=None)
def _shapes_and_contents(b: tuple) -> tuple:
    """Whether the P and Q of the square matrix b share their shape, and the
    number of entries i of P and of Q for i = 1..len(b): read once per
    matrix from its pair."""
    P, Q = _rsk_classical(b)
    contents = []
    for rows in (P, Q):
        counts = [0] * len(b)
        for e in itertools.chain.from_iterable(rows):
            counts[e - 1] += 1
        contents.append(tuple(counts))
    return (tuple(map(len, P)) == tuple(map(len, Q)), *contents)


def _label_weights(labels, l: int) -> tuple:
    """Whether the families of the labelled l-by-l matrices share their
    shape label by label, and the degree-weighted weights of P and of Q over
    1..l: each label's contents times deg(label), summed."""
    same, wt_p, wt_q = True, [0] * l, [0] * l
    for g, mat in labels:
        ok, c_p, c_q = _shapes_and_contents(mat)
        d = poly_deg(g)
        same = same and ok
        for i in range(l):
            wt_p[i] += d * c_p[i]
            wt_q[i] += d * c_q[i]
    return same, tuple(wt_p), tuple(wt_q)


def family_weight(fam) -> tuple:
    """Degree-weighted weight: wt_i = sum over labels of deg(label) times
    the number of entries i, with trailing zeros trimmed."""
    counts: dict = {}
    for g, rows in fam:
        d = poly_deg(g)
        for row in rows:
            for e in row:
                counts[e] = counts.get(e, 0) + d
    top = max(counts, default=0)
    return tuple(counts.get(i, 0) for i in range(1, top + 1))


# -- enumeration of label shapes, fillings, and pairs ------------------------------


def enumerate_phi_shapes(K: Field, mu: tuple) -> list:
    """All label-indexed partition families of total degree-weighted size
    |mu| over labels of degree at most max(mu); each lists its labels in
    label order.  A box of a degree-d label adds d to one part of the
    weight, so a label of higher degree has no filling of weight mu.  The
    labels are the cached irreducibles past X, which has f(0) = 0."""
    from hecke.shapes import partitions_of

    n = sum(mu)
    if n == 0:
        return [()]
    labels = _irreducibles_through(K, max(mu))[1:]
    degrees = [poly_deg(g) for g in labels]  # nondecreasing: labels are in degree order
    out: list = []

    def rec(start, remaining, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        # One level per label used, so the depth is at most n.  The later
        # labels come first: every family that skips a label precedes every
        # family that uses it.  Labels of degree above `remaining` fit no box.
        for idx in reversed(range(start, bisect_right(degrees, remaining))):
            g, d = labels[idx], degrees[idx]
            for boxes in range(1, remaining // d + 1):
                for lam in partitions_of(boxes):
                    acc.append((g, lam))
                    rec(idx + 1, remaining - d * boxes, acc)
                    acc.pop()

    rec(0, n, [])
    return out


def enumerate_phi_fillings(shape, mu) -> list:
    """All column-strict family fillings of the label shape whose
    degree-weighted weight is exactly mu.  A label enters a filling only
    through its degree, so the fillings are made once per degree signature
    ((deg g, lam), ...) and mu, and the shape's labels are attached in order."""
    labels = [g for g, _ in shape]
    signature = tuple((poly_deg(g), lam) for g, lam in shape)
    return [tuple(zip(labels, rows)) for rows in _fillings(signature, tuple(mu))]


@lru_cache(maxsize=None)
def _fillings(signature: tuple, mu: tuple) -> tuple:
    """The fillings of every label shape with this degree signature, each as
    its tableaux in label order."""
    from hecke.shapes import weak_compositions

    out: list = []

    def rec(idx, remaining, acc):
        if idx == len(signature):
            if all(r == 0 for r in remaining):
                out.append(tuple(acc))
            return
        d, lam = signature[idx]
        for w in weak_compositions(sum(lam), tuple(r // d for r in remaining)):
            rest = tuple(r - d * wi for r, wi in zip(remaining, w))
            for rows in _tableaux(lam, w):
                acc.append(rows)
                rec(idx + 1, rest, acc)
                acc.pop()

    rec(0, mu, [])
    return tuple(out)


@lru_cache(maxsize=None)
def _tableaux(lam: tuple, w: tuple) -> tuple:
    """enumerate_cst(lam, w), made once per (lam, w)."""
    from hecke.shapes import enumerate_cst

    return tuple(enumerate_cst(lam, w))


def enumerate_pairs(K: Field, mu: tuple) -> Iterator[tuple]:
    """Stream all pairs of label families with equal shape per label and
    degree-weighted weight mu on both sides; the certified codomain of the
    generalized correspondence."""
    for shape in enumerate_phi_shapes(K, mu):
        fillings = enumerate_phi_fillings(shape, mu)
        yield from itertools.product(fillings, fillings)
