"""The two matrix types of the bijection, which a job that reads or walks
them imports without the code that makes them (hecke_index).

A monomial matrix is stored column by column: perm[c] is the (0-based) row
of the unique nonzero entry in column c and entries[c] is that entry's
field code.  A polynomial matrix in M_mu is an l-by-l grid of monic
polynomials with nonzero constant terms whose degree row sums and degree
column sums both equal mu.
"""

from typing import NamedTuple


class MonomialMatrix(NamedTuple):
    perm: tuple
    entries: tuple

    @property
    def n(self) -> int:
        return len(self.perm)


class PolyMatrix(NamedTuple):
    entries: tuple  # l-by-l grid of Poly
    mu: tuple
