"""Combinatorics of unipotent Hecke algebras of GL_n(F_q).

Subpackages cover exact F_q and polynomial arithmetic (gf), partition and
tableau combinatorics (shapes), the monomial-matrix index sets and their
bijection with polynomial matrices (hecke_index), column-insertion RSK and
its generalization (rsk), multiplicity combinatorics (decomp), and an exact
group-algebra verification oracle (oracle).
"""

from hecke.gf import Field

__all__ = ["Field"]
