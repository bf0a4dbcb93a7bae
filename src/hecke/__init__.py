"""Combinatorics of unipotent Hecke algebras of GL_n(F_q).

The modules cover exact F_q and polynomial arithmetic (gf), partition and
tableau combinatorics (shapes), the monomial and polynomial matrix types
(matrices), the monomial-matrix index sets and their bijection with
polynomial matrices (hecke_index), column-insertion RSK and its
generalization (rsk), multiplicity combinatorics (decomp), and an exact
group-algebra verification oracle (oracle).  The exhaustive witnesses of
the two bijections (bijection), the size guards (guards) and the price of
each `verify` check (prices), the records that `enum` and `map` write
(records), the readers of `map` input and the `map` jobs (maps), and the
command line (cli) complete the package; the command line loads each
module only for a job that runs it.
"""

from hecke.gf import Field

__all__ = ["Field"]
