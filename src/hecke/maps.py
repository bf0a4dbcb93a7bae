"""The `map` jobs: every reader of outside data, each `map` driver (cli.JOBS
names it) and the `map` command, which the CLI loads only for a `map` job.
Each input is checked against its form or guard (`map rsk`'s matrix b
included); the record is written through hecke.records' writer.

A field element is read as its code for prime fields or as its coordinate
vector "[c0,c1,...]" for extension fields.  Polynomials are read in the
form gf.format_poly prints, lowest degree first: X^3 + X + 1 over F_2 is
"1+1*X^1+1*X^3", and an omitted "*" or "^1" is accepted.  Every number in
polynomial text is written in ASCII digits (int() alone would also take
any Unicode digit, or "_" between digits).  The term pattern is compiled
by re on its first use (and cached there), not at import: only parse_poly
reads it.  A polynomial matrix is read through validate_m_mu, the one
place outside data is checked to lie in M_mu.  A driver imports
hecke_index or rsk when it runs, so a `map` job loads only the one it calls.
"""

from __future__ import annotations

import itertools
import json
import re
import sys

from hecke import records
from hecke.gf import Field, Poly, format_poly, is_monic, poly_deg, poly_key, poly_trim
from hecke.guards import DEGREE_GUARD, TWO_LINE_GUARD, MembershipError, check_guard

# -- field elements and polynomials ----------------------------------------------

_TERM_RE = r"^\s*(?P<coeff>\[[^\]]*\]|[0-9]+)?\s*\*?\s*(?P<var>X(\^(?P<deg>[0-9]+))?)?\s*$"


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _integer(s: str) -> int:
    """The integer s writes in ASCII digits, after an optional "-" and with
    spaces around; element_from_obj then checks its range."""
    if not re.fullmatch(r"\s*-?[0-9]+\s*", s):
        raise ValueError(f"cannot parse coefficient {s!r}: expected ASCII digits")
    return int(s)


def element_from_obj(K: Field, obj) -> int:
    if _is_int(obj) and 0 <= obj < K.q:
        return obj
    if isinstance(obj, list) and len(obj) <= K.k and all(_is_int(c) and 0 <= c < K.p for c in obj):
        return K.from_coords(tuple(obj) + (0,) * (K.k - len(obj)))
    raise ValueError(
        f"field element {obj!r} is neither an integer below q = {K.q} nor at most"
        f" k = {K.k} coordinates below p = {K.p}"
    )


def parse_coeff(K: Field, s: str) -> int:
    s = s.strip()
    if not s.startswith("["):
        return element_from_obj(K, _integer(s))
    coords = s[1:-1].split(",") if s[1:-1].strip() else []
    return element_from_obj(K, [_integer(t) for t in coords])


def parse_poly(K: Field, s: str) -> Poly:
    s = s.strip()
    if s == "0":
        return ()
    coeffs: dict = {}
    for term in s.split("+"):
        m = re.match(_TERM_RE, term)
        if not m or (m.group("coeff") is None and m.group("var") is None):
            raise ValueError(f"cannot parse polynomial term {term!r}")
        c = 1 if m.group("coeff") is None else parse_coeff(K, m.group("coeff"))
        d = 0 if m.group("var") is None else int(m.group("deg") or 1)
        coeffs[d] = K.add(coeffs.get(d, 0), c)
    check_guard(max(coeffs), DEGREE_GUARD, "polynomial degree")
    out = [0] * (max(coeffs) + 1)
    for d, c in coeffs.items():
        out[d] = c
    return poly_trim(out)


# -- monomial and polynomial matrices ----------------------------------------------


def validate_m_mu(K: Field, a):
    """a itself, or MembershipError if the l-by-l grid a is not in M_mu."""
    for f in itertools.chain(*a.entries):
        if not is_monic(f) or f[0] == 0:
            raise MembershipError(
                f"entry {format_poly(K, f)} is not monic with nonzero constant term"
            )
    d = tuple(tuple(poly_deg(f) for f in row) for row in a.entries)
    row_sums = tuple(sum(row) for row in d)
    col_sums = tuple(sum(col) for col in zip(*d))
    if row_sums != tuple(a.mu) or col_sums != tuple(a.mu):
        raise MembershipError(
            f"degree sums {row_sums} / {col_sums} do not both equal mu = {a.mu}"
        )
    return a


def monomial_from_obj(K: Field, obj: dict):
    """The matrices.MonomialMatrix of a {"perm", "entries"} object."""
    from hecke.matrices import MonomialMatrix

    if not (
        isinstance(obj, dict)
        and isinstance(obj.get("perm"), list)
        and isinstance(obj.get("entries"), list)
        and all(_is_int(r) for r in obj["perm"])
    ):
        raise ValueError('a monomial matrix is {"perm": [integers], "entries": [entries]}')
    perm = tuple(r - 1 for r in obj["perm"])
    entries = tuple(element_from_obj(K, e) for e in obj["entries"])
    if sorted(perm) != list(range(len(perm))):
        raise ValueError("perm is not a permutation")
    if len(entries) != len(perm) or any(e == 0 for e in entries):
        raise ValueError("entries must be nonzero, one per column")
    return MonomialMatrix(perm, entries)


def polymatrix_from_obj(K: Field, obj: dict):
    """The matrices.PolyMatrix of a {"mu", "entries"} object, checked to lie
    in M_mu by validate_m_mu."""
    from hecke.matrices import PolyMatrix

    if not (
        isinstance(obj, dict)
        and isinstance(obj.get("mu"), list)
        and isinstance(obj.get("entries"), list)
        and obj["mu"]
        and all(_is_int(part) and part >= 1 for part in obj["mu"])
        and all(
            isinstance(row, list) and all(isinstance(f, str) for f in row)
            for row in obj["entries"]
        )
    ):
        raise ValueError(
            'a polynomial matrix is {"mu": [positive integers], "entries": [[polynomial strings]]}'
        )
    mu = tuple(obj["mu"])
    if len(obj["entries"]) != len(mu) or any(len(row) != len(mu) for row in obj["entries"]):
        raise ValueError(f"entries must be a {len(mu)}-by-{len(mu)} grid, one row per part of mu")
    grid = tuple(tuple(parse_poly(K, s) for s in row) for row in obj["entries"])
    return validate_m_mu(K, PolyMatrix(grid, mu))


def family_from_obj(K: Field, obj: dict) -> tuple:
    fam = [
        (parse_poly(K, s), tuple(tuple(row) for row in rows))
        for s, rows in obj.items()
    ]
    return tuple(sorted(fam, key=lambda item: poly_key(item[0])))


# -- map ------------------------------------------------------------------------


def _read_input(args):
    try:
        if args.input:
            with open(args.input) as handle:
                return json.load(handle)
        return json.load(sys.stdin)
    except RecursionError:  # json's decoder recurses once per nested array or object
        raise ValueError("the JSON input nests too deeply to read") from None


def a_to_v_record(K: Field, data) -> dict:
    from hecke import hecke_index

    a = polymatrix_from_obj(K, data)
    return {"mu": list(a.mu), **hecke_index.monomial_to_obj(K, hecke_index.v_of_matrix(K, a))}


def v_to_a_record(K: Field, mu: tuple, data) -> dict:
    from hecke import hecke_index

    v = monomial_from_obj(K, data)
    return records.polymatrix_to_obj(K, hecke_index.matrix_of_v(K, v, mu))


def classical_record(data) -> dict:
    """The `map rsk` record of {"b": b} or of b itself: the two-line array of
    the nonnegative integer matrix b and its pair (P, Q); ValueError for any
    other input, and GuardExceeded, before the array is built, when its
    length sum b_ij is over guards.TWO_LINE_GUARD."""
    from hecke import rsk

    b = data.get("b") if isinstance(data, dict) else data
    rows = b if isinstance(b, list) and all(isinstance(row, list) for row in b) else []
    if not rows or any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("b must be a rectangular matrix")
    if not all(_is_int(x) and x >= 0 for row in b for x in row):
        raise ValueError("b must have nonnegative integer entries")
    check_guard(sum(map(sum, b)), TWO_LINE_GUARD, "two-line array length sum b_ij")
    array = rsk.two_line_array(b)
    P, Q = rsk.rsk_classical(b)
    return {
        "two_line": [[i for i, _ in array], [j for _, j in array]],
        "P": [list(row) for row in P],
        "Q": [list(row) for row in Q],
    }


def generalized_record(K: Field, data) -> dict:
    from hecke import rsk

    pair = rsk.rsk_generalized(K, polymatrix_from_obj(K, data))
    return {**records.pair_to_obj(K, pair), "weight": list(rsk.family_weight(pair[0]))}


def cmd_map(args, driver, values) -> int:
    """Write the record the map driver makes of values and the input record."""
    record = driver(*values, _read_input(args))
    writer = records._Writer(args, tuple(record))
    writer.write([tuple(map(records._encode, record.values()))])
    writer.close()
    return 0
