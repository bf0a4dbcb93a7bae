"""The records of `enum` and `map`: their text and JSON forms, the writer,
each job's driver (cli.JOBS names it) and the two commands, which the CLI
loads only for an `enum` or `map` job.  It reads every `map` input, and
checks each against its form or guard (`map rsk`'s matrix b included).

A field element is its code for prime fields and its coordinate vector
"[c0,c1,...]" for extension fields; either form is read back.  Polynomials
print as gf.format_poly prints them, lowest degree first: X^3 + X + 1 over
F_2 is "1+1*X^1+1*X^3".  Parsing accepts omitted "*" and "^1".  The term
pattern is compiled by re on its first use (and cached there), not at
import: only parse_poly reads it.  A polynomial matrix is read through
validate_m_mu, the one place outside data is checked to lie in M_mu.

`enum` streams: the first record (under the TSV header) is written and
flushed as soon as the enumeration yields it; every later line, the count
footer included, joins a block that is written and flushed, one write call,
once it holds BLOCK characters, so a record longer than BLOCK goes out
alone.  A driver imports hecke_index or rsk when it runs, as the CLI has
already done for its job.
"""

from __future__ import annotations

import itertools
import json
import re
import sys

from hecke.gf import (
    Field,
    Poly,
    enumerate_irreducibles,
    format_poly,
    is_monic,
    poly_deg,
    poly_key,
    poly_trim,
)
from hecke.guards import DEGREE_GUARD, TWO_LINE_GUARD, MembershipError, check_guard

_encode = json.JSONEncoder(separators=(",", ":")).encode  # json.dumps builds one per call


# -- field elements and polynomials ----------------------------------------------

_TERM_RE = r"^\s*(?P<coeff>\[[^\]]*\]|\d+)?\s*\*?\s*(?P<var>X(\^(?P<deg>\d+))?)?\s*$"


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def element_to_obj(K: Field, a: int):
    return a if K.k == 1 else list(K.coords(a))


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
        return element_from_obj(K, int(s))
    return element_from_obj(K, [int(t) for t in s[1:-1].split(",")] if s[1:-1].strip() else [])


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
    """The hecke_index.MonomialMatrix of a {"perm", "entries"} object."""
    from hecke.hecke_index import MonomialMatrix

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


def polymatrix_to_obj(K: Field, a) -> dict:
    return {
        "mu": list(a.mu),
        "entries": [[format_poly(K, f) for f in row] for row in a.entries],
    }


def polymatrix_from_obj(K: Field, obj: dict):
    """The hecke_index.PolyMatrix of a {"mu", "entries"} object, checked to
    lie in M_mu by validate_m_mu."""
    from hecke.hecke_index import PolyMatrix

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


# -- label families -------------------------------------------------------------------


def family_to_obj(K: Field, fam) -> dict:
    return {format_poly(K, g): [list(row) for row in rows] for g, rows in fam}


def family_from_obj(K: Field, obj: dict) -> tuple:
    fam = [
        (parse_poly(K, s), tuple(tuple(row) for row in rows))
        for s, rows in obj.items()
    ]
    return tuple(sorted(fam, key=lambda item: poly_key(item[0])))


def pair_to_obj(K: Field, pair) -> dict:
    return {"P": family_to_obj(K, pair[0]), "Q": family_to_obj(K, pair[1])}


# -- the writer ---------------------------------------------------------------------


BLOCK = 32768  # characters per write: about what 256 records of 70-120 bytes make


class _Writer:
    """Writes records given as the JSON texts of their values, under keys
    given once when the writer is made: a JSON object per line, or TSV rows
    after a header of the keys, where a string value shows unquoted."""

    def __init__(self, args, keys: tuple):
        self.fmt = args.format
        self.path = args.output
        self.handle = open(self.path, "w") if self.path else sys.stdout
        self.block = []  # the lines made and not yet written
        if self.fmt == "json":
            self.row = "{" + ",".join(f"{_encode(key)}:%s" for key in keys) + "}\n"
            self.footer = '{"count": %d}\n'
        else:
            self.row = "\t".join("%s" for _ in keys) + "\n"
            self.footer = "# count=%d\n"
            self.block.append("\t".join(keys) + "\n")  # the header goes out with the first row

    def write(self, records) -> int:
        # Writes each record's line and returns their count.  A block is one write call,
        # flushed, once it holds BLOCK characters: on unbuffered stdout, one write(2).
        row, block, tsv, count = self.row, self.block, self.fmt == "tsv", 0
        size = BLOCK  # the block starts full, so the first record goes out at once
        for count, texts in enumerate(records, 1):
            if tsv:
                texts = tuple(json.loads(t) if t[0] == '"' else t for t in texts)
            text = row % texts
            block.append(text)
            size += len(text)
            if size >= BLOCK:
                self.flush()
                size = 0
        return count

    def flush(self):
        if self.block:
            self.handle.write("".join(self.block))
            self.handle.flush()
            self.block.clear()

    def close(self):
        self.flush()
        if self.path:
            self.handle.close()


# -- enum -----------------------------------------------------------------------


# An enum driver streams the keys of its records, then the JSON texts of
# each record's values.  The M_mu and N_mu records are joins of texts that
# walk_m_mu has each encoded once: an entry's polynomial, filling a grid
# template made once per l, or a sub-block's 1-based rows and entries.  A
# pair is the texts of its two label families, each made once per family.


def m_mu_records(K: Field, mu: tuple):
    from hecke import hecke_index

    yield "mu", "entries"
    l = len(mu)
    grid = "[[" + "],[".join([",".join(["%s"] * l)] * l) + "]]"  # filled row by row
    walk = hecke_index.walk_m_mu(K, mu, lambda f, r: _encode(format_poly(K, f)))
    for _, choices in walk:
        yield from zip(itertools.repeat(_encode(list(mu))), map(grid.__mod__, choices))


def n_mu_records(K: Field, mu: tuple):
    from hecke import hecke_index

    def block_texts(f, r) -> tuple:
        block = hecke_index.v_of_poly(K, f)  # v_(f), the sub-block of v_a from row r
        return (
            ",".join(str(r + x + 1) for x in block.perm),
            ",".join(_encode(element_to_obj(K, e)) for e in block.entries),
        )

    yield "perm", "entries"
    for columns, choices in hecke_index.walk_m_mu(K, mu, block_texts):
        for flat in choices:
            perms, entries = zip(*[flat[k] for k in columns])
            yield "[" + ",".join(perms) + "]", "[" + ",".join(entries) + "]"


def irreducible_records(K: Field, max_deg: int):
    yield ("poly",)
    for f in enumerate_irreducibles(K, max_deg):
        yield (_encode(format_poly(K, f)),)


def pair_records(K: Field, mu: tuple):
    from hecke import rsk

    yield "P", "Q"
    texts: dict = {}  # family -> text, for the families of one label shape, which recur
    for P, Q in rsk.enumerate_pairs(K, mu):
        if P not in texts:  # a new shape: P did not come as a Q before it
            texts = {P: _encode(family_to_obj(K, P))}
        yield texts[P], texts.get(Q) or texts.setdefault(Q, _encode(family_to_obj(K, Q)))


def cmd_enum(args, driver, values) -> int:
    """Stream the records of the enum driver called on values."""
    stream = driver(*values)
    writer = _Writer(args, next(stream))
    try:
        writer.block.append(writer.footer % writer.write(stream))  # close writes the footer
    finally:  # a stream cut short still writes the records it made
        writer.close()
    return 0


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
    return polymatrix_to_obj(K, hecke_index.matrix_of_v(K, v, mu))


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
    return {**pair_to_obj(K, pair), "weight": list(rsk.family_weight(pair[0]))}


def cmd_map(args, driver, values) -> int:
    """Write the record the map driver makes of values and the input record."""
    record = driver(*values, _read_input(args))
    writer = _Writer(args, tuple(record))
    writer.write([tuple(map(_encode, record.values()))])
    writer.close()
    return 0
