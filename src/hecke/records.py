"""The records of `enum` and `map` as they are written: their text and JSON
forms, the writer, each `enum` driver (cli.JOBS names it) and the `enum`
command, which the CLI loads only for an `enum` or `map` job.  What reads
outside data, the `map` drivers and the `map` command are in hecke.maps,
which only a `map` job loads.

A field element is its code for prime fields and its coordinate vector
"[c0,c1,...]" for extension fields.  Polynomials print as gf.format_poly
prints them, lowest degree first: X^3 + X + 1 over F_2 is "1+1*X^1+1*X^3".

`enum` streams: the first record (under the TSV header) is written and
flushed as soon as the enumeration yields it; every later line, the count
footer included, joins a block that is written and flushed, one write call,
once it holds BLOCK characters, so a record longer than BLOCK goes out
alone.  A driver imports hecke_index or rsk when it runs, so an `enum` job
loads only the one it calls.
"""

from __future__ import annotations

import itertools
import json
import sys

from hecke.gf import Field, enumerate_irreducibles, format_coeff, format_poly

_encode = json.JSONEncoder(separators=(",", ":")).encode  # json.dumps builds one per call


# -- the write-side forms ----------------------------------------------------------


def polymatrix_to_obj(K: Field, a) -> dict:
    return {
        "mu": list(a.mu),
        "entries": [[format_poly(K, f) for f in row] for row in a.entries],
    }


def family_to_obj(K: Field, fam) -> dict:
    return {format_poly(K, g): [list(row) for row in rows] for g, rows in fam}


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
            ",".join(format_coeff(K, e) for e in block.entries),
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
