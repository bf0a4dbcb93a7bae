"""Compositions, partitions, horizontal strips, and column-strict tableaux.

Compositions and partitions are tuples of positive integers; a partition is
weakly decreasing.  A tableau is a tuple of row tuples.  A column-strict
tableau of weight w is a chain of partitions, entry i adding a horizontal
strip of w_i boxes (Macdonald I.1), so horizontal_strips serves both the
tableau enumeration and the Pieri rule.  Weights are tuples of nonnegative
counts indexed from 1 and may carry trailing zeros.
"""

from __future__ import annotations

from itertools import accumulate, zip_longest
from operator import add, sub

Partition = tuple
Rows = tuple


def check_partition(nu):
    """Refuse anything but a weakly decreasing tuple of positive integers."""
    positive = all(isinstance(m, int) and m >= 1 for m in nu)
    if not positive or any(a < b for a, b in zip(nu, nu[1:])):
        raise ValueError(f"not a partition: {list(nu)}")


def conjugate(nu: Partition) -> Partition:
    """Transpose of the diagram: nu'_i = #{j : nu_j >= i}."""
    if not nu:
        return ()
    return tuple(sum(1 for part in nu if part >= i) for i in range(1, nu[0] + 1))


def partitions_of(n: int, max_part: int | None = None):
    """All partitions of n, largest part first, in descending lex order."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def weak_compositions(n: int, bounds: tuple):
    """All tuples w of nonnegative integers summing to n with w_i <= bounds[i],
    in lex order, as an odometer on one list: the next tuple raises the last
    part that can take a unit from the parts after it, and those restart as
    low as the later bounds allow."""
    l = len(bounds)
    room = [*accumulate(reversed(bounds), initial=0)][::-1]  # room[i] = sum(bounds[i:])
    if not 0 <= n <= room[0]:
        return
    w = [0] * l
    i, rest = -1, n  # the parts after i share rest
    while True:
        for j in range(i + 1, l):
            w[j] = max(0, rest - room[j + 1])
            rest -= w[j]
        yield tuple(w)
        rest = w[-1] if w else 0
        for i in range(l - 2, -1, -1):
            if rest and w[i] < bounds[i]:
                w[i] += 1
                rest -= 1
                break
            rest += w[i]
        else:
            return


def horizontal_strips(inner: Partition, n: int, outer: Partition | None = None):
    """The partitions gamma containing inner for which gamma/inner is a
    horizontal n-strip (no two of its boxes in one column), in lex order, and
    with gamma inside outer when outer (containing inner) is given.  Row i of
    inner may grow by at most inner_(i-1) - inner_i, the first row by n and a
    new row by inner's last part (Macdonald I.1)."""
    margins = inner + (0,)
    bounds = (n, *map(sub, inner, margins[1:]))
    if outer is not None:
        bounds = tuple(map(min, bounds, map(sub, outer + (0,) * len(margins), margins)))
    for grow in weak_compositions(n, bounds):
        gamma = tuple(map(add, margins, grow))
        yield gamma if gamma[-1] else gamma[:-1]


def cst_check(rows: Rows, shape: Partition) -> bool:
    """True iff the filling weakly increases along rows and strictly
    increases down columns.  The rows must match the declared shape."""
    check_partition(shape)
    if len(rows) != len(shape):
        raise ValueError("row count does not match shape")
    for r, row in enumerate(rows):
        if len(row) != shape[r]:
            raise ValueError("row lengths do not match shape")
    for r, row in enumerate(rows):
        for c in range(len(row) - 1):
            if row[c] > row[c + 1]:
                return False
        if r > 0:
            for col in range(len(row)):
                if rows[r - 1][col] >= row[col]:
                    return False
    return True


def enumerate_cst(shape: Partition, weight) -> list:
    """All column-strict fillings of the shape with the given weight, in
    lexicographic order of the row reading word.  A filling is a chain of
    horizontal strips, the one of entry i having weight_i boxes, so each
    tableau is grown strip by strip inside the shape.  The count is the
    Kostka number."""
    check_partition(shape)
    if sum(shape) != sum(weight):
        raise ValueError("shape size and weight size differ")
    tableaux = [()]
    for entry, count in enumerate(weight, start=1):
        if count:
            tableaux = [
                tuple(
                    row + (entry,) * (g - len(row))
                    for row, g in zip_longest(rows, gamma, fillvalue=())
                )
                for rows in tableaux
                for gamma in horizontal_strips(tuple(map(len, rows)), count, shape)
            ]
    return sorted(tableaux)


def kostka(shape, weight) -> int:
    return len(enumerate_cst(shape, weight))
