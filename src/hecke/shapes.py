"""Compositions, partitions, skew shapes, and column-strict tableaux.

Compositions and partitions are tuples of positive integers; a partition is
weakly decreasing.  A tableau is a tuple of row tuples holding only the
filled cells; for a skew shape the rows start at the inner margin.  Weights
are tuples of nonnegative counts indexed from 1 and may carry trailing
zeros, which never affect equality checks done through cst_weight.
"""

from __future__ import annotations

Partition = tuple
Composition = tuple
Rows = tuple


def is_composition(mu) -> bool:
    return all(isinstance(m, int) and m >= 1 for m in mu)


def is_partition(nu) -> bool:
    return is_composition(nu) and all(nu[i] >= nu[i + 1] for i in range(len(nu) - 1))


def conjugate(nu: Partition) -> Partition:
    """Transpose of the diagram: nu'_i = #{j : nu_j >= i}."""
    if not nu:
        return ()
    return tuple(sum(1 for part in nu if part >= i) for i in range(1, nu[0] + 1))


def boundary_set(mu: Composition) -> tuple:
    """Partial sums of mu (the rows' last box labels in the diagram)."""
    out, total = [], 0
    for part in mu:
        total += part
        out.append(total)
    return tuple(out)


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
    room = [sum(bounds[i:]) for i in range(l + 1)]
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


def contains(outer: Partition, inner: Partition) -> bool:
    return len(inner) <= len(outer) and all(
        inner[i] <= outer[i] for i in range(len(inner))
    )


def _split_shape(shape) -> tuple:
    """Accept either a partition or an (outer, inner) skew pair."""
    if shape and isinstance(shape[0], tuple):
        outer, inner = shape
        if not (is_partition(outer) and is_partition(inner) and contains(outer, inner)):
            raise ValueError(f"invalid skew shape {shape}")
        return outer, inner + (0,) * (len(outer) - len(inner))
    if not is_partition(shape):
        raise ValueError(f"invalid partition {shape}")
    return shape, (0,) * len(shape)


def cst_check(rows: Rows, shape) -> bool:
    """True iff the filling weakly increases along rows and strictly
    increases down columns.  The rows must match the declared shape."""
    outer, inner = _split_shape(shape)
    if len(rows) != len(outer):
        raise ValueError("row count does not match shape")
    for r, row in enumerate(rows):
        if len(row) != outer[r] - inner[r]:
            raise ValueError("row lengths do not match shape")
    for r, row in enumerate(rows):
        for c in range(len(row) - 1):
            if row[c] > row[c + 1]:
                return False
        if r > 0:
            for col in range(max(inner[r], inner[r - 1]), min(outer[r], outer[r - 1])):
                if rows[r - 1][col - inner[r - 1]] >= rows[r][col - inner[r]]:
                    return False
    return True


def cst_weight(rows: Rows, shape=None) -> tuple:
    """wt(Q)_i = number of entries equal to i, indexed from 1.

    The filling must be column strict; without an explicit shape the rows
    are read as a straight shape."""
    if shape is None:
        shape = tuple(len(row) for row in rows)
    if not cst_check(rows, shape):
        raise ValueError("filling is not column strict")
    top = max((e for row in rows for e in row), default=0)
    wt = [0] * top
    for row in rows:
        for e in row:
            if e < 1:
                raise ValueError("tableau entries must be positive")
            wt[e - 1] += 1
    return tuple(wt)


def enumerate_cst(shape, weight) -> list:
    """All column-strict fillings of the shape with the given weight, in
    lexicographic order of the row reading word.  The count is the Kostka
    number for straight shapes."""
    outer, inner = _split_shape(shape)
    if sum(outer) - sum(inner) != sum(weight):
        raise ValueError("shape size and weight size differ")
    cells = [
        (r, c) for r in range(len(outer)) for c in range(inner[r], outer[r])
    ]
    remaining = list(weight)
    rows = [[0] * (outer[r] - inner[r]) for r in range(len(outer))]
    out = []

    def covered(r, c):
        return r >= 0 and inner[r] <= c < outer[r]

    def fill(idx):
        if idx == len(cells):
            out.append(tuple(tuple(row) for row in rows))
            return
        r, c = cells[idx]
        lo = rows[r][c - 1 - inner[r]] if c > inner[r] else 1
        if covered(r - 1, c):
            lo = max(lo, rows[r - 1][c - inner[r - 1]] + 1)
        for v in range(lo, len(remaining) + 1):
            if remaining[v - 1]:
                remaining[v - 1] -= 1
                rows[r][c - inner[r]] = v
                fill(idx + 1)
                remaining[v - 1] += 1
        rows[r][c - inner[r]] = 0

    fill(0)
    return out


def kostka(shape, weight) -> int:
    return len(enumerate_cst(shape, weight))
