import itertools

import pytest

from hecke.shapes import (
    check_partition,
    conjugate,
    cst_check,
    enumerate_cst,
    horizontal_strips,
    kostka,
    partitions_of,
    weak_compositions,
)


def compositions_of(n: int):
    """All compositions of n, in lex order."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions_of(n - first):
            yield (first,) + rest


def cst_weight(rows) -> tuple:
    """wt(Q)_i = number of entries equal to i, indexed from 1.

    The rows must be a column-strict filling of a straight shape."""
    if not cst_check(rows, tuple(len(row) for row in rows)):
        raise ValueError("filling is not column strict")
    top = max((e for row in rows for e in row), default=0)
    wt = [0] * top
    for row in rows:
        for e in row:
            if e < 1:
                raise ValueError("tableau entries must be positive")
            wt[e - 1] += 1
    return tuple(wt)


def brute_force_cst(shape, weight):
    """Independent Kostka oracle: place the weight's multiset in all distinct
    row-major arrangements and keep the column-strict ones."""
    entries = []
    for i, m in enumerate(weight, start=1):
        entries.extend([i] * m)
    seen = set()
    for perm in itertools.permutations(entries):
        rows, pos = [], 0
        for part in shape:
            rows.append(tuple(perm[pos : pos + part]))
            pos += part
        seen.add(tuple(rows))
    return {rows for rows in seen if cst_check(rows, shape)}


def cells(nu) -> set:
    return {(r, c) for r, part in enumerate(nu) for c in range(part)}


def is_horizontal_strip(gamma, nu) -> bool:
    """Independent strip oracle: the diagram of gamma holds that of nu, and no
    two of the added boxes share a column."""
    added = cells(gamma) - cells(nu)
    return cells(nu) <= cells(gamma) and len({c for _, c in added}) == len(added)


# -- basic shape operations ---------------------------------------------------


def test_conjugate_examples():
    assert conjugate((1, 1, 1)) == (3,)
    assert conjugate((3, 2)) == (2, 2, 1)
    assert conjugate(()) == ()


def test_conjugate_is_involutive():
    for n in range(9):
        for nu in partitions_of(n):
            assert conjugate(conjugate(nu)) == nu


def test_partition_enumeration_counts():
    # p(0..8) = 1, 1, 2, 3, 5, 7, 11, 15, 22
    for n, count in enumerate([1, 1, 2, 3, 5, 7, 11, 15, 22]):
        assert len(list(partitions_of(n))) == count


def test_composition_enumeration_counts():
    for n in range(1, 8):
        assert len(list(compositions_of(n))) == 2 ** (n - 1)
        assert all(sum(mu) == n for mu in compositions_of(n))


# -- column-strictness --------------------------------------------------------


def test_cst_check_examples():
    assert cst_check(((1, 1), (2,)), (2, 1))
    assert not cst_check(((1, 1), (1,)), (2, 1))  # repeat down a column
    assert not cst_check(((2, 1),), (2,))  # decreasing row


def test_cst_check_shape_mismatch():
    with pytest.raises(ValueError):
        cst_check(((1, 1),), (2, 1))
    with pytest.raises(ValueError):
        cst_check(((1, 1, 1), (2,)), (2, 1))


def test_shapes_must_be_partitions():
    with pytest.raises(ValueError, match=r"^not a partition: \[1, 2\]$"):
        check_partition((1, 2))
    for bad in [(1, 2), (2, 0), ((2, 1), (1,))]:
        with pytest.raises(ValueError, match="not a partition"):
            enumerate_cst(bad, (3,))
        with pytest.raises(ValueError, match="not a partition"):
            cst_check(((1,),), bad)
    check_partition(())
    check_partition((3, 3, 1))


def test_cst_weight_paper_tableau():
    rows = ((1, 1, 1, 2, 4, 4), (2, 2, 6), (3, 4, 7), (4, 6), (5,))
    assert cst_check(rows, (6, 3, 3, 2, 1))
    assert cst_weight(rows) == (3, 3, 1, 4, 1, 2, 1)


def test_cst_weight_small():
    assert cst_weight(((1, 1), (2,))) == (2, 1)
    assert cst_weight(()) == ()


def test_cst_weight_rejects_non_column_strict():
    with pytest.raises(ValueError):
        cst_weight(((1, 1), (1,)))


# -- enumeration --------------------------------------------------------------


def test_enumerate_cst_standard_21():
    found = enumerate_cst((2, 1), (1, 1, 1))
    assert found == [((1, 2), (3,)), ((1, 3), (2,))]


def test_enumerate_cst_forced_filling():
    for n in range(1, 6):
        for lam in partitions_of(n):
            found = enumerate_cst(lam, lam)
            assert found == [tuple((i,) * part for i, part in enumerate(lam, start=1))]


def test_enumerate_cst_column_obstruction():
    assert enumerate_cst((1, 1), (2,)) == []


def test_enumerate_cst_size_mismatch():
    with pytest.raises(ValueError):
        enumerate_cst((2, 1), (1, 1))


def test_enumerate_cst_outputs_are_valid_and_distinct():
    for n in range(1, 7):
        parts = list(partitions_of(n))
        for lam, mu in itertools.product(parts, repeat=2):
            found = enumerate_cst(lam, mu)
            assert len(set(found)) == len(found)
            for rows in found:
                assert cst_check(rows, lam)
                wt = cst_weight(rows)
                assert wt + (0,) * (len(mu) - len(wt)) == mu


def test_kostka_against_brute_force():
    for n in range(1, 6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                assert set(enumerate_cst(lam, mu)) == brute_force_cst(lam, mu)


def test_enumerate_cst_lists_every_filling_in_reading_word_order():
    # every weight of at most 4 parts, zeros allowed, as rsk._fillings passes them
    for n in range(6):
        for lam in partitions_of(n):
            for length in range(5):
                for w in weak_compositions(n, (n,) * length):
                    assert enumerate_cst(lam, w) == sorted(brute_force_cst(lam, w)), (lam, w)


def test_kostka_triangularity():
    # K_{lambda,lambda} = 1, and weights can only spread downward: filling
    # shape lambda with weight mu fails whenever mu does not fit.
    for n in range(1, 7):
        for lam in partitions_of(n):
            assert kostka(lam, lam) == 1


def test_pieri_consistency():
    # horizontal_strips(nu, n) lists, in lex order, exactly the gamma of size
    # |nu|+n that the witness accepts; with outer, those inside outer.
    for size in range(6):
        for nu in partitions_of(size):
            for n in range(4):
                strips = [g for g in partitions_of(size + n) if is_horizontal_strip(g, nu)]
                assert list(horizontal_strips(nu, n)) == strips[::-1], (nu, n)
                outers = (o for extra in range(n + 2) for o in partitions_of(size + extra))
                for outer in outers:
                    if cells(nu) <= cells(outer):
                        inside = [g for g in strips if cells(g) <= cells(outer)]
                        assert list(horizontal_strips(nu, n, outer)) == inside[::-1], (nu, outer)


def test_weak_compositions():
    assert list(weak_compositions(2, (2, 2))) == [(0, 2), (1, 1), (2, 0)]
    assert list(weak_compositions(0, ())) == [()]
    assert len(list(weak_compositions(4, (4, 4, 4)))) == 15


@pytest.mark.parametrize("length", range(5))
def test_bounded_weak_compositions_equal_the_product_filter(length):
    for bounds in itertools.product(range(7), repeat=length):
        boxes = list(itertools.product(*(range(b + 1) for b in bounds)))
        for n in range(7):
            expected = [w for w in boxes if sum(w) == n]
            assert list(weak_compositions(n, bounds)) == expected


def recursive_weak_compositions(n, bounds):
    """weak_compositions as it was: one generator per remaining part."""
    if not bounds:
        if n == 0:
            yield ()
        return
    room = sum(bounds[1:])
    for first in range(max(0, n - room), min(n, bounds[0]) + 1):
        for rest in recursive_weak_compositions(n - first, bounds[1:]):
            yield (first,) + rest


@pytest.mark.parametrize("length", range(5))
def test_odometer_weak_compositions_equal_the_recursion(length):
    for bounds in itertools.product(range(4), repeat=length):
        for n in range(9):
            assert list(weak_compositions(n, bounds)) == list(
                recursive_weak_compositions(n, bounds)
            ), (n, bounds)
