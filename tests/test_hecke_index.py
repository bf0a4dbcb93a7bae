import importlib
import inspect
import itertools
import math
import sys

import pytest

from hecke import hecke_index
from hecke.bijection import bijection_check, enumerate_pattern_n_mu
from hecke.gf import Field, enumerate_monic_units, poly_mul
from hecke.guards import GuardExceeded
from hecke.hecke_index import (
    MembershipError,
    degree_matrices,
    enumerate_m_mu,
    enumerate_n,
    is_in_n_mu_direct,
    is_in_n_mu_fast,
    m_mu_size,
    matrix_of_v,
    monomial_identity,
    monomial_to_obj,
    v_of_poly,
    v_of_matrix,
    walk_m_mu,
)
from hecke.maps import monomial_from_obj, polymatrix_from_obj, validate_m_mu
from hecke.matrices import MonomialMatrix, PolyMatrix
from hecke.records import _encode, n_mu_records, polymatrix_to_obj
from hecke.shapes import weak_compositions
from test_shapes import compositions_of

F2 = Field(2)
F3 = Field(3)
F5 = Field(5)


def diag_matrix(K, mu):
    """diag(X^mu_i + 1) with off-diagonal entries 1."""
    l = len(mu)
    grid = tuple(
        tuple(((1,) + (0,) * (mu[i] - 1) + (1,)) if i == j else (1,) for j in range(l))
        for i in range(l)
    )
    return PolyMatrix(grid, tuple(mu))


# -- v_of_poly ------------------------------------------------------------------


def test_v_of_poly_displayed_example():
    # f = a + b X^3 + c X^4 + X^6 over F_5 with sample nonzero scalars.
    a, b, c = 2, 3, 4
    f = (a, 0, 0, b, c, 0, 1)
    v = v_of_poly(F5, f)
    expected = {(4, 1): a, (5, 2): a, (6, 3): a, (3, 4): b, (1, 5): c, (2, 6): c}
    placed = {(v.perm[col] + 1, col + 1): v.entries[col] for col in range(6)}
    assert placed == expected


def test_v_of_poly_identity_case():
    for n in range(1, 5):
        f = (1,) + (0,) * (n - 1) + (1,)
        assert v_of_poly(F2, f) == monomial_identity(n)


def test_v_of_poly_constant_one_is_empty():
    assert v_of_poly(F2, (1,)) == MonomialMatrix((), ())


def test_v_of_poly_rejects_bad_input():
    for _ in range(2):  # a refusal is not cached: the second call refuses again
        with pytest.raises(MembershipError):
            v_of_poly(F3, (1, 2))  # not monic
        with pytest.raises(MembershipError):
            v_of_poly(F2, (0, 1))  # zero constant term


def test_v_of_poly_is_made_once_per_field_and_polynomial():
    f = (2, 0, 1, 1)  # 2 + X^2 + X^3 over F_3
    assert v_of_poly(F3, f) is v_of_poly(Field(3), f)
    assert v_of_poly(F3, f) == MonomialMatrix((1, 2, 0), (2, 2, 1))


# -- v_of_matrix and matrix_of_v ------------------------------------------------


def test_v_of_matrix_diag_is_identity():
    for mu in [(2,), (1, 1), (2, 1), (3, 1, 2)]:
        assert v_of_matrix(F2, diag_matrix(F2, mu)) == monomial_identity(sum(mu))


def test_matrix_of_identity_is_diag():
    for mu in [(2,), (2, 1), (1, 3)]:
        a = matrix_of_v(F2, monomial_identity(sum(mu)), mu)
        assert a == diag_matrix(F2, mu)


def test_single_block_reduces_to_v_of_poly():
    for f in [(1, 1, 1), (1, 0, 1), (1, 1, 0, 1)]:
        n = len(f) - 1
        a = PolyMatrix(((f,),), (n,))
        assert v_of_matrix(F2, a) == v_of_poly(F2, f)
        assert matrix_of_v(F2, v_of_poly(F2, f), (n,)) == a


def test_worked_seventeen_by_seventeen_roundtrip():
    # mu = (7,5,3,2) with deg f = 1, deg g = 2, deg h = 3 over F_2.
    f, g, h = (1, 1), (1, 1, 1), (1, 1, 0, 1)
    f2h = poly_mul(F2, poly_mul(F2, f, f), h)
    f2 = poly_mul(F2, f, f)
    one = (1,)
    a = PolyMatrix(
        (
            (g, f2h, one, one),
            (h, one, g, one),
            (one, one, f, f2),
            (g, one, one, one),
        ),
        (7, 5, 3, 2),
    )
    v = v_of_matrix(F2, a)
    assert v.n == 17
    assert is_in_n_mu_fast(v, (7, 5, 3, 2))
    assert matrix_of_v(F2, v, (7, 5, 3, 2)) == a


def test_matrix_of_v_rejects_non_members():
    # For mu = (2): the transposition with mismatched scalars over F_3 fails
    # the superdiagonal scalar condition.
    v = MonomialMatrix((0, 1), (1, 2))
    assert not is_in_n_mu_fast(v, (2,))
    with pytest.raises(MembershipError):
        matrix_of_v(F3, v, (2,))


@pytest.mark.parametrize(
    "K,mu",
    [
        (F2, (2, 1)),
        (F3, (2, 1)),
        (F2, (1, 1, 1)),
        (F3, (3,)),
        (F2, (2, 2)),
        (Field(2, 2), (2, 1)),
        (F2, (1, 3, 1)),
        (F3, (2, 1, 1)),
    ],
    ids=["q2-21", "q3-21", "q2-111", "q3-3", "q2-22", "q4-21", "q2-131", "q3-211"],
)
def test_matrix_of_v_rejects_exactly_the_pattern_test_failures(K, mu):
    for v in enumerate_n(K, sum(mu)):
        if is_in_n_mu_fast(v, mu):
            assert v_of_matrix(K, matrix_of_v(K, v, mu)) == v
        else:
            with pytest.raises(MembershipError):
                matrix_of_v(K, v, mu)


@pytest.mark.parametrize(
    "K,mu", [(F3, (2, 1)), (F2, (2, 2)), (F2, (3, 2, 2))], ids=["q3-21", "q2-22", "q2-322"]
)
def test_bijection_check_encodes_each_element_once(monkeypatch, K, mu):
    calls = []

    def counting_v_of_matrix(K, a):
        calls.append(a)
        return v_of_matrix(K, a)

    monkeypatch.setattr(hecke_index, "v_of_matrix", counting_v_of_matrix)
    report = bijection_check(K, mu)
    assert report["pass"], report
    assert len(calls) == m_mu_size(K.q, mu) == report["m_mu_count"]


def test_bijection_check_sees_a_wrong_decode(monkeypatch):
    decode = hecke_index._decode
    changed = []

    def decode_one_wrong(v, mu):
        a = decode(v, mu)
        f = a.entries[0][0]
        if changed or len(f) < 2:
            return a
        changed.append(v)  # one coefficient of one element: 1 <-> 2 over F_3
        grid = [list(row) for row in a.entries]
        grid[0][0] = (3 - f[0],) + f[1:]
        return PolyMatrix(tuple(map(tuple, grid)), a.mu)

    monkeypatch.setattr(hecke_index, "_decode", decode_one_wrong)
    report = bijection_check(F3, (2, 1))
    assert len(changed) == 1
    assert not report["roundtrip_ok"] and not report["pass"]
    assert report["membership_ok"] and report["injective"] and report["image_equals_filter"]


@pytest.mark.parametrize("K", [F2, F3, Field(2, 2)], ids=["q2", "q3", "q4"])
def test_decode_of_any_monomial_matrix_is_in_m_mu(K):
    """matrix_of_v re-encodes _decode's grid unchecked: for every monomial
    matrix of size |mu|, in N_mu or not, the grid is in M_mu."""
    for n in range(1, 5):
        vs = list(enumerate_n(K, n))
        for mu in compositions_of(n):
            for v in vs:
                a = hecke_index._decode(v, mu)
                assert validate_m_mu(K, a) is a


def refuse_to_validate(K, a):
    raise MembershipError("validate_m_mu was called")


@pytest.mark.parametrize(
    "layer,check,K,mu",
    [
        ("bijection", "bijection_check", F3, (3, 2, 1)),
        ("bijection", "rsk_bijectivity_check", F3, (2, 2, 1)),
        ("oracle", "levi_embedding_check", F2, (2, 1)),
    ],
    ids=["bijection", "rsk_bijectivity", "levi"],
)
def test_checks_on_built_elements_never_validate(monkeypatch, layer, check, K, mu):
    """enumerate_m_mu and the diagonal embedding build members of M_mu, so
    the checks that walk them call no validator."""
    from hecke import maps

    monkeypatch.setattr(maps, "validate_m_mu", refuse_to_validate)
    assert getattr(importlib.import_module(f"hecke.{layer}"), check)(K, mu)["pass"]


def test_only_maps_holds_validate_m_mu():
    layers = ("cli", "decomp", "oracle", "rsk", "hecke_index", "bijection", "gf", "prices")
    for layer in (*layers, "records", "matrices"):
        assert not hasattr(importlib.import_module(f"hecke.{layer}"), "validate_m_mu"), layer
    assert hasattr(importlib.import_module("hecke.maps"), "validate_m_mu")


def test_polymatrix_from_obj_refuses_non_members():
    for entries, mu in [
        ([["1+1*X^1+2*X^2"]], [2]),  # not monic
        ([["1*X^1+1*X^2"]], [2]),  # zero constant term
        ([["0"]], [1]),
        ([["1+1*X^1", "1"], ["1", "1+1*X^1"]], [2, 1]),  # degree sums (1, 1)
        ([["1+1*X^2", "1+1*X^1"], ["1", "1+1*X^1"]], [2, 1]),  # row sums (3, 1)
    ]:
        with pytest.raises(MembershipError):
            polymatrix_from_obj(F3, {"mu": mu, "entries": entries})


def test_is_in_n_mu_direct_refuses_over_the_oracle_u_guard(monkeypatch):
    from hecke import oracle

    def fail(K, n):
        raise AssertionError("U was enumerated over the guard")

    monkeypatch.delenv("HECKE_GUARD_OVERRIDE", raising=False)
    monkeypatch.setattr(oracle, "enumerate_u", fail)
    with pytest.raises(GuardExceeded, match=r"^\|U\| = 32768 exceeds the guard \(4096\)$"):
        is_in_n_mu_direct(F2, monomial_identity(6), (6,))
    with pytest.raises(GuardExceeded, match=r"^\|U\| = inf exceeds the guard \(4096\)$"):
        is_in_n_mu_direct(Field(1021), monomial_identity(1000), (1000,))


def test_map_v_to_a_non_member_exits_4(tmp_path, capsys):
    from hecke.cli import main

    path = tmp_path / "v.json"
    path.write_text('{"perm": [1, 2], "entries": [1, 2]}')
    code = main(["map", "v_to_a", "--p", "3", "--mu", "2", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err == "input rejected: v fails the N_mu membership test\n"


def pairwise_pattern_test(v, mu):
    """The pattern test as a loop over every pair of columns, entries read
    inside it: the witness for the split into _pattern_ties and ties."""
    n = v.n
    B = set(itertools.accumulate(mu))
    row = tuple(r + 1 for r in v.perm)  # 1-based row of column i
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if row[i - 1] >= row[j - 1]:
                continue
            vi, vj = row[i - 1], row[j - 1]
            if i not in B and vi in B and j == i + 1:
                return False
            if i in B and vi not in B and vj == vi + 1:
                return False
            if i not in B and vi not in B:
                if (j == i + 1) != (vj == vi + 1):
                    return False
                if vj == vi + 1 and v.entries[i - 1] != v.entries[i]:
                    return False
    return True


@pytest.mark.parametrize(
    "K,nmax", [(F2, 6), (F3, 5), (Field(2, 2), 4), (F5, 4)], ids=["q2", "q3", "q4", "q5"]
)
def test_pattern_split_equals_the_pairwise_test(K, nmax):
    """Every composition of n <= nmax: is_in_n_mu_fast agrees with the
    pairwise witness on all of N, and enumerate_pattern_n_mu streams exactly
    the witness's filter, in order, once each, |M_mu| of them."""
    for n in range(1, nmax + 1):
        all_n = list(enumerate_n(K, n))
        for mu in compositions_of(n):
            witness = [pairwise_pattern_test(v, mu) for v in all_n]
            assert [is_in_n_mu_fast(v, mu) for v in all_n] == witness
            filtered = [v for v, ok in zip(all_n, witness) if ok]
            assert list(enumerate_pattern_n_mu(K, mu)) == filtered
            assert len(set(filtered)) == len(filtered) == m_mu_size(K.q, mu)


def filter_pattern_n_mu(K, mu):
    """The all-permutations filter: every one of the n! permutations tested
    with _pattern_ties, units chosen freely on the columns not tied to the
    one before and copied along the ties, in the order of enumerate_n.  The
    witness for the walk of enumerate_pattern_n_mu."""
    n = sum(mu)
    for perm in itertools.permutations(range(n)):
        ties = hecke_index._pattern_ties(perm, mu)
        if ties is None:
            continue
        copies = {c + 1 for c in ties}
        for units in itertools.product(K.units(), repeat=n - len(copies)):
            free = iter(units)
            entries = []
            for c in range(n):
                entries.append(entries[-1] if c in copies else next(free))
            yield MonomialMatrix(perm, tuple(entries))


def passing_permutations(n):
    """{_block_ends(mu): the permutations that pass the pattern test for mu,
    in lexicographic order}, every composition mu of n read in one pass over
    the n! permutations.

    A composition is its set E of block ends, which holds n-1: the mask
    e | 1 << (n-1) for some e < 2^(n-1).  An int holds one bit per e, and
    holding[j] has the bits of the e whose E holds j.  Each column keeps the
    e under which it passes, by the case split of _pattern_ties on whether c
    and perm[c] are in E, written out here afresh; a permutation passes for
    the e that all its columns keep."""
    sets = 1 << (n - 1)
    every = (1 << sets) - 1
    holding = [sum(1 << e for e in range(sets) if e >> j & 1) for j in range(n - 1)] + [every]
    passing = {}
    for perm in itertools.permutations(range(n)):
        keep, placed = every, 0
        for c, r in enumerate(perm):
            placed |= 1 << r
            following = perm[c + 1] if c + 1 < n else n
            below = placed >> (r + 1) & 1  # row r+1 is in a column <= c
            if_r_ends = holding[c] | (every if following < r else 0)
            if_r_inner = (holding[c] if below else 0) | (
                every ^ holding[c] if following == r + 1 or (following < r and below) else 0
            )
            keep &= (holding[r] & if_r_ends) | ((every ^ holding[r]) & if_r_inner)
            if not keep:
                break
        while keep:
            low = keep & -keep
            passing.setdefault(low.bit_length() - 1 | sets, []).append(perm)
            keep ^= low
    return passing


def test_walk_equals_the_all_permutations_filter():
    """enumerate_pattern_n_mu equals the all-permutations filter as lists,
    order and entries included, on every composition of n <= 6 over F_3."""
    for n in range(1, 7):
        for mu in compositions_of(n):
            assert list(enumerate_pattern_n_mu(F3, mu)) == list(filter_pattern_n_mu(F3, mu)), mu


def test_walk_equals_the_one_pass_filter_over_f2():
    """Over F_2, where every entry is 1, the walk equals passing_permutations
    on every composition of n <= 8: the per-composition filter would make
    2^(n-1) n! pattern tests (16 s at n = 8), one pass reads all of them."""
    for n in range(1, 9):
        passing = passing_permutations(n)
        for mu in compositions_of(n):
            perms = passing.get(hecke_index._block_ends(mu), [])
            expected = [MonomialMatrix(perm, (1,) * n) for perm in perms]
            assert list(enumerate_pattern_n_mu(F2, mu)) == expected, mu


def closed_form_blocks(mu, d):
    """The sub-block offsets as closed-form sums, the layout v_of_matrix used
    before the blocks were walked: block (i, j) starts at row
    sum(mu[:i]) + sum_{j' > j} d[i][j'] and column sum(mu[:j]) +
    sum_{i' > i} d[i'][j]."""
    l = len(mu)
    out = []
    for i in range(l):
        for j in range(l):
            if d[i][j]:
                row = sum(mu[:i]) + sum(d[i][j2] for j2 in range(j + 1, l))
                col = sum(mu[:j]) + sum(d[i2][j] for i2 in range(i + 1, l))
                out.append((i, j, row, col))
    return out


def test_walked_blocks_equal_the_closed_form_offsets():
    layout = hecke_index._layout((2, 1), ((2, 2), (2, 1)))  # d = ((1, 1), (1, 0))
    assert sorted(block[:4] for block in layout) == [(0, 0, 1, 1), (0, 1, 0, 2), (1, 0, 2, 0)]
    for n in range(1, 7):
        for mu in compositions_of(n):
            for d in degree_matrices(mu):
                # The layout, keyed by the entries' lengths d[i][j] + 1: the
                # closed-form blocks with their sizes, by first column, each
                # column run starting where the one before it ends.
                lengths = tuple(tuple(x + 1 for x in row) for row in d)
                layout = hecke_index._layout(mu, lengths)
                assert sorted(block[:4] for block in layout) == closed_form_blocks(mu, d)
                assert all(size == d[i][j] for i, j, _, _, size in layout)
                starts = [c for _, _, _, c, _ in layout]
                assert starts == list(itertools.accumulate([b[4] for b in layout[:-1]], initial=0))


# -- enumeration ----------------------------------------------------------------


def test_degree_matrices_small():
    assert list(degree_matrices((1, 1))) == [((0, 1), (1, 0)), ((1, 0), (0, 1))]
    for mu in [(2, 1), (1, 2, 1)]:
        for d in degree_matrices(mu):
            assert tuple(sum(row) for row in d) == mu
            assert tuple(sum(col) for col in zip(*d)) == mu
    for n in range(1, 6):  # every matrix of row and column sums mu, in lex order
        for mu in compositions_of(n):
            rows = [list(weak_compositions(part, mu)) for part in mu]
            sums_mu = [d for d in itertools.product(*rows) if tuple(map(sum, zip(*d))) == mu]
            assert list(degree_matrices(mu)) == sorted(sums_mu), mu


def test_degree_matrices_walk_more_parts_than_frames_to_spare():
    """300 parts with 100 frames left below the recursion limit: the rows
    are not walked by recursion.  The first matrix is the anti-diagonal."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        first = next(degree_matrices((1,) * 300))
    finally:
        sys.setrecursionlimit(limit)
    assert first == tuple(tuple(int(i + j == 299) for j in range(300)) for i in range(300))


def test_enumerate_m_mu_examples():
    assert len(list(enumerate_m_mu(F2, (1, 1)))) == 2
    for q, K in [(2, F2), (3, F3)]:
        for n in range(1, 4):
            assert len(list(enumerate_m_mu(K, (n,)))) == (q - 1) * q ** (n - 1)


def test_m_mu_size_counts_the_enumeration():
    for K, q in [(F2, 2), (F3, 3)]:
        for n in range(1, 4):
            for mu in compositions_of(n):
                assert m_mu_size(q, mu) == sum(1 for _ in enumerate_m_mu(K, mu))
    assert m_mu_size(31, (3,)) == 30 * 31**2 == 28830


def test_m_mu_size_by_rows_equals_the_degree_matrix_sum():
    for q in range(2, 6):
        for n in range(1, 7):
            for mu in compositions_of(n):
                assert m_mu_size(q, mu) == sum(
                    math.prod((q - 1) * q ** (d - 1) for row in degrees for d in row if d)
                    for degrees in degree_matrices(mu)
                )


def test_n_enumeration_size():
    for K, q in [(F2, 2), (F3, 3)]:
        for n in range(1, 4):
            import math

            assert len(list(enumerate_n(K, n))) == math.factorial(n) * (q - 1) ** n


def test_yokonuma_case_accepts_everything():
    for K in (F2, F3):
        for v in enumerate_n(K, 3):
            assert is_in_n_mu_fast(v, (1, 1, 1))


@pytest.mark.parametrize(
    "K,nmax",
    [(F2, 3), (F3, 3), (Field(2, 2), 2)],
    ids=["q2", "q3", "q4"],
)
def test_pinning_invariants(K, nmax):
    """Membership, roundtrip, and surjectivity of a -> v_a at small rank."""
    for n in range(1, nmax + 1):
        all_n = list(enumerate_n(K, n))
        for mu in compositions_of(n):
            image = []
            for a in enumerate_m_mu(K, mu):
                v = v_of_matrix(K, a)
                assert is_in_n_mu_fast(v, mu)
                assert matrix_of_v(K, v, mu) == a
                image.append(v)
            assert len(set(image)) == len(image)
            filtered = [v for v in all_n if is_in_n_mu_fast(v, mu)]
            assert set(image) == set(filtered)


@pytest.mark.parametrize(
    "K,top", [(F2, 3), (F3, 3), (Field(2, 2), 2), (F5, 2)], ids=["q2", "q3", "q4", "q5"]
)
def test_fast_test_equals_direct_definition(K, top):
    # Over F_4 and F_5 some units are not their own inverses, so an entry of
    # v^-1 left uninverted shows here; |U| <= 5 there at n <= 2.
    for n in range(1, top + 1):
        for mu in compositions_of(n):
            for v in enumerate_n(K, n):
                assert is_in_n_mu_fast(v, mu) == is_in_n_mu_direct(K, v, mu)


def test_gelfand_graev_count():
    for K, q in [(F2, 2), (F3, 3)]:
        for n in range(1, 5):
            count = sum(1 for v in enumerate_n(K, n) if is_in_n_mu_fast(v, (n,)))
            assert count == (q - 1) * q ** (n - 1)


def test_canonical_n_mu_matches_filter():
    vs = [v_of_matrix(F2, a) for a in enumerate_m_mu(F2, (2, 1))]
    assert len(vs) == len(set(vs)) == 3


def test_n_mu_records_stream(monkeypatch):
    degree_matrices = hecke_index.degree_matrices

    def first_only(mu):
        matrices = degree_matrices(mu)
        yield next(matrices)
        raise AssertionError("a second degree matrix was walked before the first element")

    monkeypatch.setattr(hecke_index, "degree_matrices", first_only)
    records = n_mu_records(F2, (2, 1))
    assert next(records) == ("perm", "entries")
    v = v_of_matrix(F2, next(enumerate_m_mu(F2, (2, 1))))
    assert next(records) == tuple(map(_encode, monomial_to_obj(F2, v).values()))


def entrywise_m_mu(K, mu):
    """M_mu as enumerated before walk_m_mu, the witness: one product over
    the entries per degree matrix, each element regrouped into rows."""
    l = len(mu)
    for d in degree_matrices(mu):
        per_entry = [enumerate_monic_units(K, d[i][j]) for i in range(l) for j in range(l)]
        for flat in itertools.product(*per_entry):
            grid = tuple(tuple(flat[i * l + j] for j in range(l)) for i in range(l))
            yield PolyMatrix(grid, tuple(mu))


@pytest.mark.parametrize(
    "K,top", [(F2, 5), (F3, 5), (Field(2, 2), 5), (F5, 4)], ids=["q2", "q3", "q4", "q5"]
)
def test_walked_m_mu_equals_the_entrywise_product(K, top):
    for n in range(1, top + 1):
        for mu in compositions_of(n):
            walked = list(enumerate_m_mu(K, mu))
            assert walked == list(entrywise_m_mu(K, mu)), mu
            assert all(type(row) is tuple for a in walked for row in a.entries)


def test_the_walk_lists_units_once_per_nonempty_block(monkeypatch):
    calls = []

    def counted(K, n):
        calls.append(n)
        return enumerate_monic_units(K, n)

    monkeypatch.setattr(hecke_index, "enumerate_monic_units", counted)
    walk = walk_m_mu(F2, (1, 1, 1), lambda f, r: f)
    elements = [flat for _, choices in walk for flat in choices]
    assert len(elements) == 6  # one per permutation matrix, each entry 1 or X + 1
    assert calls == [1] * 18  # three blocks per matrix; no call for an entry of degree 0


# -- serialization ---------------------------------------------------------------


def test_monomial_serialization_roundtrip():
    for v in enumerate_n(F3, 2):
        obj = monomial_to_obj(F3, v)
        assert monomial_from_obj(F3, obj) == v
    v = list(enumerate_n(F3, 2))[3]
    assert set(monomial_to_obj(F3, v)) == {"perm", "entries"}


def test_polymatrix_serialization_roundtrip():
    for a in enumerate_m_mu(F2, (2, 1)):
        obj = polymatrix_to_obj(F2, a)
        assert polymatrix_from_obj(F2, obj) == a


def test_monomial_from_obj_rejects_bad_input():
    with pytest.raises(ValueError):
        monomial_from_obj(F2, {"perm": [1, 1], "entries": [1, 1]})
    with pytest.raises(ValueError):
        monomial_from_obj(F2, {"perm": [1, 2], "entries": [1, 0]})
