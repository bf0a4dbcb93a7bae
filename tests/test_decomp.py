import pytest

from hecke.decomp import (
    _addmul,
    _elementary,
    _nonzero,
    _schur_packed,
    _unpack,
    _width,
    dim_identity_check,
    enumerate_levi_weights,
    h_hat,
    pieri_check,
    schur_jacobi_trudi,
    shape_height,
    weight_space_dims,
)
from hecke.gf import Field
from hecke.guards import GuardExceeded
from hecke.hecke_index import m_mu_size
from hecke.prices import pieri_work
from hecke.rsk import enumerate_pairs, enumerate_phi_fillings, enumerate_phi_shapes
from hecke.shapes import (
    conjugate,
    enumerate_cst,
    partitions_of,
    weak_compositions,
)
from test_rsk import family_shape
from test_shapes import compositions_of, is_horizontal_strip

F2 = Field(2)
F3 = Field(3)

X1 = (1, 1)  # X + 1 over F_2
QUAD = (1, 1, 1)  # X^2 + X + 1 over F_2


def mp_mul(f: dict, g: dict) -> dict:
    """Product of two polynomials with nonnegative exponent tuples as keys."""
    product: dict = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            product[e] = product.get(e, 0) + c1 * c2
    return {e: c for e, c in product.items() if c}


def tableau_generating_function(nu, m):
    """Independent Schur oracle: sum of x^wt over column-strict fillings with
    entries at most m."""
    total = {}
    for w in weak_compositions(sum(nu), (sum(nu),) * m):
        count = len(enumerate_cst(nu, w))
        if count:
            total[w] = count
    return total


# -- module index sets ----------------------------------------------------------


def test_h_hat_mu_11():
    table = dict(h_hat(F2, (1, 1)))
    assert table == {((X1, (2,)),): 1, ((X1, (1, 1)),): 1}


def test_h_hat_mu_2():
    table = dict(h_hat(F2, (2,)))
    assert table == {((X1, (2,)),): 1, ((QUAD, (1,)),): 1}
    assert sum(count**2 for count in table.values()) == 2


def test_h_hat_one_part_heights():
    for K in (F2, F3):
        for n in range(1, 4):
            for shape, _ in h_hat(K, (n,)):
                assert shape_height(shape) == 1


def all_label_h_hat(K, mu):
    """h_hat over every label of degree at most |mu|: the table before labels
    stopped at degree max(mu)."""
    out = []
    for shape in enumerate_phi_shapes(K, (sum(mu),)):
        count = len(enumerate_phi_fillings(shape, mu))
        if count:
            out.append((shape, count))
    return tuple(out)


@pytest.mark.parametrize(
    "K,top", [(F2, 5), (F3, 5), (Field(2, 2), 4), (Field(5), 4)], ids=["q2", "q3", "q4", "q5"]
)
def test_h_hat_equals_its_all_label_table(K, top):
    for n in range(1, top + 1):
        for mu in compositions_of(n):
            assert h_hat(K, mu) == all_label_h_hat(K, mu)


def test_h_hat_counts_match_pair_fibers():
    for K in (F2, F3):
        for n in range(1, 4):
            for mu in compositions_of(n):
                fibers = {}
                for p, q in enumerate_pairs(K, mu):
                    assert family_shape(p) == family_shape(q)
                    key = family_shape(p)
                    fibers[key] = fibers.get(key, 0) + 1
                assert fibers == {
                    tuple(shape): count**2 for shape, count in h_hat(K, mu)
                }


# -- the dimension identity -------------------------------------------------------


def test_dim_identity_examples():
    report = dim_identity_check(F2, (1, 1))
    assert report["pass"]
    assert report["n_mu_count"] == report["m_mu_count"] == report["sum_of_squares"] == 2
    assert dim_identity_check(F3, (1,))["n_mu_count"] == 2
    report = dim_identity_check(F2, (2, 1))
    assert report["pass"]
    assert report["n_mu_count"] == 3


def test_dim_identity_exhaustive_small():
    for K in (F2, F3):
        for n in range(1, 4):
            for mu in compositions_of(n):
                assert dim_identity_check(K, mu)["pass"]


def test_dim_identity_fails_on_a_wrong_closed_form(monkeypatch):
    from hecke import hecke_index

    report = dim_identity_check(F2, (2, 1))
    assert report["m_mu_closed_form"] == 3 and report["pass"]
    monkeypatch.setattr(hecke_index, "m_mu_size", lambda q, mu: 4)
    report = dim_identity_check(F2, (2, 1))
    assert report["n_mu_count"] == report["m_mu_count"] == report["sum_of_squares"] == 3
    assert report["m_mu_closed_form"] == 4 and not report["pass"]


def test_dim_identity_guard():
    with pytest.raises(GuardExceeded, match="M_mu"):  # 8! grids of 8 x 8 entries
        dim_identity_check(F2, (1,) * 8)
    with pytest.raises(GuardExceeded, match="label"):
        dim_identity_check(Field(31), (4,))


@pytest.mark.parametrize(
    "q,mu",
    [(2, (6,)), (2, (3, 3)), (2, (4, 4)), (3, (3, 3)), (5, (3,)), (7, (2,))],
    ids=["2-6", "2-33", "2-44", "3-33", "5-3", "7-2"],
)
def test_dim_identity_past_the_old_fixed_limits(q, mu):
    # Each was refused while dim_identity had the limits n <= 5 and q <= 4.
    report = dim_identity_check(Field(q), mu)
    keys = ("n_mu_count", "m_mu_count", "m_mu_closed_form", "sum_of_squares")
    counts = [report[key] for key in keys]
    assert counts == [m_mu_size(q, mu)] * 4
    assert report["pass"]


# -- Levi weight spaces --------------------------------------------------------------


def test_weight_space_single_cell():
    cubic = (1, 1, 0, 1)
    lam = ((cubic, (1,)),)
    table = weight_space_dims(F2, lam, (3,))
    assert len(table) == 1
    ((gamma, dim),) = table
    assert dim == 1
    assert gamma == (((cubic, (1,)),),)


def test_weight_space_row_of_two():
    lam = ((X1, (2,)),)
    table = weight_space_dims(F2, lam, (1, 1))
    assert len(table) == 1
    ((gamma, dim),) = table
    assert dim == 1
    assert gamma == (((X1, (1,)),), ((X1, (1,)),))


def test_weight_space_sum_rule():
    for n in range(1, 4):
        for mu in compositions_of(n):
            for lam, count in h_hat(F2, mu):
                table = weight_space_dims(F2, lam, mu)
                assert sum(dim for _, dim in table) == count


def test_weight_space_size_mismatch():
    with pytest.raises(ValueError):
        weight_space_dims(F2, ((X1, (1,)),), (2,))


def test_levi_weight_enumeration():
    weights = enumerate_levi_weights(F2, (1, 1))
    assert weights == [(((X1, (1,)),), ((X1, (1,)),))]
    assert len(enumerate_levi_weights(F2, (2,))) == 2


# -- symmetric-function cross-checks ---------------------------------------------------


def test_schur_single_box():
    assert schur_jacobi_trudi((1,), 2) == {(1, 0): 1, (0, 1): 1}


def test_schur_vertical_domino():
    assert schur_jacobi_trudi((1, 1), 2) == {(1, 1): 1}


def test_schur_21_matches_tableaux():
    result = schur_jacobi_trudi((2, 1), 3)
    assert result == tableau_generating_function((2, 1), 3)
    assert sum(result.values()) == 8


def test_schur_empty_partition():
    assert schur_jacobi_trudi((), 2) == {(0, 0): 1}


def test_schur_matches_tableau_generating_function():
    for n in range(1, 5):
        for nu in partitions_of(n):
            for m in range(len(nu), 5):
                assert schur_jacobi_trudi(nu, m) == tableau_generating_function(nu, m)


def test_schur_matches_tableaux_at_pieri_grid_sizes():
    for n in range(5, 8):
        for nu in partitions_of(n):
            for m in range(len(nu), 6):
                assert schur_jacobi_trudi(nu, m) == tableau_generating_function(nu, m)


def test_schur_result_is_a_fresh_dict():
    first = schur_jacobi_trudi((2, 1), 3)
    expected = dict(first)
    first[(2, 1, 0)] = 99
    first.clear()
    assert schur_jacobi_trudi((2, 1), 3) == expected


def test_schur_too_few_variables():
    with pytest.raises(ValueError):
        schur_jacobi_trudi((1, 1, 1), 2)


def test_pieri_trivial():
    assert pieri_check((), 1, 2)["pass"]


def test_pieri_square_of_single_box():
    report = pieri_check((1,), 1, 3)
    assert report["pass"]
    assert sorted(map(tuple, report["expansion"])) == [(1, 1), (2,)]
    s1 = schur_jacobi_trudi((1,), 3)
    lhs = mp_mul(s1, s1)
    rhs = {}
    for gamma in [(2,), (1, 1)]:
        for e, c in schur_jacobi_trudi(gamma, 3).items():
            rhs[e] = rhs.get(e, 0) + c
    assert lhs == rhs


def test_pieri_validates_through_the_shapes_partition_check():
    from hecke import decomp, shapes

    assert decomp.check_partition is shapes.check_partition
    assert not hasattr(decomp, "_check_partition")


def test_pieri_small_grid():
    for size in range(5):
        for nu in partitions_of(size):
            for n in range(1, 4):
                assert pieri_check(nu, n, 5)["pass"]


# -- the e-basis determinant against the x-basis one ---------------------------------


def x_schur_packed(nu, m, width):
    """s_nu as det(e_(nu'_i - i + j)) in the x-basis, every e_r expanded
    into its C(m, r) packed x-monomials: the witness of the e-basis
    determinant that pieri_check reads."""
    nuc = conjugate(nu)
    e = [_elementary(r, m, width) for r in range(m + 1)]
    minors = {0: {0: 1}}
    for i, part in enumerate(nuc):
        grown: dict = {}
        for used, minor in minors.items():
            for j in range(max(0, i - part), min(len(nuc), m + i - part + 1)):
                if not used >> j & 1:
                    sign = -1 if (used >> j).bit_count() & 1 else 1
                    target = grown.setdefault(used | 1 << j, {})
                    _addmul(target, minor.items(), e[part - i + j], sign)
        minors = {used: f for used, g in grown.items() if (f := _nonzero(g))}
    return tuple(minors.get((1 << len(nuc)) - 1, {}).items())


def x_pieri_check(nu, n, m):
    """pieri_check with both sides compared in the x-basis."""
    width = _width(sum(nu) + n)
    lhs = _addmul({}, x_schur_packed(nu, m, width), x_schur_packed((n,) if n else (), m, width))
    rhs: dict = {}
    gammas = []
    for gamma in partitions_of(sum(nu) + n):
        if is_horizontal_strip(gamma, nu):
            gammas.append(gamma)
            _addmul(rhs, x_schur_packed(gamma, m, width), ((0, 1),))
    return {
        "check": "pieri",
        "nu": list(nu),
        "n": n,
        "variables": m,
        "expansion": [list(g) for g in gammas],
        "pass": _nonzero(lhs) == _nonzero(rhs),
    }


def e_basis(nu, m):
    """s_nu as {(exponent of e_1, ..., exponent of e_m): coefficient}."""
    width = _width(sum(nu))
    return {_unpack(key, m, width): c for key, c in _schur_packed(nu, m, width)}


def test_schur_packed_in_the_e_basis():
    assert e_basis((), 2) == {(0, 0): 1}
    assert e_basis((1,), 2) == {(1, 0): 1}
    assert e_basis((1, 1), 2) == {(0, 1): 1}
    assert e_basis((2,), 2) == {(2, 0): 1, (0, 1): -1}
    assert e_basis((2, 1), 3) == {(1, 1, 0): 1, (0, 0, 1): -1}
    assert e_basis((2, 1), 2) == {(1, 1): 1}  # e_3 = 0 in two variables
    assert e_basis((1, 1, 1), 2) == {}
    assert e_basis((3,), 3) == {(3, 0, 0): 1, (1, 1, 0): -2, (0, 0, 1): 1}


def test_schur_jacobi_trudi_equals_the_x_basis_witness():
    for size in range(8):
        for nu in partitions_of(size):
            for m in range(max(len(nu), 1), 6):
                width = _width(size)
                witness = {_unpack(e, m, width): c for e, c in x_schur_packed(nu, m, width)}
                assert schur_jacobi_trudi(nu, m) == witness


PIERI_SINGLE_CASES = [((3, 3), 3, 5), ((3, 1), 3, 5), ((4, 2), 2, 5)]


def test_pieri_reports_equal_the_x_basis_witness():
    cases = [(nu, n) for size in range(5) for nu in partitions_of(size) for n in range(1, 4)]
    checked = PIERI_SINGLE_CASES + [
        (nu, n, m) for m in range(2, 7) for nu, n in cases if m >= len(nu) + 1
    ]
    assert len(checked) == 3 + 15 + 27 + 33 + 36 + 36
    for nu, n, m in checked:
        report = pieri_check(nu, n, m)
        assert report == x_pieri_check(nu, n, m)
        assert report["pass"]


def test_pieri_work_counts_e_monomials_of_at_most_d_parts():
    # parts <= min(m, d): past m = d, more variables add no e-monomial
    assert pieri_work((4,), 3, 7) == pieri_work((4,), 3, 10**9) < 500_000
    assert pieri_work((2,), 1, 3) == pieri_work((2,), 1, 10) == 2**3 * 10  # C(5, 2)
    assert pieri_work((), 0, 1) == 1
    assert pieri_work((2, 1), 2, 3) == 2**4 * 21  # C(7, 2) < exp(pi * sqrt(10/3))
    assert 2**7 * 885 < pieri_work((4,), 3, 7) < 2**7 * 886  # exp(pi * sqrt(14/3)) < C(13, 6)
    assert pieri_work((12, 12), 12, 5) > 500_000
