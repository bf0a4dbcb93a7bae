import itertools
import tracemalloc

import pytest

from hecke.gf import Field
from hecke.guards import GuardExceeded, gl_order
from hecke.hecke_index import enumerate_m_mu, enumerate_n, monomial_identity, v_of_matrix
from hecke.matrices import MonomialMatrix
from hecke.oracle import (
    AlgebraElement,
    CosetError,
    Cyclotomic,
    _bruhat,
    _double_cosets,
    _psi_columns,
    _psi_exponent,
    _u_orbit,
    _u_psi,
    _vector_codes,
    basis_check,
    commutativity_check,
    coset_check,
    double_coset_reps,
    e_mu,
    enumerate_gl,
    enumerate_u,
    identity_matrix,
    is_unipotent_upper,
    levi_embedding_check,
    mat_mul,
    monomial_to_matrix,
    structure_constants,
    t_v,
)
from test_shapes import compositions_of

F2 = Field(2)
F3 = Field(3)
F4 = Field(2, 2)
F5 = Field(5)


def delta(K, g: tuple) -> AlgebraElement:
    """The group element g as an element of the group algebra."""
    return AlgebraElement(K, len(g), {g: Cyclotomic.root_power(K.p, 0)})


def decode_matrix(K, n, code: int) -> tuple:
    """The matrix of a code: its n^2 entries, row by row, are the base-q
    digits of the code, most significant first."""
    digits = [code // K.q ** (n * n - 1 - k) % K.q for k in range(n * n)]
    return tuple(tuple(digits[i * n : i * n + n]) for i in range(n))


def x_elem(K, n, i, j, t):
    rows = [[int(a == b) for b in range(n)] for a in range(n)]
    rows[i - 1][j - 1] = t
    return tuple(tuple(r) for r in rows)


def n_mu(K, mu) -> list:
    """N_mu in its canonical order: v_a for each a in M_mu."""
    return [v_of_matrix(K, a) for a in enumerate_m_mu(K, mu)]


# -- cyclotomic arithmetic -------------------------------------------------------


def test_zeta_two_is_minus_one():
    z = Cyclotomic.root_power(2, 1)
    assert (z.nums, z.den) == ((-1,), 1)
    assert z * z == Cyclotomic(2, (1, 0))


def test_zeta_three_relations():
    one = Cyclotomic(3, (1, 0, 0))
    z = Cyclotomic.root_power(3, 1)
    z2 = Cyclotomic.root_power(3, 2)
    assert z * z == z2
    assert z * z2 == one
    assert Cyclotomic(3, (1, 1, 1)) == Cyclotomic(3, (0, 0, 0))  # 1 + zeta + zeta^2 = 0


def test_cyclotomic_scalars():
    x = Cyclotomic(3, (2, 5, 0))
    assert x * Cyclotomic(3, (2, 0, 0)) == Cyclotomic(3, (4, 10, 0))
    assert x * Cyclotomic(3, (1, 0, 0), 2) == Cyclotomic(3, (2, 5, 0), 2)


def test_cyclotomic_canonical_form():
    # (2 + 4 zeta + 6 zeta^2) / 4 = (-4 - 2 zeta) / 4 = (-2 - zeta) / 2.
    x = Cyclotomic(3, (2, 4, 6), 4)
    assert (x.nums, x.den) == ((-2, -1), 2)
    same = Cyclotomic(3, (-2, -1, 0), 2)
    assert x == same and hash(x) == hash(same)
    assert Cyclotomic(3, (0, 3, 0), 6) == Cyclotomic.root_power(3, 1, 2)
    zero = Cyclotomic(3, (5, 5, 5), 7)
    assert (zero.nums, zero.den) == ((0, 0), 1)
    assert not zero and zero == Cyclotomic(3, (0, 0, 0))
    for counts, den in [((1, 0), 1), ((1, 0, 0, 0), 1), ((1, 0, 0), 0), ((1, 0, 0), -2)]:
        with pytest.raises(ValueError):
            Cyclotomic(3, counts, den)


# -- matrices over F_q ------------------------------------------------------------


def u_list(K, n) -> list:
    """The position-by-position builder enumerate_u replaces: every choice of
    the entries above the diagonal, the last position fastest."""
    positions = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = []
    for values in itertools.product(K.elements(), repeat=len(positions)):
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        for (i, j), val in zip(positions, values):
            rows[i][j] = val
        out.append(tuple(tuple(r) for r in rows))
    return out


U_SIZES = [  # q in {2, 3, 4, 5} at every n <= 4 whose |U| the guard admits
    (K, n) for K in (F2, F3, F4, F5) for n in range(1, 5) if K.q ** (n * (n - 1) // 2) <= 4096
]


@pytest.mark.parametrize("K,n", U_SIZES, ids=lambda x: str(getattr(x, "q", x)))
def test_enumerate_u_is_the_position_by_position_list(K, n):
    assert enumerate_u(K, n) == u_list(K, n)


@pytest.mark.parametrize("K,n", U_SIZES, ids=lambda x: str(getattr(x, "q", x)))
def test_double_cosets_walk_the_row_codes_of_u_in_order(monkeypatch, K, n):
    # At v = 1 each x is u's row codes; an empty orbit adds nothing to the
    # coset, so every u reaches _u_orbit.
    from hecke import oracle

    walked = []

    def record(K, x, cols=frozenset()):
        walked.append(x)
        return {0: []}

    monkeypatch.setattr(oracle, "enumerate_n", lambda K, n: iter([monomial_identity(n)]))
    monkeypatch.setattr(oracle, "_u_orbit", record)
    list(_double_cosets(K, n))
    Q = K.q**n
    codes = [sum(r * Q ** (n - 1 - i) for i, r in enumerate(x)) for x in walked]
    assert [decode_matrix(K, n, g) for g in codes] == enumerate_u(K, n)


def test_enumerate_sizes():
    assert len(enumerate_u(F2, 3)) == 8
    assert len(enumerate_u(F3, 2)) == 3
    assert len(list(enumerate_gl(F2, 2))) == gl_order(2, 2) == 6
    assert len(list(enumerate_gl(F3, 2))) == gl_order(3, 2) == 48
    assert len(list(enumerate_gl(F2, 3))) == gl_order(2, 3) == 168


def gl_list(K, n) -> list:
    """The list builder enumerate_gl streams: every invertible matrix, row by
    row, each span grown entry by entry from all q multiples of the row."""
    vectors = list(itertools.product(K.elements(), repeat=n))
    out = []

    def extend(rows, span):
        for vec in vectors:
            if vec in span:
                continue
            if len(rows) == n - 1:
                out.append(tuple(rows) + (vec,))
            else:
                grown = {
                    tuple(K.add(x, K.mul(c, y)) for x, y in zip(s, vec))
                    for s in span
                    for c in K.elements()
                }
                extend(rows + [vec], grown)

    extend([], {(0,) * n})
    return out


@pytest.mark.parametrize(
    "K,n",
    [(F3, 1), (F2, 2), (F3, 2), (F4, 2), (F5, 2), (F2, 3), (F3, 3), (F2, 4)],
    ids=["3-1", "2-2", "3-2", "4-2", "5-2", "2-3", "3-3", "2-4"],
)
def test_enumerate_gl_streams_the_list_in_order(K, n):
    G = enumerate_gl(K, n)
    assert not isinstance(G, list)
    codes = list(G)
    assert all(type(g) is int for g in codes)
    assert [decode_matrix(K, n, g) for g in codes] == gl_list(K, n)


def test_enumerate_gl_guard_fires_at_the_call():
    with pytest.raises(GuardExceeded):
        enumerate_gl(F5, 3)


def test_unipotent_predicate():
    assert is_unipotent_upper(x_elem(F2, 3, 1, 2, 1))
    assert not is_unipotent_upper(x_elem(F2, 3, 2, 1, 1))


# -- psi_mu -----------------------------------------------------------------------


def psi_mu_eval(K, u, mu) -> Cyclotomic:
    return Cyclotomic.root_power(K.p, _psi_exponent(K, u, _psi_columns(mu)))


def test_psi_mu_identity_is_one():
    for mu in [(2,), (1, 1)]:
        assert psi_mu_eval(F2, identity_matrix(2), mu) == Cyclotomic(2, (1, 0))


def test_psi_mu_superdiagonal():
    val = psi_mu_eval(F2, x_elem(F2, 2, 1, 2, 1), (2,))
    assert val == Cyclotomic.root_power(2, 1)  # zeta_2 = -1


def test_psi_mu_trivial_for_unit_parts():
    for u in enumerate_u(F3, 3):
        assert psi_mu_eval(F3, u, (1, 1, 1)) == Cyclotomic(3, (1, 0, 0))


def test_psi_mu_is_multiplicative():
    for K, n in [(F2, 3), (F3, 2)]:
        U = enumerate_u(K, n)
        for mu in compositions_of(n):
            for u, w in itertools.product(U[:8], U[:8]):
                lhs = psi_mu_eval(K, mat_mul(K, u, w), mu)
                assert lhs == psi_mu_eval(K, u, mu) * psi_mu_eval(K, w, mu)


# -- e_mu and T_v -----------------------------------------------------------------


def test_e_mu_rank_one():
    e = e_mu(F3, 1, (1,))
    assert e.terms == {identity_matrix(1): Cyclotomic(3, (1, 0, 0))}


def test_e_mu_rank_two_explicit():
    x = x_elem(F2, 2, 1, 2, 1)
    half = Cyclotomic(2, (1, 0), 2)
    e_triv = e_mu(F2, 2, (1, 1))
    assert e_triv.coeff(identity_matrix(2)) == half
    assert e_triv.coeff(x) == half
    e_gg = e_mu(F2, 2, (2,))
    assert e_gg.coeff(identity_matrix(2)) == half
    assert e_gg.coeff(x) == Cyclotomic(2, (-1, 0), 2)


@pytest.mark.parametrize("K,n", [(F2, 2), (F3, 2), (F2, 3)], ids=["22", "23", "32"])
def test_e_mu_is_idempotent(K, n):
    for mu in compositions_of(n):
        e = e_mu(K, n, mu)
        assert e * e == e


def test_delta_convolution():
    g = x_elem(F2, 2, 1, 2, 1)
    h = ((0, 1), (1, 0))
    prod = delta(F2, g) * delta(F2, h)
    assert prod == delta(F2, mat_mul(F2, g, h))


def test_mixed_algebra_operands_rejected():
    with pytest.raises(ValueError):
        delta(F2, identity_matrix(2)) * delta(F2, identity_matrix(3))
    with pytest.raises(ValueError):
        delta(F2, identity_matrix(2)) * delta(F3, identity_matrix(2))


def test_t_identity_is_e_mu():
    for mu in [(2,), (1, 1)]:
        assert t_v(F2, monomial_identity(2), mu) == e_mu(F2, 2, mu)


def test_t_v_gelfand_graev_example():
    # v_(X^2+X+1) over F_2 corresponds to the reversal; its T_v is nonzero.
    v = MonomialMatrix((1, 0), (1, 1))
    assert t_v(F2, v, (2,))


@pytest.mark.parametrize(
    "K,mu",
    [
        (F2, (2, 1)),
        (F2, (1, 1, 1)),
        (F3, (2, 1)),
        (F3, (1, 2)),
        (F4, (1, 1)),
        (F4, (2,)),
        (Field(5), (1, 1)),
        (F2, (2, 2)),
    ],
    ids=["2-21", "2-111", "3-21", "3-12", "4-11", "4-2", "5-11", "2-22"],
)
def test_t_v_matches_the_generic_product(K, mu):
    # t_v moves rows and builds left U-orbits over codes; the witness is
    # AlgebraElement.__mul__, one mat_mul per pair of terms.
    n = sum(mu)
    e = e_mu(K, n, mu)
    for v in enumerate_n(K, n):
        expected = e * delta(K, monomial_to_matrix(K, v)) * e
        assert t_v(K, v, mu) == expected, v


@pytest.mark.parametrize(
    "K,n",
    [(F2, 3), (F3, 2), (F4, 2), (Field(5), 2), (F3, 3), (F2, 4)],
    ids=["2-3", "3-2", "4-2", "5-2", "3-3", "2-4"],
)
def test_double_cosets_match_mat_mul(K, n):
    U = enumerate_u(K, n)
    cosets = list(_double_cosets(K, n))
    assert [v for v, _ in cosets] == list(enumerate_n(K, n))
    for v, codes in cosets:
        coset = {decode_matrix(K, n, g) for g in codes}
        assert len(coset) == len(codes)
        vm = monomial_to_matrix(K, v)
        left = [mat_mul(K, u, vm) for u in U]
        assert coset == {mat_mul(K, x, u) for x in left for u in U}, v
    assert double_coset_reps(K, n) == [(v, len(coset)) for v, coset in cosets]


FIELDS_TO_16 = [  # every F_q with q <= 16
    Field(p, k)
    for p, k in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)]
]


@pytest.mark.parametrize("K", FIELDS_TO_16, ids=lambda K: str(K.q))
def test_code_tables_are_the_coordinatewise_field_operations(K):
    # n = 3 only up to q = 5 (q^6 = 15625 entries): no check builds a table
    # past q = 4 at n = 3, and at q = 16 the table would hold 16.7 million.
    for n in (1, 2, 3) if K.q <= 5 else (1, 2):
        vectors, index, add, scale = _vector_codes(K, n)
        assert vectors == list(itertools.product(K.elements(), repeat=n))
        assert [index[vec] for vec in vectors] == list(range(len(vectors)))
        for a, x in enumerate(vectors):
            assert [vectors[s] for s in add[a]] == [tuple(map(K.add, x, y)) for y in vectors]
        for c in K.elements():
            expected = [tuple(K.mul(c, y) for y in x) for x in vectors]
            assert [vectors[s] for s in scale[c]] == expected


@pytest.mark.parametrize(
    "K,n,v_step,u_step",
    [(F3, 3, 1, 9), (F5, 2, 1, 1), (F2, 4, 1, 32), (F4, 3, 7, 16)],
    ids=["3-3", "5-2", "2-4", "4-3"],
)
def test_u_orbit_is_the_left_orbit_by_mat_mul(K, n, v_step, u_step):
    # x = v u over the monomials v and the u in U (every v_step-th and
    # u_step-th); the witness is {(w x, psi exponent of w) : w in U} by
    # mat_mul, with psi_(n), which reads every superdiagonal entry.
    index = _vector_codes(K, n)[1]
    U = _u_psi(K, n, (n,))
    for v in list(enumerate_n(K, n))[::v_step]:
        for u, _ in U[::u_step]:
            x = mat_mul(K, monomial_to_matrix(K, v), u)
            orbit = _u_orbit(K, [index[row] for row in x], _psi_columns((n,)))
            got = [(decode_matrix(K, n, g), e) for e, codes in orbit.items() for g in codes]
            assert sorted(got) == sorted((mat_mul(K, w, x), e % K.p) for w, e in U), (v, u)


@pytest.mark.parametrize("K,n", [(F2, 2), (F3, 2)], ids=["22", "23"])
def test_basis_check_small(K, n):
    for mu in compositions_of(n):
        report = basis_check(K, mu)
        assert report["pass"], report


def test_basis_check_extension_field():
    # q = 4 exercises the trace-based character on a genuine extension.
    F4 = Field(2, 2)
    g = F4.from_coords((0, 1))
    assert psi_mu_eval(F4, x_elem(F4, 2, 1, 2, g), (2,)) == Cyclotomic.root_power(2, 1)
    for mu in [(2,), (1, 1)]:
        report = basis_check(F4, mu)
        assert report["pass"], report
    for v in n_mu(F4, (2,)):
        from hecke.hecke_index import is_in_n_mu_direct

        assert is_in_n_mu_direct(F4, v, (2,))


@pytest.mark.parametrize("K,n", [(F2, 2), (F3, 2), (F2, 3)], ids=["22", "23", "32"])
def test_distinct_basis_supports_are_disjoint(K, n):
    for mu in compositions_of(n):
        supports = [
            set(t_v(K, v, mu).terms) for v in n_mu(K, mu)
        ]
        for s1, s2 in itertools.combinations(supports, 2):
            assert not s1 & s2


@pytest.mark.parametrize(
    "K,mu",
    [(F2, (2, 1)), (F2, (1, 1, 1)), (F3, (1, 1)), (Field(2, 2), (2,))],
    ids=["2-21", "2-111", "3-11", "4-2"],
)
def test_t_v_coefficient_at_v_is_a_positive_rational(K, mu):
    # structure_constants divides by this: |U ∩ vUv^-1| / |U|^2, counted here
    # as the u in U with v^-1 u v in U; v^-1 is vm's transpose, entries inverted.
    U = enumerate_u(K, sum(mu))
    for v in n_mu(K, mu):
        vm = monomial_to_matrix(K, v)
        vinv = tuple(tuple(x and K.inv(x) for x in col) for col in zip(*vm))
        meet = sum(is_unipotent_upper(mat_mul(K, mat_mul(K, vinv, u), vm)) for u in U)
        expected = Cyclotomic(K.p, (meet,) + (0,) * (K.p - 1), len(U) ** 2)
        assert t_v(K, v, mu).coeff(vm) == expected


# -- structure constants -----------------------------------------------------------


def test_unit_row_of_structure_constants():
    for mu in [(2,), (1, 1)]:
        sc = structure_constants(F2, mu)
        one = Cyclotomic(2, (1, 0))
        unit = sc.basis.index(monomial_identity(2))
        for j in range(len(sc.basis)):
            assert sc.table[(unit, j)] == ((j, one),)
            assert sc.table[(j, unit)] == ((j, one),)


def cyclotomic_sum(x, y):
    """x + y over one common denominator: hecke sums only integer counts,
    so the tables' witnesses below add their coefficients here."""
    counts = [a * y.den + b * x.den for a, b in zip(x.nums, y.nums)]
    return Cyclotomic(x.p, counts + [0], x.den * y.den)


def assert_table_associative(K, sc):
    size = len(sc.basis)
    zero = Cyclotomic(K.p, (0,) * K.p)
    for u, v, w in itertools.product(range(size), repeat=3):
        lhs = {}
        for x, c in sc.table[(u, v)]:
            for y, d in sc.table[(x, w)]:
                lhs[y] = cyclotomic_sum(lhs.get(y, zero), c * d)
        rhs = {}
        for z, c in sc.table[(v, w)]:
            for y, d in sc.table[(u, z)]:
                rhs[y] = cyclotomic_sum(rhs.get(y, zero), c * d)
        assert {k: c for k, c in lhs.items() if c} == {k: c for k, c in rhs.items() if c}


def test_structure_constants_yokonuma_two():
    sc = structure_constants(F2, (1, 1))
    assert len(sc.basis) == 2
    assert_table_associative(F2, sc)


def test_structure_constants_symmetric_for_gelfand_graev():
    sc = structure_constants(F2, (2,))
    for i, j in itertools.product(range(len(sc.basis)), repeat=2):
        assert sc.table[(i, j)] == sc.table[(j, i)]
    assert_table_associative(F2, sc)


@pytest.mark.parametrize("K,mu", [(F2, (2, 2)), (F3, (3,))], ids=["2-22", "3-3"])
def test_structure_constants_associative_at_bruhat_sizes(K, mu):
    assert_table_associative(K, structure_constants(K, mu))


# -- the Bruhat path against brute force ---------------------------------------------


def factor_product(K, n, factors):
    """The product, in list order, of the elementary matrices 1 + c E_ij."""
    out = identity_matrix(n)
    for i, j, c in factors:
        out = mat_mul(K, out, x_elem(K, n, i + 1, j + 1, c))
    return out


@pytest.mark.parametrize("K,n", [(F2, 3), (F3, 2), (F4, 2)], ids=["2-3", "3-2", "4-2"])
def test_bruhat_decomposes_every_element(K, n):
    for code in enumerate_gl(K, n):
        g = decode_matrix(K, n, code)
        x, w, z = _bruhat(K, g)
        assert all(i < j for i, j, _ in x + z)
        xm, zm = factor_product(K, n, x), factor_product(K, n, z)
        assert is_unipotent_upper(xm) and is_unipotent_upper(zm)
        assert sorted(w.perm) == list(range(n)) and all(w.entries)
        assert mat_mul(K, mat_mul(K, xm, monomial_to_matrix(K, w)), zm) == g


def test_e_mu_g_e_mu_is_psi_times_t_w():
    # e g e = e x w z e = psi(x) psi(z) T_w: the term structure_constants sums.
    n = 3
    for mu in compositions_of(n):
        e = e_mu(F2, n, mu)
        t_of = {}
        for code in enumerate_gl(F2, n):
            g = decode_matrix(F2, n, code)
            x, w, z = _bruhat(F2, g)
            if w not in t_of:
                t_of[w] = t_v(F2, w, mu)
            scale = psi_mu_eval(F2, factor_product(F2, n, x), mu) * psi_mu_eval(
                F2, factor_product(F2, n, z), mu
            )
            lhs = e * delta(F2, g) * e
            assert lhs.terms == {h: scale * c for h, c in t_of[w].terms.items()}


def brute_force_table(K, mu):
    """Structure constants by convolution in the group algebra: T_i T_j is
    read off at each basis representative and divided by T_k's own
    coefficient there (a positive rational); nothing may remain outside
    the span of the expansion."""
    basis = n_mu(K, mu)
    elems = [t_v(K, v, mu) for v in basis]
    mats = [monomial_to_matrix(K, v) for v in basis]
    # 1 / c for each rational c = nums[0] / den > 0.
    coeffs = [el.coeff(m) for el, m in zip(elems, mats)]
    assert all(c.nums[0] > 0 and not any(c.nums[1:]) for c in coeffs)
    scales = [Cyclotomic(K.p, (c.den,) + (0,) * (K.p - 1), c.nums[0]) for c in coeffs]
    zero = Cyclotomic(K.p, (0,) * K.p)
    table = {}
    for i, j in itertools.product(range(len(basis)), repeat=2):
        prod = elems[i] * elems[j]
        expansion = tuple(
            (k, prod.coeff(m) * s) for k, (m, s) in enumerate(zip(mats, scales)) if prod.coeff(m)
        )
        span = {}
        for k, c in expansion:
            for g, t in elems[k].terms.items():
                span[g] = cyclotomic_sum(span.get(g, zero), c * t)
        assert {g: c for g, c in span.items() if c} == prod.terms
        table[(i, j)] = expansion
    return table


@pytest.mark.parametrize(
    "K,mu",
    [(F2, (2, 1)), (F2, (1, 1, 1)), (F2, (3,)), (F3, (2,)), (F3, (1, 1)), (F4, (2,))],
    ids=["2-21", "2-111", "2-3", "3-2", "3-11", "4-2"],
)
def test_structure_constants_match_brute_force(K, mu):
    sc = structure_constants(K, mu)
    assert sc.basis == tuple(n_mu(K, mu))
    assert sc.table == brute_force_table(K, mu)


# -- top-level checks ----------------------------------------------------------------


@pytest.mark.parametrize(
    "K,n", [(F2, 2), (F3, 2), (F2, 3), (F2, 4), (F3, 3)], ids=["22", "23", "32", "42", "33"]
)
def test_commutativity(K, n):
    report = commutativity_check(K, n)
    assert report["pass"], report


def test_levi_embedding_small():
    for K, mu in [(F2, (1, 1)), (F3, (1, 1)), (F2, (2, 1)), (F2, (1, 1, 1)), (F2, (2, 2))]:
        report = levi_embedding_check(K, mu)
        assert report["pass"], report


def test_double_cosets_rank_one():
    reps = double_coset_reps(F3, 1)
    assert len(reps) == 2
    assert all(size == 1 for _, size in reps)


def test_double_cosets_small():
    reps = double_coset_reps(F2, 2)
    assert len(reps) == 2
    assert sum(size for _, size in reps) == 6
    assert sum(size for _, size in double_coset_reps(F2, 3)) == 168
    assert coset_check(F3, 2)["pass"]


def test_double_coset_reps_checks_each_group_once_before_building(monkeypatch):
    from hecke import guards, oracle

    checked = []
    check_guard, enumerate_gl = guards.check_guard, oracle.enumerate_gl

    def guard(size, limit, what):
        checked.append(what)
        return check_guard(size, limit, what)

    def build(K, n):
        checked.append("G")
        return enumerate_gl(K, n)

    # |U| is checked by the price in guards, |GL_n(F_q)| by enumerate_gl.
    monkeypatch.setattr(guards, "check_guard", guard)
    monkeypatch.setattr(oracle, "check_guard", guard)
    monkeypatch.setattr(oracle, "enumerate_gl", build)
    assert coset_check(F2, 2)["pass"]
    assert checked[:3] == ["|U|", "G", "|GL_n(F_q)|"]
    assert checked.count("|GL_n(F_q)|") == 1


@pytest.mark.parametrize(
    "change",
    [
        lambda G: itertools.chain(G, [next(enumerate_gl(F2, 3))]),
        lambda G: itertools.islice(G, 1, None),
        lambda G: itertools.chain(G, [0b110_110_001]),  # rows (1,1,0), (1,1,0), (0,0,1)
        lambda G: itertools.chain(G, [2**9]),  # q^(n^2): one past the last code
        lambda G: itertools.chain([next(G) - 2**9], G),  # an alias that indexing would wrap
    ],
    ids=["repeated", "dropped", "singular", "too-large", "negative-alias"],
)
def test_double_coset_reps_refuses_a_wrong_group(monkeypatch, change):
    from hecke import oracle

    monkeypatch.setattr(oracle, "enumerate_gl", lambda K, n: change(enumerate_gl(K, n)))
    with pytest.raises(CosetError, match="do not cover the group"):
        double_coset_reps(F2, 3)
    assert not coset_check(F2, 3)["pass"]


def test_double_coset_reps_refuses_overlapping_cosets(monkeypatch):
    from hecke import oracle

    double_cosets = oracle._double_cosets

    def overlapping(K, n):
        first = None
        for v, coset in double_cosets(K, n):
            if first is None:
                first = next(iter(coset))
            else:
                coset = coset | {first}
            yield v, coset

    monkeypatch.setattr(oracle, "_double_cosets", overlapping)
    with pytest.raises(CosetError, match="not disjoint"):
        double_coset_reps(F2, 3)


@pytest.mark.parametrize(
    "change",
    [
        lambda coset: coset | {2**9},  # q^(n^2): one past the last code
        lambda coset: (coset - {min(coset)}) | {min(coset) - 2**9},  # an alias that would wrap
    ],
    ids=["too-large", "negative-alias"],
)
def test_double_coset_reps_refuses_a_coset_code_out_of_range(monkeypatch, change):
    from hecke import oracle

    double_cosets = oracle._double_cosets

    def stray(K, n):
        cosets = double_cosets(K, n)
        v, coset = next(cosets)
        yield v, change(coset)
        yield from cosets

    monkeypatch.setattr(oracle, "_double_cosets", stray)
    with pytest.raises(CosetError, match="do not cover the group"):
        double_coset_reps(F2, 3)


@pytest.mark.parametrize("K,n,bound", [(F3, 3, 0.5e6), (F4, 3, 2e6)], ids=["3-3", "4-3"])
def test_double_coset_reps_memory_is_a_byte_per_matrix_code(K, n, bound):
    # The marks take q^(n^2) bytes, 19683 at (F_3, 3) and 262144 at (F_4, 3),
    # and the largest coset set about 0.1 and 0.5 MB more.  The bounds sit
    # well below a set of the |G| codes (11232 and 181440 of them), which
    # takes about 1.1 and 17.5 MB there.
    K._add, _vector_codes(K, n)  # the field's and the codes' tables are cached
    tracemalloc.start()
    try:
        double_coset_reps(K, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


# -- guards ---------------------------------------------------------------------------


def test_guard_rejects_large_inputs():
    with pytest.raises(GuardExceeded):
        e_mu(F2, 8, (8,))


def test_guard_override(monkeypatch):
    monkeypatch.setenv("HECKE_GUARD_OVERRIDE", "100000")
    # |U| = 2^10 = 1024 < 4096 would pass anyway; raise the ceiling for a
    # case just over the default: n = 7 gives |U| = 2^21, still too big.
    with pytest.raises(GuardExceeded):
        e_mu(F2, 7, (7,))
    monkeypatch.setenv("HECKE_GUARD_OVERRIDE", str(2**21))
    # Now permitted by the override; building it would be slow, so only
    # check that the guard itself admits the size.
    from hecke.guards import check_guard

    check_guard(2**21, 4096, "|U|")


def test_guard_shows_a_value_past_4096_bits_as_inf(monkeypatch):
    from hecke.guards import check_guard

    monkeypatch.delenv("HECKE_GUARD_OVERRIDE", raising=False)
    with pytest.raises(GuardExceeded, match=r"^x = inf exceeds the guard \(10\)$"):
        check_guard(1 << 4096, 10, "x")
    with pytest.raises(GuardExceeded, match=rf"^x = {(1 << 4096) - 1} exceeds"):
        check_guard((1 << 4096) - 1, 10, "x")
