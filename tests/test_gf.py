import itertools

import pytest

from hecke import gf
from hecke.gf import (
    Field,
    enumerate_irreducibles,
    enumerate_monic,
    enumerate_monic_units,
    factorize,
    is_irreducible,
    format_poly,
    is_monic,
    poly_add,
    poly_deg,
    poly_divrem,
    poly_eval,
    poly_key,
    poly_mul,
    poly_pow,
    poly_scale,
)
from hecke.guards import DEGREE_GUARD, GuardExceeded
from hecke.maps import parse_poly

F2 = Field(2)
F3 = Field(3)
F4 = Field(2, 2)

SMALL_FIELDS = [F2, F3, F4, Field(5), Field(7), Field(2, 3), Field(3, 2)]


def neg(K, a: int) -> int:
    """-a, read from the field's negation table."""
    return K._neg[a]


def brute_has_proper_factor(K, f):
    """Independent irreducibility oracle: search for g*h == f by multiplication."""
    d = poly_deg(f)
    for dg in range(1, d):
        for g in enumerate_monic(K, dg):
            for h in enumerate_monic(K, d - dg):
                if poly_scale(K, f[-1], poly_mul(K, g, h)) == f:
                    return True
    return False


# -- field construction -------------------------------------------------------


def test_field_build_prime_has_no_modulus():
    assert F2.modulus is None
    assert (F2.p, F2.k, F2.q) == (2, 1, 2)


def test_field_build_f4_modulus():
    # X^2 + X + 1 is the only monic irreducible quadratic over F_2.
    assert F4.modulus == (1, 1, 1)
    assert not brute_has_proper_factor(F2, (1, 1, 1))


def test_field_build_f9_modulus():
    # Trial enumeration low-degree-first: X^2, X^2+X, X^2+2X are reducible,
    # X^2+1 is not (-1 is a non-square mod 3).
    F9 = Field(3, 2)
    assert F9.modulus == (1, 0, 1)
    assert not brute_has_proper_factor(F3, (1, 0, 1))
    for low in [(0, 0), (0, 1), (0, 2)]:
        assert brute_has_proper_factor(F3, low + (1,))


def test_field_build_rejects_bad_arguments():
    with pytest.raises(ValueError):
        Field(4)
    with pytest.raises(ValueError):
        Field(2, 0)


def test_field_builds_its_tables_once_on_first_use(monkeypatch):
    built = []
    build = Field._build_tables
    monkeypatch.setattr(Field, "_build_tables", lambda self: built.append(self) or build(self))
    K = Field(1021)
    assert (K.q, K.modulus, built) == (1021, None, [])
    for _ in range(2):  # every table read twice
        assert (K.mul(3, K.inv(3)), K.sub(0, 1), K.pow(2, 10), K.trace(7)) == (1, 1020, 3, 7)
        assert neg(K, 5) == 1016
        assert built == [K]
    with pytest.raises(AttributeError):
        K._tables
    assert built == [K]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 31, 101])
def test_prime_field_tables_equal_the_coordinate_construction(p):
    K = Field(p)
    coord = [K.coords(a)[0] for a in range(p)]
    assert K._add == [
        tuple(K.from_coords(((coord[a] + coord[b]) % p,)) for b in range(p)) for a in range(p)
    ]
    assert K._neg == tuple(K.from_coords(((-coord[a]) % p,)) for a in range(p))


# Every extension field with q <= 64: F_4, F_8, F_9, F_16, F_25, F_27, F_32, F_49, F_64.
EXTENSIONS_TO_64 = [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 5), (7, 2), (2, 6)]


@pytest.mark.parametrize("p,k", EXTENSIONS_TO_64, ids=[f"q{p**k}" for p, k in EXTENSIONS_TO_64])
def test_extension_field_tables_are_coordinate_arithmetic(p, k):
    # An element is its coordinate polynomial over F_p, reduced modulo
    # K.modulus: sums are coordinatewise mod p and products are the
    # remainder of poly_mul, divided by the modulus over F_p.
    K, Fp = Field(p, k), Field(p)
    coords = [K.coords(a) for a in K.elements()]
    for a, x in enumerate(coords):
        assert coords[K._neg[a]] == tuple(-c % p for c in x)
        for b, y in enumerate(coords):
            assert coords[K.add(a, b)] == tuple((c + d) % p for c, d in zip(x, y))
            product = poly_divrem(Fp, poly_mul(Fp, x, y), K.modulus)[1]
            assert K.mul(a, b) == K.from_coords(product), (a, b)


def test_equal_fields_hash_equally_and_hashing_builds_no_table(monkeypatch):
    fields = [Field(1021), Field(1021), Field(2, 3), Field(2, 3), Field(3, 2)]

    def refuse(self):
        raise AssertionError("hashing built a table")

    monkeypatch.setattr(Field, "_build_tables", refuse)
    assert hash(fields[0]) == hash(fields[1]) and hash(fields[2]) == hash(fields[3])
    keyed = {K: K.q for K in fields}  # equal fields share a key
    assert list(keyed.values()) == [1021, 8, 9]
    assert (keyed[fields[1]], keyed[fields[3]]) == (1021, 8)


# -- field arithmetic ---------------------------------------------------------


def test_char_two_addition():
    assert F2.add(1, 1) == 0


def test_f4_generator_square():
    g = F4.from_coords((0, 1))
    g_plus_one = F4.from_coords((1, 1))
    assert F4.mul(g, g) == g_plus_one  # forced by g^2 + g + 1 = 0
    assert F4.trace(g) == 1  # g + g^2 = g + (g+1) = 1


@pytest.mark.parametrize("K", SMALL_FIELDS, ids=lambda K: f"q{K.q}")
def test_field_axioms_exhaustive(K):
    els = list(K.elements())
    for a in els:
        assert K.add(a, 0) == a
        assert K.mul(a, 1) == a
        assert K.add(a, neg(K, a)) == 0
        if a:
            assert K.mul(a, K.inv(a)) == 1
    for a, b in itertools.product(els, repeat=2):
        assert K.add(a, b) == K.add(b, a)
        assert K.mul(a, b) == K.mul(b, a)
    for a, b, c in itertools.product(els, repeat=3):
        assert K.add(K.add(a, b), c) == K.add(a, K.add(b, c))
        assert K.mul(K.mul(a, b), c) == K.mul(a, K.mul(b, c))
        assert K.mul(a, K.add(b, c)) == K.add(K.mul(a, b), K.mul(a, c))


@pytest.mark.parametrize("K", SMALL_FIELDS, ids=lambda K: f"q{K.q}")
def test_trace_is_linear_and_surjective(K):
    els = list(K.elements())
    for a in els:
        assert 0 <= K.trace(a) < K.p
    for a, b in itertools.product(els, repeat=2):
        assert K.trace(K.add(a, b)) == (K.trace(a) + K.trace(b)) % K.p
    for c in range(K.p):  # prime-subfield scalars are encoded as 0..p-1
        for a in els:
            assert K.trace(K.mul(c, a)) == (c * K.trace(a)) % K.p
    assert {K.trace(a) for a in els} == set(range(K.p))


def test_inv_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        F3.inv(0)


# -- polynomial arithmetic ----------------------------------------------------


def test_char_two_squaring():
    x_plus_1 = (1, 1)
    assert poly_mul(F2, x_plus_1, x_plus_1) == (1, 0, 1)


def test_divrem_and_multiply_back():
    f = (1, 1, 0, 1)  # X^3 + X + 1
    g = (1, 1)  # X + 1
    q, r = poly_divrem(F2, f, g)
    assert (q, r) == ((0, 1, 1), (1,))
    assert poly_add(F2, poly_mul(F2, q, g), r) == f


def test_divrem_random_fields_multiply_back():
    for K in (F2, F3, F4):
        for f in enumerate_monic(K, 3):
            for g in enumerate_monic(K, 1):
                q, r = poly_divrem(K, f, g)
                assert poly_deg(r) < poly_deg(g)
                assert poly_add(K, poly_mul(K, q, g), r) == f


def test_eval_constant_term():
    assert poly_eval(F2, (1, 1, 1), 0) == 1
    assert poly_eval(F3, (2, 1), 1) == 0  # X + 2 at X = 1


def test_divrem_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        poly_divrem(F2, (1, 1), ())


# -- factorization ------------------------------------------------------------


def test_factorize_frobenius_square():
    unit, factors = factorize(F2, (1, 0, 1))  # X^2 + 1 = (X+1)^2
    assert unit == 1
    assert factors == (((1, 1), 2),)


def test_factorize_irreducible_cubic():
    # X^3 + X + 1 has no roots in F_2, hence is irreducible at degree 3.
    f = (1, 1, 0, 1)
    assert poly_eval(F2, f, 0) != 0 and poly_eval(F2, f, 1) != 0
    unit, factors = factorize(F2, f)
    assert unit == 1 and factors == ((f, 1),)


def test_factorize_square_of_quadratic():
    # (X^2+X+1)^2 = X^4 + X^2 + 1 over F_2.
    g = (1, 1, 1)
    assert poly_mul(F2, g, g) == (1, 0, 1, 0, 1)
    unit, factors = factorize(F2, (1, 0, 1, 0, 1))
    assert unit == 1 and factors == ((g, 2),)


def test_factorize_zero_raises():
    with pytest.raises(ValueError):
        factorize(F2, ())


@pytest.mark.parametrize("K,nmax", [(F2, 5), (F3, 4), (F4, 3)], ids=["q2", "q3", "q4"])
def test_factorize_recombines_all_monic_units(K, nmax):
    for n in range(nmax + 1):
        for f in enumerate_monic_units(K, n):
            unit, factors = factorize(K, f)
            prod = (unit,)
            for g, m in factors:
                assert is_monic(g)
                assert g[0] != 0  # f(0) != 0 passes to every factor
                assert g in enumerate_irreducibles(K, max(poly_deg(f), 1))
                prod = poly_mul(K, prod, poly_pow(K, g, m))
            assert prod == f
            labels = [g for g, _ in factors]
            assert labels == sorted(set(labels), key=poly_key)


def test_factorize_trial_divides_through_half_the_degree(monkeypatch):
    factorize.cache_clear()  # what a factorization asks is seen only when it runs
    F31 = Field(31)
    cubic = next(f for f in enumerate_monic_units(F31, 3) if is_irreducible(F31, f))
    cases = [(1, 1, 1), cubic, poly_mul(F31, cubic, (2, 1)), poly_mul(F31, cubic, cubic)]
    asked = []
    original = gf._irreducibles_through

    def recording(K, max_degree):
        asked.append(max_degree)
        return original(K, max_degree)

    monkeypatch.setattr(gf, "_irreducibles_through", recording)
    for f in cases:
        asked.clear()
        unit, factors = factorize(F31, f)
        assert max(asked) <= poly_deg(f) // 2
        prod = (unit,)
        for g, m in factors:
            prod = poly_mul(F31, prod, poly_pow(F31, g, m))
        assert prod == f
    assert factorize(F31, cubic)[1] == ((cubic, 1),)


# -- enumerations -------------------------------------------------------------


def test_irreducibles_f2():
    assert list(enumerate_irreducibles(F2, 2)) == [(1, 1), (1, 1, 1)]
    assert list(enumerate_irreducibles(F2, 3)) == [
        (1, 1),
        (1, 1, 1),
        (1, 1, 0, 1),  # X^3 + X + 1
        (1, 0, 1, 1),  # X^3 + X^2 + 1
    ]


def test_irreducibles_f3_degree_one_excludes_x():
    assert list(enumerate_irreducibles(F3, 1)) == [(1, 1), (2, 1)]


def test_irreducibles_against_brute_force():
    for K in (F2, F3):
        for f in enumerate_irreducibles(K, 4):
            assert not brute_has_proper_factor(K, f)
        listed = set(map(tuple, enumerate_irreducibles(K, 3)))
        for d in range(1, 4):
            for f in enumerate_monic(K, d):
                expected = f[0] != 0 and not brute_has_proper_factor(K, f)
                assert (f in listed) == expected


def test_monic_units_examples():
    assert set(enumerate_monic_units(F2, 2)) == {(1, 0, 1), (1, 1, 1)}
    assert enumerate_monic_units(F3, 0) == ((1,),)
    assert set(enumerate_monic_units(F3, 1)) == {(1, 1), (2, 1)}


def test_monic_units_are_listed_once_per_field_and_degree():
    assert enumerate_monic_units(Field(3), 2) is enumerate_monic_units(Field(3), 2)


@pytest.mark.parametrize("K", [F2, F3, F4], ids=["q2", "q3", "q4"])
def test_monic_unit_counts(K):
    for n in range(1, 6):
        assert len(enumerate_monic_units(K, n)) == (K.q - 1) * K.q ** (n - 1)


# -- text format --------------------------------------------------------------


def test_format_poly_examples():
    assert format_poly(F2, (1, 1, 0, 1)) == "1+1*X^1+1*X^3"
    assert format_poly(F2, ()) == "0"
    assert format_poly(F4, (2, 1)) == "[0,1]+[1,0]*X^1"


def test_format_and_factorize_are_cached_per_field_and_polynomial():
    f = (1, 0, 1, 0, 1)
    for fn in (format_poly, factorize):
        assert fn(Field(2), f) == fn(Field(2), f) == fn(F2, f)
    assert factorize(Field(2), f) is factorize(F2, f)
    assert factorize(F2, f) == (1, (((1, 1, 1), 2),))
    assert format_poly(F4, (2, 1)) == "[0,1]+[1,0]*X^1"
    assert format_poly(F3, (2, 1)) == "2+1*X^1"


def test_parse_poly_tolerant_forms():
    assert parse_poly(F2, "1+1*X^1+1*X^3") == (1, 1, 0, 1)
    assert parse_poly(F2, "1+X+X^3") == (1, 1, 0, 1)
    assert parse_poly(F2, "1+1X+1X^3") == (1, 1, 0, 1)
    assert parse_poly(F3, "2*X^2") == (0, 0, 2)
    assert parse_poly(F2, "0") == ()
    assert parse_poly(F4, "[0,1]+[1,0]*X") == (2, 1)


def test_parse_format_roundtrip():
    for K in (F2, F3, F4):
        for n in range(4):
            for f in enumerate_monic_units(K, n):
                assert parse_poly(K, format_poly(K, f)) == f


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_poly(F2, "1+Y^2")
    with pytest.raises(ValueError):
        parse_poly(F2, "5*X")


@pytest.mark.parametrize("text", ["[1,5]+X", "[1,-1]+X"], ids=["above_p", "negative"])
def test_parse_rejects_coordinate_outside_prime_field(text):
    with pytest.raises(ValueError, match="coordinates"):
        parse_poly(F4, text)


def test_parse_guards_degree(monkeypatch):
    monkeypatch.delenv("HECKE_GUARD_OVERRIDE", raising=False)
    assert len(parse_poly(F2, f"1+X^{DEGREE_GUARD}")) == DEGREE_GUARD + 1
    with pytest.raises(GuardExceeded, match="polynomial degree"):
        parse_poly(F2, f"1+X^{DEGREE_GUARD + 1}")


def test_irreducibles_stream_without_testing_past_the_first_label(monkeypatch):
    tested = []
    original = gf.is_irreducible

    def counting(K, f):
        tested.append(poly_deg(f))
        assert poly_deg(f) < 4, "a quartic was tested"
        return original(K, f)

    monkeypatch.setattr(gf, "is_irreducible", counting)
    labels = enumerate_irreducibles(Field(31), 4)
    assert tested == []
    assert next(labels) == (1, 1)
    assert tested and max(tested) < 4


def test_irreducibles_refuse_degree_zero_when_called():
    with pytest.raises(ValueError):
        enumerate_irreducibles(F2, 0)

