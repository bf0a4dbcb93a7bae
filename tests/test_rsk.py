import bisect
import itertools
import random

import pytest

from hecke import bijection, gf, rsk, shapes
from hecke.cli import main
from hecke.decomp import h_hat
from hecke.gf import Field, enumerate_irreducibles, poly_deg, poly_key, poly_mul
from hecke.hecke_index import enumerate_m_mu
from hecke.maps import family_from_obj
from hecke.matrices import PolyMatrix
from hecke.rsk import (
    enumerate_pairs,
    enumerate_phi_fillings,
    enumerate_phi_shapes,
    family_weight,
    insert_column,
    phi_factor_matrix,
    rsk_classical,
    rsk_generalized,
    two_line_array,
)
from hecke.records import family_to_obj
from hecke.shapes import (
    cst_check,
    enumerate_cst,
    partitions_of,
    weak_compositions,
)
from test_shapes import compositions_of, cst_weight

F2 = Field(2)
F3 = Field(3)

PAPER_B = ((1, 1, 0), (0, 0, 2), (0, 1, 0))


def family_shape(fam) -> tuple:
    """The (label, shape) of each tableau of a family: the per-pair witness
    for the shapes rsk_bijectivity_check reads per multiplicity matrix."""
    return tuple((g, tuple(len(row) for row in rows)) for g, rows in fam)


def all_matrices(size, max_entry, max_sum=None):
    if max_sum is None:
        flats = itertools.product(range(max_entry + 1), repeat=size * size)
    else:
        from hecke.shapes import weak_compositions

        flats = (
            flat
            for s in range(max_sum + 1)
            for flat in weak_compositions(s, (s,) * (size * size))
            if max(flat, default=0) <= max_entry
        )
    for flat in flats:
        yield tuple(tuple(flat[i * size + j] for j in range(size)) for i in range(size))


# -- insertion ------------------------------------------------------------------


def test_insert_into_empty():
    assert insert_column((), 5) == ((5,),)


def test_insert_displaces_in_first_column():
    assert insert_column(((2,),), 1) == ((1, 2),)


def test_insert_appends_below():
    assert insert_column(((1, 2),), 3) == ((1, 2), (3,))


def test_insert_requires_column_strict():
    with pytest.raises(ValueError):
        insert_column(((2, 1),), 1)
    with pytest.raises(ValueError):
        insert_column(((1,),), 0)


def test_insert_preserves_column_strictness():
    tableaux = [(), ((1,),), ((1, 2), (2,)), ((1, 1, 2), (2, 3))]
    for rows in tableaux:
        for entry in range(1, 5):
            new = insert_column(rows, entry)
            assert cst_check(new, tuple(len(r) for r in new))
            assert sum(map(len, new)) == sum(map(len, rows)) + 1


# -- two-line arrays and classical RSK -------------------------------------------


def test_two_line_array_paper_example():
    assert two_line_array(PAPER_B) == ((1, 2), (1, 1), (2, 3), (2, 3), (3, 2))


def test_two_line_array_trivial():
    assert two_line_array(((0, 0), (0, 0))) == ()
    assert two_line_array(((2,),)) == ((1, 1), (1, 1))


def test_rsk_paper_example():
    P, Q = rsk_classical(PAPER_B)
    assert P == ((1, 2, 3), (2, 3))
    assert Q == ((1, 1, 3), (2, 2))


def test_rsk_trivial_cases():
    assert rsk_classical(((0,),)) == ((), ())
    assert rsk_classical(((1,),)) == (((1,),), ((1,),))


def test_rsk_shape_and_weight_contracts():
    universes = [
        all_matrices(1, 3),
        all_matrices(2, 3),
        all_matrices(3, 2),
        all_matrices(3, 3, max_sum=7),
    ]
    for universe in universes:
        for b in universe:
            P, Q = rsk_classical(b)
            shape = tuple(len(r) for r in P)
            assert shape == tuple(len(r) for r in Q)
            assert cst_check(P, shape) and cst_check(Q, shape)
            col_sums = tuple(sum(col) for col in zip(*b))
            row_sums = tuple(sum(row) for row in b)
            wp, wq = cst_weight(P), cst_weight(Q)
            assert wp + (0,) * (len(b) - len(wp)) == col_sums
            assert wq + (0,) * (len(b) - len(wq)) == row_sums


def test_rsk_injective_small():
    for size in (1, 2, 3):
        seen = {}
        for b in all_matrices(size, 6, max_sum=6):
            key = rsk_classical(b)
            assert key not in seen, (b, seen[key])
            seen[key] = b


def test_rsk_classical_reads_lists_and_tuples_alike():
    for b in all_matrices(2, 2):
        as_lists = [list(row) for row in b]
        assert rsk_classical(as_lists) == rsk_classical(b)
    assert rsk_classical([[1, 1, 0], [0, 0, 2], [0, 1, 0]]) == rsk_classical(PAPER_B)


def test_rsk_transpose_swaps_pair():
    for size in (1, 2, 3):
        for b in all_matrices(size, 5, max_sum=5):
            bt = tuple(zip(*b))
            P, Q = rsk_classical(b)
            Pt, Qt = rsk_classical(bt)
            assert (Pt, Qt) == (Q, P)


def row_fold_rsk(b):
    """Classical RSK folded over tableaux held as rows: each insertion
    converts P to columns and back, and Q's box goes in the row that grew."""

    def insert(rows, entry):
        width = len(rows[0]) if rows else 0
        cols = [[row[c] for row in rows if c < len(row)] for c in range(width)]
        for col in cols:
            idx = bisect.bisect_left(col, entry)
            if idx == len(col):
                col.append(entry)
                break
            col[idx], entry = entry, col[idx]
        else:
            cols.append([entry])
        return tuple(tuple(col[r] for col in cols if r < len(col)) for r in range(len(cols[0])))

    P, Q = (), ()
    for i, j in two_line_array(b):
        newP = insert(P, j)
        r = next((k for k in range(len(P)) if len(newP[k]) == len(P[k]) + 1), len(P))
        Q = tuple(Q[k] + ((i,) if k == r else ()) for k in range(len(Q)))
        Q += ((i,),) if r == len(Q) else ()
        P = newP
    return P, Q


def test_column_rsk_equals_the_row_fold():
    rng = random.Random(2024)
    rectangular = [
        tuple(tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(cols)) for _ in range(rows))
        for rows, cols in ((rng.randint(0, 5), rng.randint(0, 5)) for _ in range(2000))
    ]
    for b in itertools.chain(all_matrices(3, 2), rectangular):
        assert rsk_classical(b) == row_fold_rsk(b), b


# -- factorization labels ----------------------------------------------------------


def worked_example_matrix():
    f, g, h = (1, 1), (1, 1, 1), (1, 1, 0, 1)
    f2h = poly_mul(F2, poly_mul(F2, f, f), h)
    f2 = poly_mul(F2, f, f)
    one = (1,)
    return PolyMatrix(
        (
            (g, f2h, one, one),
            (h, one, g, one),
            (one, one, f, f2),
            (g, one, one, one),
        ),
        (7, 5, 3, 2),
    )


def test_phi_factor_worked_example():
    f, g, h = (1, 1), (1, 1, 1), (1, 1, 0, 1)
    factored = dict(phi_factor_matrix(F2, worked_example_matrix()))
    assert set(factored) == {f, g, h}
    assert factored[f] == ((0, 2, 0, 0), (0, 0, 0, 0), (0, 0, 1, 2), (0, 0, 0, 0))
    assert factored[g] == ((1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 0), (1, 0, 0, 0))
    assert factored[h] == ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0))


def test_phi_factor_unit_matrix_has_empty_support():
    one = PolyMatrix((((1,),),), (0,))
    assert phi_factor_matrix(F2, one) == ()


def test_phi_factor_prime_power():
    f = (1, 1, 1)
    a = PolyMatrix(((poly_mul(F2, f, f),),), (4,))
    assert phi_factor_matrix(F2, a) == ((f, ((2,),)),)


def test_rsk_generalized_worked_example():
    f, g, h = (1, 1), (1, 1, 1), (1, 1, 0, 1)
    P, Q = rsk_generalized(F2, worked_example_matrix())
    assert dict(P) == {
        f: ((2, 2, 4), (3, 4)),
        g: ((1, 1), (3,)),
        h: ((1, 2),),
    }
    assert dict(Q) == {
        f: ((1, 1, 3), (3, 3)),
        g: ((1, 4), (2,)),
        h: ((1, 2),),
    }
    assert family_weight(P) == (7, 5, 3, 2)
    assert family_weight(Q) == (7, 5, 3, 2)


def test_rsk_generalized_single_cell():
    for K, f in [(F2, (1, 1, 0, 1)), (F3, (1, 1))]:
        n = len(f) - 1
        P, Q = rsk_generalized(K, PolyMatrix(((f,),), (n,)))
        assert P == Q == ((f, ((1,),)),)
        assert family_weight(P) == (n,)


# -- enumeration of the codomain ------------------------------------------------------


def test_enumerate_pairs_examples():
    assert len(list(enumerate_pairs(F2, (1,)))) == 1
    ((p, q),) = enumerate_pairs(F2, (1,))
    assert p == q == (((1, 1), ((1,),)),)
    assert len(list(enumerate_pairs(F3, (1,)))) == 2
    assert len(list(enumerate_pairs(F2, (1, 1)))) == 2


def test_enumerate_pairs_recursion_depth_is_the_labels_used():
    # 16 + 136 + 1632 labels of degree <= 3 over F_17, more than the default
    # recursion limit of 1000; each of the 16 * 17^2 pairs uses at most 3.
    assert sum(1 for _ in enumerate_pairs(Field(17), (3,))) == 16 * 17**2


def uncut_phi_shapes(K, n):
    """The label-shape recursion without the degree cut-off: every later
    label is tried at every node, whatever its degree."""
    if n == 0:
        return [()]
    labels = list(enumerate_irreducibles(K, n))
    out = []

    def rec(start, remaining, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for idx in reversed(range(start, len(labels))):
            g = labels[idx]
            d = poly_deg(g)
            for boxes in range(1, remaining // d + 1):
                for lam in partitions_of(boxes):
                    acc.append((g, lam))
                    rec(idx + 1, remaining - d * boxes, acc)
                    acc.pop()

    rec(0, n, [])
    return [tuple(sorted(shape, key=lambda item: poly_key(item[0]))) for shape in out]


@pytest.mark.parametrize("K,n", [(F2, 8), (F3, 5)], ids=["q2n8", "q3n5"])
def test_phi_shapes_degree_cutoff_keeps_the_list(K, n):
    assert enumerate_phi_shapes(K, (n,)) == uncut_phi_shapes(K, n)


def all_label_pairs(K, mu):
    """The codomain over every label of degree at most |mu|: the enumeration
    before labels stopped at degree max(mu)."""
    for shape in enumerate_phi_shapes(K, (sum(mu),)):
        fillings = enumerate_phi_fillings(shape, mu)
        yield from itertools.product(fillings, fillings)


@pytest.mark.parametrize(
    "K,top", [(F2, 5), (F3, 5), (Field(2, 2), 4), (Field(5), 4)], ids=["q2", "q3", "q4", "q5"]
)
def test_labels_stop_at_the_largest_part(K, top):
    for n in range(1, top + 1):
        every = enumerate_phi_shapes(K, (n,))
        for mu in compositions_of(n):
            fitting = [s for s in every if all(poly_deg(g) <= max(mu) for g, _ in s)]
            assert enumerate_phi_shapes(K, mu) == fitting
            assert list(enumerate_pairs(K, mu)) == list(all_label_pairs(K, mu))


def test_phi_shapes_read_the_cached_labels(monkeypatch):
    first = enumerate_phi_shapes(Field(31), (3,))
    tested = []
    original = gf.is_irreducible

    def counting(K, f):
        tested.append(f)
        return original(K, f)

    monkeypatch.setattr(gf, "is_irreducible", counting)
    assert enumerate_phi_shapes(Field(31), (3,)) == first
    assert tested == []


def test_phi_shapes_small():
    shapes = enumerate_phi_shapes(F2, (2,))
    x1 = (1, 1)
    quad = (1, 1, 1)
    assert {tuple(shape) for shape in shapes} == {
        ((x1, (2,)),),
        ((x1, (1, 1)),),
        ((quad, (1,)),),
    }


def test_phi_fillings_match_weight():
    for mu in [(2,), (1, 1), (2, 1)]:
        for shape in enumerate_phi_shapes(F2, (sum(mu),)):
            for fam in enumerate_phi_fillings(shape, mu):
                assert family_shape(fam) == tuple(shape)
                assert family_weight(fam) == mu


def per_shape_fillings(shape, mu):
    """The fillings made afresh for each label shape, its labels included:
    enumerate_phi_fillings before it made them once per degree signature."""
    out: list = []

    def rec(idx, remaining, acc):
        if idx == len(shape):
            if all(r == 0 for r in remaining):
                out.append(tuple(acc))
            return
        g, lam = shape[idx]
        d = poly_deg(g)
        boxes = sum(lam)
        for w in weak_compositions(boxes, tuple(r // d for r in remaining)):
            rest = tuple(r - d * wi for r, wi in zip(remaining, w))
            for rows in enumerate_cst(lam, w):
                acc.append((g, rows))
                rec(idx + 1, rest, acc)
                acc.pop()

    rec(0, tuple(mu), [])
    return out


FILLING_CASES = [
    (K, mu)
    for K in (F2, F3, Field(2, 2), Field(5))
    for n in range(1, 6)
    for mu in compositions_of(n)
] + [(Field(7), (3, 2))]


@pytest.mark.parametrize(
    "K,mu", FILLING_CASES, ids=[f"q{K.q}-{''.join(map(str, mu))}" for K, mu in FILLING_CASES]
)
def test_fillings_per_signature_equal_the_per_shape_witness(K, mu):
    table = []
    for shape in enumerate_phi_shapes(K, mu):
        expected = per_shape_fillings(shape, mu)
        assert enumerate_phi_fillings(shape, mu) == expected
        if expected:
            table.append((shape, len(expected)))
    assert h_hat(K, mu) == tuple(table)


def test_enum_pairs_makes_each_tableau_list_once(monkeypatch, capsys):
    rsk._fillings.cache_clear()
    rsk._tableaux.cache_clear()
    calls = []

    def counting(shape, weight):
        calls.append((shape, weight))
        return enumerate_cst(shape, weight)

    monkeypatch.setattr(shapes, "enumerate_cst", counting)
    assert main(["enum", "pairs", "--p", "3", "--mu", "3,3"]) == 0
    capsys.readouterr()
    assert len(calls) == len(set(calls)) == 60


@pytest.mark.parametrize("K", [F2, F3], ids=["q2", "q3"])
def test_generalized_rsk_bijectivity_small(K):
    for n in range(1, 4):
        for mu in compositions_of(n):
            image = [rsk_generalized(K, a) for a in enumerate_m_mu(K, mu)]
            assert len(set(image)) == len(image)
            codomain = list(enumerate_pairs(K, mu))
            assert len(set(codomain)) == len(codomain)
            assert set(image) == set(codomain)


BIJECTIVITY_SIZES = [  # every (field, mu) at which the tests run rsk_bijectivity_check
    *((K, mu) for K in (F2, F3) for n in range(1, 5) for mu in compositions_of(n)),
    (F3, (2, 2, 1)),
    (Field(5), (2, 2)),
]


def test_label_weights_equal_the_walk_of_every_pair():
    """The shapes and degree-weighted weights read once per multiplicity
    matrix, against family_shape and family_weight walked over both families
    of each pair."""
    for K, mu in BIJECTIVITY_SIZES:
        for a in enumerate_m_mu(K, mu):
            labels = phi_factor_matrix(K, a)
            p, q = rsk_generalized(K, a)
            walked = (family_shape(p) == family_shape(q), family_weight(p), family_weight(q))
            assert rsk._label_weights(labels, len(mu)) == walked == (True, mu, mu), (K.q, a)


def test_label_weights_scale_each_label_by_its_degree():
    quad, cubic = (1, 1, 1), (1, 1, 0, 1)  # 1+X+X^2 and 1+X+X^3 over F_2
    labels = ((quad, ((1, 0), (0, 0))), (cubic, ((0, 0), (1, 1))))
    assert rsk._label_weights(labels, 2) == (True, (5, 3), (2, 6))


@pytest.fixture
def fresh_label_summaries():
    """No summary read from a pair before the test, nor one read from a
    patched pair after it."""
    rsk._shapes_and_contents.cache_clear()
    yield
    rsk._shapes_and_contents.cache_clear()


def test_bijectivity_check_sees_a_q_of_another_shape(fresh_label_summaries, monkeypatch):
    """A Q transposed keeps its content and loses its shape wherever it is
    not self-conjugate: over F_2 at mu = (2,), the Q of (1+X)^2."""
    original = rsk._rsk_classical

    def transposed_q(b):
        P, Q = original(b)
        return P, rsk._transpose(Q)

    monkeypatch.setattr(rsk, "_rsk_classical", transposed_q)
    report = bijection.rsk_bijectivity_check(F2, (2,))
    assert (report["shapes_match"], report["weights_match"], report["pass"]) == (
        False,
        True,
        False,
    )


@pytest.mark.parametrize(
    "change",
    [lambda pairs: pairs[:-1], lambda pairs: pairs + pairs[:1]],
    ids=["dropped", "repeated"],
)
def test_bijectivity_check_compares_the_codomain_it_streams(monkeypatch, change):
    streamed = change(list(enumerate_pairs(F3, (2, 1))))
    monkeypatch.setattr(rsk, "enumerate_pairs", lambda K, mu: iter(streamed))
    report = bijection.rsk_bijectivity_check(F3, (2, 1))
    onto = set(streamed) == set(enumerate_pairs(F3, (2, 1)))
    assert (report["pairs_count"], report["image_equals_codomain"]) == (len(streamed), onto)
    assert report["pass"] == onto


def test_bijectivity_check_counts_the_elements_it_streams(monkeypatch):
    monkeypatch.setattr(rsk, "_families", lambda labels: ((), ()))
    report = bijection.rsk_bijectivity_check(F3, (2, 1))
    size = sum(1 for _ in enumerate_m_mu(F3, (2, 1)))
    assert (report["m_mu_count"], report["injective"], report["pass"]) == (size, False, False)


def test_family_serialization_roundtrip():
    P, Q = rsk_generalized(F2, worked_example_matrix())
    for fam in (P, Q):
        obj = family_to_obj(F2, fam)
        assert family_from_obj(F2, obj) == fam
