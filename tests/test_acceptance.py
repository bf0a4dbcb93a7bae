"""Acceptance suite: every criterion exact, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the line per
criterion alongside the pytest verdicts.
"""

import ast
import importlib
import itertools
import json
import pathlib
import sys
import time

from hecke.bijection import bijection_check, rsk_bijectivity_check
from hecke.decomp import dim_identity_check, h_hat, pieri_check, schur_jacobi_trudi, weight_space_dims
from hecke.gf import Field
from hecke.hecke_index import (
    enumerate_m_mu,
    enumerate_n,
    is_in_n_mu_direct,
    is_in_n_mu_fast,
    matrix_of_v,
    v_of_matrix,
    v_of_poly,
)
from hecke.matrices import PolyMatrix
from hecke.oracle import (
    basis_check,
    commutativity_check,
    levi_embedding_check,
    structure_constants,
)
from hecke.rsk import (
    family_weight,
    rsk_classical,
    rsk_generalized,
    two_line_array,
)
from hecke.shapes import enumerate_cst, partitions_of, weak_compositions
from test_oracle import assert_table_associative
from test_shapes import compositions_of

F2 = Field(2)
F3 = Field(3)
F5 = Field(5)


def report(number, elapsed, limit, detail):
    print(f"[criterion {number}] PASS in {elapsed:.2f}s (limit {limit}s): {detail}")
    assert elapsed < limit


def test_criterion_1_rsk_worked_example():
    start = time.perf_counter()
    b = ((1, 1, 0), (0, 0, 2), (0, 1, 0))
    assert two_line_array(b) == ((1, 2), (1, 1), (2, 3), (2, 3), (3, 2))
    P, Q = rsk_classical(b)
    assert P == ((1, 2, 3), (2, 3))
    assert Q == ((1, 1, 3), (2, 2))
    report(1, time.perf_counter() - start, 1, "column RSK reproduces the worked pair")


def test_criterion_2_monomial_matrix_of_polynomial():
    start = time.perf_counter()
    checked = 0
    for a, b, c in itertools.product(F5.units(), repeat=3):
        f = (a, 0, 0, b, c, 0, 1)  # a + b X^3 + c X^4 + X^6
        v = v_of_poly(F5, f)
        placed = {(v.perm[col] + 1, col + 1): v.entries[col] for col in range(6)}
        assert placed == {
            (4, 1): a,
            (5, 2): a,
            (6, 3): a,
            (3, 4): b,
            (1, 5): c,
            (2, 6): c,
        }
        checked += 1
    assert checked == 64
    report(2, time.perf_counter() - start, 1, "all 64 scalar choices place exactly")


def test_criterion_3_generalized_rsk_worked_example():
    from hecke.gf import poly_mul

    start = time.perf_counter()
    f, g, h = (1, 1), (1, 1, 1), (1, 1, 0, 1)
    a = PolyMatrix(
        (
            (g, poly_mul(F2, poly_mul(F2, f, f), h), (1,), (1,)),
            (h, (1,), g, (1,)),
            ((1,), (1,), f, poly_mul(F2, f, f)),
            (g, (1,), (1,), (1,)),
        ),
        (7, 5, 3, 2),
    )
    P, Q = rsk_generalized(F2, a)
    assert dict(P) == {f: ((2, 2, 4), (3, 4)), g: ((1, 1), (3,)), h: ((1, 2),)}
    assert dict(Q) == {f: ((1, 1, 3), (3, 3)), g: ((1, 4), (2,)), h: ((1, 2),)}
    assert family_weight(P) == (7, 5, 3, 2) == family_weight(Q)
    report(3, time.perf_counter() - start, 1, "worked label pair and weights exact")


def test_criterion_4_bijection_suite():
    start = time.perf_counter()
    cases = 0
    for K in (F2, F3):
        for n in range(1, 5):
            all_n = list(enumerate_n(K, n))
            for mu in compositions_of(n):
                image = []
                for a in enumerate_m_mu(K, mu):
                    v = v_of_matrix(K, a)
                    assert is_in_n_mu_fast(v, mu)  # (a) lands in N_mu
                    assert matrix_of_v(K, v, mu) == a  # (b) exact roundtrip
                    image.append(v)
                filtered = {v for v in all_n if is_in_n_mu_fast(v, mu)}
                assert len(set(image)) == len(image)
                assert set(image) == filtered  # (c) image == brute-force filter
                if n <= 3:  # (d) fast test == direct definition
                    for v in all_n:
                        assert is_in_n_mu_fast(v, mu) == is_in_n_mu_direct(K, v, mu)
                cases += 1
    report(4, time.perf_counter() - start, 120, f"{cases} (q, mu) cases, all exact")


def test_criterion_5_rsk_bijectivity_and_dimension_identity():
    start = time.perf_counter()
    cases = 0
    for K in (F2, F3):
        for n in range(1, 5):
            for mu in compositions_of(n):
                rep = rsk_bijectivity_check(K, mu)
                assert rep["pass"], rep
                counts = dim_identity_check(K, mu)
                assert counts["pass"], counts
                assert counts["n_mu_count"] == rep["m_mu_count"]
                cases += 1
    report(5, time.perf_counter() - start, 300, f"{cases} (q, mu) cases, all exact")


def test_criterion_6_oracle_suite():
    start = time.perf_counter()
    details = []
    for K, n in ((F2, 2), (F3, 2), (F2, 3)):
        for mu in compositions_of(n):
            rep = basis_check(K, mu)  # e_mu idempotent; T_v != 0 iff v in N_mu
            assert rep["pass"], rep
            sc = structure_constants(K, mu)  # Bruhat path; test_oracle checks it by brute force
            assert_table_associative(K, sc)
            levi = levi_embedding_check(K, mu)
            assert levi["pass"], levi
        comm = commutativity_check(K, n)
        assert comm["pass"], comm
        details.append(f"(n={n}, q={K.q})")
    report(6, time.perf_counter() - start, 600, "oracle checks for " + ", ".join(details))


def test_criterion_7_weight_space_sum_rule():
    start = time.perf_counter()
    shapes = 0
    for n in range(1, 4):
        for mu in compositions_of(n):
            for lam, count in h_hat(F2, mu):
                table = weight_space_dims(F2, lam, mu)
                assert sum(dim for _, dim in table) == count
                shapes += 1
    report(7, time.perf_counter() - start, 60, f"{shapes} module shapes, sums exact")


def test_criterion_8_symmetric_function_cross_checks():
    start = time.perf_counter()
    for size in range(6):
        for nu in partitions_of(size):
            for m in range(max(len(nu), 1), 6):
                gf = {}
                for w in weak_compositions(size, (size,) * m):
                    k = len(enumerate_cst(nu, w))
                    if k:
                        gf[w] = k
                assert schur_jacobi_trudi(nu, m) == gf
    for size in range(5):
        for nu in partitions_of(size):
            for n in range(1, 4):
                assert pieri_check(nu, n, 5)["pass"]
    report(8, time.perf_counter() - start, 60, "determinant equals tableau sums; Pieri exact")


def test_bijection_report_consistency():
    # The CLI-facing drivers agree with the acceptance loops above.
    rep = bijection_check(F3, (2, 2))
    assert rep["pass"]
    assert rep["m_mu_count"] == rep["n_mu_count"]


def test_hecke_imports_only_the_standard_library():
    # The north star: a verifier that uses only the standard library.
    sources = sorted((pathlib.Path(__file__).parents[1] / "src" / "hecke").glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:  # not an import, or a relative one: within hecke
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "hecke" and top not in sys.stdlib_module_names:
                    outside.append((path.name, name))
    assert outside == []


KEPT_WITHOUT_A_READER = {  # top-level name in src/hecke that nothing there names -> why kept
    "__all__": "read by `from hecke import *`, not by name",
    "schur_jacobi_trudi": "public: the tests' entry point and the tracer's hook",
    "poly_add": "the tests' witness for polynomial arithmetic",
    "poly_eval": "the tests' witness for polynomial arithmetic",
    "poly_pow": "the tests' witness for polynomial arithmetic",
    "identity_matrix": "a test fixture",
    "insert_column": "the tests' witness for column insertion",
    "family_from_obj": "reads tableau-family pairs, for the inverse RSK still to come",
    "weight_space_dims": "Levi weight spaces, for the `verify` job still to come",
}


def _top_level_names(statement) -> set:
    """The names a top-level statement defines: a def or class, or an
    assignment's targets."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return {statement.name}
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        nodes = [node for target in targets for node in ast.walk(target)]
        return {node.id for node in nodes if isinstance(node, ast.Name)}
    return set()


def _names_read(statement) -> set:
    """Every name a statement reads: a loaded name, an attribute, an imported
    name, or a string, which is how the CLI finds each check."""
    names = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_top_level_name_in_hecke_has_a_reader():
    # A name defined at the top of a module must be named somewhere in
    # src/hecke outside its own definition, or be kept on purpose above.
    sources = sorted((pathlib.Path(__file__).parents[1] / "src" / "hecke").glob("*.py"))
    defined, read = set(), set()
    for path in sources:
        for statement in ast.parse(path.read_text(), str(path)).body:
            own = _top_level_names(statement)
            defined |= own
            read |= _names_read(statement) - own
    assert defined - read == set(KEPT_WITHOUT_A_READER)


# Per-layer names of BENCHMARK.json that name no function of their layer:
# the methods the tracer's install wraps, and the names that resolve to
# nothing (each with why).
TRACED_METHODS = {
    "gf.field_build": ("Field", "__init__"),
    "oracle.algebra_mul": ("AlgebraElement", "__mul__"),
    "oracle.cyclotomic_mul": ("Cyclotomic", "__mul__"),
}
UNRESOLVED = {
    "cli.startup": "spawn to import, which run.py reads from the trace",
    "decomp.mp_mul": "gone since the Schur products were packed; its metrics read 0",
}


def _tracer_layers() -> tuple:
    """The LAYERS of perfbench/tracer.py: the modules whose functions it wraps."""
    tree = ast.parse((pathlib.Path(__file__).parents[1] / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no LAYERS")


def test_every_traced_name_is_defined_where_the_tracer_looks():
    # The tracer wraps the functions a layer defines, by name; a function
    # moved to another module would read 0 in every per-layer metric of it.
    root = pathlib.Path(__file__).parents[1]
    layers = _tracer_layers()
    traced = set()
    for metric in json.loads((root / "BENCHMARK.json").read_text())["per_layer"]:
        parts = metric["name"].split(".")
        if len(parts) >= 3 and parts[0] in layers:
            traced.add(".".join(parts[:2]))
    assert set(TRACED_METHODS) | set(UNRESOLVED) <= traced
    misplaced = []
    for name in sorted(traced):
        layer, attr = name.split(".")
        module = importlib.import_module(f"hecke.{layer}")
        if name in TRACED_METHODS:
            cls, method = TRACED_METHODS[name]
            owner = vars(module).get(cls)
            held = isinstance(owner, type) and method in vars(owner)
            defined = held and owner.__module__ == module.__name__
        else:
            fn = vars(module).get(attr)
            defined = callable(fn) and getattr(fn, "__module__", None) == module.__name__
        if defined == (name in UNRESOLVED):
            misplaced.append(name)
    assert misplaced == []
