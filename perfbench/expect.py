"""Independent expectations for every benchmark command.

Nothing here imports `hecke`: each expected value is computed from a closed
form or a separate small implementation, so a checker cannot agree with the
code under test merely by sharing a bug with it.  Every check returns a list
of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import itertools
import json
from math import factorial


# -- closed forms ----------------------------------------------------------------


def degree_matrices(mu: tuple) -> list:
    """Nonnegative l-by-l matrices whose row sums and column sums are mu."""
    l = len(mu)
    out = []

    def rows(total, length):
        if length == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in rows(total - first, length - 1):
                yield (first,) + rest

    def rec(i, col_rem, acc):
        if i == l:
            if not any(col_rem):
                out.append(tuple(acc))
            return
        for row in rows(mu[i], l):
            if all(x <= r for x, r in zip(row, col_rem)):
                rec(i + 1, tuple(r - x for r, x in zip(col_rem, row)), acc + [row])

    rec(0, tuple(mu), [])
    return out


def m_mu_size(q: int, mu: tuple) -> int:
    """|M_mu| = sum over degree matrices d of prod_{d_ij > 0} (q-1) q^(d_ij - 1)."""
    total = 0
    for d in degree_matrices(mu):
        term = 1
        for row in d:
            for e in row:
                if e:
                    term *= (q - 1) * q ** (e - 1)
        total += term
    return total


def gl_order(q: int, n: int) -> int:
    out = 1
    for i in range(n):
        out *= q**n - q**i
    return out


def monomial_count(q: int, n: int) -> int:
    return factorial(n) * (q - 1) ** n


def _mobius(n: int) -> int:
    result, m, d = 1, n, 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            result = -result
        d += 1
    return -result if m > 1 else result


def irreducible_count(q: int, max_deg: int) -> int:
    """Monic irreducibles over F_q of degree 1..max_deg with f(0) != 0
    (Gauss's necklace count, minus the polynomial X)."""
    total = 0
    for d in range(1, max_deg + 1):
        total += sum(_mobius(e) * q ** (d // e) for e in range(1, d + 1) if d % e == 0) // d
    return total - 1


def pieri_shapes(nu: tuple, n: int) -> set:
    """Partitions gamma with gamma/nu a horizontal strip of n boxes."""
    parts = list(nu) + [0]
    out = set()
    # gamma_i ranges over [nu_i, nu_{i-1}] (gamma_1 unbounded).
    ranges = [
        range(parts[i], (parts[i - 1] if i else parts[0] + n) + 1)
        for i in range(len(parts))
    ]
    for gamma in itertools.product(*ranges):
        if sum(gamma) - sum(nu) == n:
            out.add(tuple(g for g in gamma if g))
    return out


def partitions(n: int, top: int | None = None) -> list:
    top = n if top is None else top
    if n == 0:
        return [()]
    return [(f,) + rest for f in range(min(n, top), 0, -1) for rest in partitions(n - f, f)]


# The `verify pieri` default grid: every partition of size < 5, rows 1..3.
PIERI_GRID = {(nu, n) for size in range(5) for nu in partitions(size) for n in range(1, 4)}


# -- output parsing ----------------------------------------------------------------


def parse_report(text: str):
    """A verify report without its wall-clock `timings` key, which makes
    identical runs differ byte for byte (a determinism defect of the CLI)."""
    report = json.loads(text)
    report.pop("timings", None)
    return report


def parse_lines(text: str) -> list:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def _expect(problems: list, what: str, got, want):
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


# -- checks per command kind ----------------------------------------------------------


def check_verify(text: str, check: str, q: int, params: dict) -> list:
    problems: list = []
    report = parse_report(text)
    _expect(problems, "pass", report.get("pass"), True)
    mu = tuple(params.get("mu", ()))
    if check == "bijection":
        size = m_mu_size(q, mu)
        _expect(problems, "m_mu_count", report.get("m_mu_count"), size)
        _expect(problems, "n_mu_count", report.get("n_mu_count"), size)
    elif check == "rsk_bijectivity":
        size = m_mu_size(q, mu)
        _expect(problems, "m_mu_count", report.get("m_mu_count"), size)
        _expect(problems, "pairs_count", report.get("pairs_count"), size)
    elif check == "dim_identity":
        size = m_mu_size(q, mu)
        for key in ("n_mu_count", "m_mu_count", "sum_of_squares"):
            _expect(problems, key, report.get(key), size)
    elif check == "basis":
        size = m_mu_size(q, mu)
        _expect(problems, "nonzero_t_v", report.get("nonzero_t_v"), size)
        _expect(problems, "n_mu_size", report.get("n_mu_size"), size)
    elif check == "levi":
        dim = 1
        for m in mu:
            dim *= m_mu_size(q, (m,))
        _expect(problems, "tensor_dim", report.get("tensor_dim"), dim)
        _expect(problems, "image_dim", report.get("image_dim"), dim)
    elif check == "commutativity":
        n = params["n"]
        _expect(problems, "basis_size", report.get("basis_size"), m_mu_size(q, (n,)))
    elif check == "cosets":
        n = params["n"]
        _expect(problems, "coset_sizes_sum", report.get("coset_sizes_sum"), gl_order(q, n))
        _expect(problems, "num_cosets", report.get("num_cosets"), monomial_count(q, n))
    elif check == "pieri":
        if "nu" in params:
            got = {tuple(g) for g in report.get("expansion", [])}
            _expect(problems, "expansion", got, pieri_shapes(params["nu"], params["add"]))
        else:
            cases = report.get("cases", [])
            _expect(problems, "cases", len(cases), len(PIERI_GRID))
            _expect(problems, "grid", {(tuple(c["nu"]), c["n"]) for c in cases}, PIERI_GRID)
            if not all(c.get("pass") is True for c in cases):
                problems.append("a pieri case failed")
    else:
        raise ValueError(f"no expectation for verify {check}")
    return problems


def check_enum(text: str, expected_count: int) -> list:
    problems: list = []
    records = parse_lines(text)
    if not records or set(records[-1]) != {"count"}:
        return ["missing count footer"]
    _expect(problems, "footer count", records[-1]["count"], expected_count)
    _expect(problems, "records", len(records) - 1, expected_count)
    body = [json.dumps(r, sort_keys=True) for r in records[:-1]]
    _expect(problems, "distinct records", len(set(body)), len(body))
    return problems


def check_a_to_v(text: str, a: dict) -> list:
    problems: list = []
    (rec,) = parse_lines(text)
    n = sum(a["mu"])
    _expect(problems, "mu", rec.get("mu"), a["mu"])
    _expect(problems, "perm", sorted(rec.get("perm", [])), list(range(1, n + 1)))
    entries = rec.get("entries", [])
    if len(entries) != n or not all(isinstance(e, int) and e > 0 for e in entries):
        problems.append("entries are not n nonzero field elements")
    return problems


def check_v_to_a(text: str, a: dict) -> list:
    """The round trip a -> v -> a must give back the input exactly."""
    (rec,) = parse_lines(text)
    return [] if rec == a else [f"round trip gave {rec!r}, expected {a!r}"]


def _label_degree(label: str) -> int:
    degs = [int(t.split("X^")[1]) if "X^" in t else (1 if "X" in t else 0) for t in label.split("+")]
    return max(degs)


def check_rsk_general(text: str, a: dict) -> list:
    """Per-label shapes of P and Q agree; both degree-weighted weights are mu."""
    problems: list = []
    (rec,) = parse_lines(text)
    P, Q = rec.get("P", {}), rec.get("Q", {})
    _expect(problems, "labels", sorted(P), sorted(Q))
    mu = list(a["mu"])
    for name, fam in (("P", P), ("Q", Q)):
        weight: dict = {}
        for label, rows in fam.items():
            if name == "P" and label in Q:
                _expect(problems, f"shape at {label}", [len(r) for r in rows], [len(r) for r in Q[label]])
            for row in rows:
                for e in row:
                    weight[e] = weight.get(e, 0) + _label_degree(label)
        _expect(problems, f"weight of {name}", [weight.get(i, 0) for i in range(1, len(mu) + 1)], mu)
        if set(weight) - set(range(1, len(mu) + 1)):
            problems.append(f"{name} has entries outside 1..{len(mu)}")
    _expect(problems, "reported weight", rec.get("weight"), mu)
    return problems


def check_rsk(text: str, b: list) -> list:
    """Classical RSK: P and Q share a shape, both are column strict, P holds
    the column sums of b as its content and Q the row sums."""
    problems: list = []
    (rec,) = parse_lines(text)
    P, Q = rec.get("P", []), rec.get("Q", [])
    _expect(problems, "shape", [len(r) for r in P], [len(r) for r in Q])
    for name, rows, sums in (
        ("P", P, [sum(col) for col in zip(*b)]),
        ("Q", Q, [sum(row) for row in b]),
    ):
        content = [sum(row.count(i) for row in rows) for i in range(1, len(sums) + 1)]
        _expect(problems, f"content of {name}", content, sums)
        if not _column_strict(rows):
            problems.append(f"{name} is not column strict")
    return problems


def _column_strict(rows: list) -> bool:
    rows_ok = all(r[c] <= r[c + 1] for r in rows for c in range(len(r) - 1))
    cols_ok = all(
        rows[i][c] < rows[i + 1][c] for i in range(len(rows) - 1) for c in range(len(rows[i + 1]))
    )
    return rows_ok and cols_ok
