"""Closed-form answers and the checks that hold `arrange` reports to them.

This module does not import `arrange`.  Every expected value below comes
from a classical formula, never from a stored copy of an earlier report:

- the complement of the n coordinate hyperplanes in P^n is the torus
  (C*)^n: Poincare polynomial (1+t)^n, with H^k pure of weight 2k;
- m generic planes in P^3: b_k = C(m-1, k) for k <= 3;
- every hyperplane complement is pure: H^k has weight 2k only;
- the central braid arrangement in C^n (Arnold): prod_{i=1}^{n-1} (1+it);
  the projective one is that product divided by (1+t);
- F(P^1, n) for n >= 3: (1+t^3) prod_{i=2}^{n-2} (1+it);
- F(X, n): Euler characteristic chi(X)(chi(X)-1)...(chi(X)-n+1);
- flat counts: 2^{n+1}-1 for the coordinate arrangement in P^n,
  sum_{k<=3} C(m, k) for m generic planes in P^3, Bell(n) for the
  partition lattice of {1..n}.
"""

from __future__ import annotations

from math import comb, prod


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_product(factors):
    out = [1]
    for f in factors:
        out = poly_mul(out, f)
    return out


def poly_at(poly, x):
    return sum(c * x ** k for k, c in enumerate(poly))


def torus_poly(n):
    return [comb(n, k) for k in range(n + 1)]


def generic_planes_poly(m):
    return [comb(m - 1, k) for k in range(4)]


def arnold_poly(n):
    """Central braid arrangement x_i = x_j in C^n."""
    return poly_product([[1, i] for i in range(1, n)])


def projective_braid_poly(n):
    """Braid arrangement in P^{n-1}: Arnold's product divided by (1+t)."""
    return poly_product([[1, i] for i in range(2, n)])


def config_p1_poly(n):
    """F(P^1, n), n >= 3: (1+t^3) prod_{i=2}^{n-2} (1+it)."""
    return poly_product([[1, 0, 0, 1]] + [[1, i] for i in range(2, n - 1)])


def config_euler(factor, n):
    """chi(F(X, n)) for X = P^{d_1} x ... x P^{d_r}."""
    chi = prod(d + 1 for d in factor)
    return prod(chi - i for i in range(n))


def bell(n):
    """Bell numbers by the Bell triangle."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


def coordinate_flats(n):
    return 2 ** (n + 1) - 1


def generic_planes_flats(m):
    return sum(comb(m, k) for k in range(4))


HYPERPLANE_KINDS = ("torus", "generic_planes", "braid_central",
                    "braid_projective")


def expected(job):
    """(flat count, Betti polynomial or None, Euler characteristic)."""
    e = job["expect"]
    kind = e["kind"]
    if kind == "torus":
        return coordinate_flats(e["n"]), torus_poly(e["n"]), 0
    if kind == "generic_planes":
        poly = generic_planes_poly(e["m"])
        return generic_planes_flats(e["m"]), poly, poly_at(poly, -1)
    if kind == "braid_central":
        poly = arnold_poly(e["n"])
        return bell(e["n"]), poly, poly_at(poly, -1)
    if kind == "braid_projective":
        poly = projective_braid_poly(e["n"])
        return bell(e["n"]), poly, poly_at(poly, -1)
    if kind in ("configuration", "abstract_partition"):
        poly = config_p1_poly(e["n"]) if e["factor"] == [1] else None
        return bell(e["n"]), poly, config_euler(e["factor"], e["n"])
    raise ValueError(f"unknown job kind {kind!r}")


def check_report(job, report, exit_code):
    """Problems found in one `verify --format machine` report; empty if
    the report agrees with every closed form that applies to the job."""
    problems = []

    def need(cond, what):
        if not cond:
            problems.append(f"{job['name']}: {what}")

    need(exit_code == 0, f"exit code {exit_code}")
    verdicts = report.get("verdicts") or []
    need(verdicts and all(v.get("ok") for v in verdicts),
         f"verdicts not all ok: {verdicts}")
    flats, poly, euler = expected(job)
    need(report.get("poset", {}).get("flat_count") == flats,
         f"flat count {report.get('poset', {}).get('flat_count')} != {flats}")
    e = job["expect"]
    if e["kind"] in HYPERPLANE_KINDS:
        oracle = report.get("oracle", {}).get("poly")
        need(oracle == poly, f"oracle {oracle} != {poly}")
    if e["kind"] in ("torus", "generic_planes") or (
            e["kind"] == "configuration" and e["n"] <= 3):
        need(report.get("mode") == "explicit", "not run in explicit mode")
        betti = report.get("betti")
        if poly is not None:
            need(betti == poly, f"betti {betti} != {poly}")
        need(betti is not None and poly_at(betti, -1) == euler,
             f"betti {betti} has Euler characteristic != {euler}")
        need(report.get("euler") == euler,
             f"euler {report.get('euler')} != {euler}")
    if e["kind"] in ("torus", "generic_planes"):
        table = report.get("weight_table") or []
        need(all(row["w"] == 2 * row["k"] for row in table),
             "impure weight table: some H^k has a weight other than 2k")
        need({row["k"]: row["dim"] for row in table}
             == {k: b for k, b in enumerate(poly) if b},
             "weight table does not add up to the Betti numbers")
    if e["kind"] == "torus":
        need(sorted((row["k"], row["w"], row["dim"]) for row in table)
             == [(k, 2 * k, comb(e["n"], k)) for k in range(e["n"] + 1)],
             "torus weight table is not (k, 2k, C(n,k))")
    fz = report.get("feasibility")
    if e["kind"] in ("braid_central", "braid_projective") or e.get("target"):
        need(fz is not None and fz.get("feasible") is True,
             "target not feasible")
        need(fz is not None and fz.get("target") == poly,
             f"target {fz and fz.get('target')} != {poly}")
        need(fz is not None and fz.get("euler") == euler,
             f"page Euler characteristic != {euler}")
    if e.get("bounds"):
        need(fz is not None and fz.get("euler") == euler,
             f"page Euler characteristic {fz and fz.get('euler')} != {euler}")
        if fz is not None and poly is not None:
            bounds = {b["k"]: (b["lower"], b["upper"]) for b in fz["bounds"]}
            for k in set(bounds) | set(range(len(poly))):
                b = poly[k] if k < len(poly) else 0
                lo, hi = bounds.get(k, (0, 0))
                need(lo <= b <= hi, f"b_{k} = {b} outside bounds [{lo}, {hi}]")
    return problems
