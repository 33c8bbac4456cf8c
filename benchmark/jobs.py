"""Seeded job documents for the `arrange verify` benchmark.

Nothing here imports `arrange`: the inputs, and the closed-form answers
attached to them, are made independently of the program under test.  Every
job is a dict with the job document (`doc`), the extra command-line flags
(`flags`) and the facts its report is checked against (`expect`).
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb

from answers import config_p1_poly


def det(rows):
    """Exact integer determinant by Laplace expansion (small matrices)."""
    if len(rows) == 1:
        return rows[0][0]
    total = 0
    for j, a in enumerate(rows[0]):
        if a:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += (-1) ** j * a * det(minor)
    return total


def generic_forms(rng, count, ncoords, lo=-20, hi=20):
    """`count` integer covectors in general position: every `ncoords` of
    them have a nonzero maximal minor, so every smaller subset is
    independent too.  Forms are drawn one at a time and redrawn until they
    pass against all earlier ones."""
    forms = []
    while len(forms) < count:
        cov = [rng.randint(lo, hi) for _ in range(ncoords)]
        if len(forms) + 1 < ncoords:
            if not _full_rank(forms + [cov]):
                continue
        elif not all(det([forms[i] for i in sub] + [cov])
                     for sub in combinations(range(len(forms)), ncoords - 1)):
            continue
        forms.append(cov)
    return forms


def _full_rank(rows):
    """True when the rows are independent: some maximal minor is nonzero."""
    k = len(rows)
    return any(det([[r[c] for c in cols] for r in rows])
               for cols in combinations(range(len(rows[0])), k))


def _scaled_unit_forms(rng, ncoords):
    """The coordinate hyperplanes, each scaled by a seeded nonzero integer,
    in seeded order."""
    order = list(range(ncoords))
    rng.shuffle(order)
    forms = []
    for i in order:
        cov = [0] * ncoords
        cov[i] = rng.choice([-1, 1]) * rng.randint(1, 9)
        forms.append(cov)
    return forms


def _braid_forms(rng, ncoords):
    """x_i - x_j for i < j with seeded signs.  The order stays fixed: the
    stalk recursion splits off the first member, so a seeded order would
    change the work and the peak memory from seed to seed."""
    forms = []
    for i, j in combinations(range(ncoords), 2):
        cov = [0] * ncoords
        sign = rng.choice([-1, 1])
        cov[i], cov[j] = sign, -sign
        forms.append(cov)
    return forms


def _hyperplane_doc(forms, mode):
    return {"schema_version": 1,
            "model": {"kind": "hyperplane", "mode": mode,
                      "forms": [{"covector": [str(x) for x in cov]}
                                for cov in forms]}}


def _configuration_doc(factor, points):
    return {"schema_version": 1,
            "model": {"kind": "configuration", "factor": list(factor),
                      "points": points}}


def set_partitions(n):
    """Set partitions of {1..n}, each a sorted tuple of sorted tuples."""
    out = []

    def rec(k, blocks):
        if k > n:
            out.append(tuple(sorted(tuple(b) for b in blocks)))
            return
        for b in blocks:
            b.append(k)
            rec(k + 1, blocks)
            b.pop()
        blocks.append([k])
        rec(k + 1, blocks)
        blocks.pop()

    rec(1, [])
    return out


def _p1_power_betti(b):
    """Betti list of (P^1)^b: C(b, k) in degree 2k."""
    return [comb(b, k // 2) if k % 2 == 0 else 0 for k in range(2 * b + 1)]


def abstract_partition_doc(n):
    """F(P^1, n) declared as an abstract model: the partition lattice of
    {1..n} with its cover pairs, a flat with b blocks carrying (P^1)^b."""
    name = {}
    flats = []
    parts = [p for p in set_partitions(n) if len(p) < n]
    for p in parts:
        name[p] = "|".join("".join(str(x) for x in b) for b in p)
        flats.append({"key": name[p], "codim": n - len(p),
                      "betti": _p1_power_betti(len(p))})
    order = []
    for p in parts:
        for a, b in combinations(range(len(p)), 2):
            merged = [blk for i, blk in enumerate(p) if i not in (a, b)]
            merged.append(tuple(sorted(p[a] + p[b])))
            q = tuple(sorted(merged))
            order.append([name[p], name[q]])
    return {"schema_version": 1,
            "model": {"kind": "abstract", "c": 1,
                      "ambient": _p1_power_betti(n),
                      "poset": {"flats": flats, "order": order}}}


def _target(poly):
    return ",".join(str(x) for x in poly)


def workload_jobs(name, seed):
    """The jobs of one workload, made from ``seed`` alone."""
    rng = random.Random(f"{name}:{seed}")
    jobs = []

    def add(label, doc, flags=(), **expect):
        jobs.append({"name": label, "doc": doc, "flags": list(flags),
                     "expect": expect})

    if name == "explicit_warm":
        for n in (8, 6):
            add(f"coordinate_P{n}", _hyperplane_doc(
                _scaled_unit_forms(rng, n + 1), "projective"),
                kind="torus", n=n)
        for m in (10, 12):
            add(f"generic_{m}_planes_P3", _hyperplane_doc(
                generic_forms(rng, m, 4), "projective"),
                kind="generic_planes", m=m)
        for factor, n in (((1,), 3), ((2,), 3)):
            add(f"F(P{factor[0]},{n})", _configuration_doc(factor, n),
                kind="configuration", factor=list(factor), n=n)
    elif name == "feasibility":
        add("braid_A5_central", _hyperplane_doc(_braid_forms(rng, 6), "central"),
            ["--target", "oracle"], kind="braid_central", n=6)
        add("braid_P5", _hyperplane_doc(_braid_forms(rng, 6), "projective"),
            ["--target", "oracle"], kind="braid_projective", n=6)
        add("F(P1,6)", _configuration_doc((1,), 6),
            ["--target", _target(config_p1_poly(6))],
            kind="configuration", factor=[1], n=6, target=True)
        add("F(P1,6)_abstract", abstract_partition_doc(6),
            ["--target", _target(config_p1_poly(6))],
            kind="abstract_partition", factor=[1], n=6, target=True)
        for factor, n in (((1,), 7), ((2,), 5), ((1, 1), 4)):
            add(f"F(P{'xP'.join(map(str, factor))},{n})_bounds",
                _configuration_doc(factor, n), ["--mode", "bounds"],
                kind="configuration", factor=list(factor), n=n, bounds=True)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return jobs
