"""Shared generators and brute-force oracles for the test suite."""

import os
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import arrange
from arrange.linalg import reduce_against, rref


def minor_rank(rows):
    """Rank as the largest nonvanishing minor, by determinant expansion.

    Independent of Gaussian elimination; only usable for small matrices.
    """
    n = len(rows)
    m = len(rows[0]) if n else 0

    def det(rs, cs):
        if len(rs) == 1:
            return rows[rs[0]][cs[0]]
        total = Fraction(0)
        for i, c in enumerate(cs):
            sub = det(rs[1:], cs[:i] + cs[i + 1:])
            if sub:
                total += (-1) ** i * rows[rs[0]][c] * sub
        return total

    for size in range(min(n, m), 0, -1):
        for rs in combinations(range(n), size):
            for cs in combinations(range(m), size):
                if det(list(rs), list(cs)):
                    return size
    return 0


def brute_force_linear_flats(forms, ncoords):
    """All flats by exhaustive subset intersection, keyed by canonical rref.

    Returns {key: member_frozenset} mapping each flat to the full set of
    members containing it.  Subset enumeration is the independent oracle
    for the breadth-first closure builder.
    """
    member_rows = []
    for cov, const in forms:
        member_rows.append(tuple(Fraction(x) for x in cov) + (Fraction(const),))
    keys = {}
    for r in range(len(forms) + 1):
        for subset in combinations(range(len(forms)), r):
            reduced, pivots = rref([member_rows[i] for i in subset])
            if pivots and pivots[-1] == ncoords:
                continue  # inconsistent
            keys.setdefault(reduced, set()).update(subset)
    out = {}
    for key in keys:
        members = frozenset(
            m for m in range(len(forms))
            if not any(reduce_against(member_rows[m], key)))
        out[key] = members
    return out


def random_form(rng, ncoords, lo=-9, hi=9):
    while True:
        cov = [rng.randint(lo, hi) for _ in range(ncoords)]
        if any(cov):
            return cov


def _proportional(a, b):
    cross = None
    for x, y in zip(a, b):
        if x == 0 and y == 0:
            continue
        if x == 0 or y == 0:
            return False
        q = Fraction(x, y)
        if cross is None:
            cross = q
        elif q != cross:
            return False
    return True


def random_central_forms(rng, m, ncoords, lo=-2, hi=2):
    """m pairwise non-proportional central forms in the given coordinates."""
    forms = []
    while len(forms) < m:
        cov = random_form(rng, ncoords, lo, hi)
        if any(_proportional(cov, old) for old, _ in forms):
            continue
        forms.append((cov, 0))
    return forms


def is_generic(forms, ncoords):
    """Every subset of size <= ncoords has full rank (general position)."""
    rows = [tuple(Fraction(x) for x in cov) for cov, _ in forms]
    for r in range(2, min(len(rows), ncoords) + 1):
        for subset in combinations(range(len(rows)), r):
            reduced, _ = rref([rows[i] for i in subset])
            if len(reduced) != r:
                return False
    return True


def random_generic_projective_forms(rng, m, proj_dim=3):
    """m homogeneous forms in general position in P^proj_dim."""
    while True:
        forms = random_central_forms(rng, m, proj_dim + 1, lo=-9, hi=9)
        if is_generic(forms, proj_dim + 1):
            return forms


def random_nongeneric_central_forms(rng, m, ncoords):
    """Central forms with a forced three-member codimension-2 flat."""
    assert m >= 3
    while True:
        forms = random_central_forms(rng, m - 1, ncoords)
        a = forms[0][0]
        b = forms[1][0]
        dep = [x + y for x, y in zip(a, b)]
        if not any(dep):
            continue
        if any(_proportional(dep, old) for old, _ in forms):
            continue
        return forms + [(dep, 0)]


def coordinate_forms(n):
    return [([1 if j == i else 0 for j in range(n + 1)], 0)
            for i in range(n + 1)]


def criterion_10_models():
    """The c = 1 explicit models of acceptance criterion 10."""
    from arrange.models import configuration_model, hyperplane_model
    from arrange.projective import ProjProduct
    rng = random.Random(20240206)
    models = [hyperplane_model(coordinate_forms(n), mode="projective")
              for n in (1, 2, 3, 4)]
    models += [hyperplane_model(
        random_generic_projective_forms(rng, m, 3), mode="projective")
        for m in (4, 5, 6)]
    models += [configuration_model(ProjProduct((1,)), n) for n in (2, 3)]
    return models


def child_env():
    """Environment for a child interpreter that may run in another
    directory, where a relative PYTHONPATH entry such as "src" no longer
    resolves: put the package pytest imported first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(arrange.__file__).resolve().parent.parent),
                      env.get("PYTHONPATH")]))
    return env


def explicit_page(model):
    """Assemble and differentiate an explicit-mode model."""
    from arrange import (assemble_e2, build_differential_config,
                         build_differential_ncd, decompose)
    dec = decompose(model)
    page = assemble_e2(dec, model.strata(), model.ambient, model.c,
                       bottom=model.poset.bottom)
    if model.kind == "hyperplane":
        diff = build_differential_ncd(model, page)
    else:
        diff = build_differential_config(model, page)
    return page.with_differential(diff)


def run_explicit(model):
    """Assemble, differentiate, and run an explicit-mode model."""
    from arrange import run
    page = explicit_page(model)
    return page, run(page)
