"""Acceptance suite.

Each test covers one acceptance criterion, asserts it exactly (zero
tolerance everywhere: the invariants are integers), and prints a one-line
verdict.  Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

import math
import random
from fractions import Fraction

from arrange.models import (check_mon, configuration_model, hyperplane_model,
                            os_oracle)
from arrange.polys import IntPoly
from arrange.projective import ProjProduct
from arrange.spectral import assemble_e2, feasibility, skew_row_homology
from arrange.stalks import (decompose, level_degree, level_weight,
                            stalk_tables, verify_pointwise)
from helpers import (coordinate_forms, criterion_10_models, flat_subspaces,
                     le, random_central_forms, random_generic_projective_forms,
                     random_nongeneric_central_forms, run_explicit)


def _line(num, text, ok=True):
    print(f"ACCEPTANCE {num:02d}: {text} ... {'PASS' if ok else 'FAIL'}")
    assert ok


def _models_for_criteria_1_to_4():
    models = [hyperplane_model(coordinate_forms(n), mode="projective")
              for n in (1, 2, 3)]
    rng = random.Random(101)
    models += [hyperplane_model(
        random_generic_projective_forms(rng, m, 3), mode="projective")
        for m in (4, 6)]
    models.append(hyperplane_model(
        [([1, -1, 0], 0), ([0, 1, -1], 0), ([1, 0, -1], 0)], mode="central"))
    models += [configuration_model(ProjProduct((1,)), 2),
               configuration_model(ProjProduct((1,)), 3),
               configuration_model(ProjProduct((2,)), 2)]
    return models


def test_criterion_1_torus():
    # coordinate arrangement of n+1 hyperplanes: the complement is a torus
    for n in range(1, 7):
        m = hyperplane_model(coordinate_forms(n), mode="projective")
        assert m.ncd and m.explicit
        _, res = run_explicit(m)
        expected = IntPoly([math.comb(n, k) for k in range(n + 1)])
        assert res.betti == expected
        for k in range(n + 1):
            assert res.weights.get((k, 2 * k), 0) == math.comb(n, k)
            assert sum(d for (kk, _), d in res.weights.items()
                       if kk == k) == math.comb(n, k)
    _line(1, "torus Betti (1+t)^n and weights 2k for n = 1..6")


def test_criterion_2_generic_oracle_equality():
    rng = random.Random(20240201)
    for trial in range(25):
        mcount = rng.randint(2, 8)
        forms = random_generic_projective_forms(rng, mcount, 3)
        model = hyperplane_model(forms, mode="projective")
        assert model.ncd and model.explicit, f"trial {trial} not in general position"
        _, res = run_explicit(model)
        assert res.betti == os_oracle(model.poset), f"trial {trial}"
    _line(2, "25 random generic arrangements in P^3: limit Betti == oracle")


def test_criterion_3_nongeneric_feasibility():
    cases = [[([1, -1, 0], 0), ([0, 1, -1], 0), ([1, 0, -1], 0)]]
    rng = random.Random(20240202)
    while len(cases) < 11:
        ncoords = rng.randint(2, 4)
        forms = random_nongeneric_central_forms(rng, rng.randint(3, 6), ncoords)
        cases.append(forms)
    for i, forms in enumerate(cases):
        model = hyperplane_model(forms, mode="central")
        oracle = os_oracle(model.poset)
        dec = decompose(model, stalk_tables(model))
        page = assemble_e2(model, dec)
        res = feasibility(page, oracle)
        assert res.feasible, f"case {i} infeasible"
        assert page.euler() == oracle.evaluate(-1), f"case {i} euler"
    _line(3, "braid triple + 10 random non-generic central: feasible, chi exact")


def test_criterion_4_configuration_spaces():
    expected = {
        ((1,), 2): IntPoly([1, 0, 1]),
        ((1,), 3): IntPoly([1, 0, 0, 1]),
        ((2,), 2): IntPoly([1, 0, 2, 0, 2, 0, 1]),
    }
    for (dims, n), poly in expected.items():
        model = configuration_model(ProjProduct(dims), n)
        _, res = run_explicit(model)
        assert res.betti == poly, f"F({dims},{n})"
    _line(4, "F(P1,2), F(P1,3), F(P2,2) limit Betti polynomials exact")


def test_criterion_5_vanishing_and_purity():
    checked = 0
    for model in _models_for_criteria_1_to_4():
        c = model.c
        for table in stalk_tables(model).values():
            for level, d in table.items():
                assert d > 0
                k = level_degree(c, level)
                assert k % (2 * c - 1) == 0, "vanishing window violated"
                # degree (2c-1)*l has weight 2c*l
                assert level_weight(c, level) == 2 * c * (k // (2 * c - 1)), \
                    "purity"
                checked += 1
    _line(5, f"vanishing/purity of every stalk entry ({checked} entries)")


def test_criterion_6_decomposition_consistency():
    for model in _models_for_criteria_1_to_4():
        tables = stalk_tables(model)
        dec = decompose(model, tables)
        report = verify_pointwise(model, dec, tables)
        assert report.ok, report.mismatches
    _line(6, "pointwise constant-sheaf consistency on every model")


def test_criterion_7_stalk_vs_mobius():
    rng = random.Random(20240203)
    for trial in range(50):
        ncoords = rng.randint(2, 4)
        forms = random_central_forms(rng, rng.randint(2, 6), ncoords)
        if rng.random() < 0.4:
            forms = [(cov, rng.randint(-2, 2)) for cov, _ in forms]
            mode = "affine"
        else:
            mode = "central"
        model = hyperplane_model(forms, mode=mode)
        poset = model.poset
        tables = stalk_tables(model)
        for f in poset.flats:
            dims = tables[f.index]
            for k in range(f.codim + 1):
                oracle = sum(abs(poset.mu(j)) for j in range(len(poset))
                             if le(poset, j, f.index)
                             and poset.flats[j].codim == k)
                assert dims.get(k, 0) == oracle, f"trial {trial}"
    _line(7, "50 random c=1 arrangements: stalk dims == local |mu| sums")


def test_criterion_8_engine_invariants():
    for model in _models_for_criteria_1_to_4():
        if not model.explicit:
            continue
        page, res = run_explicit(model)
        page.check_differential()            # d^2 = 0
        # d moves a cell by (2c, 1-2c), which keeps its weight
        for key in page.differential:
            assert page.weight(*key) == page.weight(*page.target_of(*key))
        assert page.euler() == sum((-1) ** (p + q) * h
                                   for (p, q), h in res.homology.items())

    rng = random.Random(20240204)
    base_forms = random_central_forms(rng, 5, 3)
    base = hyperplane_model(base_forms, mode="central")
    subspaces = flat_subspaces(base.poset, [[f] for f in base_forms])
    base_tables = {subspaces[i]: t for i, t in stalk_tables(base).items()}
    for _ in range(20):
        perm = list(range(len(base_forms)))
        rng.shuffle(perm)
        forms = [base_forms[i] for i in perm]
        model = hyperplane_model(forms, mode="central")
        subspaces = flat_subspaces(model.poset, [[f] for f in forms])
        tables = {subspaces[i]: t for i, t in stalk_tables(model).items()}
        assert tables == base_tables
    _line(8, "d^2=0, weight preservation, Euler equality, 20 member permutations")


def test_criterion_9_monodromy_checker():
    two = hyperplane_model([([1, 0], 0), ([0, 1], 0)], mode="central")
    rep = check_mon(two, [Fraction(1, 2), Fraction(1, 2)])
    assert not rep.ok and len(rep.bad_flats) == 1

    conc = hyperplane_model(
        [([1, 0], 0), ([0, 1], 0), ([1, 1], 0)], mode="central")
    rep3 = check_mon(conc, [Fraction(1, 3)] * 3)
    assert not rep3.ok
    assert [conc.poset.flats[i].codim for i in rep3.bad_flats] == [2]
    rep5 = check_mon(conc, [Fraction(1, 5)] * 3)
    assert rep5.ok and rep5.conclusion

    rng = random.Random(20240205)
    for _ in range(20):
        exps = [Fraction(rng.randint(0, 6), 7) for _ in range(3)]
        base = check_mon(conc, exps)
        shifted = [e + rng.randint(-4, 4) for e in exps]
        again = check_mon(conc, shifted)
        assert (base.ok, base.bad_flats) == (again.ok, again.bad_flats)
    _line(9, "monodromy verdicts exact; integer offsets never change them")


def test_criterion_10_skew_rows_match_weight_table():
    pairs = 0
    for model in criterion_10_models():
        assert model.c == 1 and model.explicit
        page, res = run_explicit(model)
        maxq = max(q for (_, q) in page.cells)
        maxk = max(p + q for (p, q) in page.cells)
        for k in range(maxk + 1):
            for ell in range(maxq + 1):
                assert skew_row_homology(page, k, ell) == \
                    res.weights.get((k, k + ell), 0)
                pairs += 1
    _line(10, f"skew-row homology == weight table on every c=1 model ({pairs} pairs)")
