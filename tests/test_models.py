import random
from fractions import Fraction

import pytest

import arrange.models as models
from arrange.errors import NotAdmissible, NotRankOne
from arrange.models import (MissingBetti, abstract_model, check_mon,
                            configuration_model, euler_oracle,
                            hyperplane_model, os_oracle)
from arrange.polys import IntPoly
from arrange.poset import IntersectionPoset
from arrange.projective import ProjProduct
from arrange.spectral import assemble_e2
from arrange.stalks import decompose, stalk_tables
from helpers import random_central_forms, run_explicit

BRAID3 = [([1, -1, 0], 0), ([0, 1, -1], 0), ([1, 0, -1], 0)]


def coordinate_forms(n):
    return [([1 if j == i else 0 for j in range(n + 1)], 0)
            for i in range(n + 1)]


def test_coordinate_model_is_ncd():
    for n in (1, 2, 3):
        m = hyperplane_model(coordinate_forms(n), mode="projective")
        assert m.ncd and m.explicit
        # strata of codim k: binomial(n+1, k) copies of P^(n-k)
        from math import comb
        for k in range(1, n + 1):
            flats = [f for f in m.poset.flats if f.codim == k]
            assert len(flats) == comb(n + 1, k)
            for f in flats:
                assert m.strata[f.index] == ProjProduct((n - k,))
        for f in m.poset.flats:
            source, target, _ = m.inclusion(f.index, m.poset.bottom)
            assert source == m.strata[f.index]
            assert target == ProjProduct((n,))


@pytest.mark.parametrize("mode, ambient", [
    ("projective", ProjProduct((2,))), ("affine", (1,)), ("central", (1,))])
def test_hyperplane_strata_cover_the_flats(mode, ambient):
    forms = [([1, 0, 0], 0), ([0, 1, 0], 0), ([1, 1, 0], 0), ([0, 0, 1], 0)]
    m = hyperplane_model(forms, mode=mode)
    assert m.strata.keys() == {f.index for f in m.poset.flats}
    assert m.strata[m.poset.bottom] == ambient


def test_configuration_strata_cover_the_flats():
    for dims, n in (((1,), 4), ((2,), 3), ((1, 1), 3)):
        m = configuration_model(ProjProduct(dims), n)
        assert m.strata.keys() == {f.index for f in m.poset.flats}
        assert m.strata[m.poset.bottom] == ProjProduct(dims * n)


def test_abstract_strata_cover_the_flats():
    flats = [{"key": "A", "codim": 1, "betti": [1, 0, 1]},
             {"key": "B", "codim": 1, "betti": [1, 0, 1]},
             {"key": "AB", "codim": 2, "betti": [1]}]
    m = abstract_model(1, [1, 0, 2, 0, 1], flats, [["A", "AB"], ["B", "AB"]])
    assert m.strata.keys() == {f.index for f in m.poset.flats}
    assert m.strata[m.poset.bottom] == (1, 0, 2, 0, 1)
    by_key = {f.key[1]: m.strata[f.index] for f in m.poset.proper_flats()}
    assert by_key == {"A": (1, 0, 1), "B": (1, 0, 1), "AB": (1,)}


def test_braid_triple_not_ncd():
    m = hyperplane_model(BRAID3, mode="central")
    assert not m.ncd and not m.explicit
    triple = max(m.poset.flats, key=lambda f: f.codim)
    assert triple.codim == 2
    assert bin(m.poset.member_mask(triple.index)).count("1") == 3


def test_single_hyperplane_trivially_ncd():
    m = hyperplane_model([([1, 1, 1], 0)], mode="projective")
    assert m.ncd and m.explicit


def test_configuration_model_shape():
    Y = ProjProduct((1,))
    m2 = configuration_model(Y, 2)
    assert m2.c == 1 and len(m2.poset) == 2
    m3 = configuration_model(Y, 3)
    assert len(m3.poset.members) == 3
    small = max(m3.poset.flats, key=lambda f: f.codim)
    assert small.codim == 2

    mp2 = configuration_model(ProjProduct((2,)), 2)
    assert mp2.c == 2
    diag = max(mp2.poset.flats, key=lambda f: f.codim)
    assert diag.codim == 2


def test_configuration_stratum_dimensions():
    for dims, n in (((1,), 3), ((2,), 2), ((1, 1), 2)):
        m = configuration_model(ProjProduct(dims), n)
        ambient = ProjProduct(dims * n)
        for f in m.poset.flats:
            geom = m.strata[f.index]
            source, target, _ = m.inclusion(f.index, m.poset.bottom)
            assert geom.dim == ambient.dim - f.codim
            assert source == geom
            assert target == ambient


def test_configuration_model_makes_no_inclusion(monkeypatch):
    # a stratum's inclusion is made by inclusion, on demand
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    real = models.ArrangementModel.inclusion
    monkeypatch.setattr(models.ArrangementModel, "inclusion", counting)
    m = configuration_model(ProjProduct((1,)), 5)
    assert len(m.strata) == len(m.poset) == 52
    assert calls == []
    ambient = m.strata[m.poset.bottom]
    assert m.inclusion(m.poset.bottom, m.poset.bottom) == (
        ambient, ambient, (0, 1, 2, 3, 4))
    assert len(calls) == 1


def test_configuration_model_builds_its_poset_once(monkeypatch):
    # the partition lattice carries the diagonal codimension from the
    # start, so no second poset is made to scale it
    calls = []
    real = IntersectionPoset.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(IntersectionPoset, "__init__", counting)
    m = configuration_model(ProjProduct((1,)), 4)
    assert len(calls) == 1
    assert (m.poset.codim_c, m.poset.ambient_dim) == (1, 4)


def test_os_oracle_boolean_central():
    p = IntersectionPoset.from_linear_forms(
        [([1, 0], 0), ([0, 1], 0)], 2, "central")
    assert os_oracle(p) == IntPoly([1, 2, 1])


def test_os_oracle_braid_triple():
    p = IntersectionPoset.from_linear_forms(BRAID3, 3, "central")
    assert os_oracle(p) == IntPoly([1, 3, 2])
    assert os_oracle(p) == IntPoly([1, 1]) * IntPoly([1, 2])


def test_os_oracle_coordinate_projective():
    for n in (1, 2, 3, 4):
        m = hyperplane_model(coordinate_forms(n), mode="projective")
        assert os_oracle(m.poset) == IntPoly([1, 1]) ** n


def test_os_oracle_needs_rank_one():
    p = IntersectionPoset.partition_lattice(3, 2)
    with pytest.raises(NotRankOne):
        os_oracle(p)


def test_deconing_consistency():
    rng = random.Random(47)
    for _ in range(8):
        forms = random_central_forms(rng, rng.randint(2, 6), rng.randint(2, 4))
        ncoords = len(forms[0][0])
        proj = IntersectionPoset.from_linear_forms(forms, ncoords - 1, "projective")
        cone = IntersectionPoset.from_linear_forms(forms, ncoords, "central")
        assert os_oracle(proj) * IntPoly([1, 1]) == os_oracle(cone)


def generic_complement_poly(m, n):
    """m hyperplanes in general position in P^n: sum of C(m-1, k) t^k."""
    from math import comb
    return IntPoly([comb(m - 1, k) for k in range(n + 1)])


def test_projective_oracle_builds_no_poset(monkeypatch):
    from helpers import random_generic_projective_forms
    rng = random.Random(59)
    cases = [(hyperplane_model(coordinate_forms(4)).poset,
              IntPoly([1, 1]) ** 4)]
    for m in (4, 5, 6):
        forms = random_generic_projective_forms(rng, m, 3)
        cases.append((hyperplane_model(forms).poset,
                      generic_complement_poly(m, 3)))
    cases += [(IntersectionPoset.from_dict(p.to_dict()), want)
              for p, want in cases]

    def no_build(*args, **kwargs):
        raise AssertionError("os_oracle built a poset")

    monkeypatch.setattr(IntersectionPoset, "from_linear_systems", no_build)
    for p, want in cases:
        assert p.mode == "projective"
        assert os_oracle(p) == want


def test_projective_oracle_forms_not_spanning():
    # three concurrent lines in P^2: every flat lies on [0:0:1], so the cone
    # has no apex; the complement is C x (C minus two points)
    m = hyperplane_model([([1, 0, 0], 0), ([0, 1, 0], 0), ([1, 1, 0], 0)])
    assert os_oracle(m.poset) == IntPoly([1, 2])


def test_end_to_end_oracle_equality_random_generic():
    from helpers import random_generic_projective_forms
    rng = random.Random(53)
    for _ in range(4):
        forms = random_generic_projective_forms(rng, rng.randint(3, 6), 2)
        m = hyperplane_model(forms, mode="projective")
        assert m.explicit
        _, res = run_explicit(m)
        assert res.betti == os_oracle(m.poset)


@pytest.mark.parametrize("dims, n, chi", [
    ((2,), 3, 6), ((1, 1), 3, 24), ((1, 1), 4, 24), ((2,), 4, 0),
    ((3,), 3, 24), ((1,), 4, 0)])
def test_euler_oracle_values(dims, n, chi):
    # chi(F(X, n)) = prod_{i<n} (chi(X) - i), chi(P^a x P^b) = (a+1)(b+1)
    assert euler_oracle(ProjProduct(dims), n) == chi


def test_euler_oracle_matches_the_page():
    for dims, n in [((1,), 2), ((1,), 3), ((1,), 4), ((1,), 5), ((2,), 3),
                    ((2,), 4), ((1, 1), 3), ((1, 1), 4)]:
        m = configuration_model(ProjProduct(dims), n)
        page = assemble_e2(m, decompose(m, stalk_tables(m)))
        assert page.euler() == euler_oracle(m.factor, n), (dims, n)


def test_check_mon_two_transverse():
    m = hyperplane_model([([1, 0], 0), ([0, 1], 0)], mode="central")
    rep = check_mon(m, [Fraction(1, 2), Fraction(1, 2)])
    assert not rep.ok
    assert [m.poset.flats[i].codim for i in rep.bad_flats] == [2]


def test_check_mon_concurrent_third_roots():
    m = hyperplane_model(
        [([1, 0], 0), ([0, 1], 0), ([1, 1], 0)], mode="central")
    rep = check_mon(m, [Fraction(1, 3)] * 3)
    assert not rep.ok
    assert [m.poset.flats[i].codim for i in rep.bad_flats] == [2]
    # the three lines themselves pass
    assert sorted(m.poset.flats[i].codim for i in rep.ok_flats) == [1, 1, 1]


def test_check_mon_concurrent_fifth_roots():
    m = hyperplane_model(
        [([1, 0], 0), ([0, 1], 0), ([1, 1], 0)], mode="central")
    rep = check_mon(m, [Fraction(1, 5)] * 3)
    assert rep.ok
    assert rep.conclusion
    assert any("j_!" in line for line in rep.conclusion)


def test_check_mon_integer_offsets_do_not_matter():
    rng = random.Random(59)
    m = hyperplane_model(
        [([1, 0], 0), ([0, 1], 0), ([1, 1], 0), ([1, -1], 0)], mode="central")
    base = [Fraction(1, 3), Fraction(1, 4), Fraction(1, 5), Fraction(1, 7)]
    rep0 = check_mon(m, base)
    for _ in range(10):
        shifted = [e + rng.randint(-5, 5) for e in base]
        rep = check_mon(m, shifted)
        assert rep.ok == rep0.ok
        assert rep.bad_flats == rep0.bad_flats


def test_check_mon_relabeling_invariance():
    forms = [([1, 0], 0), ([0, 1], 0), ([1, 1], 0)]
    exps = [Fraction(1, 3), Fraction(1, 4), Fraction(2, 5)]
    m = hyperplane_model(forms, mode="central")
    base = check_mon(m, exps)
    perm = [2, 0, 1]
    m2 = hyperplane_model([forms[i] for i in perm], mode="central")
    rep = check_mon(m2, [exps[i] for i in perm])
    assert rep.ok == base.ok
    a = sorted(m.poset.flats[i].key for i in base.bad_flats)
    b = sorted(m2.poset.flats[i].key for i in rep.bad_flats)
    assert a == b


def test_check_mon_requires_c_one():
    m = configuration_model(ProjProduct((2,)), 2)
    with pytest.raises(NotRankOne):
        check_mon(m, [Fraction(1, 2)])


def test_abstract_tangential_pair_accepted():
    m = abstract_model(
        1, [1, 0, 1, 0, 1, 0, 1],
        [{"key": "Z1", "codim": 1, "betti": [1, 0, 1, 0, 1]},
         {"key": "Z2", "codim": 1, "betti": [1, 0, 1, 0, 1]},
         {"key": "T", "codim": 2, "betti": [1, 0, 1]}],
        [["Z1", "T"], ["Z2", "T"]])
    assert not m.explicit
    dec = decompose(m, stalk_tables(m))
    assert sorted(s.level for s in dec) == [1, 1, 2]


def test_abstract_codim_violation_rejected():
    # the model is built, so its report can show the poset; the stalk
    # layer refuses it and names the flat
    m = abstract_model(
        2, [1],
        [{"key": "A", "codim": 2, "betti": [1]},
         {"key": "B", "codim": 3, "betti": [1]}],
        [["A", "B"]])
    assert m.poset.check_admissible().violations == [2]
    with pytest.raises(NotAdmissible, match=r"B \(codim 3\)"):
        stalk_tables(m)
    with pytest.raises(NotAdmissible):
        decompose(m, stalk_tables(m))


def test_abstract_missing_betti_rejected():
    with pytest.raises(MissingBetti):
        abstract_model(1, [1], [{"key": "A", "codim": 1}], [])


def test_abstract_reentry_matches_geometric_page():
    m = hyperplane_model(BRAID3, mode="projective")
    dec = decompose(m, stalk_tables(m))
    page = assemble_e2(m, dec)

    poset = m.poset
    flats = []
    order = []
    for f in poset.flats:
        if f.index == poset.bottom:
            continue
        flats.append({"key": f"F{f.index}", "codim": f.codim,
                      "betti": list(m.stratum_betti(f.index))})
    for f in poset.flats:
        for g in poset.flats:
            if poset.bottom in (f.index, g.index) or f.index == g.index:
                continue
            if poset.le(f.index, g.index):
                order.append([f"F{f.index}", f"F{g.index}"])
    m2 = abstract_model(1, list(m.stratum_betti(poset.bottom)), flats, order)
    page2 = assemble_e2(m2, decompose(m2, stalk_tables(m2)))
    a = {k: (c.dim, page.weight(*k)) for k, c in page.cells.items()}
    b = {k: (c.dim, page2.weight(*k)) for k, c in page2.cells.items()}
    assert a == b
