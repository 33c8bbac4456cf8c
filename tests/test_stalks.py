import math
import random

import pytest

from arrange.errors import NotAdmissible
from arrange.models import configuration_model, hyperplane_model
from arrange.projective import ProjProduct
from arrange.stalks import (decompose, stalk_dims, stalk_tables,
                            verify_pointwise)
from helpers import (coordinate_forms, random_central_forms,
                     random_generic_projective_forms)


def model_concurrent3(mode="central"):
    return hyperplane_model(
        [([1, 0], 0), ([0, 1], 0), ([1, 1], 0)], mode=mode)


def deepest(model):
    return max(model.poset.flats, key=lambda f: f.codim).index


def test_single_hypersurface_stalk():
    m = hyperplane_model([([1, 0], 0)], mode="central")
    t = stalk_dims(m, deepest(m))
    assert t.dims == {0: 1, 1: 1}
    assert t.weights == {0: 0, 1: 2}


def test_single_member_higher_codim_stalk():
    # c = 2 via the diagonal in P^2 x P^2: one member, degrees 0 and 2c-1 = 3
    m = configuration_model(ProjProduct((2,)), 2)
    t = stalk_dims(m, deepest(m))
    assert t.dims == {0: 1, 3: 1}
    assert t.weights == {0: 0, 3: 4}


def test_two_transverse_stalk():
    m = hyperplane_model([([1, 0], 0), ([0, 1], 0)], mode="central")
    t = stalk_dims(m, deepest(m))
    assert t.dims == {0: 1, 1: 2, 2: 1}


def test_three_concurrent_stalk():
    m = model_concurrent3()
    t = stalk_dims(m, deepest(m))
    assert t.dims == {0: 1, 1: 3, 2: 2}
    top = m.poset.flats[deepest(m)]
    assert abs(m.poset.mu(top.index)) == 2


def test_bottom_stalk():
    m = model_concurrent3()
    t = stalk_dims(m, m.poset.bottom)
    assert t.dims == {0: 1}


def test_decompose_single_hypersurface():
    m = hyperplane_model([([1, 2], 0)], mode="central")
    dec = decompose(m)
    assert len(dec.summands) == 1
    s = dec.summands[0]
    assert (s.level, s.degree, s.multiplicity, s.weight) == (1, 1, 1, 2)


def test_decompose_boolean_p2():
    m = hyperplane_model(
        [([1, 0, 0], 0), ([0, 1, 0], 0), ([0, 0, 1], 0)], mode="projective")
    dec = decompose(m)
    by_degree = {}
    for s in dec.summands:
        by_degree.setdefault(s.degree, []).append(s)
    assert [s.multiplicity for s in by_degree[1]] == [1, 1, 1]
    assert [s.multiplicity for s in by_degree[2]] == [1, 1, 1]
    assert all(m.poset.flats[s.support].codim == 1 for s in by_degree[1])
    assert all(m.poset.flats[s.support].codim == 2 for s in by_degree[2])


def test_decompose_configuration_p1_cubed():
    m = configuration_model(ProjProduct((1,)), 3)
    dec = decompose(m)
    by_degree = {}
    for s in dec.summands:
        by_degree.setdefault(s.degree, []).append(s)
    assert sorted(s.multiplicity for s in by_degree[1]) == [1, 1, 1]
    assert [s.multiplicity for s in by_degree[2]] == [2]


def test_pointwise_examples():
    m = model_concurrent3()
    dec = decompose(m)
    rep = verify_pointwise(m, dec)
    assert rep.ok
    # triple point in degree 2: recursion gives 2, decomposition multiplicity 2
    top = deepest(m)
    assert stalk_dims(m, top).dims[2] == 2
    assert sum(s.multiplicity for s in dec.summands
               if s.degree == 2 and m.poset.le(s.support, top)) == 2


def test_pointwise_generic_double_point():
    m = hyperplane_model(
        [([1, 0], 0), ([0, 1], 0), ([1, 1], 1)], mode="affine")
    dec = decompose(m)
    assert verify_pointwise(m, dec).ok
    double = next(f.index for f in m.poset.flats if f.codim == 2)
    assert stalk_dims(m, double).dims[1] == 2


def test_vanishing_and_purity_pattern():
    models = [
        model_concurrent3(),
        configuration_model(ProjProduct((2,)), 2),
        configuration_model(ProjProduct((1,)), 3),
        hyperplane_model([([1, 0, 0], 0), ([0, 1, 0], 0), ([0, 0, 1], 0)],
                         mode="projective"),
    ]
    for m in models:
        c = m.c
        for table in stalk_tables(m).values():
            for k, d in table.dims.items():
                assert d > 0
                assert k % (2 * c - 1) == 0
                assert table.weights[k] == 2 * c * k // (2 * c - 1)


def test_member_order_invariance():
    rng = random.Random(41)
    forms = random_central_forms(rng, 5, 3)
    base = hyperplane_model(forms, mode="central")
    base_tables = {base.poset.flats[i].key: t.dims
                   for i, t in stalk_tables(base).items()}
    for _ in range(6):
        perm = list(range(len(forms)))
        rng.shuffle(perm)
        m = hyperplane_model([forms[i] for i in perm], mode="central")
        tables = {m.poset.flats[i].key: t.dims
                  for i, t in stalk_tables(m).items()}
        assert tables == base_tables


def test_mobius_oracle_random_hyperplanes():
    # c = 1: stalk dims at x in degree k match the local |mu| count
    rng = random.Random(43)
    for _ in range(12):
        ncoords = rng.randint(2, 4)
        forms = random_central_forms(rng, rng.randint(2, 6), ncoords)
        m = hyperplane_model(forms, mode="central")
        poset = m.poset
        for f in poset.flats:
            dims = stalk_dims(m, f.index).dims
            for k in range(f.codim + 1):
                oracle = sum(abs(poset.mu(j)) for j in range(len(poset))
                             if poset.le(j, f.index)
                             and poset.flats[j].codim == k)
                assert dims.get(k, 0) == oracle


def test_partition_multiplicity_oracle():
    # multiplicity of the flat of a partition is prod (|block|-1)!
    for n in (2, 3, 4, 5):
        m = configuration_model(ProjProduct((1,)), n)
        dec = decompose(m)
        mult = {s.support: s.multiplicity for s in dec.summands}
        for f in m.poset.flats:
            if f.index == m.poset.bottom:
                continue
            blocks = f.key[1]
            expected = 1
            for b in blocks:
                expected *= math.factorial(len(b) - 1)
            assert mult.get(f.index, 0) == expected


def test_not_admissible_raises():
    from arrange.poset import IntersectionPoset
    from arrange.models import ArrangementModel
    systems = [
        [([1, 0, 0, 0], 0), ([0, 1, 0, 0], 0)],
        [([1, 0, 0, 0], 0), ([0, 0, 1, 0], 0)],
    ]
    poset = IntersectionPoset.from_linear_systems(systems, 4, "central")
    model = ArrangementModel(kind="abstract", poset=poset, c=2, ambient=(1,),
                             abstract_betti={f.index: (1,) for f in poset.flats})
    with pytest.raises(NotAdmissible):
        stalk_dims(model, 0)


def test_memoization_shares_work():
    m = hyperplane_model(
        [([1, 0, 0], 0), ([0, 1, 0], 0), ([0, 0, 1], 0), ([1, 1, 1], 0)],
        mode="central")
    stalk_tables(m)
    assert len(m._stalk_memo) > 0


def test_admissibility_checked_once_per_call(monkeypatch):
    import arrange.stalks as stalks_mod
    calls = []
    real = stalks_mod._require_admissible

    def counting(model):
        calls.append(1)
        return real(model)

    monkeypatch.setattr(stalks_mod, "_require_admissible", counting)
    m = configuration_model(ProjProduct((1,)), 5)
    stalk_tables(m)
    assert len(calls) == 1
    decompose(m)
    assert len(calls) == 2


def _normal_crossing_dims(k):
    return {j: math.comb(k, j) for j in range(k + 1)}


def _partition_dims(blocks):
    """prod over blocks b, i = 1..|b|-1 of (1 + i t), as degree -> dim."""
    poly = [1]
    for b in blocks:
        for i in range(1, len(b)):
            poly = [(poly[j] if j < len(poly) else 0)
                    + (i * poly[j - 1] if j else 0)
                    for j in range(len(poly) + 1)]
    return {j: d for j, d in enumerate(poly) if d}


def test_recursion_builds_no_poset(monkeypatch):
    from arrange.cli import _abstract_export
    from arrange.models import abstract_model
    from arrange.poset import IntersectionPoset
    config = configuration_model(ProjProduct((1,)), 4)
    twin_doc = _abstract_export(config)
    twin = abstract_model(twin_doc["c"], twin_doc["ambient"],
                          twin_doc["poset"]["flats"],
                          twin_doc["poset"]["order"])
    crossing = [
        hyperplane_model(coordinate_forms(4), mode="projective"),
        hyperplane_model(random_generic_projective_forms(random.Random(7), 8),
                         mode="projective")]

    def refuse(*args, **kwargs):
        raise AssertionError("stalk recursion built a poset")

    monkeypatch.setattr(IntersectionPoset, "__init__", refuse)
    for m in crossing:
        for i, t in stalk_tables(m).items():
            assert t.dims == _normal_crossing_dims(m.poset.flats[i].codim)
    expected = {f"F{f.index}": _partition_dims(f.key[1])
                for f in config.poset.proper_flats()}
    for i, t in stalk_tables(config).items():
        if i != config.poset.bottom:
            assert t.dims == expected[f"F{i}"]
    for i, t in stalk_tables(twin).items():
        if i != twin.poset.bottom:
            assert t.dims == expected[twin.poset.flats[i].display]


def test_memo_sizes():
    coordinate = hyperplane_model(coordinate_forms(6), mode="projective")
    config = configuration_model(ProjProduct((1,)), 6)
    for m, size in ((coordinate, 442), (config, 1676)):
        stalk_tables(m)
        assert len(m._stalk_memo) == size


def test_incoherent_abstract_poset_fails_pointwise():
    # a codim-3 flat on three members with only one pairwise flat below it:
    # no actual arrangement has this incidence, and the pointwise check
    # catches it (stalk 2 in degree 2 at D, multiplicity sum only 1)
    from arrange.models import abstract_model
    from arrange.stalks import InconsistentDecomposition
    m = abstract_model(
        1, [1],
        [{"key": "Z1", "codim": 1, "betti": [1]},
         {"key": "Z2", "codim": 1, "betti": [1]},
         {"key": "Z3", "codim": 1, "betti": [1]},
         {"key": "T", "codim": 2, "betti": [1]},
         {"key": "D", "codim": 3, "betti": [1]}],
        [["Z1", "T"], ["Z2", "T"], ["T", "D"], ["Z3", "D"]])
    with pytest.raises(InconsistentDecomposition) as err:
        decompose(m)
    assert err.value.report.mismatches
    assert any(mm["degree"] == 2 for mm in err.value.report.mismatches)


def test_recursion_depth_guard(monkeypatch):
    import arrange.stalks as stalks_mod
    from arrange.stalks import RecursionDepthExceeded
    monkeypatch.setattr(stalks_mod, "_DEPTH_LIMIT", 0)
    m = model_concurrent3()
    with pytest.raises(RecursionDepthExceeded):
        stalk_dims(m, deepest(m))
