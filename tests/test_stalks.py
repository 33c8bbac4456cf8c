import math
import random

import pytest

import arrange.stalks as stalks_mod
from arrange.errors import NotAdmissible
from arrange.models import configuration_model, hyperplane_model
from arrange.projective import ProjProduct
from arrange.errors import ArrangeError
from arrange.models import ArrangementModel, abstract_model
from arrange.poset import IntersectionPoset
from arrange.stalks import (RecursionDepthExceeded, decompose, level_degree,
                            level_weight, stalk_tables, verify_pointwise)
from helpers import (braid_forms, coordinate_forms, degree_table,
                     flat_subspaces, random_central_forms,
                     random_generic_projective_forms, random_linear_systems,
                     reference_delete_member, reference_pointwise,
                     reference_stalk_dims)


def model_concurrent3(mode="central"):
    return hyperplane_model(
        [([1, 0], 0), ([0, 1], 0), ([1, 1], 0)], mode=mode)


def deepest(model):
    return max(model.poset.flats, key=lambda f: f.codim).index


def test_single_hypersurface_stalk():
    m = hyperplane_model([([1, 0], 0)], mode="central")
    t = stalk_tables(m)[deepest(m)]
    assert t == {0: 1, 1: 1}
    assert {level_degree(1, l): level_weight(1, l) for l in t} == {0: 0, 1: 2}


def test_single_member_higher_codim_stalk():
    # c = 2 via the diagonal in P^2 x P^2: one member, levels 0 and 1, in
    # degrees 0 and 2c-1 = 3
    m = configuration_model(ProjProduct((2,)), 2)
    t = stalk_tables(m)[deepest(m)]
    assert t == {0: 1, 1: 1}
    assert {level_degree(2, l): level_weight(2, l) for l in t} == {0: 0, 3: 4}


def test_two_transverse_stalk():
    m = hyperplane_model([([1, 0], 0), ([0, 1], 0)], mode="central")
    t = stalk_tables(m)[deepest(m)]
    assert t == {0: 1, 1: 2, 2: 1}


def test_three_concurrent_stalk():
    m = model_concurrent3()
    t = stalk_tables(m)[deepest(m)]
    assert t == {0: 1, 1: 3, 2: 2}
    top = m.poset.flats[deepest(m)]
    assert abs(m.poset.mu(top.index)) == 2


def test_bottom_stalk():
    m = model_concurrent3()
    t = stalk_tables(m)[m.poset.bottom]
    assert t == {0: 1}


def test_decompose_single_hypersurface():
    m = hyperplane_model([([1, 2], 0)], mode="central")
    dec = decompose(m, stalk_tables(m))
    assert len(dec) == 1
    s = dec[0]
    assert (s.support, s.level, s.multiplicity) == (1, 1, 1)
    assert level_degree(m.c, s.level) == 1
    assert level_weight(m.c, s.level) == 2


def test_decompose_boolean_p2():
    m = hyperplane_model(
        [([1, 0, 0], 0), ([0, 1, 0], 0), ([0, 0, 1], 0)], mode="projective")
    dec = decompose(m, stalk_tables(m))
    by_level = {}
    for s in dec:
        by_level.setdefault(s.level, []).append(s)
    assert [s.multiplicity for s in by_level[1]] == [1, 1, 1]
    assert [s.multiplicity for s in by_level[2]] == [1, 1, 1]
    assert all(m.poset.flats[s.support].codim == 1 for s in by_level[1])
    assert all(m.poset.flats[s.support].codim == 2 for s in by_level[2])


def test_decompose_configuration_p1_cubed():
    m = configuration_model(ProjProduct((1,)), 3)
    dec = decompose(m, stalk_tables(m))
    by_level = {}
    for s in dec:
        by_level.setdefault(s.level, []).append(s)
    assert sorted(s.multiplicity for s in by_level[1]) == [1, 1, 1]
    assert [s.multiplicity for s in by_level[2]] == [2]


def test_pointwise_examples():
    m = model_concurrent3()
    tables = stalk_tables(m)
    dec = decompose(m, tables)
    assert verify_pointwise(m, dec, tables).ok
    # triple point at level 2: recursion gives 2, decomposition multiplicity 2
    top = deepest(m)
    assert tables[top][2] == 2
    assert sum(s.multiplicity for s in dec
               if s.level == 2 and m.poset.le(s.support, top)) == 2


def test_pointwise_generic_double_point():
    m = hyperplane_model(
        [([1, 0], 0), ([0, 1], 0), ([1, 1], 1)], mode="affine")
    tables = stalk_tables(m)
    dec = decompose(m, tables)
    assert verify_pointwise(m, dec, tables).ok
    double = next(f.index for f in m.poset.flats if f.codim == 2)
    assert tables[double][1] == 2


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
            # nonzero dims at levels 0, 1, ..., the top level
            assert sorted(table) == list(range(len(table)))
            assert all(d > 0 for d in table.values())
            for level in table:
                # level l sits in degree (2c-1)*l with weight 2c*l
                assert level_degree(c, level) % (2 * c - 1) == 0
                assert level_weight(c, level) == 2 * c * level


def test_member_order_invariance():
    rng = random.Random(41)
    forms = random_central_forms(rng, 5, 3)
    base = hyperplane_model(forms, mode="central")
    subspaces = flat_subspaces(base.poset, [[f] for f in forms])
    base_tables = {subspaces[i]: t for i, t in stalk_tables(base).items()}
    for _ in range(6):
        perm = list(range(len(forms)))
        rng.shuffle(perm)
        permuted = [forms[i] for i in perm]
        m = hyperplane_model(permuted, mode="central")
        subspaces = flat_subspaces(m.poset, [[f] for f in permuted])
        tables = {subspaces[i]: t for i, t in stalk_tables(m).items()}
        assert tables == base_tables


def test_mobius_oracle_random_hyperplanes():
    # c = 1: stalk dims at x in degree k match the local |mu| count
    rng = random.Random(43)
    for _ in range(12):
        ncoords = rng.randint(2, 4)
        forms = random_central_forms(rng, rng.randint(2, 6), ncoords)
        m = hyperplane_model(forms, mode="central")
        poset = m.poset
        tables = stalk_tables(m)
        for f in poset.flats:
            dims = tables[f.index]
            for k in range(f.codim + 1):
                oracle = sum(abs(poset.mu(j)) for j in range(len(poset))
                             if poset.le(j, f.index)
                             and poset.flats[j].codim == k)
                assert dims.get(k, 0) == oracle


def test_partition_multiplicity_oracle():
    # multiplicity of the flat of a partition is prod (|block|-1)!
    for n in (2, 3, 4, 5):
        m = configuration_model(ProjProduct((1,)), n)
        dec = decompose(m, stalk_tables(m))
        mult = {s.support: s.multiplicity for s in dec}
        for f in m.poset.flats:
            if f.index == m.poset.bottom:
                continue
            blocks = f.key[1]
            expected = 1
            for b in blocks:
                expected *= math.factorial(len(b) - 1)
            assert mult.get(f.index, 0) == expected


@pytest.mark.parametrize("n", [3, 4, 5])
def test_stalks_are_independent_of_c(n):
    # F(X, n) has the partition lattice of n points for every factor X, with
    # c = dim X; the stalk dimensions depend only on the local poset, so
    # the level tables and the summands agree flat for flat
    models = [configuration_model(ProjProduct(factor), n)
              for factor in ((1,), (2,), (1, 1), (3,))]
    assert sorted({m.c for m in models}) == [1, 2, 3]
    tables, summands = [], []
    for m in models:
        keys = [f.key for f in m.poset.flats]
        tables.append({keys[i]: t for i, t in stalk_tables(m).items()})
        summands.append({(keys[s.support], s.level, s.multiplicity)
                         for s in decompose(m, stalk_tables(m))})
    assert all(t == tables[0] for t in tables)
    assert all(s == summands[0] for s in summands)


def test_not_admissible_raises(monkeypatch):
    # two coordinate planes of C^4 meeting in a line: codimension 3 is not
    # a multiple of c = 2, and the refusal names that flat
    systems = [
        [([1, 0, 0, 0], 0), ([0, 1, 0, 0], 0)],
        [([1, 0, 0, 0], 0), ([0, 0, 1, 0], 0)],
    ]
    poset = IntersectionPoset.from_linear_systems(systems, 4, "central")
    model = ArrangementModel(kind="abstract", poset=poset, c=2,
                             strata={f.index: (1,) for f in poset.flats})
    line = next(f for f in poset.flats if f.codim == 3)

    def refuse(*args):
        raise AssertionError("the stalk recursion ran before the refusal")

    monkeypatch.setattr(stalks_mod, "_stalk_table", refuse)
    with pytest.raises(NotAdmissible,
                       match=rf"{line.display} \(codim 3\) is not a "
                             rf"multiple of c = 2"):
        stalk_tables(model)


def memo_of(model):
    """The memo of one ``stalk_tables`` call on ``model``, read back from
    the dict that ``_stalk_table`` fills, and the tables it gives."""
    memo = {}
    tables = {f.index: stalks_mod._stalk_table(model.poset, f.index, memo)
              for f in model.poset.flats}
    return memo, tables


def test_memoization_shares_work():
    m = hyperplane_model(
        [([1, 0, 0], 0), ([0, 1, 0], 0), ([0, 0, 1], 0), ([1, 1, 1], 0)],
        mode="central")
    memo, tables = memo_of(m)
    assert 0 < len(memo)
    assert tables == stalk_tables(m)


def test_admissibility_checked_once_per_call(monkeypatch):
    # stalk_tables checks once; decompose reads the tables it is given as
    # they are and checks nothing
    calls = []
    real = IntersectionPoset.check_admissible

    def counting(self):
        calls.append(1)
        return real(self)

    monkeypatch.setattr(IntersectionPoset, "check_admissible", counting)
    m = configuration_model(ProjProduct((1,)), 5)
    tables = stalk_tables(m)
    assert len(calls) == 1
    decompose(m, tables)
    assert len(calls) == 1


def _normal_crossing_dims(k):
    return {j: math.comb(k, j) for j in range(k + 1)}


def _partition_dims(blocks):
    """prod over blocks b, i = 1..|b|-1 of (1 + i t), as level -> dim."""
    poly = [1]
    for b in blocks:
        for i in range(1, len(b)):
            poly = [(poly[j] if j < len(poly) else 0)
                    + (i * poly[j - 1] if j else 0)
                    for j in range(len(poly) + 1)]
    return {j: d for j, d in enumerate(poly) if d}


def _partition_twin(config):
    """``config`` declared as an abstract model: its partition lattice read
    back from the abstract block of its report."""
    from arrange.cli import _abstract_export
    doc = _abstract_export(config)
    return abstract_model(doc["c"], doc["ambient"], doc["poset"]["flats"],
                          doc["poset"]["order"])


def test_recursion_builds_no_poset(monkeypatch):
    config = configuration_model(ProjProduct((1,)), 4)
    twin = _partition_twin(config)
    crossing = [
        hyperplane_model(coordinate_forms(4), mode="projective"),
        hyperplane_model(random_generic_projective_forms(random.Random(7), 8),
                         mode="projective")]

    def refuse(*args, **kwargs):
        raise AssertionError("stalk recursion built a poset")

    monkeypatch.setattr(IntersectionPoset, "__init__", refuse)
    for m in crossing:
        for i, t in stalk_tables(m).items():
            assert t == _normal_crossing_dims(m.poset.flats[i].codim)
    expected = {str(f.index): _partition_dims(f.key[1])
                for f in config.poset.proper_flats()}
    for i, t in stalk_tables(config).items():
        if i != config.poset.bottom:
            assert t == expected[str(i)]
    for i, t in stalk_tables(twin).items():
        if i != twin.poset.bottom:
            assert t == expected[twin.poset.flats[i].display]


def test_memo_sizes():
    # one memo entry per local shape: in the coordinate arrangement of P^6
    # that is one per number of members, 0 to 6; keyed by flat and atom
    # masks, the same recursions keep 442 and 1,676 entries
    coordinate = hyperplane_model(coordinate_forms(6), mode="projective")
    config = configuration_model(ProjProduct((1,)), 6)
    for m, size, by_masks in ((coordinate, 7, 442), (config, 71, 1676)):
        assert len(memo_of(m)[0]) == size
        assert len(reference_stalk_dims(m)[1]) == by_masks


SHAPE_MODELS = {
    "coordinate_P6": lambda: hyperplane_model(coordinate_forms(6),
                                              mode="projective"),
    "braid_A4_projective": lambda: hyperplane_model(braid_forms(5),
                                                    mode="projective"),
    "generic_8_planes_P3": lambda: hyperplane_model(
        random_generic_projective_forms(random.Random(5), 8),
        mode="projective"),
    "F(P1,6)": lambda: configuration_model(ProjProduct((1,)), 6),
    "F(P2,4)": lambda: configuration_model(ProjProduct((2,)), 4),
    "F(P1xP1,3)": lambda: configuration_model(ProjProduct((1, 1)), 3),
}


@pytest.mark.parametrize("name", list(SHAPE_MODELS))
def test_shape_key_matches_flat_and_atom_key(name):
    m = SHAPE_MODELS[name]()
    expected, memo = reference_stalk_dims(m)
    assert {i: degree_table(m.c, t)
            for i, t in stalk_tables(m).items()} == expected
    assert len(memo_of(m)[0]) < len(memo)


def test_shape_key_matches_on_random_linear_systems():
    # every mode, hyperplanes and codimension-2 systems, admissible or not
    for m in _oracle_models():
        if m.poset.mode == "abstract":
            continue
        expected, _ = reference_stalk_dims(m)
        got = {i: degree_table(m.c, t) for i, t in memo_of(m)[1].items()}
        assert got == expected


def test_shared_position_masks_fall_back_to_flat_and_atom_key():
    # codimension-2 members a, b, c of R^4 with c through a & b: traced on
    # a, the new atom a & c is the only one below a & b as well, so those
    # two flats share a position mask and that state keeps the flat-mask
    # and atom-mask key
    a = [([1, 0, 0, 0], 0), ([0, 1, 0, 0], 0)]
    b = [([0, 0, 1, 0], 0), ([0, 0, 0, 1], 0)]
    c = [([1, 0, 0, 0], 0), ([0, 0, 1, 0], 0)]
    poset = IntersectionPoset.from_linear_systems([a, b, c], 4, "central")
    m = ArrangementModel(kind="abstract", poset=poset, c=2, strata={})
    expected, memo = reference_stalk_dims(m)
    ours, tables = memo_of(m)
    assert {i: degree_table(m.c, t) for i, t in tables.items()} == expected
    fallback = [key for key in ours if isinstance(key[1], int)]
    assert fallback and set(fallback) <= set(memo)


def test_abstract_models_keep_flat_and_atom_key():
    # a declared order need not be the containment of position masks, so
    # an abstract model is never keyed by its shape
    for m in (abstract_model(1, [1], *INCOHERENT),
              abstract_model(1, [1], *NON_LATTICE),
              _partition_twin(configuration_model(ProjProduct((1,)), 5))):
        assert m.poset.local_position_masks(m.poset.bottom) is None
        ours, tables = memo_of(m)
        expected, memo = reference_stalk_dims(m)
        assert {i: degree_table(m.c, t) for i, t in tables.items()} == expected
        assert {key: degree_table(m.c, t) for key, t in ours.items()} == memo


def test_local_position_masks_match_walk():
    for build in SHAPE_MODELS.values():
        poset = build().poset
        for f in poset.flats:
            assert poset.local_position_masks(f.index) == \
                poset.position_masks(*poset.local_arrangement(f.index))


INCOHERENT = (
    [{"key": "Z1", "codim": 1, "betti": [1]},
     {"key": "Z2", "codim": 1, "betti": [1]},
     {"key": "Z3", "codim": 1, "betti": [1]},
     {"key": "T", "codim": 2, "betti": [1]},
     {"key": "D", "codim": 3, "betti": [1]}],
    [["Z1", "T"], ["Z2", "T"], ["T", "D"], ["Z3", "D"]])

# T lies on Z2 alone, so it is not the join of its members; deleting Z1 at
# D drops T, which a scan of only the flats above Z1 would miss
NON_LATTICE = (
    [{"key": "Z1", "codim": 1, "betti": [1]},
     {"key": "Z2", "codim": 1, "betti": [1]},
     {"key": "T", "codim": 2, "betti": [1]},
     {"key": "D", "codim": 3, "betti": [1]}],
    [["Z2", "T"], ["T", "D"], ["Z1", "D"]])


def test_incoherent_abstract_poset_fails_pointwise():
    # a codim-3 flat on three members with only one pairwise flat below it:
    # no actual arrangement has this incidence, and the pointwise check
    # catches it (stalk 2 at level 2, degree 2, at D; multiplicity sum 1)
    m = abstract_model(1, [1], *INCOHERENT)
    tables = stalk_tables(m)
    report = verify_pointwise(m, decompose(m, tables), tables)
    assert report.ok is False
    assert any(mm["degree"] == 2 for mm in report.mismatches)


def test_recursion_depth_guard(monkeypatch):
    # the guard bounds nested restrictions: at the triple point each
    # deletion state restricts to a one-member arrangement, one level down
    monkeypatch.setattr(stalks_mod, "_DEPTH_LIMIT", 0)
    m = model_concurrent3()
    with pytest.raises(RecursionDepthExceeded, match="abstract"):
        stalk_tables(m)


def test_long_deletion_chain_stays_under_the_depth_guard(monkeypatch):
    # 300 lines through the origin of C^2: the deletions at the origin make
    # a chain of 300 states, walked in a loop, while restrictions nest one
    # level deep; a guard of 1 still passes
    monkeypatch.setattr(stalks_mod, "_DEPTH_LIMIT", 1)
    m = hyperplane_model([([1, k], 0) for k in range(300)], mode="central")
    tables = stalk_tables(m)
    assert tables[deepest(m)] == {0: 1, 1: 300, 2: 299}
    expected, _ = reference_stalk_dims(m)
    assert {i: degree_table(m.c, t) for i, t in tables.items()} == expected


def _oracle_models():
    """Models whose recursion states and pointwise checks are compared with
    the reference formulas: seeded linear systems of every mode (admissible
    or not), partition lattices up to 5 points, the shape models above, the
    two abstract orders above and the 6-point partition lattice declared as
    an abstract model, whose states are not merged by shape."""
    rng = random.Random(53)
    models = []
    while len(models) < 120:
        systems, ambient_dim, mode, _ = random_linear_systems(rng)
        try:
            poset = IntersectionPoset.from_linear_systems(
                systems, ambient_dim, mode)
        except ArrangeError:
            continue
        models.append(ArrangementModel(kind="abstract", poset=poset,
                                       c=poset.codim_c, strata={}))
    for n in range(2, 6):
        models.append(configuration_model(ProjProduct((1,)), n))
    models += [build() for build in SHAPE_MODELS.values()]
    models += [abstract_model(1, [1], *INCOHERENT),
               abstract_model(1, [1], *NON_LATTICE),
               _partition_twin(configuration_model(ProjProduct((1,)), 6))]
    return models


def test_delete_member_matches_reference_on_every_visited_state(monkeypatch):
    states = []
    real = IntersectionPoset.delete_member

    def record(self, flats, atoms, pos):
        states.append((self, flats, atoms))
        return real(self, flats, atoms, pos)

    monkeypatch.setattr(IntersectionPoset, "delete_member", record)
    for m in _oracle_models():
        memo_of(m)
    monkeypatch.undo()
    assert len(states) > 1000
    for poset, flats, atoms in states:
        for pos in range(len(atoms)):
            assert poset.delete_member(flats, atoms, pos) == \
                reference_delete_member(poset, flats, atoms, pos)
    trap = abstract_model(1, [1], *NON_LATTICE).poset
    z1, t, d = (next(f.index for f in trap.flats if f.display == name)
                for name in ("Z1", "T", "D"))
    flats, atoms = trap.local_arrangement(d)
    kept, _ = trap.delete_member(flats, atoms, atoms.index(z1))
    assert not kept >> t & 1


def _tampered(model, tables, level):
    """``tables`` with 1 added at ``level`` of the deepest flat."""
    deep = max(model.poset.flats, key=lambda f: f.codim).index
    dims = dict(tables[deep])
    dims[level] = dims.get(level, 0) + 1
    return {**tables, deep: dims}


def test_pointwise_matches_reference_sum():
    checked = 0
    for m in _oracle_models():
        if not m.poset.check_admissible().ok:
            continue
        tables = stalk_tables(m)
        dec = decompose(m, tables)
        assert verify_pointwise(m, dec, tables=tables) == \
            reference_pointwise(m, dec, tables)
        checked += 1
        top = max(max(t) for t in tables.values())
        for level in (top, top + 1):
            bad = _tampered(m, tables, level)
            report = verify_pointwise(m, dec, tables=bad)
            assert not report.ok
            assert report == reference_pointwise(m, dec, bad)
    assert checked > 40


def test_decompose_makes_no_order_queries(monkeypatch):
    # the pointwise sums walk up-sets; a per-summand order query would
    # bring back the (flats x summands) loop
    m = hyperplane_model(coordinate_forms(6), mode="projective")
    calls = []
    real = IntersectionPoset.le

    def counting(self, i, j):
        calls.append((i, j))
        return real(self, i, j)

    monkeypatch.setattr(IntersectionPoset, "le", counting)
    tables = stalk_tables(m)
    assert verify_pointwise(m, decompose(m, tables), tables).ok
    assert calls == []
