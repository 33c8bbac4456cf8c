import itertools
import random
from fractions import Fraction

import pytest

import arrange.linalg as linalg
import arrange.poset as poset
from arrange.errors import ArrangeError
from arrange.poset import (DuplicateMember, EmptyInput, EmptyRestriction,
                           IntersectionPoset, InvalidForm, LastMember)
from helpers import (braid_forms, brute_force_linear_flats, coordinate_forms,
                     flat_subspaces, le, poset_dict, random_central_forms,
                     random_linear_systems, reference_linear_poset,
                     reference_partition_lattice)

GENERIC3 = [([1, 0], 0), ([0, 1], 0), ([1, 1], 1)]
CONCURRENT3 = [([1, 0], 0), ([0, 1], 0), ([1, 1], 0)]


def codim_mu_multiset(poset):
    return sorted((f.codim, poset.mu(f.index)) for f in poset.flats)


def test_generic_three_lines():
    p = IntersectionPoset.from_linear_forms(GENERIC3, 2, "affine")
    assert codim_mu_multiset(p) == [(0, 1), (1, -1), (1, -1), (1, -1),
                                    (2, 1), (2, 1), (2, 1)]


def test_concurrent_three_lines():
    p = IntersectionPoset.from_linear_forms(CONCURRENT3, 2, "central")
    assert codim_mu_multiset(p) == [(0, 1), (1, -1), (1, -1), (1, -1), (2, 2)]


def test_single_hyperplane():
    p = IntersectionPoset.from_linear_forms([([1, 2, 3], 0)], 3, "central")
    assert codim_mu_multiset(p) == [(0, 1), (1, -1)]


def test_duplicate_member_rejected():
    with pytest.raises(DuplicateMember):
        IntersectionPoset.from_linear_forms(
            [([1, 0], 0), ([2, 0], 0)], 2, "central")


def test_empty_input_rejected():
    with pytest.raises(EmptyInput):
        IntersectionPoset.from_linear_forms([], 2, "central")


def test_zero_covector_rejected():
    with pytest.raises(InvalidForm):
        IntersectionPoset.from_linear_forms([([0, 0], 1)], 2, "affine")


def test_mobius_recursion_sums_to_zero():
    for p in (IntersectionPoset.from_linear_forms(GENERIC3, 2, "affine"),
              IntersectionPoset.from_linear_forms(braid_forms(5), 4,
                                                  "projective"),
              IntersectionPoset.from_linear_forms(coordinate_forms(4), 4,
                                                  "projective"),
              IntersectionPoset.partition_lattice(5)):
        for f in p.flats:
            total = sum(p.mu(j) for j in range(len(p))
                        if le(p, j, f.index))
            assert total == (1 if f.index == p.bottom else 0)


def test_brute_force_subset_oracle():
    rng = random.Random(5)
    for _ in range(10):
        ncoords = rng.randint(2, 4)
        m = rng.randint(2, 5)
        forms = random_central_forms(rng, m, ncoords)
        if rng.random() < 0.5:
            forms = [(cov, rng.randint(-2, 2)) for cov, _ in forms]
            mode = "affine"
        else:
            mode = "central"
        try:
            p = IntersectionPoset.from_linear_forms(forms, ncoords, mode)
        except DuplicateMember:
            continue
        oracle = brute_force_linear_flats(forms, ncoords)
        subspaces = flat_subspaces(p, [[form] for form in forms])
        built = {subspaces[f.index]: frozenset(
                     m.label for i, m in enumerate(p.members)
                     if p.member_mask(f.index) >> i & 1)
                 for f in p.flats}
        assert built == oracle


def _build(build, systems, ambient_dim, mode):
    """The poset's stored form, or the class of the exception raised."""
    try:
        return poset_dict(build(systems, ambient_dim, mode))
    except ArrangeError as exc:
        return type(exc)


def test_member_mask_build_matches_reference_closure():
    # flat order, keys, down masks and members, on random inputs of every
    # mode; the subset oracle above is order-free and cannot see an index
    # reshuffle
    rng = random.Random(8)
    built = 0
    seen = set()
    for _ in range(500):
        systems, ambient_dim, mode, kinds = random_linear_systems(rng)
        expected = _build(reference_linear_poset, systems, ambient_dim, mode)
        got = _build(IntersectionPoset.from_linear_systems,
                     systems, ambient_dim, mode)
        assert got == expected, (systems, ambient_dim, mode)
        if isinstance(expected, dict):
            built += 1
            seen |= kinds
    assert built >= 300
    assert seen == {"affine", "central", "projective", "c=1", "c=2",
                    "rational", "parallel"}


@pytest.mark.parametrize("systems, ambient_dim, mode, error", [
    ([], 2, "affine", EmptyInput),
    ([[([0, 0], 1)]], 2, "affine", InvalidForm),
    ([[([1, 0, 0], 0)]], 2, "affine", InvalidForm),
    ([[([1, 0], 0)], [([2, 0], 0)]], 2, "central", DuplicateMember),
    ([[([1, 0], 1)]], 2, "central", InvalidForm),
    ([[([1, 0], 0), ([1, 0], 1)]], 2, "affine", InvalidForm),
    ([[([1, 0], 0), ([0, 1], 0)], [([1, 0], 0)]], 2, "central", InvalidForm),
    ([[([1, 0], 0), ([0, 1], 0)]], 1, "projective", DuplicateMember),
    # one plane of C^3 by two bases, (x, y) and (x + y, 2y)
    ([[([1, 0, 0], 0), ([0, 1, 0], 0)], [([1, 1, 0], 0), ([0, 2, 0], 0)]],
     3, "central", DuplicateMember),
    # a rational form and its cleared integer multiple
    ([[([Fraction(1, 2), Fraction(1, 3)], 0)], [([3, 2], 0)]], 2, "central",
     DuplicateMember),
], ids=["empty", "zero_covector", "wrong_length", "duplicate",
        "central_constant", "inconsistent_member",
        "codim_mismatch", "member_is_cone_apex",
        "duplicate_plane_other_basis", "duplicate_cleared_multiple"])
def test_rejections_match_reference_closure(systems, ambient_dim, mode, error):
    assert _build(reference_linear_poset, systems, ambient_dim, mode) is error
    assert _build(IntersectionPoset.from_linear_systems,
                  systems, ambient_dim, mode) is error


@pytest.mark.parametrize("forms, ambient_dim, mode, flats", [
    (coordinate_forms(6), 6, "projective", 127),
    (braid_forms(5), 5, "central", 52),
], ids=["coordinate_P6", "braid_A4_central"])
def test_build_runs_no_rref(monkeypatch, forms, ambient_dim, mode, flats):
    # members enter as primitive integer rows and are keyed like the
    # closure's meets, and a flat's key is its member mask, with the length
    # of the echelon basis the closure keeps as its codimension: the build
    # runs no fresh elimination, puts no basis into reduced form and makes
    # no matrix
    calls = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(poset, "rref", counting(poset.rref))
    monkeypatch.setattr(linalg.Echelon, "reduced",
                        counting(linalg.Echelon.reduced))
    monkeypatch.setattr(linalg, "primitive_rows",
                        counting(linalg.primitive_rows))
    monkeypatch.setattr(linalg.RationalMatrix, "__init__",
                        counting(linalg.RationalMatrix.__init__))
    p = IntersectionPoset.from_linear_forms(forms, ambient_dim, mode)
    assert len(p) == flats
    assert calls == []
    monkeypatch.undo()
    subspaces = flat_subspaces(p, [[form] for form in forms])
    for f in p.flats:
        assert f.key == ("lin", p.member_mask(f.index))
        assert f.codim == len(subspaces[f.index])


def points_of_p1(m):
    return [([1, -k], 0) for k in range(m)]


@pytest.mark.parametrize("forms, ambient_dim, mode, most", [
    (points_of_p1(100), 1, "projective", 100),
    (points_of_p1(200), 1, "projective", 200),
    (coordinate_forms(6), 6, "projective", 441),
    (braid_forms(5), 5, "central", 370),
], ids=["points_100", "points_200", "coordinate_P6", "braid_A4_central"])
def test_reduce_row_calls_are_bounded(monkeypatch, forms, ambient_dim, mode,
                                      most):
    # each member row is reduced against a flat's basis once per flat it is
    # off, and against the member's quotient only once that holds a row;
    # the flats at the codimension cap reduce none, so m points of P^1
    # cost m calls.  A second call against the empty quotient made 2m,
    # 882 on coordinate P^6 and 740 on braid A4, and a closure that
    # rescans every member's quotient for each child makes 29,900 at
    # m = 100
    calls = []
    real = poset.reduce_row

    def counting(row, basis):
        calls.append(1)
        return real(row, basis)

    monkeypatch.setattr(poset, "reduce_row", counting)
    IntersectionPoset.from_linear_forms(forms, ambient_dim, mode)
    assert len(calls) <= most


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_shorter_quotient_inside_a_longer_one(order):
    # in C^4, x1 = x2 = 0 meets x3 = x4 = 0 in the origin, which also lies
    # on x1 = x3 = 0: from the flat x1 = x2 = 0 that member's quotient is
    # the one row x3, inside the two rows x3, x4 of the other, so it joins
    # the origin's mask from another group
    members = [[([1, 0, 0, 0], 0), ([0, 1, 0, 0], 0)],
               [([0, 0, 1, 0], 0), ([0, 0, 0, 1], 0)],
               [([1, 0, 0, 0], 0), ([0, 0, 1, 0], 0)]]
    systems = [members[i] for i in order]
    p = IntersectionPoset.from_linear_systems(systems, 4, "central")
    origin = next(f.index for f in p.flats if f.codim == 4)
    assert p.member_mask(origin) == 0b111
    assert poset_dict(p) == poset_dict(reference_linear_poset(systems, 4,
                                                              "central"))


def test_projective_drops_cone_apex():
    # 2 coordinate hyperplanes of P^1: central cone in C^2 has the origin,
    # the projective poset must not
    p = IntersectionPoset.from_linear_forms(
        [([1, 0], 0), ([0, 1], 0)], 1, "projective")
    assert codim_mu_multiset(p) == [(0, 1), (1, -1), (1, -1)]
    cone = IntersectionPoset.from_linear_forms(
        [([1, 0], 0), ([0, 1], 0)], 2, "central")
    assert codim_mu_multiset(cone) == [(0, 1), (1, -1), (1, -1), (2, 1)]


def test_partition_lattice_three():
    p = IntersectionPoset.partition_lattice(3)
    assert codim_mu_multiset(p) == [(0, 1), (1, -1), (1, -1), (1, -1), (2, 2)]


def test_partition_lattice_two():
    p = IntersectionPoset.partition_lattice(2)
    assert codim_mu_multiset(p) == [(0, 1), (1, -1)]


def test_partition_lattice_four():
    p = IntersectionPoset.partition_lattice(4)
    assert len(p) == 15
    top = max(p.flats, key=lambda f: f.codim)
    assert p.mu(top.index) == -6


def test_partition_lattice_bell_counts_and_top_mu():
    bell = {2: 2, 3: 5, 4: 15, 5: 52}
    fact = {2: 1, 3: 2, 4: 6, 5: 24}
    for n, b in bell.items():
        p = IntersectionPoset.partition_lattice(n)
        assert len(p) == b
        top = max(p.flats, key=lambda f: f.codim)
        assert abs(p.mu(top.index)) == fact[n]


@pytest.mark.parametrize("codim_c", [1, 2, 3])
def test_partition_lattice_matches_pair_set_reference(codim_c):
    # flats, order, members, member masks and mu of the member-mask build
    # against the pair-set inclusion it replaced
    for n in range(2, 8):
        got = IntersectionPoset.partition_lattice(n, codim_c)
        expected = reference_partition_lattice(n, codim_c)
        assert poset_dict(got) == poset_dict(expected), n
        assert got._member_mask == expected._member_mask, n
        assert got.mobius == expected.mobius, n


@pytest.mark.parametrize("build, flats", [
    (lambda: IntersectionPoset.from_linear_forms(coordinate_forms(10), 10,
                                                 "projective"), 2047),
    (lambda: IntersectionPoset.partition_lattice(6), 203),
], ids=["coordinate_P10", "partitions_of_6"])
def test_builds_stop_past_max_flats(monkeypatch, build, flats):
    # a build at exactly MAX_FLATS flats is kept, one flat more is refused
    monkeypatch.setattr(poset, "MAX_FLATS", flats)
    assert len(build()) == flats
    monkeypatch.setattr(poset, "MAX_FLATS", flats - 1)
    with pytest.raises(poset.TooManyFlats, match=f"more than {flats - 1:,}"):
        build()


def test_partition_mu_product_formula():
    # independent closed form: mu(bottom, pi) = prod (-1)^(|b|-1) (|b|-1)!
    import math
    for n in (3, 4, 5):
        p = IntersectionPoset.partition_lattice(n)
        for f in p.flats:
            blocks = f.key[1]
            expected = 1
            for b in blocks:
                expected *= (-1) ** (len(b) - 1) * math.factorial(len(b) - 1)
            assert p.mu(f.index) == expected


def test_mobius_sign_alternation_on_geometric_lattices():
    rng = random.Random(19)
    for _ in range(8):
        forms = random_central_forms(rng, rng.randint(2, 5), 3)
        p = IntersectionPoset.from_linear_forms(forms, 3, "central")
        for f in p.flats:
            assert p.mu(f.index) != 0
            assert (p.mu(f.index) > 0) == (f.codim % 2 == 0)


def test_deletion_concurrent_line():
    p = IntersectionPoset.from_linear_forms(CONCURRENT3, 2, "central")
    d = p.deletion(0)
    assert codim_mu_multiset(d) == [(0, 1), (1, -1), (1, -1), (2, 1)]


def test_deletion_generic_line():
    p = IntersectionPoset.from_linear_forms(GENERIC3, 2, "affine")
    d = p.deletion(0)
    assert codim_mu_multiset(d) == [(0, 1), (1, -1), (1, -1), (2, 1)]


def test_deletion_to_single_member():
    p = IntersectionPoset.from_linear_forms(
        [([1, 0], 0), ([0, 1], 0)], 2, "central")
    d = p.deletion(1)
    assert codim_mu_multiset(d) == [(0, 1), (1, -1)]
    with pytest.raises(LastMember):
        d.deletion(0)


def test_deletion_matches_rebuild():
    rng = random.Random(29)
    for _ in range(10):
        forms = random_central_forms(rng, rng.randint(3, 6), rng.randint(2, 4))
        p = IntersectionPoset.from_linear_forms(forms, len(forms[0][0]), "central")
        k = rng.randrange(len(forms))
        surgical = p.deletion(k)
        rest = [f for i, f in enumerate(forms) if i != k]
        rebuilt = IntersectionPoset.from_linear_forms(
            rest, len(forms[0][0]), "central")
        # the surgery keeps p's keys, whose masks number the members of p
        old = flat_subspaces(surgical, [[f] for f in forms])
        new = flat_subspaces(rebuilt, [[f] for f in rest])
        assert set(old) == set(new)
        a = {old[f.index]: (f.codim, surgical.mu(f.index))
             for f in surgical.flats}
        b = {new[f.index]: (f.codim, rebuilt.mu(f.index))
             for f in rebuilt.flats}
        assert a == b


def test_restriction_concurrent():
    p = IntersectionPoset.from_linear_forms(CONCURRENT3, 2, "central")
    r = p.restriction(0)
    # both traces coincide: a single point inside the line
    assert len(r.members) == 1
    assert codim_mu_multiset(r) == [(0, 1), (1, -1)]
    assert r.ambient_dim == 1


def test_restriction_generic():
    p = IntersectionPoset.from_linear_forms(GENERIC3, 2, "affine")
    r = p.restriction(0)
    assert len(r.members) == 2
    assert codim_mu_multiset(r) == [(0, 1), (1, -1), (1, -1)]


def test_restriction_two_members():
    p = IntersectionPoset.from_linear_forms(
        [([1, 0], 0), ([0, 1], 0)], 2, "central")
    r = p.restriction(0)
    assert codim_mu_multiset(r) == [(0, 1), (1, -1)]


def test_restriction_empty():
    # parallel lines never meet
    p = IntersectionPoset.from_linear_forms(
        [([1, 0], 0), ([1, 0], 1)], 2, "affine")
    with pytest.raises(EmptyRestriction):
        p.restriction(0)


def test_deletion_restriction_flat_partition():
    # restriction keeps exactly the flats through the member; deletion keeps
    # exactly the flats realizable without it
    rng = random.Random(31)
    for _ in range(8):
        forms = random_central_forms(rng, rng.randint(3, 5), 3)
        p = IntersectionPoset.from_linear_forms(forms, 3, "central")
        through = {f.key for f in p.flats
                   if p.member_mask(f.index) & 1}
        r = p.restriction(0)
        assert {f.key for f in r.flats if f.index != r.bottom} <= through
        assert {f.key for f in r.flats} | {p.flats[p.members[0].atom].key} == \
            through | {p.flats[p.members[0].atom].key}
        d = p.deletion(0)
        realizable = set()
        masks = {f.index: p.member_mask(f.index) for f in p.flats}
        for f in p.flats:
            target = masks[f.index] & ~1
            if not any(j != f.index and masks[j] & target == target
                       for j in range(len(p)) if le(p, j, f.index)):
                realizable.add(f.key)
        assert {f.key for f in d.flats} == realizable


def test_member_permutation_gives_same_keys():
    rng = random.Random(37)
    forms = random_central_forms(rng, 5, 3)
    p = IntersectionPoset.from_linear_forms(forms, 3, "central")
    for _ in range(5):
        perm = list(range(5))
        rng.shuffle(perm)
        permuted = [forms[i] for i in perm]
        q = IntersectionPoset.from_linear_forms(permuted, 3, "central")
        # a key names members by position, so compare the subspaces
        at_p = flat_subspaces(p, [[f] for f in forms])
        at_q = flat_subspaces(q, [[f] for f in permuted])
        a = sorted((f.codim, p.mu(f.index), at_p[f.index]) for f in p.flats)
        b = sorted((f.codim, q.mu(f.index), at_q[f.index]) for f in q.flats)
        assert a == b


def test_localize():
    p = IntersectionPoset.from_linear_forms(GENERIC3, 2, "affine")
    double = next(f for f in p.flats if f.codim == 2)
    flats, atoms = p.local_arrangement(double.index)
    assert bin(flats).count("1") == 4
    assert len(atoms) == 2


def test_admissible_hyperplanes():
    p = IntersectionPoset.from_linear_forms(CONCURRENT3, 2, "central")
    assert p.check_admissible().ok


def test_admissible_partition_scaled():
    p = IntersectionPoset.partition_lattice(3, 2)
    assert p.codim_c == 2
    assert p.check_admissible().ok


def test_inadmissible_codim2_planes():
    # {x1=x2=0} and {x1=x3=0} in C^4 meet in codim 3, not a multiple of 2
    systems = [
        [([1, 0, 0, 0], 0), ([0, 1, 0, 0], 0)],
        [([1, 0, 0, 0], 0), ([0, 0, 1, 0], 0)],
    ]
    p = IntersectionPoset.from_linear_systems(systems, 4, "central")
    assert p.codim_c == 2
    report = p.check_admissible()
    assert not report.ok
    assert [p.flats[i].codim for i in report.violations] == [3]


def test_serialization_round_trip():
    for p in (IntersectionPoset.from_linear_forms(GENERIC3, 2, "affine"),
              IntersectionPoset.partition_lattice(4)):
        q = IntersectionPoset.from_dict(poset_dict(p))
        assert [f.key for f in q.flats] == [f.key for f in p.flats]
        assert q.down == p.down
        assert q.mobius == p.mobius
        assert [m.label for m in q.members] == [m.label for m in p.members]


def test_serialization_ignores_stored_forms():
    p = IntersectionPoset.from_linear_forms(CONCURRENT3, 2, "central")
    data = poset_dict(p)
    # a cache file written before the forms were dropped still loads
    data["forms"] = [[[{"tuple": [{"frac": "1"}, {"frac": "0"}]},
                       {"frac": "0"}]]]
    q = IntersectionPoset.from_dict(data)
    assert q.down == p.down
    assert not hasattr(q, "forms")


@pytest.mark.parametrize("edit", [
    lambda d: d["down"].__setitem__(1, str(int(d["down"][1]) | 1 << 40)),
    lambda d: d["down"].__setitem__(1, "-1"),
    lambda d: d["down"].pop(),
    lambda d: d["members"][0].update(atom=len(d["flats"])),
], ids=["down_bit_past_end", "down_negative", "down_missing", "atom_past_end"])
def test_from_dict_rejects_indices_out_of_range(edit):
    data = poset_dict(IntersectionPoset.partition_lattice(3))
    edit(data)
    with pytest.raises(ArrangeError, match="out of range"):
        IntersectionPoset.from_dict(data)


def test_covers_are_the_cover_relation():
    # lower_covers against the brute-force cover relation: built posets,
    # linear ones with members of codimension 2 among them, and abstract
    # ones whose covers skip codimensions
    rng = random.Random(61)
    posets = [IntersectionPoset.partition_lattice(4),
              IntersectionPoset.partition_lattice(4, codim_c=2),
              IntersectionPoset.from_linear_forms(CONCURRENT3, 2, "central"),
              IntersectionPoset.from_linear_forms(coordinate_forms(3), 3,
                                                  "projective")]
    posets += [IntersectionPoset.from_linear_forms(
        random_central_forms(rng, rng.randint(3, 6), 4), 4, "central")
        for _ in range(3)]
    while len(posets) < 12:
        systems, ambient_dim, mode, _ = random_linear_systems(rng)
        try:
            posets.append(IntersectionPoset.from_linear_systems(
                systems, ambient_dim, mode))
        except ArrangeError:
            pass
    # D covers T two codimensions deeper, and B three deeper
    posets.append(IntersectionPoset.from_abstract(
        [("A", 1), ("B", 1), ("T", 2), ("D", 4)],
        [("A", "T"), ("T", "D"), ("B", "D")], codim_c=1))
    posets.append(IntersectionPoset.from_abstract(
        [("A", 1), ("B", 1), ("C", 1), ("T", 3), ("D", 5)],
        [("A", "T"), ("B", "T"), ("T", "D"), ("C", "D"), ("A", "D")],
        codim_c=1))
    skips = 0
    for p in posets:
        n = len(p)
        below = {(i, j) for i in range(n) for j in range(n)
                 if i != j and le(p, i, j)}
        for j in range(n):
            expected = {i for i in range(n) if (i, j) in below
                        and not any((i, k) in below and (k, j) in below
                                    for k in range(n))}
            assert set(poset._bits(p.lower_covers(j))) == expected
            if p.mode == "abstract":
                skips += sum(p.flats[j].codim - p.flats[i].codim > 1
                             for i in expected)
    assert skips == 6


def test_abstract_build_and_order_closure():
    p = IntersectionPoset.from_abstract(
        [("A", 1), ("B", 1), ("T", 2), ("D", 3)],
        [("A", "T"), ("B", "T"), ("T", "D")], codim_c=1)
    a, b, t, d = (next(f.index for f in p.flats if f.display == nm)
                  for nm in ("A", "B", "T", "D"))
    assert le(p, a, d)  # closure of A <= T <= D
    assert p.mu(t) == 1
    assert sorted(m.label for i, m in enumerate(p.members)
                  if p.member_mask(t) >> i & 1) == ["A", "B"]


def test_validate_accepts_every_built_order():
    # the builds skip _validate, since their orders are graded partial
    # orders by construction; this holds them to it on seeded inputs
    rng = random.Random(11)
    posets = []
    for _ in range(160):
        systems, ambient_dim, mode, _ = random_linear_systems(rng)
        for build in (IntersectionPoset.from_linear_systems,
                      reference_linear_poset):
            try:
                posets.append(build(systems, ambient_dim, mode))
            except ArrangeError:
                pass
    for n in range(2, 7):
        posets += [IntersectionPoset.partition_lattice(n),
                   IntersectionPoset.partition_lattice(n, 2)]
    assert len(posets) >= 200
    assert {p.mode for p in posets} == {"affine", "central", "projective",
                                         "partition"}
    for p in posets:
        p._validate()


def test_only_orders_from_outside_are_validated(monkeypatch):
    data = poset_dict(IntersectionPoset.partition_lattice(3))

    def refuse(self):
        raise ArrangeError("validated")

    monkeypatch.setattr(IntersectionPoset, "_validate", refuse)
    built = [IntersectionPoset.from_linear_forms(GENERIC3, 2, "affine"),
             IntersectionPoset.from_linear_systems(
                 [[([1, 0, 0, 0], 0), ([0, 1, 0, 0], 0)],
                  [([0, 0, 1, 0], 0), ([0, 0, 0, 1], 0)]], 3, "projective"),
             IntersectionPoset.partition_lattice(4, 2)]
    built += [p.deletion(0) for p in built] + [built[0].restriction(0)]
    with pytest.raises(ArrangeError, match="validated"):
        IntersectionPoset.from_abstract([("A", 1)], [], codim_c=1)
    with pytest.raises(ArrangeError, match="validated"):
        IntersectionPoset.from_dict(data)


def test_abstract_grading_violation_names_both_flats():
    with pytest.raises(ArrangeError,
                       match=r"graded by codimension: A \(codim 1\) <= "
                             r"B \(codim 1\)"):
        IntersectionPoset.from_abstract([("A", 1), ("B", 1)], [("A", "B")],
                                        codim_c=1)


def test_from_dict_non_transitive_order_names_the_flats():
    p = IntersectionPoset.from_abstract(
        [("A", 1), ("B", 1), ("T", 2), ("D", 3)],
        [("A", "T"), ("B", "T"), ("T", "D")], codim_c=1)
    a, d = (next(f.index for f in p.flats if f.display == nm)
            for nm in ("A", "D"))
    data = poset_dict(p)
    data["down"][d] = str(int(data["down"][d]) & ~(1 << a))
    with pytest.raises(ArrangeError,
                       match="not transitive: A <= T <= D but not A <= D"):
        IntersectionPoset.from_dict(data)
