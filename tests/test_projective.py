import random
from fractions import Fraction

import pytest

from arrange.errors import ArrangeError
from arrange.models import configuration_model, hyperplane_model
from arrange.projective import (CohClass, DegreeMismatch, NegativeCodim,
                                ProjProduct, SpaceMap, SpaceMismatch,
                                power_inclusion, pushforward)
from helpers import (braid_forms, coordinate_forms, reference_add,
                     reference_compose, reference_cup, reference_identity,
                     reference_pair, reference_pullback, reference_pushforward,
                     space_map)

P1 = ProjProduct((1,))
P2 = ProjProduct((2,))
P3 = ProjProduct((3,))
P1xP1 = ProjProduct((1, 1))


# the reference algebra that the pushforward tests below lean on

def test_cup_on_p1xp1():
    h1, h2 = P1xP1.generators()
    assert reference_cup(h1, h2) == P1xP1.monomial_class((1, 1))


def test_cup_truncation_on_p2():
    h = P2.generator(0)
    assert reference_cup(h, h) == P2.monomial_class((2,))
    assert reference_cup(h, P2.monomial_class((2,))).is_zero()


def test_cup_square_of_sum():
    h1, h2 = P1xP1.generators()
    s = reference_add(h1, h2)
    sq = reference_cup(s, s)
    assert sq == CohClass(P1xP1, 4, {(1, 1): 2})


def test_cup_space_mismatch():
    with pytest.raises(SpaceMismatch):
        reference_cup(P1.generator(0), P2.generator(0))


def test_pullback_diagonal_truncates():
    delta = power_inclusion(P1, [0, 0])
    h1h2 = P1xP1.monomial_class((1, 1))
    assert reference_pullback(delta, h1h2).is_zero()  # h^2 = 0 on P^1


def test_pullback_coordinate_inclusion():
    inc = SpaceMap(P1, P2, (P1.generator(0),))
    assert reference_pullback(inc, P2.generator(0)) == P1.generator(0)


def test_pullback_projection():
    # projection P1xP1 -> P1 recorded on generators: h pulls to h1
    proj = SpaceMap(P1xP1, P1, (P1xP1.generator(0),))
    assert reference_pullback(proj, P1.generator(0)) == P1xP1.generator(0)


def test_poincare_pair_p2():
    h = P2.generator(0)
    assert reference_pair(h, h) == 1


def test_poincare_pair_p1xp1():
    h1, h2 = P1xP1.generators()
    assert reference_pair(h1, h2) == 1
    assert reference_pair(h1, h1) == 0
    assert reference_pair(reference_add(h1, h2), h1) == 1


def test_poincare_pair_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        reference_pair(P2.generator(0), P2.one())


def test_pairing_matrix_is_antidiagonal_permutation():
    for space in (P2, P1xP1, ProjProduct((1, 2))):
        for k in range(space.dim + 1):
            monos = space.monomials(k)
            duals = space.monomials(space.dim - k)
            top = space.top()
            for e in monos:
                hits = [f for f in duals
                        if reference_pair(space.monomial_class(e),
                                          space.monomial_class(f)) != 0]
                assert hits == [tuple(t - x for t, x in zip(top, e))]


def test_identity_map_roundtrip():
    ident = reference_identity(P1xP1)
    a = _random_class(random.Random(9), P1xP1, 2)
    assert reference_pullback(ident, a) == a
    assert pushforward(ident, a) == a


# the Gysin map by exponent arithmetic

def test_pushforward_subspace_inclusion():
    for m in (1, 2):
        src = ProjProduct((m,))
        dst = ProjProduct((m + 1,))
        inc = SpaceMap(src, dst, (src.generator(0),))
        for j in range(m + 1):
            assert pushforward(inc, src.monomial_class((j,))) == \
                dst.monomial_class((j + 1,))


def test_pushforward_diagonal():
    delta = power_inclusion(P1, [0, 0])
    assert pushforward(delta, P1.one()) == CohClass(
        P1xP1, 2, {(1, 0): 1, (0, 1): 1})
    assert pushforward(delta, P1.generator(0)) == P1xP1.monomial_class((1, 1))


def test_pushforward_diagonal_p2():
    # class of the diagonal in P^2 x P^2: full middle row of the pairing
    delta = power_inclusion(P2, [0, 0])
    got = pushforward(delta, P2.one())
    expect = CohClass(ProjProduct((2, 2)), 4,
                      {(2, 0): 1, (1, 1): 1, (0, 2): 1})
    assert got == expect


def test_pushforward_negative_codim_rejected():
    proj = SpaceMap(P1xP1, P1, (P1xP1.generator(0),))
    with pytest.raises(NegativeCodim):
        pushforward(proj, P1xP1.one())


def test_pushforward_refuses_a_map_outside_the_rule():
    # the hyperplane class pulls back to twice a generator: a degree-2
    # map, which the exponent rule does not cover
    inc = space_map(1, 2, scale=2)
    with pytest.raises(ArrangeError, match="h1 pulls back to 2\\*h1"):
        pushforward(inc, inc.source.one())
    # a generator that pulls back to a sum of two generators
    h1, h2 = P1xP1.generators()
    mixed = SpaceMap(P1xP1, P3, (reference_add(h1, h2),))
    with pytest.raises(ArrangeError):
        pushforward(mixed, P1xP1.one())


def _inclusion_keys(model):
    """One (inclusion key, source flat, target flat) per distinct key, for
    every pair of comparable flats of ``model``."""
    poset, seen = model.poset, {}
    for src in range(len(poset)):
        for dst in range(len(poset)):
            if dst != src and poset.le(dst, src):
                seen.setdefault(model.inclusion_key(src, dst), (src, dst))
    return seen


@pytest.mark.parametrize("build", [
    lambda: configuration_model(P1, 5),
    lambda: configuration_model(P2, 4),
    lambda: configuration_model(P1xP1, 3),
    lambda: hyperplane_model(braid_forms(6)),
    lambda: hyperplane_model(coordinate_forms(8)),
], ids=["F_P1_5", "F_P2_4", "F_P1xP1_3", "braid_P5", "coordinate_P8"])
def test_pushforward_equals_duality_on_every_inclusion(build):
    model, pairs = build(), 0
    for key, (src, dst) in _inclusion_keys(model).items():
        f = model.inclusion(src, dst)
        for k in range(f.source.dim + 1):
            for mono in f.source.monomials(k):
                a = f.source.monomial_class(mono)
                assert pushforward(f, a) == reference_pushforward(f, a), \
                    (key, mono)
                pairs += 1
    assert pairs > 0


def test_betti_poly_examples():
    assert P2.betti_list() == (1, 0, 1, 0, 1)
    assert P1xP1.betti_list() == (1, 0, 2, 0, 1)
    assert ProjProduct((1, 1, 1)).betti_list() == (1, 0, 3, 0, 3, 0, 1)


def _random_class(rng, space, degree):
    coeffs = {}
    for mono in space.monomials(degree // 2):
        if rng.random() < 0.6:
            coeffs[mono] = Fraction(rng.randint(-3, 3))
    return CohClass(space, degree, coeffs)


def test_projection_formula():
    # f_*(f^* b . a) = b . f_* a
    rng = random.Random(3)
    maps = [
        SpaceMap(P1, P2, (P1.generator(0),)),
        power_inclusion(P1, [0, 0]),
        power_inclusion(P2, [0, 0]),
    ]
    for f in maps:
        for _ in range(10):
            da = 2 * rng.randint(0, f.source.dim)
            db = 2 * rng.randint(0, (2 * f.target.dim - da - 2 * f.codim) // 2
                                 if 2 * f.target.dim >= da + 2 * f.codim else 0)
            a = _random_class(rng, f.source, da)
            b = _random_class(rng, f.target, db)
            lhs = pushforward(f, reference_cup(reference_pullback(f, b), a))
            rhs = reference_cup(b, pushforward(f, a))
            assert lhs == rhs


def test_pushforward_functoriality():
    # coordinate chain P1 -> P2 -> P3
    f = SpaceMap(P1, P2, (P1.generator(0),))
    g = SpaceMap(P2, P3, (P2.generator(0),))
    gf = reference_compose(g, f)
    for j in (0, 1):
        a = P1.monomial_class((j,))
        assert pushforward(gf, a) == pushforward(g, pushforward(f, a))


def test_self_intersection_is_euler_class():
    # hypersurface-type inclusion: pulling back its own pushforward of 1
    # gives the hyperplane class
    inc = SpaceMap(P2, P3, (P2.generator(0),))
    cls = reference_pullback(inc, pushforward(inc, P2.one()))
    assert cls == P2.generator(0)


def test_point_factor():
    # a zero-dimensional factor contributes nothing but a unit
    pt = ProjProduct((0,))
    assert pt.betti_list() == (1,)
    inc = SpaceMap(pt, P3, (pt.generator(0),))
    assert pushforward(inc, pt.one()) == P3.monomial_class((3,))
    assert reference_pullback(inc, P3.generator(0)).is_zero()


def test_mixed_degree_rejected():
    with pytest.raises(DegreeMismatch):
        CohClass(P2, 2, {(0,): Fraction(1), (1,): Fraction(1)})
