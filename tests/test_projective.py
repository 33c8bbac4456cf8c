import random
from fractions import Fraction

import pytest

from arrange.models import configuration_model, hyperplane_model
from arrange.projective import ProjProduct, pushforward
from helpers import (CohClass, DegreeMismatch, SpaceMap, SpaceMismatch,
                     braid_forms, coordinate_forms, generator_class, le,
                     generator_classes, generator_map, monomial_class,
                     one_class, power_map, reference_add, reference_compose,
                     reference_cup, reference_identity, reference_pair,
                     reference_pullback, reference_pushforward)

P1 = ProjProduct((1,))
P2 = ProjProduct((2,))
P3 = ProjProduct((3,))
P1xP1 = ProjProduct((1, 1))


# the reference algebra that the pushforward tests below lean on

def test_cup_on_p1xp1():
    h1, h2 = generator_classes(P1xP1)
    assert reference_cup(h1, h2) == monomial_class(P1xP1, (1, 1))


def test_cup_truncation_on_p2():
    h = generator_class(P2, 0)
    assert reference_cup(h, h) == monomial_class(P2, (2,))
    assert reference_cup(h, monomial_class(P2, (2,))).is_zero()


def test_cup_square_of_sum():
    h1, h2 = generator_classes(P1xP1)
    s = reference_add(h1, h2)
    sq = reference_cup(s, s)
    assert sq == CohClass(P1xP1, 4, {(1, 1): 2})


def test_cup_space_mismatch():
    with pytest.raises(SpaceMismatch):
        reference_cup(generator_class(P1, 0), generator_class(P2, 0))


def test_pullback_diagonal_truncates():
    delta = power_map(P1, [0, 0])
    h1h2 = monomial_class(P1xP1, (1, 1))
    assert reference_pullback(delta, h1h2).is_zero()  # h^2 = 0 on P^1


def test_pullback_coordinate_inclusion():
    inc = generator_map((P1, P2, (0,)))
    assert reference_pullback(inc, generator_class(P2, 0)) == \
        generator_class(P1, 0)


def test_pullback_projection():
    # projection P1xP1 -> P1 recorded on generators: h pulls to h1
    proj = SpaceMap(P1xP1, P1, (generator_class(P1xP1, 0),))
    assert reference_pullback(proj, generator_class(P1, 0)) == \
        generator_class(P1xP1, 0)


def test_poincare_pair_p2():
    h = generator_class(P2, 0)
    assert reference_pair(h, h) == 1


def test_poincare_pair_p1xp1():
    h1, h2 = generator_classes(P1xP1)
    assert reference_pair(h1, h2) == 1
    assert reference_pair(h1, h1) == 0
    assert reference_pair(reference_add(h1, h2), h1) == 1


def test_poincare_pair_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        reference_pair(generator_class(P2, 0), one_class(P2))


def test_pairing_matrix_is_antidiagonal_permutation():
    for space in (P2, P1xP1, ProjProduct((1, 2))):
        for k in range(space.dim + 1):
            monos = space.monomials(k)
            duals = space.monomials(space.dim - k)
            top = space.factor_dims
            for e in monos:
                hits = [f for f in duals
                        if reference_pair(monomial_class(space, e),
                                          monomial_class(space, f)) != 0]
                assert hits == [tuple(t - x for t, x in zip(top, e))]


def test_identity_map_roundtrip():
    ident = reference_identity(P1xP1)
    a = _random_class(random.Random(9), P1xP1, 2)
    assert reference_pullback(ident, a) == a
    for mono in P1xP1.monomials(1):
        assert pushforward((P1xP1, P1xP1, (0, 1)), mono) == (mono,)


def _push(f, a):
    """``pushforward`` extended linearly to the class ``a`` on f's source."""
    source, target, _ = f
    out = {}
    for exp, c in a.coeffs.items():
        for mono in pushforward(f, exp):
            out[mono] = out.get(mono, 0) + c
    return CohClass(target, a.degree + 2 * (target.dim - source.dim), out)


# the Gysin map by exponent arithmetic

def test_pushforward_subspace_inclusion():
    for m in (1, 2):
        src = ProjProduct((m,))
        dst = ProjProduct((m + 1,))
        for j in range(m + 1):
            assert pushforward((src, dst, (0,)), (j,)) == ((j + 1,),)


def test_pushforward_diagonal():
    delta = (P1, P1xP1, (0, 0))
    assert pushforward(delta, (0,)) == ((0, 1), (1, 0))
    assert pushforward(delta, (1,)) == ((1, 1),)


def test_pushforward_diagonal_p2():
    # class of the diagonal in P^2 x P^2: full middle row of the pairing
    delta = (P2, ProjProduct((2, 2)), (0, 0))
    assert pushforward(delta, (0,)) == ((0, 2), (1, 1), (2, 0))


def _inclusion_keys(model):
    """One (inclusion key, source flat, target flat) per distinct key, for
    every pair of comparable flats of ``model``."""
    poset, seen = model.poset, {}
    for src in range(len(poset)):
        for dst in range(len(poset)):
            if dst != src and le(poset, dst, src):
                seen.setdefault(model.inclusion_key(src, dst), (src, dst))
    return seen


@pytest.mark.parametrize("build", [
    lambda: configuration_model(P1, 5),
    lambda: configuration_model(P2, 4),
    lambda: configuration_model(P1xP1, 3),
    lambda: configuration_model(ProjProduct((1, 0)), 4),
    lambda: hyperplane_model(braid_forms(6)),
    lambda: hyperplane_model(coordinate_forms(8)),
], ids=["F_P1_5", "F_P2_4", "F_P1xP1_3", "F_P1xP0_4", "braid_P5",
        "coordinate_P8"])
def test_pushforward_equals_duality_on_every_inclusion(build):
    model, pairs = build(), 0
    for key, (src, dst) in _inclusion_keys(model).items():
        f = model.inclusion(src, dst)
        source = f[0]
        for k in range(source.dim + 1):
            for mono in source.monomials(k):
                a = monomial_class(source, mono)
                assert _push(f, a) == reference_pushforward(
                    generator_map(f), a), (key, mono)
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
    maps = [(P1, P2, (0,)), (P1, P1xP1, (0, 0)),
            (P2, ProjProduct((2, 2)), (0, 0))]
    for f in maps:
        source, target, _ = f
        codim = target.dim - source.dim
        for _ in range(10):
            da = 2 * rng.randint(0, source.dim)
            db = 2 * rng.randint(0, (2 * target.dim - da - 2 * codim) // 2
                                 if 2 * target.dim >= da + 2 * codim else 0)
            a = _random_class(rng, source, da)
            b = _random_class(rng, target, db)
            pulled = reference_pullback(generator_map(f), b)
            lhs = _push(f, reference_cup(pulled, a))
            rhs = reference_cup(b, _push(f, a))
            assert lhs == rhs


def test_pushforward_functoriality():
    # coordinate chain P1 -> P2 -> P3
    f, g, gf = (P1, P2, (0,)), (P2, P3, (0,)), (P1, P3, (0,))
    assert generator_map(gf) == reference_compose(generator_map(g),
                                                  generator_map(f))
    for j in (0, 1):
        a = monomial_class(P1, (j,))
        assert _push(gf, a) == _push(g, _push(f, a))


def test_self_intersection_is_euler_class():
    # hypersurface-type inclusion: pulling back its own pushforward of 1
    # gives the hyperplane class
    inc = (P2, P3, (0,))
    cls = reference_pullback(generator_map(inc), _push(inc, one_class(P2)))
    assert cls == generator_class(P2, 0)


def test_point_factor():
    # a zero-dimensional factor contributes nothing but a unit
    pt = ProjProduct((0,))
    assert pt.betti_list() == (1,)
    inc = (pt, P3, (None,))
    assert pushforward(inc, (0,)) == ((3,),)
    assert reference_pullback(generator_map(inc),
                              generator_class(P3, 0)).is_zero()


def test_mixed_degree_rejected():
    with pytest.raises(DegreeMismatch):
        CohClass(P2, 2, {(0,): Fraction(1), (1,): Fraction(1)})
