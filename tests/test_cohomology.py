import itertools
import random
from fractions import Fraction
from math import floor

import pytest

from zodom.cohomology import (
    BadGeneratorsError,
    Cocycle1,
    _domain_reducer,
    CoboundarySolver,
    alpha_map,
    build_cocycle,
    coboundary_between,
    coinvariants,
    generator_pair,
    h1_presentation,
    is_coboundary_of,
    level_coinvariants_ok,
    parallelogram_domain,
    tau1,
    torsion_free_check,
)
from zodom.gdsl import parse_group
from zodom.hgroup import ProgramGroup, UnsupportedPresentationError, equal_h, superindex
from zodom.linalg import INF, Lattice, Mat, Supernatural
from zodom.odometer import FiniteOdometer

F = Fraction


def random_quotient(rng, max_index=200):
    """Random G <= Z^2 in HNF with index <= max_index."""
    while True:
        a = rng.randint(1, 14)
        c = rng.randint(1, 14)
        if a * c > max_index:
            continue
        b = rng.randint(0, c - 1)
        return Lattice.from_span(2, [(a, b), (0, c)])


def random_dual_vector(rng, g):
    coeffs = [rng.randint(-6, 6) for _ in range(g.d)]
    return g.basis().transpose().inv().apply(coeffs)


# ---------------------------------------------------------------------------
# evaluation


def test_eval_epsilon_is_coordinate():
    q = FiniteOdometer(Lattice.from_span(2, [(2, 1), (0, 3)]))
    eps1 = Cocycle1.epsilon(q, 0)
    rng = random.Random(0)
    for _ in range(20):
        x = rng.choice(q.reps)
        n = (rng.randint(-7, 7), rng.randint(-7, 7))
        assert eps1.evaluate(x, n) == n[0]


def test_eval_coboundary_formula():
    q = FiniteOdometer(Lattice.from_span(2, [(3, 1), (0, 4)]))
    rng = random.Random(1)
    f = {x: rng.randint(-9, 9) for x in q.reps}
    theta = Cocycle1.from_coboundary(q, f)
    for _ in range(30):
        x = rng.choice(q.reps)
        n = (rng.randint(-6, 6), rng.randint(-6, 6))
        assert theta.evaluate(x, n) == f[q.act(n, x)] - f[x]


def test_eval_path_independence_property():
    rng = random.Random(2)
    g = Lattice.from_span(2, [(4, 3), (0, 5)])
    theta = build_cocycle(g, random_dual_vector(rng, g))
    q = theta.quotient
    for _ in range(100):
        x = rng.choice(q.reps)
        m = (rng.randint(-5, 5), rng.randint(-5, 5))
        n = (rng.randint(-5, 5), rng.randint(-5, 5))
        total = (m[0] + n[0], m[1] + n[1])
        assert theta.evaluate(x, total) == theta.evaluate(x, m) + theta.evaluate(
            q.act(m, x), n
        )


def test_incompatible_generator_values_rejected():
    q = FiniteOdometer(Lattice.from_span(2, [(2, 0), (0, 2)]))
    vals = [{x: 0 for x in q.reps}, {x: 0 for x in q.reps}]
    vals[0][(0, 0)] = 1  # breaks the commuting square
    with pytest.raises(ValueError):
        Cocycle1(q, vals)


# ---------------------------------------------------------------------------
# alpha map


def test_alpha_examples():
    q = FiniteOdometer(Lattice.from_span(2, [(2, 1), (0, 3)]))
    assert alpha_map(Cocycle1.epsilon(q, 0)) == (1, 0)
    assert alpha_map(Cocycle1.epsilon(q, 1)) == (0, 1)
    f = {x: (x[0] - 2 * x[1]) % 5 for x in q.reps}
    assert alpha_map(Cocycle1.from_coboundary(q, f)) == (0, 0)


def test_alpha_build_roundtrip_corpus():
    rng = random.Random(42)
    for _ in range(40):
        g = random_quotient(rng)
        h = random_dual_vector(rng, g)
        assert alpha_map(build_cocycle(g, h)) == tuple(h)


def test_equal_alpha_implies_explicit_coboundary():
    rng = random.Random(43)
    for _ in range(25):
        g = random_quotient(rng, max_index=60)
        h = random_dual_vector(rng, g)
        theta = build_cocycle(g, h)
        f0 = {x: rng.randint(-5, 5) for x in theta.quotient.reps}
        eta = theta + Cocycle1.from_coboundary(theta.quotient, f0)
        assert alpha_map(eta) == alpha_map(theta)
        f = coboundary_between(eta, theta)
        assert is_coboundary_of(eta - theta, f)


# ---------------------------------------------------------------------------
# fundamental domain and build_cocycle


def test_parallelogram_worked_example():
    g = Lattice.from_span(2, [(2, 1), (0, 3)])
    dom, pair = parallelogram_domain(g)
    assert pair == ((2, 1), (0, 3))
    assert dom == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (1, 3)]
    assert len(dom) == 6


def test_generator_pair_compliance():
    rng = random.Random(3)
    for _ in range(50):
        g = random_quotient(rng)
        (a, b), (c, d) = generator_pair(g)
        assert a > 0 and d > 0 and b >= 0 and c >= 0 and a * d - b * c > 0
        dom, _ = parallelogram_domain(g)
        assert len(dom) == int(g.det())


def test_build_cocycle_trivial_lattice():
    # G = Z^2, h = (1,1): the fundamental domain is {0} and theta(x,n) = n1+n2
    g = Lattice.standard(2)
    theta = build_cocycle(g, (1, 1))
    dom, _ = parallelogram_domain(g)
    assert dom == [(0, 0)]
    rng = random.Random(0)
    for _ in range(20):
        n = (rng.randint(-9, 9), rng.randint(-9, 9))
        assert theta.evaluate((0, 0), n) == n[0] + n[1]


def test_build_cocycle_b_zero_branch():
    g = Lattice.from_span(2, [(2, 0), (0, 3)])
    assert generator_pair(g) == ((2, 0), (0, 3))
    theta = build_cocycle(g, (F(1, 2), 0))
    assert tau1(theta) == (F(1, 2), 0)


def test_build_cocycle_custom_pair():
    g = Lattice.from_span(2, [(2, 0), (0, 3)])
    theta = build_cocycle(g, (F(1, 2), 0), pair=((2, 0), (2, 3)))
    assert alpha_map(theta) == (F(1, 2), 0)
    assert tau1(theta) == (F(1, 2), 0)
    with pytest.raises(BadGeneratorsError):
        build_cocycle(g, (F(1, 2), 0), pair=((2, 0), (0, -3)))


def test_build_cocycle_rejects_non_dual_vector():
    g = Lattice.from_span(2, [(2, 0), (0, 3)])
    with pytest.raises(ValueError):
        build_cocycle(g, (F(1, 3), 0))


def test_build_cocycle_d3_refused():
    g = Lattice.from_span(3, [(2, 0, 0), (0, 1, 0), (0, 0, 1)])
    with pytest.raises(BadGeneratorsError):
        build_cocycle(g, (F(1, 2), 0, 0))


def _fraction_reducer(pair):
    """The floor(Fraction) parallelogram reducer, as a reference."""
    (a, b), (c, d) = pair
    det = a * d - b * c

    def rep(v):
        x, y = v
        fs = floor(F(d * x - c * y, det))
        ft = floor(F(-b * x + a * y, det))
        return (x - fs * a - ft * c, y - fs * b - ft * d)

    return rep


def test_integer_domain_reducer_matches_fraction_floor():
    rng = random.Random(31)
    pairs = [generator_pair(random_quotient(rng)) for _ in range(30)]
    pairs += [((2, 0), (2, 3)), ((3, 1), (1, 2)), ((1, 0), (0, 1)), ((7, 5), (4, 3))]
    box = list(itertools.product(range(-15, 16), repeat=2))
    for pair in pairs:
        fast, ref = _domain_reducer(pair), _fraction_reducer(pair)
        assert all(fast(v) == ref(v) for v in box), pair


def test_integer_domain_matches_fraction_coordinates():
    rng = random.Random(32)
    for _ in range(30):
        g = random_quotient(rng)
        dom, ((a, b), (c, d)) = parallelogram_domain(g)
        det = a * d - b * c
        ref = [
            (x, y)
            for x in range(-30, 31)
            for y in range(-30, 31)
            if 0 <= F(d * x - c * y, det) < 1 and 0 <= F(-b * x + a * y, det) < 1
        ]
        assert dom == ref


def test_integer_pairing_matches_fraction_pairing():
    rng = random.Random(33)
    for _ in range(30):
        g = random_quotient(rng, max_index=60)
        h = random_dual_vector(rng, g)
        theta = build_cocycle(g, h)
        rep = _fraction_reducer(generator_pair(g))
        for i, unit in enumerate([(1, 0), (0, 1)]):
            for x in theta.quotient.reps:
                k1 = rep(x)
                w = (k1[0] + unit[0], k1[1] + unit[1])
                value = sum((wi - ri) * hi for wi, ri, hi in zip(w, rep(w), h))
                assert value.denominator == 1
                assert theta.gen_values[i][x] == value


def test_build_cocycle_rejects_vectors_outside_dual():
    g = Lattice.from_span(2, [(2, 1), (0, 3)])  # G* is spanned by (1/2, 0), (-1/6, 1/3)
    for h in [(F(1, 2), 0), (F(-1, 6), F(1, 3)), (F(1, 3), F(1, 3))]:
        assert alpha_map(build_cocycle(g, h)) == h
    for h in [(F(1, 3), 0), (0, F(1, 6)), (F(1, 4), F(1, 3)), (F(1, 2), F(1, 6))]:
        with pytest.raises(ValueError):
            build_cocycle(g, h)
    with pytest.raises(ValueError):
        build_cocycle(Lattice.from_span(1, [(7,)]), (F(1, 14),))


# ---------------------------------------------------------------------------
# trace


def test_tau_worked_example():
    theta = build_cocycle(Lattice.from_span(2, [(2, 1), (0, 3)]), (F(1, 2), 0))
    assert tau1(theta) == (F(1, 2), 0)


def test_tau_brute_force_cross_check():
    g = Lattice.from_span(2, [(2, 1), (0, 3)])
    h = (F(1, 2), 0)
    theta = build_cocycle(g, h)
    q = theta.quotient
    for i, unit in enumerate([(1, 0), (0, 1)]):
        total = sum(theta.evaluate(x, unit) for x in q.reps)
        assert F(total, q.card) == h[i]


def test_tau_vanishes_on_coboundaries_and_is_additive():
    rng = random.Random(7)
    g = Lattice.from_span(2, [(5, 2), (0, 4)])
    q = FiniteOdometer(g)
    f = {x: rng.randint(-9, 9) for x in q.reps}
    cob = Cocycle1.from_coboundary(q, f)
    assert tau1(cob) == (0, 0)
    t1 = build_cocycle(g, random_dual_vector(rng, g))
    t2 = build_cocycle(g, random_dual_vector(rng, g))
    assert tau1(t1 + t2) == tuple(a + b for a, b in zip(tau1(t1), tau1(t2)))


def test_tau_epsilon_is_standard_basis():
    q = FiniteOdometer(Lattice.from_span(2, [(4, 1), (0, 3)]))
    assert tau1(Cocycle1.epsilon(q, 0)) == (1, 0)
    assert tau1(Cocycle1.epsilon(q, 1)) == (0, 1)


def test_tau_equals_dual_vector_seeded_corpus():
    rng = random.Random(2024)
    seen_b0 = seen_bpos = 0
    for _ in range(60):
        g = random_quotient(rng)
        if generator_pair(g)[0][1] == 0:
            seen_b0 += 1
        else:
            seen_bpos += 1
        h = random_dual_vector(rng, g)
        assert tau1(build_cocycle(g, h)) == tuple(h)
    assert seen_b0 >= 10 and seen_bpos >= 10


def test_tau_d1():
    g = Lattice.from_span(1, [(7,)])
    theta = build_cocycle(g, (F(3, 7),))
    assert tau1(theta) == (F(3, 7),)
    assert alpha_map(theta) == (F(3, 7),)


# ---------------------------------------------------------------------------
# coboundary solving


def test_solver_agrees_with_alpha_criterion():
    rng = random.Random(11)
    g = Lattice.from_span(2, [(3, 2), (0, 4)])
    q = FiniteOdometer(g)
    solver = CoboundarySolver(q)
    for _ in range(20):
        f = {x: rng.randint(-6, 6) for x in q.reps}
        cob = Cocycle1.from_coboundary(q, f)
        sol = solver.solve(cob)
        assert sol is not None and is_coboundary_of(cob, sol)
        h = random_dual_vector(rng, g)
        theta = build_cocycle(g, h)
        assert (solver.solve(theta) is not None) == (tuple(h) == (0, 0))


# ---------------------------------------------------------------------------
# H^1 presentation and co-invariants


def test_h1_presentation_examples():
    h = parse_group("oplus(Z[1/2], Z[1/3])")
    res = h1_presentation(h)
    assert equal_h(res.group, h)
    assert res.level_duals() == res.tower.levels
    std = parse_group("oplus(Z, Z)")
    assert h1_presentation(std).group == std


def test_h1_presentation_rejects_program():
    prog = ProgramGroup(2, lambda n: Mat([[3, 1], [1, 4]]), 2)
    with pytest.raises(UnsupportedPresentationError):
        h1_presentation(prog)


def test_coinvariants_examples():
    assert coinvariants(parse_group("oplus(Z[1/2])")) == Supernatural({2: INF})
    assert coinvariants(parse_group("oplus(Z, Z)")) == Supernatural({})
    a = coinvariants(parse_group("oplus(Z[1/2], Z[1/15])"))
    b = coinvariants(parse_group("oplus(Z[1/10], Z[1/3])"))
    assert a == b == Supernatural({2: INF, 3: INF, 5: INF})


def test_coinvariants_match_superindex_on_gallery():
    for text in (
        "oplus(Z[1/2])",
        "oplus(Z[1/6])",
        "oplus(Z[1/2], Z[1/3])",
        "oplus(Z[1/2], Z[1/3]) + gen(1/5, 1/5)",
    ):
        h = parse_group(text)
        assert coinvariants(h) == superindex(h)


def test_level_coinvariants_direct():
    assert level_coinvariants_ok(FiniteOdometer(Lattice.from_span(2, [(2, 1), (0, 3)])))
    assert level_coinvariants_ok(FiniteOdometer(Lattice.from_span(1, [(6,)])))


# ---------------------------------------------------------------------------
# torsion freeness


def test_torsion_free_small_quotients():
    rng = random.Random(5)
    for rows in ([(2, 1), (0, 3)], [(4, 0), (0, 5)], [(6, 2), (0, 5)]):
        q = FiniteOdometer(Lattice.from_span(2, rows))
        assert torsion_free_check(q, trials=60, rng=rng)


def test_torsion_vacuous_case():
    # 2 * epsilon_1 is not a coboundary (tau nonzero), so the implication is vacuous
    q = FiniteOdometer(Lattice.from_span(2, [(2, 1), (0, 3)]))
    solver = CoboundarySolver(q)
    eps = Cocycle1.epsilon(q, 0)
    assert solver.solve(eps.scale(2)) is None
