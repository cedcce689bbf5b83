import itertools
import random
from fractions import Fraction

import pytest

from zodom.cohomology import (
    COCYCLE_MAX_CARD,
    Cocycle1,
    CoboundarySolver,
    alpha_map,
    build_cocycle,
    coinvariants,
    tau1,
    torsion_free_check,
)
from zodom.gdsl import parse_group
from zodom.hgroup import superindex, tower
from zodom.linalg import INF, Lattice, Mat, Supernatural, snf
from zodom.odometer import FiniteOdometer
from zodom.verify import TORSION_QUOTIENTS, cocycle_corpus, random_dual_vector, random_quotient

from helpers import echelon_with_transform

F = Fraction


def _epsilon(q, i):
    """The constant cocycle theta(x, n) = n_i."""
    return Cocycle1(q, [{x: int(k == i) for x in q.reps} for k in range(q.d)], validate=False)


# ---------------------------------------------------------------------------
# evaluation


def test_eval_epsilon_is_coordinate():
    q = FiniteOdometer(Lattice.from_span(2, [(2, 1), (0, 3)]))
    eps1 = _epsilon(q, 0)
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


def test_incompatible_values_rejected_at_a_wrapping_step():
    q = FiniteOdometer(Lattice.from_span(2, [(3, 1), (0, 4)]))
    theta = build_cocycle(q.lattice, (F(1, 3), F(0)))
    # (2, 0) + e_1 wraps to (0, 3): alter theta(x, e_2) at that image only
    vals = [dict(g) for g in theta.gen_values]
    assert q.steps[0][(2, 0)] == (0, 3)
    vals[1][(0, 3)] += 1
    with pytest.raises(ValueError, match="incompatible"):
        Cocycle1(q, vals)
    missing = [dict(g) for g in theta.gen_values]
    del missing[0][(1, 1)]
    with pytest.raises(ValueError, match="cover every coset"):
        Cocycle1(q, missing)


def test_eval_negative_steps_match_act_walk():
    rng = random.Random(3)
    for rows in ([(2, 1), (0, 3)], [(7, 3), (0, 8)], [(5, 0), (0, 12)]):
        g = Lattice.from_span(2, rows)
        theta = build_cocycle(g, random_dual_vector(rng, g))
        q = theta.quotient
        f = {x: rng.randint(-9, 9) for x in q.reps}
        theta = theta + Cocycle1.from_coboundary(q, f)
        for _ in range(40):
            x = rng.choice(q.reps)
            n = (rng.randint(-20, 3), rng.randint(-20, 3))
            # reference: step through act, e_1 moves first, then e_2
            pos, total = x, 0
            for i, count in enumerate(n):
                unit = tuple(1 if k == i else 0 for k in range(2))
                back = tuple(-u for u in unit)
                for _ in range(abs(count)):
                    if count > 0:
                        total += theta.gen_values[i][pos]
                        pos = q.act(unit, pos)
                    else:
                        pos = q.act(back, pos)
                        total -= theta.gen_values[i][pos]
            assert theta.evaluate(x, n) == total


# ---------------------------------------------------------------------------
# alpha map


def test_alpha_examples():
    q = FiniteOdometer(Lattice.from_span(2, [(2, 1), (0, 3)]))
    assert alpha_map(_epsilon(q, 0)) == (1, 0)
    assert alpha_map(_epsilon(q, 1)) == (0, 1)
    f = {x: (x[0] - 2 * x[1]) % 5 for x in q.reps}
    assert alpha_map(Cocycle1.from_coboundary(q, f)) == (0, 0)


def test_alpha_build_roundtrip_corpus():
    rng = random.Random(42)
    for _ in range(40):
        g = random_quotient(rng, 200)
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
        # reference: f(k + G) = eta(G, k) - theta(G, k) on coset representatives
        zero = (0,) * g.d
        ref = {x: eta.evaluate(zero, x) - theta.evaluate(zero, x) for x in theta.quotient.reps}
        assert CoboundarySolver(theta.quotient).solve(eta - theta) == ref


# ---------------------------------------------------------------------------
# build_cocycle


def _random_lattices(rng, count, max_card=120):
    """Integer lattices of d = 1, 2, 3 in turn, index at most max_card."""
    return [_random_lattice(rng, k % 3 + 1, max_card) for k in range(count)]


def test_build_cocycle_trivial_lattice():
    # G = Z^2, h = (1,1): the fundamental domain is {0} and theta(x,n) = n1+n2
    g = Lattice.standard(2)
    theta = build_cocycle(g, (1, 1))
    rng = random.Random(0)
    for _ in range(20):
        n = (rng.randint(-9, 9), rng.randint(-9, 9))
        assert theta.evaluate((0, 0), n) == n[0] + n[1]


def test_build_cocycle_b_zero_branch():
    g = Lattice.from_span(2, [(2, 0), (0, 3)])
    theta = build_cocycle(g, (F(1, 2), 0))
    assert tau1(theta) == (F(1, 2), 0)


def test_build_cocycle_rejects_non_dual_vector():
    g = Lattice.from_span(2, [(2, 0), (0, 3)])
    with pytest.raises(ValueError):
        build_cocycle(g, (F(1, 3), 0))


def test_build_cocycle_d3_trace_and_alpha():
    rng = random.Random(41)
    lattices = [Lattice.from_span(3, [(2, 0, 0), (0, 1, 0), (0, 0, 1)])]
    lattices += [_random_lattice(rng, 3, 120) for _ in range(12)]
    for g in lattices:
        for _ in range(3):
            h = random_dual_vector(rng, g)
            theta = build_cocycle(g, h)
            assert tau1(theta) == tuple(h), (g, h)
            assert alpha_map(theta) == tuple(h), (g, h)
    theta = build_cocycle(lattices[0], (F(1, 2), 0, 0))
    assert tau1(theta) == alpha_map(theta) == (F(1, 2), 0, 0)


def _box_step_value(q, x, i, h):
    """The reference value of theta_h(x, e_i) on the box transversal, in
    Fractions: <w - reduce(w), h> for w = x + e_i."""
    w = tuple(c + (k == i) for k, c in enumerate(x))
    return sum((a - b) * F(c) for a, b, c in zip(w, q.reduce(w), h))


def test_integer_pairing_matches_fraction_pairing():
    rng = random.Random(33)
    lattices = [random_quotient(rng, max_index=60) for _ in range(30)]
    lattices += _random_lattices(rng, 9, max_card=60)
    for g in lattices:
        h = random_dual_vector(rng, g)
        theta = build_cocycle(g, h)
        q = theta.quotient
        for i in range(g.d):
            for x in q.reps:
                value = _box_step_value(q, x, i, h)
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


def _per_point_cocycle(g, h):
    """The per-point builder, as a reference: for every box representative
    x and e_i, theta_i(x) = <w - reduce(w), h> with w = x + e_i, in
    Fractions, reduced by the walk along the HNF basis."""
    q = FiniteOdometer(g)
    vals = [{} for _ in range(g.d)]
    for x in q.reps:
        for i, column in enumerate(vals):
            value = _box_step_value(q, x, i, h)
            assert value.denominator == 1
            column[x] = int(value)
    return vals


def test_box_cocycles_match_per_point_builder():
    cases = list(cocycle_corpus(21))
    for m, num in ((7, 3), (1, 5), (12, -5)):
        cases.append((Lattice.from_span(1, [(m,)]), (F(num, m),)))
    rng = random.Random(22)
    for _ in range(15):
        g = _random_lattice(rng, 3, 120)
        cases.append((g, random_dual_vector(rng, g)))
    for g, h in cases:
        theta = build_cocycle(g, h)
        assert list(theta.gen_values) == _per_point_cocycle(g, h), (g, h)


def test_build_cocycle_error_messages():
    g = Lattice.from_span(2, [(2, 1), (0, 3)])
    with pytest.raises(ValueError, match=r"^h must pair integrally with the lattice \(h in G\*\)$"):
        build_cocycle(g, (F(1, 3), 0))
    with pytest.raises(ValueError, match="^h has 3 entries, the lattice dimension is 2$"):
        build_cocycle(g, (F(1, 2), 0, 0))
    with pytest.raises(ValueError, match="^h has 2 entries, the lattice dimension is 1$"):
        build_cocycle(Lattice.from_span(1, [(5,)]), (F(1, 5), 0))
    g3 = Lattice.from_span(3, [(2, 0, 0), (0, 1, 0), (0, 0, 1)])
    with pytest.raises(ValueError, match="^h must pair integrally"):
        build_cocycle(g3, (F(1, 3), 0, 0))
    # the integrality check comes before the h checks
    half = Lattice.from_span(2, [(F(1, 2), 0), (0, 1)])
    for h in [(1, 0), (F(1, 3), 0), (1, 0, 0)]:
        with pytest.raises(ValueError, match="^quotient lattice must be integral$"):
            build_cocycle(half, h)


def test_build_cocycle_refuses_a_quotient_over_the_cap(monkeypatch):
    # the card is read off the HNF diagonal: one coset over the cap is
    # refused before the quotient is built, and the cap itself is not
    class Built(Exception):
        pass

    def built(*args):
        raise Built

    monkeypatch.setattr("zodom.cohomology.FiniteOdometer", built)
    over = Lattice.from_span(2, [(COCYCLE_MAX_CARD + 1, 0), (7, 1)])
    message = f"^quotient has {COCYCLE_MAX_CARD + 1} cosets, more than {COCYCLE_MAX_CARD}$"
    with pytest.raises(ValueError, match=message):
        build_cocycle(over, (F(1, COCYCLE_MAX_CARD + 1), 0))
    with pytest.raises(Built):
        build_cocycle(Lattice.from_span(2, [(COCYCLE_MAX_CARD, 0), (0, 1)]), (0, 0))


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
    assert tau1(_epsilon(q, 0)) == (1, 0)
    assert tau1(_epsilon(q, 1)) == (0, 1)


def test_tau_equals_dual_vector_seeded_corpus():
    rng = random.Random(2024)
    seen_b0 = seen_bpos = 0
    for _ in range(60):
        g = random_quotient(rng, 200)
        if g.mat[1][0] == 0:
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
    """B^1 = ker alpha, the fact torsion_free_check proves: on every solver
    quotient (d = 1, 2, 3), a dual cocycle plus a coboundary is solved by
    the tree potential exactly when its alpha_map is 0."""
    rng = random.Random(11)
    for q in _solver_quotients():
        g = q.lattice
        solver = CoboundarySolver(q)
        solved = set()
        for k in range(10):
            h = (0,) * g.d if k == 0 else random_dual_vector(rng, g)
            f = {x: rng.randint(-6, 6) for x in q.reps}
            theta = build_cocycle(g, h) + Cocycle1.from_coboundary(q, f)
            sol = solver.solve(theta)
            assert (sol is not None) == (alpha_map(theta) == (0,) * g.d), (g, h)
            assert sol is None or Cocycle1.from_coboundary(q, sol) == theta
            solved.add(sol is not None)
        assert solved == {True, False}


def _difference_rows(quotient):
    """The d*card x card matrix of the difference operator over the reps:
    row (i, x) maps f to f(x + e_i) - f(x)."""
    reps = quotient.reps
    pos = {x: k for k, x in enumerate(reps)}
    rows = []
    for step in quotient.steps:
        for x in reps:
            row = [0] * len(reps)
            row[pos[step[x]]] += 1
            row[pos[x]] -= 1
            rows.append(row)
    return rows


def _echelon_solve(quotient, echelon, theta):
    """Reference: D f = theta by the column echelon form H = D . V of the
    difference matrix; f over the reps, or None."""
    pos, h, v, pivots = echelon
    nr, nc = len(h), len(v)
    r = [g[x] for g in theta.gen_values for x in quotient.reps]
    y = [0] * nc
    for j, prow in enumerate(pivots):
        q, rem = divmod(r[prow], h[prow][j])
        if rem:
            return None
        y[j] = q
        for i in range(prow, nr):
            r[i] -= q * h[i][j]
    if any(r):
        return None
    return {x: sum(v[k][j] * y[j] for j in range(nc)) for x, k in pos.items()}


def _solver_quotients():
    lats = [Lattice.from_span(2, rows) for rows in TORSION_QUOTIENTS]
    lats.append(Lattice.from_span(1, [(9,)]))
    lats.append(Lattice.from_span(3, [(2, 1, 1), (0, 3, 2), (0, 0, 2)]))
    return [FiniteOdometer(g) for g in lats]


def test_tree_potential_solver_matches_echelon_solve():
    rng = random.Random(17)
    for q in _solver_quotients():
        pos = {x: k for k, x in enumerate(q.reps)}
        echelon = (pos, *echelon_with_transform(_difference_rows(q)))
        solver = CoboundarySolver(q)
        zero = (0,) * q.d
        thetas = []
        for _ in range(4):
            cob = Cocycle1.from_coboundary(q, {x: rng.randint(-6, 6) for x in q.reps})
            thetas.append(cob)
            for i in range(q.d):
                thetas.append(cob + _epsilon(q, i).scale(rng.choice([-2, -1, 1, 3])))
            thetas.append(build_cocycle(q.lattice, random_dual_vector(rng, q.lattice)))
        for theta in thetas:
            f, ref = solver.solve(theta), _echelon_solve(q, echelon, theta)
            assert (f is None) == (ref is None)
            if f is not None:
                assert f[zero] == 0
                assert Cocycle1.from_coboundary(q, f) == theta
        assert any(_echelon_solve(q, echelon, t) is None for t in thetas)
        assert any(_echelon_solve(q, echelon, t) is not None for t in thetas)


# ---------------------------------------------------------------------------
# H^1 levels and co-invariants


def test_h1_levels_are_tower_duals():
    """H^1 = H with level maps Hom(H_n*, Z) = H_n: the levels are the duals
    of the tower's quotient lattices."""
    for text in ("oplus(Z[1/2], Z[1/3])", "oplus(Z, Z)"):
        t = tower(parse_group(text), 4)
        assert t.depth == 4
        assert tuple(g.dual() for g in t.duals) == t.levels


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


FUCHS = "oplus(Z[1/2], Z[1/3]) + gen(1/5, 1/5)"


def test_coinvariants_build_no_quotient(monkeypatch):
    # connectivity holds by construction, so no level quotient is built
    def no_quotient(*args):
        raise AssertionError("coinvariants built a FiniteOdometer")

    monkeypatch.setattr("zodom.cohomology.FiniteOdometer", no_quotient)
    assert str(coinvariants(parse_group(FUCHS), 12)) == "2^inf*3^inf*5^1"


@pytest.mark.parametrize("p, depth, level", [(2, 3, 2), (3, 3, 3), (5, 5, 5), (5, 12, 5)])
def test_coinvariants_catch_a_dropped_prime(monkeypatch, p, depth, level):
    # every support prime p <= depth divides the index of level p
    monkeypatch.setattr(
        "zodom.cohomology.superindex",
        lambda h: Supernatural({q: e for q, e in superindex(h).items if q != p}),
    )
    with pytest.raises(ArithmeticError, match=f"level {level} index"):
        coinvariants(parse_group(FUCHS), depth)


def test_coinvariants_catch_an_understated_exponent(monkeypatch):
    # L(5) / Z has order 25, and level 10 is the first whose index 5^2
    # reaches it (5^2 first divides 10!), so an exponent understated as 1
    # fails from depth 10 on
    h = parse_group("oplus(Z[1/2]) + gen(1/25)")
    assert str(coinvariants(h, 10)) == "2^inf*5^2"
    monkeypatch.setattr(
        "zodom.cohomology.superindex",
        lambda h: Supernatural({q: (1 if q == 5 else e) for q, e in superindex(h).items}),
    )
    assert str(coinvariants(h, 9)) == "2^inf*5^1"
    with pytest.raises(ArithmeticError, match="level 10 index"):
        coinvariants(h, 10)


def test_level_coinvariants_direct():
    assert FiniteOdometer(Lattice.from_span(2, [(2, 1), (0, 3)])).orbit_is_everything()
    assert FiniteOdometer(Lattice.from_span(1, [(6,)])).orbit_is_everything()


def _snf_rule(quotient):
    """Reference level check: the difference rows span a saturated corank-1
    sublattice of ker(sum), read off the Smith form."""
    n = quotient.card
    rows = _difference_rows(quotient)
    if any(sum(r) != 0 for r in rows):
        return False
    _, s, _ = snf(list(zip(*rows)))
    factors = [s[i][i] for i in range(min(n, len(rows))) if s[i][i] != 0]
    return len(factors) == n - 1 and all(f == 1 for f in factors)


def _inline_bfs_tree(quotient):
    """Reference: the BFS tree that CoboundarySolver used to build itself."""
    zero = (0,) * quotient.d
    seen = {zero}
    frontier = [zero]
    tree = []
    for x in frontier:
        for i, step in enumerate(quotient.steps):
            y = step[x]
            if y not in seen:
                seen.add(y)
                frontier.append(y)
                tree.append((x, i, y))
    return tuple(tree)


def _random_lattice(rng, d, max_card):
    while True:
        rows = [[rng.randint(-4, 6) for _ in range(d)] for _ in range(d)]
        det = Mat(rows).det()
        if det != 0 and abs(det) <= max_card:
            return Lattice.from_span(d, rows)


def _with_steps(lattice, steps):
    q = FiniteOdometer(lattice)
    q._steps = tuple(steps)
    return q


def test_connectivity_matches_snf_rule():
    """On random quotients, and on the sub-actions where some generators act
    trivially (their step tables replaced by the identity, which may leave
    the graph disconnected), the spanning-tree check agrees with the Smith
    form rule; the shared tree is the solver's former inline BFS tree."""
    rng = random.Random(23)
    answers = set()
    for trial in range(120):
        d = trial % 3 + 1
        g = _random_lattice(rng, d, 60)
        q = FiniteOdometer(g)
        assert q.spanning_tree == _inline_bfs_tree(q)
        assert CoboundarySolver(q)._tree == _inline_bfs_tree(q)
        for kept in itertools.product((True, False), repeat=d):
            identity = {x: x for x in q.reps}
            sub = _with_steps(g, [s if k else identity for s, k in zip(q.steps, kept)])
            ok = sub.orbit_is_everything()
            assert ok == _snf_rule(sub)
            assert sub.spanning_tree == _inline_bfs_tree(sub)
            answers.add(ok)
    assert answers == {True, False}


def _zero_fixed(step, zero):
    """The step permutation changed to fix the zero coset: its preimage is
    sent to step(0) instead, so every other coset keeps an image."""
    back = next(x for x, y in step.items() if y == zero)
    patched = dict(step)
    patched[back], patched[zero] = step[zero], zero
    return patched


@pytest.mark.parametrize(
    "rows", [[(4,)], [(2, 1), (0, 3)], [(2, 1, 1), (0, 3, 2), (0, 0, 2)]]
)
def test_level_check_can_fail(rows):
    """Every generator fixing the zero coset isolates it, so the level check
    and minimality fail and the solver refuses the quotient."""
    g = Lattice.from_span(len(rows), rows)
    q = _with_steps(g, [_zero_fixed(s, (0,) * g.d) for s in FiniteOdometer(g).steps])
    assert q.card > 1
    assert not _snf_rule(q)
    assert not q.orbit_is_everything()
    with pytest.raises(ArithmeticError):
        CoboundarySolver(q)


# ---------------------------------------------------------------------------
# torsion freeness


TORSION_SMALL = [
    [(2, 1), (0, 3)],
    [(4, 0), (0, 5)],
    [(6, 2), (0, 5)],
    [(2, 0, 0), (0, 3, 0), (0, 1, 1)],
    [(2, 1, 1), (0, 3, 2), (0, 0, 2)],
    [(3, 1, 0), (0, 4, 1), (0, 0, 5)],
    [(4, 1, 3), (0, 5, 2), (0, 0, 6)],
    *TORSION_QUOTIENTS,
    [(9,)],
]


def test_torsion_free_small_quotients():
    for rows in TORSION_SMALL + [[(1,)]]:
        q = FiniteOdometer(Lattice.from_span(len(rows), rows))
        assert q.card <= 120
        assert torsion_free_check(q), rows


def _swapped_targets(step, x1, x2):
    """The step permutation with the targets of x1 and x2 exchanged."""
    swapped = dict(step)
    swapped[x1], swapped[x2] = step[x2], step[x1]
    return swapped


@pytest.mark.parametrize("rows", TORSION_SMALL)
def test_torsion_check_rejects_wrong_step_tables(rows):
    """Every wrong step entry is either a tree edge, whose lift then
    reduces to another coset, or another step, whose g_e then misses G.
    Tables that fix the zero coset leave cosets without a lift.  The true
    action with two nonzero coset labels exchanged keeps every g_e in G,
    spanning it, and only the lifts, which reduce to the true cosets, see
    the wrong labels."""
    g = Lattice.from_span(len(rows), rows)
    q = FiniteOdometer(g)
    steps, reps = q.steps, q.reps
    for i in range(g.d):
        for x1, x2 in [(reps[0], reps[1]), (reps[1], reps[-1]), (reps[0], reps[-1])]:
            mutant = list(steps)
            mutant[i] = _swapped_targets(steps[i], x1, x2)
            assert not torsion_free_check(_with_steps(g, mutant)), (i, x1, x2)
    zero = (0,) * g.d
    assert not torsion_free_check(_with_steps(g, [_zero_fixed(s, zero) for s in steps]))
    sigma = {x: x for x in reps}
    sigma[reps[1]], sigma[reps[-1]] = reps[-1], reps[1]
    relabelled = [{sigma[x]: sigma[y] for x, y in step.items()} for step in steps]
    assert not torsion_free_check(_with_steps(g, relabelled))


def test_torsion_check_rejects_tables_of_another_lattice():
    """[(2,0),(0,3)] and [(2,1),(0,3)] have the same box of coset labels,
    but neither's step tables are the other's translation action."""
    a = Lattice.from_span(2, [(2, 0), (0, 3)])
    b = Lattice.from_span(2, [(2, 1), (0, 3)])
    assert FiniteOdometer(a).reps == FiniteOdometer(b).reps
    assert not torsion_free_check(_with_steps(b, FiniteOdometer(a).steps))
    assert not torsion_free_check(_with_steps(a, FiniteOdometer(b).steps))


def test_torsion_vacuous_case():
    # 2 * epsilon_1 is not a coboundary (tau nonzero), so the implication is vacuous
    q = FiniteOdometer(Lattice.from_span(2, [(2, 1), (0, 3)]))
    solver = CoboundarySolver(q)
    eps = _epsilon(q, 0)
    assert solver.solve(eps.scale(2)) is None
