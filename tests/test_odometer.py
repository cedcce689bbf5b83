import random
from fractions import Fraction

import pytest

from zodom.gdsl import parse_group
from zodom.hgroup import HGroup, is_free, tower
from zodom.linalg import Lattice, Mat, index, snf
from zodom.odometer import (
    DualityRealization,
    FiniteOdometer,
    NotSubgroupError,
    TowerSystem,
    duality_check,
    duality_square_check,
    factor_map_check,
    measure_cylinder,
    metric,
    product_check,
    spectrum,
)
from zodom.verify import sublattices_z2

F = Fraction


# ---------------------------------------------------------------------------
# finite quotients


def test_act_examples():
    f = FiniteOdometer(Lattice.from_span(2, [(2, 1), (0, 3)]))
    assert f.act((1, 0), (0, 0)) == (1, 0)
    assert f.act((0, 0), (1, 2)) == (1, 2)
    g = FiniteOdometer(Lattice.from_span(2, [(2, 0), (0, 3)]))
    assert g.act((2, 3), (1, 1)) == (1, 1)  # lattice vectors act trivially


def test_reps_are_hnf_box():
    f = FiniteOdometer(Lattice.from_span(2, [(2, 1), (0, 3)]))
    assert f.card == 6 == len(f.reps)
    assert f.reps == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2))


def test_act_is_permutation_and_additive():
    rng = random.Random(17)
    f = FiniteOdometer(Lattice.from_span(2, [(4, 1), (0, 5)]))
    for _ in range(100):
        k = (rng.randint(-9, 9), rng.randint(-9, 9))
        l = (rng.randint(-9, 9), rng.randint(-9, 9))
        x = rng.choice(f.reps)
        kl = (k[0] + l[0], k[1] + l[1])
        assert f.act(kl, x) == f.act(k, f.act(l, x))
    for k in [(1, 0), (0, 1), (3, -2)]:
        image = {f.act(k, x) for x in f.reps}
        assert image == set(f.reps)


def test_finite_level_minimality():
    for g in sublattices_z2(20):
        assert FiniteOdometer(g).orbit_is_everything()


# ---------------------------------------------------------------------------
# measure and metric


def test_measure_examples():
    t = tower(parse_group("oplus(Z[1/2], Z[1/3])"), 4)
    assert measure_cylinder(t, 1) == 1
    assert measure_cylinder(t, 2) == F(1, 2)
    assert measure_cylinder(t, 3) == F(1, 6)
    # sums to one at every level
    for n in range(1, 5):
        assert measure_cylinder(t, n) * t.index_at(n) == 1


def test_metric_examples():
    sys = TowerSystem(tower(parse_group("oplus(Z[1/2], Z[1/3])"), 4))
    x = sys.point((0, 0))
    assert metric(x, x) == 0
    w = sys.point((1, 0))  # differs first at level 2 (G_2 = 2Z + Z)
    assert metric(x, w) == F(1, 2)
    y = sys.point((0, 1))  # differs first at level 3, where 3 divides the index
    assert metric(x, y) == F(1, 3)
    z = sys.point((2, 0))
    assert metric(x, z) == F(1, 4)


def test_metric_axioms_and_equivariance():
    rng = random.Random(5)
    sys = TowerSystem(tower(parse_group("oplus(Z[1/2], Z[1/15])"), 4))
    pts = [sys.random_point(rng) for _ in range(12)]
    for _ in range(100):
        a, b, c = (rng.choice(pts) for _ in range(3))
        assert metric(a, b) == metric(b, a)
        assert metric(a, c) <= metric(a, b) + metric(b, c)
        assert (metric(a, b) == 0) == (a.cosets == b.cosets)
        k = (rng.randint(-6, 6), rng.randint(-6, 6))
        assert metric(sys.act(k, a), sys.act(k, b)) == metric(a, b)


def test_freeness_tower_correspondence():
    # free H iff the dual chain intersects to {0}: up to the tested depth,
    # no small nonzero vector survives in G_n; for non-free H one does
    small = [
        (i, j)
        for i in range(-3, 4)
        for j in range(-3, 4)
        if (i, j) != (0, 0)
    ]
    free_texts = [
        "oplus(Z[1/2], Z[1/3])",
        "oplus(Z[1/2], Z[1/15])",
        "oplus(Z[1/2], Z[1/3]) + gen(1/5, 1/5)",
    ]
    for text in free_texts:
        h = parse_group(text)
        assert is_free(h)
        g_last = tower(h, 8).duals[-1]
        assert not any(g_last.member(v) for v in small)
    stuck = parse_group("oplus(Z[1/2], Z)")
    assert not is_free(stuck)
    g_last = tower(stuck, 8).duals[-1]
    assert g_last.member((0, 1))  # survives at every depth


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_examples():
    assert spectrum(parse_group("oplus(Z[1/2])"), 4) == [
        (F(0),),
        (F(1, 4),),
        (F(1, 2),),
        (F(3, 4),),
    ]
    assert spectrum(HGroup.standard(2), 5) == [(F(0), F(0))]
    got = spectrum(parse_group("oplus(Z[1/2], Z[1/3])"), 3)
    assert got == [
        (F(0), F(0)),
        (F(0), F(1, 3)),
        (F(0), F(2, 3)),
        (F(1, 2), F(0)),
        (F(1, 2), F(1, 3)),
        (F(1, 2), F(2, 3)),
    ]


def test_spectrum_is_group_truncation():
    h = parse_group("oplus(Z[1/2], Z[1/3]) + gen(1/5, 1/5)")
    got = set(spectrum(h, 5))
    assert (F(1, 5), F(1, 5)) in got
    assert (F(2, 5), F(2, 5)) in got
    assert (F(1, 5), F(0)) not in got


# ---------------------------------------------------------------------------
# duality


def test_duality_examples():
    k = Lattice.from_span(2, [(F(1, 2), 0), (0, F(1, 3))])
    assert duality_check(k)
    assert duality_check(Lattice.standard(2))


def test_duality_all_small_indices():
    rng = random.Random(1)
    for g in sublattices_z2(20):
        assert duality_check(g.dual(), samples=3, rng=rng)


def test_duality_square_example():
    k1 = Lattice.from_span(2, [(F(1, 2), 0), (0, 1)])
    k2 = Lattice.from_span(2, [(F(1, 2), 0), (0, F(1, 3))])
    assert duality_square_check(k1, k2)


def test_duality_square_nested_pairs():
    rng = random.Random(9)
    count = 0
    lats = sublattices_z2(16)
    while count < 10:
        g2 = rng.choice(lats)
        g1 = rng.choice(lats)
        k1, k2 = g1.dual(), g2.dual()
        if not k2.contains(k1) or k1 == k2:
            continue
        assert duality_square_check(k1, k2, samples=3, rng=rng)
        count += 1


class _FractionDuality:
    """The Fraction formulas for the character maps, as a reference:
    translation by n is s * (U^-T B_K^T n) mod s, and restriction to K1 <= K
    is s1 * (U1^-T C^T U^T (t / s)) mod s1 with C the K1-basis in K-coordinates."""

    def __init__(self, k):
        self.basis = k.basis()
        u, s, _ = snf([[int(x) for x in row] for row in self.basis.inv().rows])
        self.s = [s[i][i] for i in range(k.d)]
        self.u_t = Mat(u).transpose()
        self.u_inv_t = Mat(u).inv().transpose()

    def _reduce(self, w):
        out = []
        for si, wi in zip(self.s, w):
            assert (si * wi).denominator == 1
            out.append(int(si * wi) % si)
        return tuple(out)

    def translation_tuple(self, n):
        return self._reduce(self.u_inv_t.apply(self.basis.transpose().apply(n)))

    def restriction(self, sub):
        c = self.basis.inv() * sub.basis
        m = sub.u_inv_t * c.transpose() * self.u_t
        return lambda t: sub._reduce(m.apply([F(ti, si) for ti, si in zip(t, self.s)]))


def test_integer_character_maps_match_fraction_formulas():
    rng = random.Random(30)
    zd = Lattice.standard(2)
    for g in sublattices_z2(30):
        k = g.dual()
        real, ref = DualityRealization(k), _FractionDuality(k)
        assert list(real.snf_diag) == ref.s
        for _ in range(4):
            n = (rng.randint(-40, 40), rng.randint(-40, 40))
            assert real.translation_tuple(n) == ref.translation_tuple(n)
        # K1 between Z^d and K: Z^d, K, and Z^d + Z c for each basis column c of K
        subs = {zd, k} | {Lattice.from_span(2, [c, (1, 0), (0, 1)]) for c in k.basis_columns()}
        for k1 in subs:
            small, restrict = DualityRealization(k1), ref.restriction(_FractionDuality(k1))
            for t in rng.sample(real.points, min(6, len(real.points))):
                assert real.restrict_tuple(t, small) == restrict(t)


def test_restrict_tuple_rejects_non_nested():
    big = DualityRealization(Lattice.from_span(2, [(F(1, 2), 0), (0, 1)]))
    other = DualityRealization(Lattice.from_span(2, [(F(1, 3), 0), (0, 1)]))
    with pytest.raises(NotSubgroupError):
        big.restrict_tuple((1, 0), other)
    small = DualityRealization(Lattice.standard(2))
    assert big.restrict_tuple((1, 0), small) == (0, 0)


def test_duality_square_rejects_non_nested():
    k1 = Lattice.from_span(2, [(F(1, 2), 0), (0, 1)])
    k2 = Lattice.from_span(2, [(F(1, 3), 0), (0, 1)])
    with pytest.raises(NotSubgroupError):
        duality_square_check(k1, k2)


# ---------------------------------------------------------------------------
# products and factor maps


def test_product_examples():
    assert product_check(parse_group("oplus(Z[1/2])"), parse_group("oplus(Z[1/3])"), 3)
    assert product_check(HGroup.standard(1), HGroup.standard(1), 3)
    assert product_check(parse_group("oplus(Z[1/2])"), parse_group("oplus(Z[1/2])"), 3)
    assert product_check(
        parse_group("oplus(Z[1/2], Z[1/3])"), parse_group("oplus(Z[1/5])"), 3
    )


def test_factor_map_examples():
    assert factor_map_check(HGroup.standard(1), parse_group("oplus(Z[1/2])"), 3)
    assert factor_map_check(
        parse_group("oplus(Z[1/2])"), parse_group("oplus(Z[1/6])"), 4
    )
    fuchs = parse_group("oplus(Z[1/2], Z[1/3]) + gen(1/5, 1/5)")
    assert factor_map_check(parse_group("oplus(Z[1/2], Z[1/3])"), fuchs, 5)
    with pytest.raises(NotSubgroupError):
        factor_map_check(
            parse_group("oplus(Z[1/5])"), parse_group("oplus(Z[1/6])"), 3
        )


def test_act_is_reduced_translation():
    f = FiniteOdometer(Lattice.from_span(2, [(2, 1), (0, 3)]))
    for k in [(1, 0), (0, 1), (-3, 5), (2, 3)]:
        for x in f.reps:
            assert f.act(k, x) == f.reduce((k[0] + x[0], k[1] + x[1]))
