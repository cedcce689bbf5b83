import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zodom import odometer
from zodom.gdsl import parse_group
from zodom.hgroup import HGroup, is_free, member_h, tower
from zodom.linalg import Lattice, Mat, snf
from zodom.odometer import (
    DualityRealization,
    FiniteOdometer,
    NotSubgroupError,
    OdoPoint,
    TowerSystem,
    duality_check,
    duality_square_check,
    measure_cylinder,
    metric,
)
from zodom.rigid import GALLERY_TEXTS
from zodom.verify import sublattices_z2

import duality_reference as pointwise
from helpers import (
    direct_sum,
    index,
    lattice_block,
    lattice_columns,
    lattice_member,
    snf_reference,
    spectrum,
)
from test_cli import DENSE_TEXT, TOWER_DIGESTS, TOWER_TEXTS
from test_hgroup import local_groups

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


def test_reps_are_built_on_first_use():
    h = parse_group("oplus(Z[1/2], Z[1/3])")
    sys = TowerSystem(tower(h, 14))
    assert sys.quotients[-1].card == 497_664
    pt = sys.zero()
    for k in range(8):
        pt = sys.act(((1, 0), (0, 1))[k % 2], pt)
    assert all(q._reps is None for q in sys.quotients)
    f = sys.quotients[4]
    reps = f.reps
    assert reps == tuple(itertools.product(*(range(x) for x in f.lattice.diagonal())))
    assert len(reps) == f.card and f.reps is reps
    # a quotient of index 10^12 is only ever reduced into
    big = FiniteOdometer(Lattice.from_span(2, [(10**6, 0), (0, 10**6)]))
    assert big.card == 10**12
    assert big.reduce((10**6 + 3, -1)) == (3, 10**6 - 1)
    assert big.act((1, 1), (10**6 - 1, 0)) == (0, 1)
    assert big._reps is None


def _full_walk_reduce(mat, v):
    """Box representative of v by the walk over every entry of each column."""
    w = list(v)
    for j in range(len(w)):
        q = w[j] // mat[j][j]
        for i in range(j, len(w)):
            w[i] -= q * mat[i][j]
    return tuple(w)


def test_unit_step_tables_match_reduce():
    from zodom.verify import TORSION_QUOTIENTS

    rng = random.Random(9)
    lats = [Lattice.from_span(2, rows) for rows in TORSION_QUOTIENTS]
    lats.append(Lattice.from_span(3, [(3, 2, 1), (0, 2, 3), (0, 0, 4)]))
    lats += [Lattice.from_span(1, [(m,)]) for m in (1, 2, 7)]
    # large entries below the diagonal: a wrap in one coordinate cascades
    # into negative later coordinates, which the walk carries on
    for _ in range(12):
        diag = [rng.randint(2, 5) for _ in range(3)]
        cols = [
            tuple(diag[j] if i == j else rng.randint(-60, 60) if i > j else 0 for i in range(3))
            for j in range(3)
        ]
        lats.append(Lattice.from_span(3, cols))
    # a pivot h_i = 1: every coset wraps in coordinate i
    lats += [
        Lattice.from_span(2, [(1, 4), (0, 5)]),
        Lattice.from_span(3, [(3, 0, 0), (0, 1, 2), (0, 0, 4)]),
        Lattice.from_span(3, [(1, 5, 7), (0, 1, 3), (0, 0, 6)]),
    ]
    assert sum(1 in lat.diagonal() for lat in lats) >= 4
    for lat in lats:
        f = FiniteOdometer(lat)
        steps = f.steps
        assert len(steps) == f.d
        for i, table in enumerate(steps):
            assert list(table) == list(f.reps)
            for x in f.reps:
                y = list(x)
                y[i] += 1
                assert table[x] == f.reduce(y) == _full_walk_reduce(lat.mat, y)
        assert f.steps is steps
        for _ in range(50):
            v = [rng.randint(-100, 100) for _ in range(f.d)]
            assert f.reduce(v) == _full_walk_reduce(lat.mat, v)


def test_tower_walks_leave_step_tables_unbuilt():
    h = parse_group("oplus(Z[1/2], Z[1/3]) + gen(1/5, 1/5)")
    sys = TowerSystem(tower(h, 6))
    pt = sys.zero()
    for k in range(12):
        pt = sys.act(((1, 0), (0, 1))[k % 2], pt)
    pt = sys.act((-3, 2), pt)
    assert all(q._steps is None and q._reps is None for q in sys.quotients)


def test_random_point_matches_choice_over_reps():
    sys = TowerSystem(tower(parse_group("oplus(Z[1/2], Z[1/3]) + gen(1/5, 1/5)"), 3))
    deep = sys.quotients[-1]
    for seed in range(21):
        rng, ref = random.Random(seed), random.Random(seed)
        assert sys.random_point(rng) == sys.point(ref.choice(deep.reps))
        assert rng.random() == ref.random()  # the stream is not shifted


def test_odo_point_checks_its_cosets():
    # G_1 = Z^2, G_2 = 2Z + Z and G_3 = 2Z + 3Z: boxes {0}, {0,1} x {0} and
    # {0,1} x {0,1,2}
    sys = TowerSystem(tower(parse_group(GALLERY_TEXTS["class35_1a"]), 3))
    assert OdoPoint(sys, ((0, 0), (1, 0), (1, 2))) == sys.point((1, 2))
    with pytest.raises(ValueError, match="coset is not a box representative"):
        OdoPoint(sys, ((0, 0), (1, 0), (3, 0)))
    with pytest.raises(ValueError, match="cosets are not coherent under the quotient maps"):
        OdoPoint(sys, ((0, 0), (1, 0), (0, 2)))


def test_random_point_builds_no_transversal():
    sys = TowerSystem(tower(parse_group("oplus(Z[1/2], Z[1/3])"), 14))
    pt = sys.random_point(random.Random(5))
    assert len(pt.cosets) == 14
    assert all(q._reps is None for q in sys.quotients)


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
        assert not any(lattice_member(g_last, v) for v in small)
    stuck = parse_group("oplus(Z[1/2], Z)")
    assert not is_free(stuck)
    g_last = tower(stuck, 8).duals[-1]
    assert lattice_member(g_last, (0, 1))  # survives at every depth


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_examples():
    assert spectrum(parse_group("oplus(Z[1/2])"), 4) == [
        (F(0),),
        (F(1, 4),),
        (F(1, 2),),
        (F(3, 4),),
    ]
    assert spectrum(HGroup(2, ()), 5) == [(F(0), F(0))]
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


def _spectrum_reference(h, height):
    """The grid: every tuple of reduced fractions whose denominators are
    <= height and products of support primes, kept if it lies in H."""
    support = h.support()
    line = [F(0)]
    for den in range(2, height + 1):
        rest = den
        for p in support:
            while rest % p == 0:
                rest //= p
        if rest != 1:
            continue
        for num in range(1, den):
            if gcd(num, den) == 1:
                line.append(F(num, den))
    out = [v for v in itertools.product(sorted(line), repeat=h.d) if member_h(v, h)]
    out.sort()
    return out


def test_spectrum_matches_unpruned_brute_force():
    # the support of the Z[1/5] group skips 3, the first prime of the others;
    # the dense group has every 2-, 3- and 5-component up to the height, and
    # in the last group 7 appears only inside the composite 21
    texts = list(GALLERY_TEXTS.values()) + [
        "oplus(Z[1/2], Z[1/3]) + gen(2/5, 3/5)",
        "oplus(Z[1/2], Z[1/5]) + gen(1/7, 3/7)",
        TOWER_TEXTS["d3"],
        "oplus(Z[1/6], Z[1/6]) + gen(1/5, 0) + gen(0, 1/5)",
        "oplus(Z[1/3], Z[1/21])",
    ]
    for text in texts:
        h = parse_group(text)
        for height in range(1, 9):
            full_line = sorted({F(n, q) for q in range(1, height + 1) for n in range(q)})
            expected = sorted(
                v for v in itertools.product(full_line, repeat=h.d) if member_h(v, h)
            )
            assert spectrum(h, height) == expected, (text, height)
            assert _spectrum_reference(h, height) == expected, (text, height)


@given(st.integers(1, 3), st.data())
@settings(max_examples=200, deadline=None)
def test_spectrum_matches_grid_reference(d, data):
    h = data.draw(local_groups(d))
    height = data.draw(st.integers(1, 6 if d == 3 else 10))
    assert spectrum(h, height) == _spectrum_reference(h, height)


@given(st.integers(1, 3), st.data())
@settings(max_examples=200, deadline=None)
def test_spectrum_cap_of_its_own_length_is_tight(d, data):
    # with n eigenvalues, a cap of n returns all n and a cap of n - 1 refuses
    h = data.draw(local_groups(d))
    height = data.draw(st.integers(1, 10))
    n = len(spectrum(h, height))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(odometer, "SPECTRUM_MAX_COUNT", n)
        assert len(spectrum(h, height)) == n
        mp.setattr(odometer, "SPECTRUM_MAX_COUNT", n - 1)
        with pytest.raises(odometer.SpectrumTooLargeError):
            spectrum(h, height)


PINNED_SPECTRA = [c.split()[1:] for c, _ in TOWER_DIGESTS if c.startswith("spectrum ")]


@pytest.mark.parametrize("name, _, height", PINNED_SPECTRA, ids=[n for n, *_ in PINNED_SPECTRA])
def test_spectrum_class_count_on_pinned_cases(name, _, height):
    texts = {**GALLERY_TEXTS, **TOWER_TEXTS, "dense": DENSE_TEXT}
    assert len(spectrum(parse_group(texts[name]), int(height))) <= 4624 < odometer.SPECTRUM_MAX_COUNT


def test_spectrum_cap_boundary(monkeypatch):
    # up to height 16: 16 * 9 eigenvalues without a 5-component, and
    # 4 * 2 * 3 with one: j/5 (j = 1..4), a 2-part 0 or 1/2 in x_1 and a
    # 3-part 0, 1/3 or 2/3 in x_2
    h = parse_group("oplus(Z[1/2], Z[1/3]) + gen(1/5, 1/5)")
    n = len(spectrum(h, 16))
    monkeypatch.setattr(odometer, "SPECTRUM_MAX_COUNT", n)
    assert len(spectrum(h, 16)) == n
    monkeypatch.setattr(odometer, "SPECTRUM_MAX_COUNT", n - 1)
    with pytest.raises(odometer.SpectrumTooLargeError, match="more than"):
        spectrum(h, 16)


@pytest.mark.parametrize(
    "text, cap",
    [
        # Lambda_2 / 16 Z^2 alone has 16^2 elements at height 16
        ("oplus(Z[1/2], Z[1/2])", 255),
        # 1 + 15 + 8 eigenvalues with at most one nonzero component
        ("oplus(Z[1/2], Z[1/3])", 23),
    ],
)
def test_spectrum_refuses_from_the_prime_counts_before_enumerating(monkeypatch, text, cap):
    def no_enumeration(d, den, rows):
        raise AssertionError("a component was enumerated")

    monkeypatch.setattr(odometer, "Lattice", no_enumeration)
    monkeypatch.setattr(odometer, "SPECTRUM_MAX_COUNT", cap)
    with pytest.raises(odometer.SpectrumTooLargeError):
        spectrum(parse_group(text), 16)


# ---------------------------------------------------------------------------
# duality


def test_duality_examples():
    assert duality_check(Lattice.from_span(2, [(2, 0), (0, 3)]))
    assert duality_check(Lattice.standard(2))


def test_sublattices_z2_are_canonical_hnfs():
    # distinct canonical sublattices of index <= 50, as many as there are
    # (sum of sigma(m)), so every one of them, in order of index
    lats = sublattices_z2(50)
    assert len(lats) == sum(a for m in range(1, 51) for a in range(1, m + 1) if m % a == 0)
    assert len(lats) == len(set(lats)) == 2080
    for g in lats:
        assert g == Lattice.from_span(2, list(zip(*g.mat))), g
    assert [g.det() for g in lats] == sorted(g.det() for g in lats) and lats[-1].det() == 50


def test_duality_all_small_indices():
    for g in sublattices_z2(20):
        assert duality_check(g)


def test_duality_square_example():
    g1 = Lattice.from_span(2, [(2, 0), (0, 1)])
    g2 = Lattice.from_span(2, [(2, 0), (0, 3)])
    assert duality_square_check(g1, g2)


def test_duality_square_nested_pairs():
    rng = random.Random(9)
    count = 0
    lats = sublattices_z2(16)
    while count < 10:
        g2 = rng.choice(lats)
        g1 = rng.choice(lats)
        if not g1.contains(g2) or g1 == g2:
            continue
        assert duality_square_check(g1, g2)
        count += 1


def _random_hnf_lattice(rng, d):
    rows = [
        tuple(rng.randint(1, 5) if i == j else rng.randint(-7, 7) if i > j else 0 for i in range(d))
        for j in range(d)
    ]
    return Lattice.from_span(d, rows)


def test_index_perm_matches_act():
    rng = random.Random(12)
    for _ in range(120):
        q = FiniteOdometer(_random_hnf_lattice(rng, rng.randint(1, 3)))
        pos = {x: k for k, x in enumerate(q.reps)}
        for _ in range(3):
            n = tuple(rng.randint(-25, 6) for _ in range(q.d))
            assert pointwise.index_perm(q, n) == [pos[q.act(n, x)] for x in q.reps], (q, n)


def test_image_indices_match_per_character_conjugacy():
    rng = random.Random(15)
    for d in (1, 2, 3):
        for _ in range(40):
            real = DualityRealization(_random_hnf_lattice(rng, d))
            pos = {x: k for k, x in enumerate(real.quotient.reps)}
            expected = [pos[real.to_quotient(t)] for t in pointwise.points(real)]
            assert pointwise.image_indices(real) == expected, real.quotient


def test_duality_checks_in_d1_and_d3():
    rng = random.Random(16)
    for m in range(1, 13):
        g = Lattice.from_span(1, [(m,)])
        assert duality_check(g)
        assert duality_square_check(g, Lattice.from_span(1, [(3 * m,)]))
    g = Lattice.from_span(3, [(3, 2, 1), (0, 2, 3), (0, 0, 4)])
    assert duality_check(g)
    assert duality_square_check(Lattice.standard(3), g)
    for _ in range(15):
        g1 = _random_hnf_lattice(rng, 3)
        assert duality_check(g1)
        # 2 G1 plus 3h e_3, h the last pivot: between 2 G1 and G1, of index 4
        cols = [[2 * x for x in c] for c in zip(*g1.mat)] + [(0, 0, 3 * g1.mat[2][2])]
        g2 = Lattice.from_span(3, cols)
        assert index(g2, g1) == 4
        assert duality_square_check(g1, g2)
    with pytest.raises(NotSubgroupError):
        duality_square_check(Lattice.from_span(3, [(2, 0, 0), (0, 1, 0), (0, 0, 1)]), g)


def test_certificates_match_per_point_reference():
    rng = random.Random(17)
    lats = (
        sublattices_z2(50)
        + [Lattice.from_span(1, [(m,)]) for m in range(1, 41)]
        + [_random_hnf_lattice(rng, 3) for _ in range(40)]
    )
    for g in lats:
        assert duality_check(g) and pointwise.duality_check(g), g
    small = sublattices_z2(16)
    pairs = [(g1, g2) for g1 in small for g2 in small if g1.contains(g2)]
    assert len(pairs) == 929
    for g1, g2 in pairs:
        assert duality_square_check(g1, g2) and pointwise.duality_square_check(g1, g2), (g1, g2)


_DUALITY_G = Lattice.from_span(2, [(2, 1), (0, 3)])


def test_duality_check_fails_on_swapped_images(monkeypatch):
    assert duality_check(_DUALITY_G)
    real = DualityRealization(_DUALITY_G)
    points = pointwise.points(real)
    a, b = real.to_quotient(points[1]), real.to_quotient(points[2])
    honest = DualityRealization.to_quotient

    def swapped(self, t):
        x = honest(self, t)
        return b if x == a else a if x == b else x

    monkeypatch.setattr(DualityRealization, "to_quotient", swapped)
    assert not duality_check(_DUALITY_G)
    assert not pointwise.duality_check(_DUALITY_G)


def test_duality_check_fails_on_shifted_translation(monkeypatch):
    honest = DualityRealization.translation_tuple

    def off_by_one(self, n):
        t = honest(self, n)
        return t[:-1] + ((t[-1] + 1) % self.snf_diag[-1],)

    monkeypatch.setattr(DualityRealization, "translation_tuple", off_by_one)
    assert not duality_check(_DUALITY_G)
    assert not pointwise.duality_check(_DUALITY_G)


def test_duality_check_fails_on_rotated_index_perm(monkeypatch):
    honest = pointwise.index_perm

    def rotated(q, n):
        perm = honest(q, n)
        return perm[1:] + perm[:1]

    monkeypatch.setattr(pointwise, "index_perm", rotated)
    assert not pointwise.duality_check(_DUALITY_G)


def test_duality_square_check_fails_on_perturbed_restriction(monkeypatch):
    g1 = Lattice.from_span(2, [(2, 0), (0, 1)])
    g2 = Lattice.from_span(2, [(2, 0), (0, 3)])
    assert duality_square_check(g1, g2)
    honest = DualityRealization.restrict_tuple

    def perturbed(self, t, sub):
        r = honest(self, t, sub)
        return r[:-1] + ((r[-1] + 1) % sub.snf_diag[-1],)

    monkeypatch.setattr(DualityRealization, "restrict_tuple", perturbed)
    assert not duality_square_check(g1, g2)
    assert not pointwise.duality_square_check(g1, g2)


def test_duality_square_fails_on_shifted_translation_of_g1(monkeypatch):
    g1 = Lattice.from_span(2, [(2, 0), (0, 1)])
    g2 = Lattice.from_span(2, [(2, 0), (0, 3)])
    honest = DualityRealization.translation_tuple

    def off_by_one_on_g1(self, n):
        t = honest(self, n)
        if self.quotient.lattice != g1:
            return t
        return t[:-1] + ((t[-1] + 1) % self.snf_diag[-1],)

    monkeypatch.setattr(DualityRealization, "translation_tuple", off_by_one_on_g1)
    assert not duality_square_check(g1, g2)
    assert not pointwise.duality_square_check(g1, g2)


def test_duality_certificate_rejects_conjugacy_off_the_characters(monkeypatch):
    # c_0 += e_0 where s_0 = 1: to_quotient no longer vanishes on the
    # character e_0 = 0, which the certificate checks and the per-point
    # walk, reading c_j only for s_j > 1, never sees
    def perturb(real):
        assert real.snf_diag[0] == 1
        real._v_inv_t_rows[0][0] += 1

    _patched_init(monkeypatch, perturb)
    assert not duality_check(_DUALITY_G)
    assert pointwise.duality_check(_DUALITY_G)


def _mutant_lattices():
    """Proper sublattices in d = 1, 2 and 3, with a unit vector outside each."""
    rng = random.Random(18)
    lats = [Lattice.from_span(1, [(m,)]) for m in range(2, 7)]
    lats += [g for g in sublattices_z2(8) if g.det() != 1]
    lats += [_random_hnf_lattice(rng, 3) for _ in range(12)]
    for g in lats:
        q = FiniteOdometer(g)
        outside = [e for e in pointwise.unit_translations(g.d) if any(q.reduce(e))]
        if outside:
            yield g, outside[0]


def _patched_init(monkeypatch, mutate):
    honest = DualityRealization.__init__

    def init(self, g):
        honest(self, g)
        mutate(self)

    monkeypatch.setattr(DualityRealization, "__init__", init)


def test_duality_passes_shift_rows_changed_by_multiples_of_s(monkeypatch):
    # row i of the translation map is read mod s_i, so s_i e_0 is invisible
    def shift(real):
        for row, si in zip(real._shift_rows, real.snf_diag):
            row[0] += si

    _patched_init(monkeypatch, shift)
    for g, _ in _mutant_lattices():
        assert duality_check(g) and pointwise.duality_check(g), g
    assert duality_square_check(Lattice.standard(2), _DUALITY_G)
    assert pointwise.duality_square_check(Lattice.standard(2), _DUALITY_G)


def test_duality_fails_on_perturbed_conjugacy_column(monkeypatch):
    # c_d += e for a unit vector e outside G; s_d > 1 since G != Z^d
    count = 0
    for g, e in _mutant_lattices():

        def perturb(real, e=e):
            for row, x in zip(real._v_inv_t_rows, e):
                row[-1] += x

        with monkeypatch.context() as m:
            _patched_init(m, perturb)
            assert not duality_check(g), g
            assert not pointwise.duality_check(g), g
        count += 1
    assert count > 20


def test_duality_fails_on_doubled_invariant_factor(monkeypatch):
    # phi stays additive, well defined and onto; only the count of
    # characters tells that it is not injective
    def double(real):
        real.snf_diag = (*real.snf_diag[:-1], 2 * real.snf_diag[-1])

    _patched_init(monkeypatch, double)
    for g, _ in _mutant_lattices():
        assert not duality_check(g), g
        assert not pointwise.duality_check(g), g


def test_duality_square_fails_on_perturbed_restriction_row(monkeypatch):
    # R t / L gains t_d in its last coordinate: visible once s1_d, s2_d > 1
    honest = DualityRealization._restriction

    def perturbed(self, sub):
        rows, den = honest(self, sub)
        return [*rows[:-1], [*rows[-1][:-1], rows[-1][-1] + den]], den

    monkeypatch.setattr(DualityRealization, "_restriction", perturbed)
    lats = [g for g in sublattices_z2(12) if g.det() != 1]
    pairs = [(g1, g2) for g1 in lats for g2 in lats if g1.contains(g2)]
    assert len(pairs) > 100
    for g1, g2 in pairs:
        assert not duality_square_check(g1, g2), (g1, g2)
        assert not pointwise.duality_square_check(g1, g2), (g1, g2)


def test_duality_square_fails_on_perturbed_conjugacy_of_g2(monkeypatch):
    # the last conjugacy column of G2 gains a unit vector outside G1: the
    # restriction and both translations are untouched, so only the square
    # itself can fail
    count = 0
    for g1, e in _mutant_lattices():
        if g1.d != 2:
            continue
        g2 = Lattice.from_span(2, [[2 * x for x in c] for c in zip(*g1.mat)])

        def perturb(real, g2=g2, e=e):
            if real.quotient.lattice == g2:
                for row, x in zip(real._v_inv_t_rows, e):
                    row[-1] += x

        with monkeypatch.context() as m:
            _patched_init(m, perturb)
            assert not duality_square_check(g1, g2), g1
            assert not pointwise.duality_square_check(g1, g2), g1
        count += 1
    assert count > 10


class _FractionDuality:
    """The Fraction formulas for the character maps of K = G*, as a
    reference: with B_K = B_G^-T, translation by n is s * (U^-T B_K^T n) mod s,
    and restriction to K1 <= K is s1 * (U1^-T C^T U^T (t / s)) mod s1 with C
    the K1-basis in K-coordinates."""

    def __init__(self, g):
        self.basis = g.basis().transpose().inv()
        u, s, v = snf([[int(x) for x in row] for row in self.basis.inv().rows])
        self.s = [s[i][i] for i in range(g.d)]
        self.u_t = Mat(u).transpose()
        self.u_inv_t = Mat(u).inv().transpose()
        # the conjugacy (S^-1 U B_G^T)^T = V^-T and the translation rows V^T
        s_inv = Mat([[si * (i == j) for j, si in enumerate(self.s)] for i in range(g.d)]).inv()
        self.v_inv_t = (s_inv * Mat(u) * self.basis.inv()).transpose()
        self.v_t = Mat(v).transpose()

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
        real, frac = DualityRealization(g), _FractionDuality(g)
        assert list(real.snf_diag) == frac.s
        for _ in range(4):
            n = (rng.randint(-40, 40), rng.randint(-40, 40))
            assert real.translation_tuple(n) == frac.translation_tuple(n)
        # K1 between Z^d and K = G*: Z^d, K, and Z^d + Z c for each basis
        # column c of K, each given by its dual G1 between G and Z^d
        cols = lattice_columns(g.dual())
        subs = {zd, g} | {Lattice.from_span(2, [c, (1, 0), (0, 1)]).dual() for c in cols}
        for g1 in subs:
            small, restrict = DualityRealization(g1), frac.restriction(_FractionDuality(g1))
            points = pointwise.points(real)
            for t in rng.sample(points, min(6, len(points))):
                assert real.restrict_tuple(t, small) == restrict(t)


def _old_path_maps(g):
    """translation_tuple and to_quotient as computed before the realization
    was built in one pass: V^-T as the transpose of U . B_G^T with its
    columns divided by s, from the closure-form Smith form."""
    m = [list(col) for col in zip(*g.mat)]
    u, s, v = snf_reference(m)
    diag = [s[i][i] for i in range(g.d)]
    um = [[sum(x * y for x, y in zip(row, col)) for col in zip(*m)] for row in u]
    a = [list(col) for col in zip(*um)]
    assert not any(x % q for row in a for x, q in zip(row, diag))
    v_inv_t = [[x // q for x, q in zip(row, diag)] for row in a]
    shift = [list(col) for col in zip(*v)]
    q = FiniteOdometer(g)

    def translation_tuple(n):
        return tuple(sum(r * x for r, x in zip(row, n)) % si for row, si in zip(shift, diag))

    def to_quotient(t):
        return q.reduce([sum(r * x for r, x in zip(row, t)) for row in v_inv_t])

    return translation_tuple, to_quotient


def test_realization_data_matches_fraction_formulas_and_old_path():
    rng = random.Random(31)
    lats = (
        sublattices_z2(50)
        + [Lattice.from_span(1, [(m,)]) for m in range(1, 41)]
        + [_random_hnf_lattice(rng, 3) for _ in range(40)]
    )
    for g in lats:
        real, frac = DualityRealization(g), _FractionDuality(g)
        assert real._v_inv_t_rows == [list(row) for row in frac.v_inv_t.rows], g
        assert real._shift_rows == [list(row) for row in frac.v_t.rows], g
        translation_tuple, to_quotient = _old_path_maps(g)
        units = [tuple(int(i == j) for j in range(g.d)) for i in range(g.d)]
        for e in units:
            assert real.to_quotient(e) == to_quotient(e), g
            assert real.translation_tuple(e) == translation_tuple(e), g


def test_realization_rejects_inconsistent_smith_transforms(monkeypatch):
    # U's last row gains its first: <u_d, row k of B_G> / s_d stops being
    # exact once s_1 < s_d.  (Doubling a row of U would stay exact.)
    honest = odometer.snf

    def inconsistent(rows):
        u, s, v = honest(rows)
        return [*u[:-1], [x + y for x, y in zip(u[-1], u[0])]], s, v

    lats = [g for g in sublattices_z2(12) if len(set(DualityRealization(g).snf_diag)) > 1]
    assert len(lats) > 100
    monkeypatch.setattr(odometer, "snf", inconsistent)
    for g in lats:
        with pytest.raises(ArithmeticError, match="Smith transforms are inconsistent"):
            DualityRealization(g)


def test_restrict_tuple_rejects_non_nested():
    big = DualityRealization(Lattice.from_span(2, [(2, 0), (0, 1)]))
    other = DualityRealization(Lattice.from_span(2, [(3, 0), (0, 1)]))
    with pytest.raises(NotSubgroupError):
        big.restrict_tuple((1, 0), other)
    small = DualityRealization(Lattice.standard(2))
    assert big.restrict_tuple((1, 0), small) == (0, 0)


def test_duality_square_rejects_non_nested():
    g1 = Lattice.from_span(2, [(2, 0), (0, 1)])
    g2 = Lattice.from_span(2, [(3, 0), (0, 1)])
    with pytest.raises(NotSubgroupError):
        duality_square_check(g1, g2)


# ---------------------------------------------------------------------------
# products


PRODUCT_SAMPLE_CAP = 512  # most point pairs of one level that _product_check acts on


def _product_check(h1, h2, depth):
    """The quotients of H1 + H2 split equivariantly as products, level by level."""
    t12 = tower(direct_sum(h1, h2), depth)
    t1, t2 = tower(h1, depth), tower(h2, depth)
    d1 = h1.d
    for n in range(depth):
        if t12.duals[n] != lattice_block(t1.duals[n], t2.duals[n]):
            return False
        f12 = FiniteOdometer(t12.duals[n])
        f1 = FiniteOdometer(t1.duals[n])
        f2 = FiniteOdometer(t2.duals[n])
        pairs = [(a, b) for a in f1.reps for b in f2.reps]
        if {a + b for a, b in pairs} != set(f12.reps):
            return False
        rng = random.Random(n)
        if len(pairs) > PRODUCT_SAMPLE_CAP:
            pairs = [rng.choice(pairs) for _ in range(PRODUCT_SAMPLE_CAP)]
        for a, b in pairs:
            k = tuple(rng.randint(-5, 5) for _ in range(f12.d))
            joint = f12.act(k, a + b)
            split = f1.act(k[:d1], a) + f2.act(k[d1:], b)
            if joint != split:
                return False
    return True


def test_product_examples():
    assert _product_check(parse_group("oplus(Z[1/2])"), parse_group("oplus(Z[1/3])"), 3)
    assert _product_check(HGroup(1, ()), HGroup(1, ()), 3)
    assert _product_check(parse_group("oplus(Z[1/2])"), parse_group("oplus(Z[1/2])"), 3)
    assert _product_check(
        parse_group("oplus(Z[1/2], Z[1/3])"), parse_group("oplus(Z[1/5])"), 3
    )


def test_act_is_reduced_translation():
    f = FiniteOdometer(Lattice.from_span(2, [(2, 1), (0, 3)]))
    for k in [(1, 0), (0, 1), (-3, 5), (2, 3)]:
        for x in f.reps:
            assert f.act(k, x) == f.reduce((k[0] + x[0], k[1] + x[1]))
