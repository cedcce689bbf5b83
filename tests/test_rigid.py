import random
from math import floor

import pytest

from zodom.linalg import Lattice, Mat, is_prime
from zodom.odometer import FiniteOdometer
from zodom.rigid import (
    GALLERY_TEXTS,
    GALLERY_VERDICTS,
    RigidLevel,
    RigidProgram,
    _coset_l1_min,
    _exercise4,
    dual_ball_trivial,
    gallery,
    l1_operator_norm,
    nonzero_l1_ball,
    verify_cyclicity,
    verify_exercises,
    verify_torsion_bound,
)

from helpers import index


@pytest.fixture(scope="module")
def prog():
    return RigidProgram().extend(3)


def test_first_level_matrix(prog):
    lvl = prog.levels[0]
    assert (lvl.a, lvl.b, lvl.det, lvl.k_constant) == (3, 4, 11, 3)
    assert prog.extend(1).levels[0].matrix() == Mat([[3, 1], [1, 4]])


def test_k_constant_recursion(prog):
    # K_2 = 2 * ||alpha_1|| with the l1 operator norm max(4, 5) = 5
    assert l1_operator_norm(prog.extend(1).levels[0].matrix()) == 5
    assert prog.k_constant(2) == 10
    assert prog.levels[1].a == 10
    assert prog.k_constant(3) == 3 * 5 * l1_operator_norm(prog.extend(2).levels[1].matrix())


def test_determinants_prime(prog):
    for lvl in prog.levels:
        assert is_prime(lvl.det)
        assert lvl.det == lvl.a * lvl.b - 1
        assert lvl.a >= lvl.k_constant and lvl.b >= lvl.k_constant
    # distinct primes, so the level indices are pairwise coprime
    dets = [lvl.det for lvl in prog.levels]
    assert len(set(dets)) == len(dets)


def _product(prog, n):
    """P_n = alpha_1 ... alpha_n."""
    prod = Mat.identity(2)
    for k in range(1, n + 1):
        prod = prod * prog.extend(k).levels[k - 1].matrix()
    return prod


def test_levels_nested_with_prime_index(prog):
    prev = Lattice.standard(2)
    for n in range(1, 4):
        # H_n = Z^2 P_n^-1 in rows, so its column basis is P_n^-T
        basis = _product(prog, n).transpose().inv()
        lvl = Lattice(2, basis.den, basis.num)
        assert lvl.contains(prev)
        assert index(prev, lvl) == prog.levels[n - 1].det
        prev = lvl


def test_exercises_pass(prog):
    for n in (1, 2, 3):
        report = verify_exercises(prog, n)
        for item in range(1, 6):
            assert report[f"item{item}"], (n, item)
        # the as-written item 2 vectors fail; the adjugate-row reading passes
        assert report["item2_deviation"]


def test_exercise4_endpoints_match_loop():
    def loop(a, b, det):
        ok = all(b <= k * b <= det - b + 1 for k in range(1, a))
        return ok and all(a <= k * a <= det - a + 1 for k in range(1, b))

    outcomes = set()
    for a in range(-2, 60):
        for b in range(-2, 60):
            for det in {a * b - 1, a * b + 1, a + b, 2 * max(a, b), max(a, b) ** 2 // 3}:
                outcomes.add(loop(a, b, det))
                assert _exercise4(a, b, det) == loop(a, b, det), (a, b, det)
    assert outcomes == {True, False}


def test_exercise2_adjugate_row_membership(prog):
    # (1/11)(4,-1) * alpha_1 lands in Z^2; the as-written (1/11)(3,-1) does not
    from fractions import Fraction as F

    alpha = prog.extend(1).levels[0].matrix()

    def row_image(v):
        return tuple(sum(v[i] * alpha.rows[i][j] for i in range(2)) for j in range(2))

    assert all(x.denominator == 1 for x in row_image((F(4, 11), F(-1, 11))))
    assert any(x.denominator != 1 for x in row_image((F(3, 11), F(-1, 11))))


def test_torsion_bound(prog):
    for n in (1, 2, 3):
        assert verify_torsion_bound(prog, n)


def coset_l1_min_by_enumeration(alpha: Mat) -> int:
    """det * min over the nonzero cosets x + Z^2 of Z^2 alpha^-1 / Z^2 of
    sum_i dist(x_i, Z), each coset reached as z alpha^-1 for a representative
    z of Z^2 / Z^2 alpha, in Fractions."""
    det = abs(int(alpha.det()))
    inv = alpha.inv()
    best = None
    for z in FiniteOdometer(Lattice(2, alpha.den, zip(*alpha.num))).reps:
        x = [sum(z[i] * inv.rows[i][j] for i in range(2)) for j in range(2)]
        if all(t.denominator == 1 for t in x):
            continue
        norm = sum(min(t - floor(t), floor(t) + 1 - t) for t in x)
        best = norm if best is None else min(best, norm)
    assert (det * best).denominator == 1
    return int(det * best)


def coset_l1_min_by_scan(a: int, det: int) -> int:
    """The least c(j) + c(j a) over 1 <= j < det, c(t) the distance of t to
    det Z, scanned in j: the terms for j and det - j agree, so j <= det / 2,
    where c(j) = j, and no j >= best can improve on best."""
    best = det
    t = 0
    for j in range(1, det // 2 + 1):
        if j >= best:
            break
        t = (t + a) % det
        best = min(best, j + min(t, det - t))
    return best


def test_coset_l1_min_matches_enumeration(prog):
    rng = random.Random(2033)
    pairs = [(lvl.a, lvl.b) for lvl in prog.levels]
    while len(pairs) < len(prog.levels) + 40:
        a, b = rng.randint(2, 60), rng.randint(2, 60)
        if is_prime(a * b - 1):
            pairs.append((a, b))
    for a, b in pairs:
        expected = coset_l1_min_by_enumeration(Mat([[a, 1], [1, b]]))
        assert _coset_l1_min(a, a * b - 1) == expected, (a, b)
        assert coset_l1_min_by_scan(a, a * b - 1) == expected, (a, b)
    # On that family the minimum is 1 + min(a, b) (but for a = b = 2), at
    # (-1, a) or (b, -1), which leaves most of the kernel untested.  Any alpha
    # of prime determinant p gives a cyclic Z^2 alpha^-1 / Z^2 generated by a
    # row (u, v) / p of adj(alpha) / p, and for u prime to p by (-1, a) / p
    # with a = -v / u mod p.
    tested = 0
    while tested < 60:
        rows = [[rng.randint(-12, 12) for _ in range(2)] for _ in range(2)]
        (w, x), (y, z) = rows
        p = abs(w * z - x * y)
        if not is_prime(p) or z % p == 0:
            continue
        a = x * pow(z, -1, p) % p  # adjugate row (z, -x) = -z (-1, x / z)
        expected = coset_l1_min_by_enumeration(Mat(rows))
        assert _coset_l1_min(a, p) == expected == coset_l1_min_by_scan(a, p), rows
        tested += 1


def test_coset_l1_min_matches_scan():
    # The reduced basis b1, b2 alone misses the minimum on about 2 % of
    # random pairs, where it lies only at b1 +- b2.
    pairs = [(lvl.a, lvl.det) for lvl in RigidProgram().extend(4).levels]
    rng = random.Random(4051)
    while len(pairs) < 4 + 2000:
        det = rng.randint(2, 10**6)
        if is_prime(det):
            pairs.append((rng.randrange(1, det), det))
    for a, det in pairs:
        assert _coset_l1_min(a, det) == coset_l1_min_by_scan(a, det), (a, det)


def test_deep_levels():
    # det_5 = 5688402457309025999 is out of reach of trial division
    prog = RigidProgram().extend(5)
    lvl = prog.levels[4]
    assert (lvl.a, lvl.b, lvl.det) == (2385037200, 2385037205, 5688402457309025999)
    minima = [_coset_l1_min(lvl.a, lvl.det) for lvl in prog.levels]
    assert minima == [4, 11, 181, 43681, 2385037201]
    # levels 4 and 5 clear their constants K_n = a by one
    assert [lvl.k_constant for lvl in prog.levels] == [3, 10, 180, 43680, 2385037200]
    assert verify_torsion_bound(prog, 4) and verify_torsion_bound(prog, 5)


def test_cyclicity_small_vectors(prog):
    ys = [
        (x, y)
        for x in range(-3, 4)
        for y in range(-3, 4)
        if 0 < abs(x) + abs(y) <= 3
    ]
    for y in ys:
        assert verify_cyclicity(prog, y, 3)


def test_cyclicity_generator_stabilizes(prog):
    # the generator of H_n n Q y is already determined at level |y|_1
    assert verify_cyclicity(prog, (1, 0), 3)
    assert verify_cyclicity(prog, (1, 1), 3)
    with pytest.raises(ValueError):
        verify_cyclicity(prog, (0, 0), 3)
    with pytest.raises(ValueError):
        verify_cyclicity(prog, (2, 2), 3)  # level below |y|_1


def test_nonzero_l1_ball_is_the_sorted_grid_filter():
    # the order the rigid checks print in: x-major, as sorted() gives
    for n in range(6):
        grid = [(x, y) for x in range(-n, n + 1) for y in range(-n, n + 1)]
        ball = nonzero_l1_ball(n)
        assert ball == sorted(v for v in grid if 0 < abs(v[0]) + abs(v[1]) <= n)
        assert len(ball) == 2 * n * (n + 1)


def test_dual_ball_trivial(prog):
    for n in (1, 2, 3):
        assert dual_ball_trivial(prog, n)


def _dual_ball_reference(prog, n):
    """No nonzero x with |x|_1 <= n and P_n^-1 x integral, in Fractions."""
    inv = _product(prog, n).inv()
    return not any(
        (x1, x2) != (0, 0) and all(y.denominator == 1 for y in inv.apply((x1, x2)))
        for x1 in range(-n, n + 1)
        for x2 in range(-n, n + 1)
        if abs(x1) + abs(x2) <= n
    )


def test_dual_ball_matches_fraction_reference():
    prog = RigidProgram().extend(5)
    for n in range(1, 6):
        assert dual_ball_trivial(prog, n) and _dual_ball_reference(prog, n)
    # alpha = [[2, 1], [1, 1]] has det 1: the dual lattice is Z^2 itself
    unimodular = RigidProgram()
    unimodular.levels = [RigidLevel(2, 1, 1, 1)]
    assert not dual_ball_trivial(unimodular, 1) and not _dual_ball_reference(unimodular, 1)


def test_gallery_contents():
    g = gallery()
    assert set(g) == set(GALLERY_TEXTS)
    assert g["class35_4a"].d == 2 and g["class35_4b"].d == 1
    names_in_verdicts = {n for a, b, _ in GALLERY_VERDICTS for n in (a, b)}
    assert names_in_verdicts <= set(g)
