import pytest

from zodom.hgroup import member_h, superindex_info, tower
from zodom.linalg import Lattice, Mat, index, is_prime
from zodom.rigid import (
    GALLERY_TEXTS,
    GALLERY_VERDICTS,
    RigidProgram,
    dual_ball_trivial,
    gallery,
    l1_operator_norm,
    verify_cyclicity,
    verify_exercises,
    verify_torsion_bound,
)


@pytest.fixture(scope="module")
def prog():
    return RigidProgram().extend(3)


def test_first_level_matrix(prog):
    lvl = prog.levels[0]
    assert (lvl.a, lvl.b, lvl.det, lvl.k_constant) == (3, 4, 11, 3)
    assert prog.alpha(1) == Mat([[3, 1], [1, 4]])


def test_k_constant_recursion(prog):
    # K_2 = 2 * ||alpha_1|| with the l1 operator norm max(4, 5) = 5
    assert l1_operator_norm(prog.alpha(1)) == 5
    assert prog.k_constant(2) == 10
    assert prog.levels[1].a == 10
    assert prog.k_constant(3) == 3 * 5 * l1_operator_norm(prog.alpha(2))


def test_determinants_prime(prog):
    for lvl in prog.levels:
        assert is_prime(lvl.det)
        assert lvl.det == lvl.a * lvl.b - 1
        assert lvl.a >= lvl.k_constant and lvl.b >= lvl.k_constant


def test_levels_nested_with_prime_index(prog):
    prev = Lattice.standard(2)
    for n in range(1, 4):
        lvl = prog.program_group(n).level(n)
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


def test_exercise2_adjugate_row_membership(prog):
    # (1/11)(4,-1) * alpha_1 lands in Z^2; the as-written (1/11)(3,-1) does not
    from fractions import Fraction as F

    alpha = prog.alpha(1)

    def row_image(v):
        return tuple(sum(v[i] * alpha.rows[i][j] for i in range(2)) for j in range(2))

    assert all(x.denominator == 1 for x in row_image((F(4, 11), F(-1, 11))))
    assert any(x.denominator != 1 for x in row_image((F(3, 11), F(-1, 11))))


def test_torsion_bound(prog):
    assert verify_torsion_bound(prog, 1)
    assert verify_torsion_bound(prog, 2)


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


def test_dual_ball_trivial(prog):
    for n in (1, 2, 3):
        assert dual_ball_trivial(prog, n)


def test_program_group_bridge(prog):
    pg = prog.program_group(3)
    s, exact = superindex_info(pg)
    assert not exact
    assert s.exponent(11) == 1 and s.exponent(109) == 1
    inv = prog.alpha(1).inv()
    assert member_h(tuple(inv.rows[0]), pg)
    t = tower(pg, 3)
    assert t.index_at(2) == 11


def test_gallery_contents():
    g = gallery()
    assert set(g) == set(GALLERY_TEXTS)
    assert g["class35_4a"].d == 2 and g["class35_4b"].d == 1
    names_in_verdicts = {n for a, b, _ in GALLERY_VERDICTS for n in (a, b)}
    assert names_in_verdicts <= set(g)
