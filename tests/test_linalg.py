import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zodom.linalg import (
    INF,
    IntegerSolver,
    Lattice,
    Mat,
    NotSublatticeError,
    SingularMatrixError,
    Supernatural,
    annihilator,
    complete_to_basis,
    denominator_primes,
    factorint,
    hnf,
    index,
    integer_kernel,
    is_prime,
    lattice_block,
    lattice_intersect,
    lattice_scale,
    lattice_sum,
    p_primary_over_standard,
    saturation,
    snf,
    subspace_basis,
    subspace_contains,
    valuation,
)

F = Fraction


def lat(rows):
    return Lattice(Mat(rows))


# ---------------------------------------------------------------------------
# oracles


def unimodular_2x2(bound):
    """All 2x2 integer matrices with det +-1 and entries in [-bound, bound]."""
    rng = range(-bound, bound + 1)
    for a, b, c, d in itertools.product(rng, repeat=4):
        if abs(a * d - b * c) == 1:
            yield [[a, b], [c, d]]


def span_equal_by_membership(m1, m2):
    """Integer column spans coincide: each column of one solves in the other."""
    for a, b in ((m1, m2), (m2, m1)):
        cols = [[row[j] for row in b] for j in range(len(b[0]))]
        for c in cols:
            if IntegerSolver(a).solve(c) is None:
                return False
    return True


def coset_count(rows):
    """Count integer points in [0, N)^2 pairwise incongruent mod the column span."""
    n = abs(rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0])
    box = itertools.product(range(2 * n), repeat=2)
    solver = IntegerSolver(rows)
    reps = []
    for p in box:
        if not any(solver.solve([p[0] - q[0], p[1] - q[1]]) is not None for q in reps):
            reps.append(p)
    return len(reps)


# ---------------------------------------------------------------------------
# hnf


def test_hnf_identity():
    assert hnf([[1, 0], [0, 1]]) == [[1, 0], [0, 1]]


def test_hnf_already_reduced():
    m = [[2, 0], [1, 3]]
    assert hnf(m) == m
    # oracle: no unimodular column operation reaches a different reduced form;
    # every transformed matrix has the same HNF and the same span
    for v in unimodular_2x2(2):
        prod = [
            [sum(m[i][k] * v[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)
        ]
        assert hnf(prod) == m
        assert span_equal_by_membership(prod, m)


def test_hnf_column_swap():
    assert hnf([[0, 1], [1, 0]]) == [[1, 0], [0, 1]]
    assert span_equal_by_membership([[0, 1], [1, 0]], [[1, 0], [0, 1]])


def test_hnf_singular_rejected():
    with pytest.raises(SingularMatrixError):
        hnf([[1, 2], [2, 4]])


def test_hnf_shape_conditions():
    rng = random.Random(7)
    for _ in range(60):
        m = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
        det = Mat(m).det()
        if det == 0:
            continue
        h = hnf(m)
        for i in range(3):
            assert h[i][i] > 0
            for j in range(3):
                if j > i:
                    assert h[i][j] == 0
                elif j < i:
                    assert 0 <= h[i][j] < h[i][i]
        assert abs(Mat(h).det()) == abs(det)
        assert span_equal_by_membership(m, h)
        assert hnf(h) == h  # idempotent


# ---------------------------------------------------------------------------
# snf


@pytest.mark.parametrize(
    "m,diag",
    [
        ([[2, 0], [0, 3]], [1, 6]),
        ([[1, 0], [0, 1]], [1, 1]),
        ([[2, 0], [1, 3]], [1, 6]),
    ],
)
def test_snf_examples(m, diag):
    u, s, v = snf(m)
    assert [s[0][0], s[1][1]] == diag


def test_snf_transform_identity():
    rng = random.Random(11)
    for _ in range(50):
        m = [[rng.randint(-8, 8) for _ in range(3)] for _ in range(3)]
        if Mat(m).det() == 0:
            continue
        u, s, v = snf(m)
        um = Mat([[F(x) for x in row] for row in u])
        vm = Mat([[F(x) for x in row] for row in v])
        sm = um * Mat(m) * vm
        assert sm == Mat(s)
        assert abs(um.det()) == 1 and abs(vm.det()) == 1
        assert abs(Mat(s).det()) == abs(Mat(m).det())
        for i in range(2):
            assert s[i][i] >= 0
            if s[i + 1][i + 1] != 0:
                assert s[i + 1][i + 1] % max(s[i][i], 1) == 0


def test_snf_diagonal_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    rng = random.Random(2027)
    for _ in range(300):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        # about half the entries zero, so singular and rank-deficient cases occur
        m = [[rng.choice((0, rng.randint(-12, 12))) for _ in range(nc)] for _ in range(nr)]
        _, s, _ = snf(m)
        ref = smith_normal_form(sympy.Matrix(m), domain=sympy.ZZ)
        k = min(nr, nc)
        assert [s[i][i] for i in range(k)] == [abs(int(ref[i, i])) for i in range(k)], m


# ---------------------------------------------------------------------------
# lattices: dual, index, member


def test_dual_examples():
    half = lat([[F(1, 2), 0], [0, 1]])
    assert half.dual() == lat([[2, 0], [0, 1]])
    z2 = Lattice.standard(2)
    assert z2.dual() == z2

    g = Lattice.from_span(2, [(2, 1), (0, 3)])
    gd = g.dual()
    # all four pairings integral
    for k in g.basis_columns():
        for w in gd.basis_columns():
            assert sum(a * b for a, b in zip(k, w)).denominator == 1
    # index relation [Z^2 : G] = [G* : (Z^2)*]
    assert index(g, Lattice.standard(2)) == index(Lattice.standard(2).dual(), gd)


def test_double_dual_is_identity():
    rng = random.Random(3)
    for _ in range(40):
        rows = [[F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(2)] for _ in range(2)]
        if Mat(rows).det() == 0:
            continue
        lattice = lat(rows)
        assert lattice.dual().dual() == lattice


def test_index_examples():
    z2 = Lattice.standard(2)
    assert index(z2, z2) == 1
    g = Lattice.from_span(2, [(2, 1), (0, 3)])
    assert index(g, z2) == 6
    assert coset_count([[2, 0], [1, 3]]) == 6  # independent coset enumeration
    fine = Lattice.from_span(2, [(F(1, 2), 0), (0, F(1, 3))])
    assert index(z2, fine) == 6


def test_index_duality_on_random_pairs():
    rng = random.Random(5)
    z2 = Lattice.standard(2)
    for _ in range(30):
        rows = [[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)]
        if Mat(rows).det() == 0:
            continue
        sub = lat(rows)
        assert index(sub, z2) == index(z2.dual(), sub.dual())


def test_index_rejects_non_nested():
    g = Lattice.from_span(2, [(2, 0), (0, 1)])
    h = Lattice.from_span(2, [(3, 0), (0, 1)])
    with pytest.raises(NotSublatticeError):
        index(g, h)


def test_member_examples():
    g = Lattice.from_span(2, [(2, 1), (0, 3)])
    assert g.member((2, 1))
    assert not g.member((1, 0))
    assert g.member((0, 0))
    assert lat([[F(1, 2), 0], [0, 1]]).member((F(1, 2), 0))


def test_member_invariant_under_canonicalization():
    rng = random.Random(13)
    spans = [
        ([(4, 1), (2, 5)], [(6, 6), (2, 5), (4, 1)]),  # redundant spanning set
        ([(F(1, 2), 0), (0, 3)], [(0, 3), (F(1, 2), 3), (F(1, 2), 0)]),
        ([(5, 5), (0, 7)], [(5, -2), (0, 7), (10, 3)]),
    ]
    for basis, redundant in spans:
        g = Lattice.from_span(2, basis)
        same = Lattice.from_span(2, redundant)
        assert g == same
        for _ in range(100):
            v = (
                F(rng.randint(-9, 9), rng.randint(1, 3)),
                F(rng.randint(-9, 9), rng.randint(1, 3)),
            )
            assert g.member(v) == same.member(v)


def test_lattice_sum_intersect_scale():
    a = Lattice.from_span(2, [(2, 0), (0, 1)])
    b = Lattice.from_span(2, [(3, 0), (0, 1)])
    assert lattice_sum(a, b) == Lattice.standard(2)
    assert lattice_intersect(a, b) == Lattice.from_span(2, [(6, 0), (0, 1)])
    assert lattice_scale(Lattice.standard(2), F(1, 2)) == lat([[F(1, 2), 0], [0, F(1, 2)]])


def test_lattice_block():
    a = Lattice.from_span(1, [(F(1, 2),)])
    b = Lattice.from_span(1, [(F(1, 3),)])
    assert lattice_block(a, b) == lat([[F(1, 2), 0], [0, F(1, 3)]])


def test_p_primary_over_standard():
    big = Lattice.from_span(2, [(F(1, 6), 0), (0, 1)])
    assert p_primary_over_standard(big, 2) == lat([[F(1, 2), 0], [0, 1]])
    assert p_primary_over_standard(big, 3) == lat([[F(1, 3), 0], [0, 1]])
    assert p_primary_over_standard(big, 5) == Lattice.standard(2)


# ---------------------------------------------------------------------------
# integer solving / kernels / subspaces


def test_solve_integer():
    a = [[2, 0], [1, 3]]
    assert IntegerSolver(a).solve([2, 1]) == [1, 0]
    assert IntegerSolver(a).solve([1, 0]) is None
    tall = [[1, 0], [0, 1], [1, 1]]
    assert IntegerSolver(tall).solve([2, 3, 5]) == [2, 3]
    assert IntegerSolver(tall).solve([2, 3, 4]) is None


def test_integer_kernel_saturated():
    ker = integer_kernel([[1, 1, 1]])
    assert len(ker) == 2
    for col in ker:
        assert sum(col) == 0
    # saturation: gcd of each column is 1 after reduction, kernel contains (1,-1,0)
    assert IntegerSolver([[ker[0][i], ker[1][i]] for i in range(3)]).solve([1, -1, 0]) is not None


def test_subspace_helpers():
    basis = subspace_basis([(F(1, 2), F(1, 2))], 2)
    assert basis == ((1, 1),)
    assert subspace_contains(basis, (F(3, 7), F(3, 7)))
    assert not subspace_contains(basis, (1, 0))
    ann = annihilator(basis, 2)
    assert ann == ((1, -1),) or ann == ((-1, 1),)
    sat = saturation([(F(1, 2), F(1, 2))], 2)
    assert len(sat) == 1 and sorted(map(abs, sat[0])) == [1, 1]


def test_complete_to_basis():
    u = complete_to_basis([[2, 3]], 2)
    assert abs(u.det()) == 1 and u.is_integer()
    assert u.col(1) in ((2, 3), (-2, -3))


# ---------------------------------------------------------------------------
# supernatural numbers and primes


def test_supernatural_str_and_eq():
    s = Supernatural({2: INF, 5: 1})
    assert str(s) == "2^inf*5^1"
    assert str(Supernatural({})) == "1"
    assert Supernatural({3: 2, 2: INF}) == Supernatural({2: INF, 3: 2})
    assert Supernatural({2: 1}) != Supernatural({2: 2})


def test_supernatural_mul_absorbs_inf():
    a = Supernatural({2: INF, 3: 1})
    b = Supernatural({2: 4, 3: 2, 5: INF})
    prod = a * b
    assert prod.exponent(2) == INF
    assert prod.exponent(3) == 3
    assert prod.exponent(5) == INF


def test_primes_and_valuation():
    assert factorint(360) == {2: 3, 3: 2, 5: 1}
    assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert valuation(F(4, 9), 3) == -2
    assert valuation(12, 2) == 2
    assert denominator_primes((F(1, 6), F(1, 5))) == {2, 3, 5}


def test_is_prime_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2031)
    # every n below 43^2 takes the no-pow path; strong pseudoprimes to small
    # base sets and the largest Miller-Rabin candidate below the bound
    ns = list(range(-3, 43 * 43 + 50))
    ns += [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383]
    ns += [341550071728321, 3825123056546413051, 318665857834031151167461]
    ns += [3_317_044_064_679_887_385_961_981 - 2]
    ns += [rng.randrange(10 ** k) for k in range(4, 25) for _ in range(60)]
    for n in ns:
        assert is_prime(n) == sympy.isprime(n), n
    # at and above the bound trial division decides; a small factor ends it
    assert not is_prime(3 * 3_317_044_064_679_887_385_961_981)


def test_factorint_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2032)
    ns = list(range(1, 2000)) + [rng.randrange(1, 10 ** 10) for _ in range(300)]
    # a large prime cofactor ends the trial division at once
    ns += [99999999999999999999999, 2 ** 5 * 5688402457309025999]
    for n in ns:
        assert factorint(n) == sympy.factorint(n), n
    assert factorint(-12) == {2: 2, 3: 1}
    with pytest.raises(ValueError):
        factorint(0)


# ---------------------------------------------------------------------------
# properties


small_int = st.integers(min_value=-12, max_value=12)

nonsingular_2x2 = (
    st.tuples(small_int, small_int, small_int, small_int)
    .filter(lambda t: t[0] * t[3] - t[1] * t[2] != 0)
    .map(lambda t: [[t[0], t[1]], [t[2], t[3]]])
)


@given(nonsingular_2x2)
@settings(max_examples=80, deadline=None)
def test_hnf_preserves_span_property(rows):
    h = hnf(rows)
    assert span_equal_by_membership(rows, h)
    assert hnf(h) == h


@given(nonsingular_2x2)
@settings(max_examples=80, deadline=None)
def test_snf_invariants_property(rows):
    _, s, _ = snf(rows)
    assert s[0][1] == s[1][0] == 0
    assert s[1][1] % s[0][0] == 0
    assert abs(s[0][0] * s[1][1]) == abs(rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0])
