import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zodom import linalg
from zodom.linalg import (
    _MR_BOUND,
    INF,
    _pocklington,
    FactorBudgetError,
    Lattice,
    Mat,
    SingularMatrixError,
    Supernatural,
    adjugate,
    clear_denominators,
    factorint,
    is_prime,
    lattice_sum,
    snf,
    subspace_basis,
    valuation,
)
from zodom.gdsl import format_mat

from helpers import (
    column_echelon_reference,
    echelon_with_transform,
    index,
    integer_kernel,
    lattice_block,
    lattice_columns,
    lattice_member,
    rational_mat,
    snf_reference,
)

F = Fraction


def lat(rows):
    m = rational_mat(rows)
    return Lattice(m.d, m.den, m.num)


# ---------------------------------------------------------------------------
# oracles


def unimodular_2x2(bound):
    """All 2x2 integer matrices with det +-1 and entries in [-bound, bound]."""
    rng = range(-bound, bound + 1)
    for a, b, c, d in itertools.product(rng, repeat=4):
        if abs(a * d - b * c) == 1:
            yield [[a, b], [c, d]]


class _DenseSolver:
    """Solves rows . x = rhs over Z from the column echelon form H = rows . V:
    forward pass over every row below the pivot, back-map x = V y."""

    def __init__(self, rows):
        a = [list(map(int, r)) for r in rows]
        self.nr = len(a)
        self.nc = len(a[0]) if self.nr else 0
        self._h, self._v, self._pivots = echelon_with_transform(a)

    def solve(self, rhs):
        y = [0] * self.nc
        r = [int(b) for b in rhs]
        for j, prow in enumerate(self._pivots):
            piv = self._h[prow][j]
            if r[prow] % piv != 0:
                return None
            q = r[prow] // piv
            y[j] = q
            if q:
                for i in range(prow, self.nr):
                    r[i] -= q * self._h[i][j]
        if any(r):
            return None
        v = self._v
        return [sum(v[i][j] * y[j] for j in range(self.nc)) for i in range(self.nc)]


def span_equal_by_membership(m1, m2):
    """Integer column spans coincide: each column of one solves in the other."""
    for a, b in ((m1, m2), (m2, m1)):
        cols = [[row[j] for row in b] for j in range(len(b[0]))]
        for c in cols:
            if _DenseSolver(a).solve(c) is None:
                return False
    return True


def coset_count(rows):
    """Count integer points in [0, N)^2 pairwise incongruent mod the column span."""
    n = abs(rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0])
    box = itertools.product(range(2 * n), repeat=2)
    solver = _DenseSolver(rows)
    reps = []
    for p in box:
        if not any(solver.solve([p[0] - q[0], p[1] - q[1]]) is not None for q in reps):
            reps.append(p)
    return len(reps)


# ---------------------------------------------------------------------------
# hnf: the integer matrix Lattice(d, 1, m).mat


def test_hnf_identity():
    assert Lattice(2, 1, [[1, 0], [0, 1]]).mat == ((1, 0), (0, 1))


def test_hnf_already_reduced():
    m = ((2, 0), (1, 3))
    assert Lattice(2, 1, m).mat == m
    # oracle: no unimodular column operation reaches a different reduced form;
    # every transformed matrix has the same HNF and the same span
    for v in unimodular_2x2(2):
        prod = [
            [sum(m[i][k] * v[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)
        ]
        assert Lattice(2, 1, prod).mat == m
        assert span_equal_by_membership(prod, m)


def test_hnf_column_swap():
    assert Lattice(2, 1, [[0, 1], [1, 0]]).mat == ((1, 0), (0, 1))
    assert span_equal_by_membership([[0, 1], [1, 0]], [[1, 0], [0, 1]])


def test_hnf_matches_sympy():
    # sympy's row-style Hermite form of J.m.J, J reversing the order of the
    # rows and of the columns, is J.h.J for h = Lattice(d, 1, m).mat
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form

    def flip(rows):
        return [row[::-1] for row in rows[::-1]]

    rng = random.Random(2041)
    tested = 0
    for _ in range(300):
        d = rng.randint(1, 4)
        m = [[rng.choice((0, rng.randint(-9, 9))) for _ in range(d)] for _ in range(d)]
        if Mat(m).det() == 0:
            continue
        ref = hermite_normal_form(sympy.Matrix(flip(m)))
        want = flip([[int(ref[i, j]) for j in range(d)] for i in range(d)])
        assert Lattice(d, 1, m).mat == tuple(map(tuple, want)), m
        tested += 1
    assert tested > 100


def test_hnf_singular_rejected():
    with pytest.raises(SingularMatrixError, match="not full rank"):
        Lattice(2, 1, [[1, 2], [2, 4]])


def test_lattice_rejects_nonpositive_denominator():
    for den in (0, -2):
        with pytest.raises(ValueError, match="denominator"):
            Lattice(2, den, [[1, 0], [0, 1]])


def test_mat_rejects_zero_denominator():
    with pytest.raises(ValueError, match="denominator"):
        Mat([[1, 0], [0, 1]], 0)


def test_hnf_shape_conditions():
    rng = random.Random(7)
    for _ in range(60):
        m = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
        det = Mat(m).det()
        if det == 0:
            continue
        h = Lattice(3, 1, m).mat
        for i in range(3):
            assert h[i][i] > 0
            for j in range(3):
                if j > i:
                    assert h[i][j] == 0
                elif j < i:
                    assert 0 <= h[i][j] < h[i][i]
        assert abs(Mat(h).det()) == abs(det)
        assert span_equal_by_membership(m, h)
        assert Lattice(3, 1, h).mat == h  # idempotent


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
        um = Mat(u)
        vm = Mat(v)
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


@st.composite
def _rectangular_rows(draw):
    """Integer matrices of shape 1-4 x 1-4, entries in [-30, 30], about half
    of them zero."""
    nr, nc = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entry = st.one_of(st.just(0), st.integers(min_value=-30, max_value=30))
    return draw(st.lists(st.lists(entry, min_size=nc, max_size=nc), min_size=nr, max_size=nr))


@given(_rectangular_rows())
@settings(max_examples=400, deadline=None)
def test_snf_transforms_match_closure_reference(rows):
    # u and v, not only s, reach printed witnesses (classify._smith_frame)
    # and the character tuples of odometer.DualityRealization
    assert snf(rows) == snf_reference(rows)


@st.composite
def _echelon_inputs(draw):
    """``_rectangular_rows`` with some columns zeroed and, half the time,
    the identity stacked below: the [A; I] of callers that need v."""
    rows = draw(_rectangular_rows())
    nc = len(rows[0])
    zero = draw(st.sets(st.integers(0, nc - 1), max_size=nc))
    rows = [[0 if j in zero else x for j, x in enumerate(row)] for row in rows]
    if draw(st.booleans()):
        rows += [[int(i == j) for j in range(nc)] for i in range(nc)]
    return rows


@given(_echelon_inputs())
@settings(max_examples=400, deadline=None)
def test_column_echelon_matches_closure_reference(rows):
    # the Hermite kernel behind every Lattice: h and the pivots, exactly
    assert linalg._column_echelon(rows) == column_echelon_reference(rows)


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
    for k in lattice_columns(g):
        for w in lattice_columns(gd):
            assert sum(a * b for a, b in zip(k, w)).denominator == 1
    # index relation [Z^2 : G] = [G* : (Z^2)*]
    assert index(g, Lattice.standard(2)) == index(Lattice.standard(2).dual(), gd)


def test_double_dual_is_identity():
    rng = random.Random(3)
    for _ in range(40):
        rows = [[F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(2)] for _ in range(2)]
        if rational_mat(rows).det() == 0:
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


def test_index_is_int():
    z2 = Lattice.standard(2)
    assert type(index(z2, lat([[F(1, 2), 0], [0, F(1, 3)]]))) is int
    assert type(index(Lattice.from_span(2, [(4, 1), (0, 3)]), z2)) is int


def test_index_rejects_non_nested():
    g = Lattice.from_span(2, [(2, 0), (0, 1)])
    h = Lattice.from_span(2, [(3, 0), (0, 1)])
    with pytest.raises(ValueError):
        index(g, h)


def test_member_examples():
    g = Lattice.from_span(2, [(2, 1), (0, 3)])
    assert lattice_member(g, (2, 1))
    assert not lattice_member(g, (1, 0))
    assert lattice_member(g, (0, 0))
    assert lattice_member(lat([[F(1, 2), 0], [0, 1]]), (F(1, 2), 0))


def test_member_invariant_under_canonicalization():
    rng = random.Random(13)
    spans = [
        ([(4, 1), (2, 5)], [(6, 6), (2, 5), (4, 1)]),  # redundant spanning set
        ([(F(1, 2), 0), (0, 3)], [(0, 3), (F(1, 2), 3), (F(1, 2), 0)]),
        ([(5, 5), (0, 7)], [(5, -2), (0, 7), (10, 3)]),
    ]
    # the one constructor, from integer rows over a denominator, agrees
    half = Lattice.from_span(2, spans[1][0])
    built = Lattice(2, 4, [[2, 0, 2], [0, 12, 0]])
    assert built == half and hash(built) == hash(half)
    for basis, redundant in spans:
        g = Lattice.from_span(2, basis)
        same = Lattice.from_span(2, redundant)
        assert g == same and hash(g) == hash(same)
        assert g != g.basis() and g != (g.d, g.den, g.mat)
        for _ in range(100):
            v = (
                F(rng.randint(-9, 9), rng.randint(1, 3)),
                F(rng.randint(-9, 9), rng.randint(1, 3)),
            )
            assert lattice_member(g, v) == lattice_member(same, v)


def test_lattice_sum_intersect_scale():
    a = Lattice.from_span(2, [(2, 0), (0, 1)])
    b = Lattice.from_span(2, [(3, 0), (0, 1)])
    assert lattice_sum(a, b) == Lattice.standard(2)
    assert Lattice(2, 2, Lattice.standard(2).mat) == lat([[F(1, 2), 0], [0, F(1, 2)]])


def test_lattice_block():
    a = Lattice.from_span(1, [(F(1, 2),)])
    b = Lattice.from_span(1, [(F(1, 3),)])
    assert lattice_block(a, b) == lat([[F(1, 2), 0], [0, F(1, 3)]])


# ---------------------------------------------------------------------------
# integer solving / kernels / subspaces


def test_integer_kernel_saturated():
    ker = integer_kernel([[1, 1, 1]])
    assert len(ker) == 2
    for col in ker:
        assert sum(col) == 0
    # saturation: gcd of each column is 1 after reduction, kernel contains (1,-1,0)
    assert _DenseSolver([[ker[0][i], ker[1][i]] for i in range(3)]).solve([1, -1, 0]) is not None


def test_subspace_helpers():
    basis = subspace_basis([(F(1, 2), F(1, 2))], 2)
    assert basis == ((1, 1),)


# ---------------------------------------------------------------------------
# supernatural numbers and primes


def test_supernatural_str_and_eq():
    s = Supernatural({2: INF, 5: 1})
    assert str(s) == "2^inf*5^1"
    assert str(Supernatural({})) == "1"
    assert Supernatural({3: 2, 2: INF}) == Supernatural({2: INF, 3: 2})
    assert Supernatural({2: 1}) != Supernatural({2: 2})
    # a zero exponent is dropped: the same value, the same hash
    with_zero = Supernatural({5: 1, 7: 0, 2: INF})
    assert with_zero == s and hash(with_zero) == hash(s)
    # equality is by type as well as by fields
    assert s != s.items and Supernatural({}) != ()


def test_primes_and_valuation():
    assert factorint(360) == {2: 3, 3: 2, 5: 1}
    assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert valuation(F(4, 9), 3) == -2
    assert valuation(12, 2) == 2


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
    # a small factor ends it at any size
    assert not is_prime(3 * 3_317_044_064_679_887_385_961_981)


def test_is_prime_above_the_miller_rabin_bound_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2033)
    # the bound is the least strong pseudoprime to all 13 bases: Pocklington's
    # test on its n - 1 = 2^2 3^4 5 127 18778597 858557454841 finds it composite
    ns = [_MR_BOUND, 3317044064679887385962123]
    for k in range(25, 33):
        low = max(_MR_BOUND, 10 ** (k - 1))
        ns += [sympy.nextprime(rng.randrange(low, 10**k)) for _ in range(4)]
        ns += [sympy.nextprime(rng.randrange(10**11, 10**12)) * sympy.nextprime(10 ** (k - 11))]
    for n in ns:
        assert n >= _MR_BOUND
        assert is_prime(n) == sympy.isprime(n), n


def test_pocklington_on_carmichael_numbers(monkeypatch):
    sympy = pytest.importorskip("sympy")
    carmichael = [2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041, 46657, 3215031751]
    for n in carmichael:
        assert not sympy.isprime(n) and pow(2, n - 1, n) == 1
        assert _pocklington(n) is False, n
    # Fermat's condition rejects these, whose gcds with n are all 1
    for n in (1853, 1859, 1883, 1895):
        assert _pocklington(n) is False, n
    for n in (1999, 1000003, 3215031751 + 2, 3317044064679887385962123):
        assert _pocklington(n) is sympy.isprime(n), n
    # with n - 1 only partly factored, as when a cofactor does not split within
    # RHO_BUDGET, the gcd condition decides: 2821 = 7 * 13 * 31 passes Fermat's
    # for every q | F = 60 (F^2 > n, 2820 = 60 * 47 with 47 left unsplit)
    monkeypatch.setattr(linalg, "_factor", lambda m: ({2: 2, 3: 1, 5: 1}, 47))
    assert _pocklington(2821) is False


def test_primality_and_factoring_raise_past_the_budget(monkeypatch):
    sympy = pytest.importorskip("sympy")
    p, q = 10000000000037, 30000000000011
    n = 130 * p * q + 1
    assert sympy.isprime(n) and n >= _MR_BOUND
    monkeypatch.setattr(linalg, "RHO_BUDGET", 1 << 10)
    with pytest.raises(FactorBudgetError, match="does not factor far enough"):
        is_prime(n)
    with pytest.raises(FactorBudgetError, match=f"cannot factor {p * q} within 1024 "):
        factorint(2 * p * q)


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


def test_factorint_two_large_factors_matches_sympy():
    # trial division alone would run to the smaller factor, about 10^9
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2042)
    ns = [1907986079**2, 1907986079**3, 2**3 * 1031 * 1907986079**2]
    for k in range(6):
        p = sympy.nextprime(rng.randrange(10**9, 2 * 10**9))
        q = sympy.nextprime(rng.randrange(10**9, 2 * 10**9))
        ns += [p * q, 6 * p * q] if k % 3 else [p * q, p * p * q]
    for n in ns:
        assert factorint(n) == sympy.factorint(n), n
        assert list(factorint(n)) == sorted(factorint(n))


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
    h = Lattice(2, 1, rows).mat
    assert span_equal_by_membership(rows, h)
    assert Lattice(2, 1, h).mat == h


@given(nonsingular_2x2)
@settings(max_examples=80, deadline=None)
def test_snf_invariants_property(rows):
    _, s, _ = snf(rows)
    assert s[0][1] == s[1][0] == 0
    assert s[1][1] % s[0][0] == 0
    assert abs(s[0][0] * s[1][1]) == abs(rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0])


# ---------------------------------------------------------------------------
# the elimination kernel against the Fraction routines it replaced, inlined
# here as references


def _ref_int_det(rows):
    a = [list(row) for row in rows]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
        prev = pivot
    return sign * a[-1][-1]


def _ref_scaled(rows):
    from math import lcm

    den = lcm(*[F(x).denominator for row in rows for x in row], 1)
    return den, [[int(F(x) * den) for x in row] for row in rows]


def _ref_det(rows):
    den, ints = _ref_scaled(rows)
    return F(_ref_int_det(ints), den ** len(rows))


def _ref_inv(rows):
    d = len(rows)
    a = [[F(x) for x in row] for row in rows]
    b = [[F(1 if i == j else 0) for j in range(d)] for i in range(d)]
    for col in range(d):
        piv = next((r for r in range(col, d) if a[r][col] != 0), None)
        if piv is None:
            raise SingularMatrixError("matrix is not invertible")
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        b[col] = [x / pv for x in b[col]]
        for r in range(d):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                b[r] = [x - f * y for x, y in zip(b[r], b[col])]
    return tuple(map(tuple, b))


def _ref_rref(rows):
    a = [[F(x) for x in row] for row in rows]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    lead = 0
    for col in range(nc):
        piv = next((r for r in range(lead, nr) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[lead], a[piv] = a[piv], a[lead]
        pv = a[lead][col]
        a[lead] = [x / pv for x in a[lead]]
        for r in range(nr):
            if r != lead and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[lead])]
        lead += 1
        if lead == nr:
            break
    return [tuple(a[r]) for r in range(lead)]


def _ref_subspace_basis(vectors, d):
    from math import gcd, lcm

    vecs = [v for v in vectors if any(F(x) != 0 for x in v)]
    out = []
    for row in _ref_rref(vecs) if vecs else []:
        den = lcm(*[x.denominator for x in row], 1)
        ints = [int(x * den) for x in row]
        g = 0
        for x in ints:
            g = gcd(g, x)
        out.append(tuple(x // g for x in ints))
    return tuple(out)


def _ref_contains(big, small):
    return all(lattice_member(big, c) for c in lattice_columns(small))


def _ref_dual(lattice):
    m = rational_mat(_ref_inv(lattice.basis().rows)).transpose()
    return Lattice(m.d, m.den, m.num)


def _random_rows(rng, nr, nc):
    """Integer and Fraction entries, about a third zero; some rows zero and
    some rows combinations of earlier ones, so the rank often drops."""
    rows = []
    for _ in range(nr):
        kind = rng.random()
        if kind < 0.15:
            rows.append([0] * nc)
        elif kind < 0.35 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = F(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append(
                [rng.choice((0, rng.randint(-9, 9), F(rng.randint(-9, 9), rng.randint(1, 6))))
                 for _ in range(nc)]
            )
    return rows


def test_mat_det_inv_match_fraction_reference():
    rng = random.Random(2043)
    singular = 0
    for _ in range(400):
        d = rng.randint(1, 4)
        rows = _random_rows(rng, d, d)
        m = rational_mat(rows)
        assert m.det() == _ref_det(rows), rows
        _, ints = _ref_scaled(rows)
        try:
            ref = rational_mat(_ref_inv(rows))
        except SingularMatrixError:
            singular += 1
            with pytest.raises(SingularMatrixError):
                m.inv()
            with pytest.raises(SingularMatrixError):
                adjugate(ints)
            continue
        assert m.inv() == ref, rows
        det, adj = adjugate(ints)
        assert det == _ref_int_det(ints)
        assert Mat(adj) == rational_mat(_ref_inv(ints)).scale(det)
    assert 50 < singular < 350


def test_adjugate_2x2_matches_elimination():
    # the closed 2 x 2 form returns what eliminating [A | I] returns
    rng = random.Random(2046)
    singular = 0
    for _ in range(500):
        rows = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        a, pivots, det = linalg._gauss_jordan([[*r, *e] for r, e in zip(rows, ([1, 0], [0, 1]))])
        if pivots != [0, 1]:
            singular += 1
            with pytest.raises(SingularMatrixError):
                adjugate(rows)
            continue
        sign = 1 if a[0][0] == det else -1
        assert adjugate(rows) == (det, [[sign * x for x in row[2:]] for row in a]), rows
    assert 30 < singular < 120


_ENTRIES = st.one_of(st.integers(-9, 9), st.builds(F, st.integers(-9, 9), st.integers(1, 6)))


@st.composite
def _mat_cases(draw):
    """Two d x d matrices of int and Fraction entries (d = 1..3), a vector,
    a scalar and a factor k != 0 to write the first matrix over k."""
    d = draw(st.integers(1, 3))
    square = st.lists(st.lists(_ENTRIES, min_size=d, max_size=d), min_size=d, max_size=d)
    vec = st.lists(_ENTRIES, min_size=d, max_size=d)
    k = draw(st.integers(-6, 6).filter(bool))
    return draw(square), draw(square), draw(vec), draw(_ENTRIES), k


def _ref_mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


@given(_mat_cases())
@settings(max_examples=300, deadline=None)
def test_mat_matches_fraction_rows_reference(case):
    a_rows, b_rows, v, c, k = case
    ref_a = tuple(tuple(F(x) for x in row) for row in a_rows)
    ref_b = tuple(tuple(F(x) for x in row) for row in b_rows)
    a, b = rational_mat(a_rows), rational_mat(b_rows)
    # storage: integer rows over den > 0, in lowest terms
    for m, ref in ((a, ref_a), (b, ref_b)):
        assert m.den > 0 and gcd(m.den, *(x for row in m.num for x in row)) == 1
        assert all(type(x) is int for row in m.num for x in row)
        assert m.rows == ref
    # equal values give equal Mats and hashes, whatever the denominator given
    den, num = clear_denominators(a_rows)
    over_k = Mat([[x * k for x in row] for row in num], den * k)
    assert over_k == a and hash(over_k) == hash(a)
    assert (a == b) == (ref_a == ref_b)
    # equality is by type as well as by fields
    assert a != a.num and a != (a.den, a.num)
    assert Mat([[1]]) != Lattice(1, 1, [[1]]) and Mat([[1]]) != ((1,),)
    # the text is that of the Fraction entries
    assert repr(a) == "Mat([" + "; ".join(",".join(str(x) for x in row) for row in ref_a) + "])"
    assert format_mat(a) == "mat([" + ";".join(",".join(str(x) for x in row) for row in ref_a) + "])"
    # arithmetic
    assert (a * b).rows == _ref_mul(ref_a, ref_b)
    assert a.det() == _ref_det(a_rows)
    assert a.transpose().rows == tuple(zip(*ref_a))
    assert a.scale(c).rows == tuple(tuple(x * c for x in row) for row in ref_a)
    assert a.apply(v) == tuple(sum(x * F(y) for x, y in zip(row, v)) for row in ref_a)
    assert a.is_integer() == all(x.denominator == 1 for row in ref_a for x in row)
    if a.det() == 0:
        with pytest.raises(SingularMatrixError):
            a.inv()
    else:
        assert a.inv().rows == _ref_inv(a_rows)


def test_mat_rejects_empty_and_non_square():
    for rows in ([], [[1, 2]], [[1], [2, 3, 4]], [[1, 2, 3], [4, 5, 6]]):
        with pytest.raises(ValueError):
            Mat(rows)


def test_identity_is_one_shared_mat_per_dimension():
    for d in range(1, 5):
        one = Mat.identity(d)
        assert one is Mat.identity(d)
        assert (one.den, one.num) == (1, tuple(tuple(int(i == j) for j in range(d)) for i in range(d)))


def test_subspace_functions_match_fraction_reference():
    rng = random.Random(2044)
    for _ in range(400):
        d = rng.randint(1, 4)
        vecs = _random_rows(rng, rng.randint(0, 4), d)
        basis = subspace_basis(vecs, d)
        assert basis == _ref_subspace_basis(vecs, d), vecs


def test_lattice_member_contains_dual_match_fraction_reference():
    rng = random.Random(2045)
    tested = 0
    for _ in range(500):
        d = rng.randint(1, 4)
        rows = _random_rows(rng, d, d)
        if _ref_det(rows) == 0:
            continue
        tested += 1
        g = lat(rows)
        gd = g.dual()
        assert gd == _ref_dual(g), rows
        vs = _random_rows(rng, 3, d)
        vs += [[sum(rng.randint(-3, 3) * c[i] for c in lattice_columns(lat_)) for i in range(d)]
               for lat_ in (g, gd)]
        vs += [[F(x) / rng.randint(1, 3) for x in v] for v in vs[-2:]]
        for lat_ in (g, gd):
            for v in vs:
                # v lies in the lattice iff adjoining it leaves the lattice inside it
                grown = Lattice.from_span(d, [*lattice_columns(lat_), v])
                assert lat_.contains(grown) == lattice_member(lat_, v), (lat_, v)
        # nested and non-nested pairs
        sub = Lattice.from_span(d, [[rng.randint(1, 3) * x for x in c] for c in lattice_columns(g)])
        for a, b in ((g, sub), (sub, g), (g, gd), (gd, g), (g, Lattice.standard(d))):
            assert a.contains(b) == _ref_contains(a, b), (a, b)
    assert tested > 120
