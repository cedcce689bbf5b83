"""Finite quotient dynamics Z^d/G and inverse-limit points to finite depth.

The coset transversal of an integer lattice G <= Z^d is the box read off the
diagonal of its column HNF basis; reduction into the box walks the triangular
basis column by column.  The character group of K/Z^d, K = G*, is realized
on Z^d/G itself through the Smith normal form of B_G^T (B_G the HNF basis of
G).  Translation, the conjugacy and restriction of characters are integer
matrices followed by reductions, so each is a homomorphism, and the duality
checks are integer certificates on the d unit vectors, with no walk over
the points of the quotient.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd, lcm, prod
from operator import add, mul

from .hgroup import HGroup, Tower, _congruence_rows
from .linalg import Lattice, Mat, Record, snf


class NotSubgroupError(ValueError):
    """A restriction or square check called on a non-nested pair of lattices."""


class FiniteOdometer:
    """Translation action of Z^d on Z^d/G, G an integer lattice of finite index."""

    __slots__ = ("lattice", "d", "card", "_diag", "_walk", "_reps", "_steps", "_tree")

    def __init__(self, lattice: Lattice):
        if lattice.den != 1:
            raise ValueError("quotient lattice must be contained in Z^d")
        m = lattice.mat
        self.lattice = lattice
        self.d = d = lattice.d
        self._diag = diag = tuple(m[j][j] for j in range(d))
        self.card = prod(diag)
        # (j, pivot, nonzero entries below it) for each HNF column
        self._walk = tuple(
            (j, m[j][j], tuple((i, m[i][j]) for i in range(j + 1, d) if m[i][j]))
            for j in range(d)
        )
        self._reps = None
        self._steps = None
        self._tree = None

    @property
    def reps(self):
        """The box transversal in lexicographic order, built on first use."""
        if self._reps is None:
            self._reps = tuple(itertools.product(*[range(h) for h in self._diag]))
        return self._reps

    @property
    def steps(self):
        """Unit-step tables, built on first use: steps[i][x] = reduce(x + e_i)
        for every box representative x, keyed in ``reps`` order.

        In the lexicographic box, x has index sum_k x_k stride_k, where
        stride_i is the product of the diagonal entries h_k after i.  If
        x_i + 1 < h_i, then x + e_i is in the box, stride_i places after x:
        off the wrapping cosets the table is ``reps`` rotated by stride_i.
        The card / h_i cosets with x_i = h_i - 1 (all of them when h_i = 1)
        leave the box; they fill the runs of stride_i indices starting at
        (h_i - 1) stride_i, one every h_i stride_i, and only they are walked
        by ``reduce``.

        >>> f = FiniteOdometer(Lattice.from_span(2, [(2, 1), (0, 3)]))
        >>> [f.steps[0][x] for x in f.reps]
        [(1, 0), (1, 1), (1, 2), (0, 2), (0, 0), (0, 1)]
        >>> [f.steps[1][x] for x in f.reps]
        [(0, 1), (0, 2), (0, 0), (1, 1), (1, 2), (1, 0)]
        """
        if self._steps is None:
            reps, card = self.reps, self.card
            tables = []
            stride = card
            for i, h in enumerate(self._diag):
                stride //= h
                targets = [*reps[stride:], *reps[:stride]]
                for start in range((h - 1) * stride, card, h * stride):
                    for k in range(start, start + stride):
                        x = reps[k]
                        targets[k] = self.reduce(x[:i] + (h,) + x[i + 1 :])
                tables.append(dict(zip(reps, targets)))
            self._steps = tuple(tables)
        return self._steps

    @property
    def spanning_tree(self):
        """BFS tree of the unit-step graph from the zero coset, built on first
        use: the edges (x, i, x + e_i) in BFS order, one per coset reached
        besides 0.

        Z^d acts transitively on Z^d/G and every e_i has finite order there, so
        the unit-step graph (an edge x -> x + e_i for every coset x and every
        i) is connected from 0 along forward steps alone: the tree has
        card - 1 edges."""
        if self._tree is None:
            zero = (0,) * self.d
            seen = {zero}
            tree = []
            frontier = [zero]
            for x in frontier:
                for i, step in enumerate(self.steps):
                    y = step[x]
                    if y not in seen:
                        seen.add(y)
                        frontier.append(y)
                        tree.append((x, i, y))
            self._tree = tuple(tree)
        return self._tree

    def reduce(self, v):
        """Box representative of v + G, for a tuple or list v of ints (forward
        walk along the triangular basis)."""
        w = [*v]
        for j, piv, below in self._walk:
            q = w[j] // piv
            if q:
                w[j] -= q * piv
                for i, m in below:
                    w[i] -= q * m
        return tuple(w)

    def act(self, k, x):
        """phi_G(k): x + G -> k + x + G."""
        return self.reduce([a + b for a, b in zip(k, x)])

    def orbit_is_everything(self) -> bool:
        """Finite-level minimality: one Z^d-orbit covers the quotient, i.e.
        the spanning tree from 0 reaches all card cosets."""
        return len(self.spanning_tree) == self.card - 1

    def __repr__(self):
        return f"FiniteOdometer(card={self.card}, diag={self._diag})"


class TowerSystem:
    """The finite quotients along a tower plus finite-depth inverse-limit points."""

    def __init__(self, t: Tower):
        self.tower = t
        self.quotients = tuple(FiniteOdometer(g) for g in t.duals)

    def point(self, v) -> "OdoPoint":
        """The point with coordinates v + G_n at every level (these exhaust
        all finite-depth points since Z^d surjects onto each quotient)."""
        return OdoPoint(self, tuple(q.reduce(v) for q in self.quotients))

    def zero(self) -> "OdoPoint":
        return self.point((0,) * self.quotients[0].d)

    def random_point(self, rng: random.Random) -> "OdoPoint":
        """A uniform point at full depth: the coset of the deepest box with a
        random lexicographic index, decoded in the box's mixed radix (the
        same draw as rng.choice over its transversal, without building it)."""
        deep = self.quotients[-1]
        k = rng.randrange(deep.card)
        coords = []
        for h in reversed(deep._diag):
            k, c = divmod(k, h)
            coords.append(c)
        return self.point(coords[::-1])

    def act(self, k, pt: "OdoPoint") -> "OdoPoint":
        return OdoPoint(
            self, tuple(q.act(k, c) for q, c in zip(self.quotients, pt.cosets))
        )


class OdoPoint(Record):
    __slots__ = ("system", "cosets")

    def __init__(self, system: TowerSystem, cosets: tuple):
        for q, c in zip(system.quotients, cosets):
            if q.reduce(c) != c:
                raise ValueError("coset is not a box representative")
        # coherence under the quotient maps
        for n in range(len(cosets) - 1):
            shallow = system.quotients[n]
            if shallow.reduce(cosets[n + 1]) != cosets[n]:
                raise ValueError("cosets are not coherent under the quotient maps")
        self.system = system
        self.cosets = cosets


def measure_cylinder(t: Tower, n: int) -> Fraction:
    """Mass of a depth-n cylinder; independent of the coset."""
    if not 1 <= n <= t.depth:
        raise ValueError("level out of range")
    return Fraction(1, t.index_at(n))


def metric(x: OdoPoint, y: OdoPoint) -> Fraction:
    """sup{0, 1/n : projections differ at level n} over the available depth."""
    if x.system is not y.system or len(x.cosets) != len(y.cosets):
        raise ValueError("points must live on the same tower at the same depth")
    for n, (a, b) in enumerate(zip(x.cosets, y.cosets), start=1):
        if a != b:
            return Fraction(1, n)
    return Fraction(0)


SPECTRUM_MAX_COUNT = 100_000  # eigenvalues that ``spectrum_numerators`` returns at most


class SpectrumTooLargeError(ValueError):
    """A spectrum with more than ``SPECTRUM_MAX_COUNT`` eigenvalues, refused
    before more than that many are built."""

    def __init__(self, height: int):
        super().__init__(
            f"spectrum up to height {height} has more than {SPECTRUM_MAX_COUNT} eigenvalues"
        )


def spectrum_numerators(h: HGroup, height: int):
    """(den, numerators): the rational eigenvalues h mod Z^d with coordinate
    denominators <= height are u / den for the integer tuples u in
    numerators, each coordinate in [0, den), sorted lexicographically; den
    is the product of the p^k below.  More than ``SPECTRUM_MAX_COUNT``
    eigenvalues raise ``SpectrumTooLargeError``, at most that many built.

    Proof sketch: Q^d/Z^d is the direct sum of its p-primary parts, and
    each p-component of v is an integer multiple of v modulo Z^d, so with
    Z^d <= H, v lies in H iff each of its p-components does.  A coordinate's
    denominator is the product of its components' denominators, so each
    component is within the height, and at p it is x / p^k with x integral
    and p^k the largest power of p that is <= height.  Such a vector lies in
    H iff _rows . x = 0 mod p^k, i.e. x lies in Lambda_p; H <= Z[1/S]^d for
    the support S, and a prime p > height has no component but 0.  The
    Smith form U . _rows . V = S that each entry keeps (``_smith``) gives
    Lambda_p = V . diag(p^k / gcd(s_j, p^k), 1, ..., 1) Z^d
    (``hgroup._congruence_rows``); no Smith form is computed here.

    The first count, of each prime alone, lists nothing: with m rows,
    [Z^d : Lambda_p] = prod_j p^k / gcd(s_j, p^k), so Lambda_p / p^k Z^d has
    N_p = p^(k(d-m)) prod_j gcd(s_j, p^k) elements.  Each is an eigenvalue
    with the zero components at the other primes, and eigenvalues with at
    most one nonzero component are distinct, so there are at least
    1 + sum_p (N_p - 1) of them; above the cap, no component is listed.

    Then one prime at a time: Lambda_p contains p^k Z^d, so the diagonal b_j
    of its lower-triangular HNF divides p^k, and sum t_j c_j over the
    columns c_j with t_j in [0, p^k / b_j) reduced mod p^k lists each coset
    of Lambda_p / p^k Z^d once (coordinate j of a difference is
    (t_j - t'_j) b_j mod p^k plus terms of earlier columns).  The
    components are grouped by their tuples of coordinate denominators, and
    whether a sum passes the height depends only on the classes of its
    summands, so the pairs of (partial, component) classes whose products
    pass give exactly the partial eigenvalues over the primes so far, and
    their count is the sum of len(a) * len(b) over those pairs.  That count
    is refused above the cap before any pair is summed.  It never falls from
    one prime to the next, as every later prime contributes its zero
    component, whose denominators are all 1; so some prime's count passes
    the cap exactly when the number of eigenvalues does.  A component x / p^k is held as
    x (den / p^k) over den, so an eigenvalue is the sum of its components'
    numerators, reduced mod den once at the end, and integer order is the
    order of the values.

    Z^2 + Z (1/5, 1/5), up to height 5: the eigenvalues (j/5, j/5).

    >>> spectrum_numerators(HGroup.from_local_data(2, {5: ([(5, (1, 1))], [])}), 5)
    (5, [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)])
    """
    if height < 1:
        raise ValueError("height must be >= 1")
    d = h.d
    primes = []  # (p^k, entry) for the support primes p <= height
    alone = 1  # eigenvalues with at most one nonzero component
    for e in h.entries:
        pk = e.p
        if pk > height:
            continue
        while pk * e.p <= height:
            pk *= e.p
        s = e._smith[0]
        alone += pk ** (d - len(s)) * prod(gcd(x, pk) for x in s) - 1
        primes.append((pk, e))
    if alone > SPECTRUM_MAX_COUNT:
        raise SpectrumTooLargeError(height)
    den = prod(pk for pk, _ in primes)
    partial = {(1,) * d: [(0,) * d]}  # denominator tuple -> numerator sums
    for pk, e in primes:
        basis = Lattice(d, 1, _congruence_rows(e._smith, pk)).mat
        points = [[0] * d]
        for j in range(d):
            col = [row[j] for row in basis]
            points = [
                [(x + t * c) % pk for x, c in zip(pt, col)]
                for pt in points
                for t in range(pk // basis[j][j])
            ]
        scale = den // pk
        part = {}
        for pt in points:
            dens = tuple(pk // gcd(x, pk) for x in pt)
            part.setdefault(dens, []).append(tuple(x * scale for x in pt))
        pairs = []
        for dens_a, nums_a in partial.items():
            for dens_b, nums_b in part.items():
                dens = tuple(map(mul, dens_a, dens_b))
                if max(dens) <= height:
                    pairs.append((dens, nums_a, nums_b))
        if sum(len(a) * len(b) for _, a, b in pairs) > SPECTRUM_MAX_COUNT:
            raise SpectrumTooLargeError(height)
        partial = {}
        for dens, nums_a, nums_b in pairs:
            partial.setdefault(dens, []).extend(
                tuple(map(add, u, v)) for u in nums_a for v in nums_b
            )
    return den, sorted(tuple(x % den for x in u) for nums in partial.values() for u in nums)


# ---------------------------------------------------------------------------
# duality: Y_K vs Z^d/G for K = G*, via SNF of B_G^T


def _units(d: int):
    """The unit vectors e_1, ..., e_d, which generate Z^d."""
    return [(0,) * i + (1,) + (0,) * (d - 1 - i) for i in range(d)]


class DualityRealization:
    """Character-group model of Y_K = dual(K/Z^d) on Z^d/G, for an integer
    lattice G <= Z^d of finite index and K = G* its dual (Z^d <= K).

    K has basis B_K = B_G^-T for the HNF basis B_G of G, so Z^d = B_K (M Z^d)
    with M = B_K^-1 = B_G^T integral, and K/Z^d is Z^d/M Z^d in
    K-coordinates; SNF U M V = S identifies it with + Z/s_i, whose characters
    are integer tuples t modulo the invariant factors.  Translation by n adds
    the tuple V^T n mod s: U^-T = S^-1 V^T M^T, so
    diag(s) U^-T B_K^T = S S^-1 V^T M^T B_K^T = V^T.  The conjugacy onto Z^d/G
    sends t to the class of V^-T t = (S^-1 U M)^T t: entry (k, i) of V^-T is
    <u_i, row k of B_G> / s_i, u_i the rows of U, and that division must be
    exact.  For G <= G1 (K1 <= K)
    restriction of characters is t -> R t / L mod s1 with L = lcm(s) and
    R = V1^T B_G U^T diag(L / s).  Every map is an integer matrix followed by
    a reduction, hence a homomorphism, so ``duality_check`` and
    ``duality_square_check`` certify them on the unit vectors alone.
    """

    def __init__(self, g: Lattice):
        self.quotient = FiniteOdometer(g)
        u, s, v = snf(zip(*g.mat))
        self.snf_diag = diag = tuple(s[i][i] for i in range(g.d))
        self._u_rows = u
        self._shift_rows = [list(col) for col in zip(*v)]
        # integer rows of V^-T for the conjugacy map
        self._v_inv_t_rows = rows = []
        for b in g.mat:
            row = []
            for ui, si in zip(u, diag):
                x, r = divmod(sum(map(mul, ui, b)), si)
                if r:
                    raise ArithmeticError("Smith transforms are inconsistent")
                row.append(x)
            rows.append(row)

    def translation_tuple(self, n):
        """Character of the rotation by n, in invariant-factor coordinates."""
        return tuple(
            [sum(map(mul, row, n)) % si for row, si in zip(self._shift_rows, self.snf_diag)]
        )

    def to_quotient(self, t):
        """The conjugacy h_K: character tuple -> coset of G = K* in Z^d."""
        return self.quotient.reduce([sum(map(mul, row, t)) for row in self._v_inv_t_rows])

    def _restriction(self, sub: "DualityRealization"):
        """Integer rows R and denominator L with restrict_tuple(t) = R t / L
        mod sub's factors (see the class docstring)."""
        g, g1 = self.quotient.lattice, sub.quotient.lattice
        if not g1.contains(g):
            raise NotSubgroupError("G must be contained in G1")
        a = (Mat(sub._shift_rows) * Mat(g.mat) * Mat(self._u_rows).transpose()).num
        den = lcm(*self.snf_diag)
        rows = [[x * (den // sj) for x, sj in zip(row, self.snf_diag)] for row in a]
        return rows, den

    def restrict_tuple(self, t, sub: "DualityRealization"):
        """Restriction of the character to a smaller K1 <= K, i.e. to sub's
        lattice G1 >= G; returns the tuple in sub's coordinates."""
        rows, den = self._restriction(sub)
        out = []
        for row, si in zip(rows, sub.snf_diag):
            num = sum(r * x for r, x in zip(row, t))
            if num % den:
                raise ArithmeticError("restricted character must be integral")
            out.append(num // den % si)
        return tuple(out)


def duality_check(g: Lattice) -> bool:
    """Verify the conjugacy Y_K ~ (Z^d/G, translation), K = G*, by a
    certificate on the unit vectors.

    Write phi = to_quotient, T = translation_tuple, s = snf_diag and
    c_j = phi(e_j).  Both maps are an integer matrix followed by a
    reduction, so phi(t) = sum_j t_j c_j + G and T is additive mod s.  The
    check asks

    (a) prod(s) = |Z^d/G|;
    (b) s_j c_j lies in G for every j;
    (c) sum_j T(e_i)_j c_j - e_i lies in G for every i.

    By (b) phi is a well-defined homomorphism on the characters + Z/s_j.
    By (c) and additivity phi(T(n)) = n + G for every n in Z^d, so phi is
    onto, hence a bijection by (a), and phi(t + T(n)) = phi(t) + n: phi
    conjugates the character shift by T(n) to the rotation by n.  For an
    additive phi this is the same statement as comparing the two
    permutations on all |Z^d/G| characters for each unit translation, in
    O(d^2) integer work.  The realization passes: the SNF has determinant
    |det B_G| = |Z^d/G|, V^-T diag(s) = B_G U^T has its columns in G, and
    V^-T V^T = I.

    >>> g = Lattice.from_span(2, [(2, 1), (0, 3)])
    >>> real = DualityRealization(g)
    >>> real.snf_diag, [real.to_quotient(e) for e in _units(2)]
    ((1, 6), [(0, 0), (1, 0)])
    >>> [real.translation_tuple(e) for e in _units(2)]
    [(0, 1), (0, 4)]
    >>> duality_check(g)  # 4 * (1, 0) - (0, 1) = 2 * (2, 1) - (0, 3)
    True
    """
    real = DualityRealization(g)
    q, s = real.quotient, real.snf_diag
    if prod(s) != q.card:
        return False
    reduce = q.reduce
    units = _units(g.d)
    zero = (0,) * g.d
    c = [real.to_quotient(e) for e in units]
    for sj, cj in zip(s, c):
        if reduce([sj * x for x in cj]) != zero:
            return False
    cols = list(zip(*c))
    for e in units:
        te = real.translation_tuple(e)
        if reduce([sum(map(mul, te, col)) - x for col, x in zip(cols, e)]) != zero:
            return False
    return True


def duality_square_check(g1: Lattice, g2: Lattice) -> bool:
    """Commuting square for G2 <= G1 <= Z^d (Z^d <= K1 <= K2): restriction of
    characters over the natural quotient Z^d/G2 -> Z^d/G1, certified on the
    unit vectors as in ``duality_check``.

    With rho_j = restrict_tuple(e_j), phi, phi1 the conjugacies of G2, G1
    and T, T1 their translation maps, the check asks that s2_j rho_j = 0
    mod s1 and s2_j phi(e_j) lies in G1 (both sides are well defined on the
    characters of K2), that phi1(rho_j) = phi(e_j) + G1 (the square commutes
    on generators, hence everywhere), and that sum_j T(e_i)_j rho_j =
    T1(e_i) mod s1 (restriction intertwines the translations)."""
    if not g1.contains(g2):
        raise NotSubgroupError("G2 must be contained in G1")
    big, small = DualityRealization(g2), DualityRealization(g1)
    q, s1 = small.quotient, small.snf_diag
    units = _units(g1.d)
    zero = (0,) * g1.d
    rho = [big.restrict_tuple(e, small) for e in units]
    for sj, r, e in zip(big.snf_diag, rho, units):
        c = big.to_quotient(e)
        if any(sj * x % si for x, si in zip(r, s1)):
            return False
        if q.reduce([sj * x for x in c]) != zero or small.to_quotient(r) != q.reduce(c):
            return False
    cols = list(zip(*rho))
    for e in units:
        te = big.translation_tuple(e)
        pairs = zip(cols, small.translation_tuple(e), s1)
        if any((sum(map(mul, te, col)) - y) % si for col, y, si in pairs):
            return False
    return True
