"""Finite quotient dynamics Z^d/G and inverse-limit points to finite depth.

The coset transversal of an integer lattice G <= Z^d is the box read off the
diagonal of its column HNF basis; reduction into the box walks the triangular
basis column by column.  Character groups of finite quotients K/Z^d are
realized through the Smith normal form of the inclusion matrix, so duality
checks are bit-exact integer computations.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod

from .hgroup import HGroup, Tower, direct_sum, member_h, tower
from .linalg import Lattice, index, lattice_block, snf, subspace_contains


class NotSubgroupError(ValueError):
    """Factor-map check called on a non-nested pair."""


class FiniteOdometer:
    """Translation action of Z^d on Z^d/G, G an integer lattice of finite index."""

    __slots__ = ("lattice", "d", "card", "reps", "_diag")

    def __init__(self, lattice: Lattice):
        if not lattice.is_integral():
            raise ValueError("quotient lattice must be contained in Z^d")
        self.lattice = lattice
        self.d = lattice.d
        self._diag = lattice.diagonal()
        self.card = prod(self._diag)
        self.reps = tuple(itertools.product(*[range(h) for h in self._diag]))

    def reduce(self, v):
        """Box representative of v + G (forward walk along the triangular basis)."""
        w = [int(x) for x in v]
        m = self.lattice.mat
        for j in range(self.d):
            q = w[j] // m[j][j]
            if q:
                for i in range(j, self.d):
                    w[i] -= q * m[i][j]
        return tuple(w)

    def act(self, k, x):
        """phi_G(k): x + G -> k + x + G."""
        return self.reduce([a + b for a, b in zip(k, x)])

    def same_coset(self, v, w) -> bool:
        return self.reduce(v) == self.reduce(w)

    def orbit_is_everything(self, start=None) -> bool:
        """Finite-level minimality: one Z^d-orbit covers the quotient."""
        start = self.reduce(start) if start is not None else (0,) * self.d
        seen = {start}
        frontier = [start]
        steps = [tuple(1 if i == j else 0 for i in range(self.d)) for j in range(self.d)]
        steps += [tuple(-x for x in s) for s in steps]
        while frontier:
            x = frontier.pop()
            for s in steps:
                y = self.act(s, x)
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return len(seen) == self.card

    def __repr__(self):
        return f"FiniteOdometer(card={self.card}, diag={self._diag})"


class TowerSystem:
    """The finite quotients along a tower plus finite-depth inverse-limit points."""

    def __init__(self, t: Tower):
        self.tower = t
        self.quotients = tuple(FiniteOdometer(g) for g in t.duals)

    @property
    def depth(self) -> int:
        return len(self.quotients)

    def point(self, v) -> "OdoPoint":
        """The point with coordinates v + G_n at every level (these exhaust
        all finite-depth points since Z^d surjects onto each quotient)."""
        return OdoPoint(self, tuple(q.reduce(v) for q in self.quotients))

    def zero(self) -> "OdoPoint":
        return self.point((0,) * self.quotients[0].d)

    def random_point(self, rng: random.Random) -> "OdoPoint":
        deep = self.quotients[-1]
        return self.point(rng.choice(deep.reps))

    def act(self, k, pt: "OdoPoint") -> "OdoPoint":
        return OdoPoint(
            self, tuple(q.act(k, c) for q, c in zip(self.quotients, pt.cosets))
        )


@dataclass(frozen=True)
class OdoPoint:
    system: TowerSystem
    cosets: tuple

    def __post_init__(self):
        for q, c in zip(self.system.quotients, self.cosets):
            if q.reduce(c) != c:
                raise ValueError("coset is not a box representative")
        # coherence under the quotient maps
        for n in range(len(self.cosets) - 1):
            shallow = self.system.quotients[n]
            if shallow.reduce(self.cosets[n + 1]) != self.cosets[n]:
                raise ValueError("cosets are not coherent under the quotient maps")


def measure_cylinder(t: Tower, n: int, coset=None) -> Fraction:
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


def spectrum(h: HGroup, height: int):
    """Rational eigenvalues h mod Z^d with coordinate denominators <= height,
    reduced to [0,1)^d and sorted lexicographically."""
    if height < 1:
        raise ValueError("height must be >= 1")
    line = [Fraction(0)]
    for den in range(2, height + 1):
        for num in range(1, den):
            if gcd(num, den) == 1:
                line.append(Fraction(num, den))
    out = [
        v
        for v in itertools.product(sorted(line), repeat=h.d)
        if member_h(v, h)
    ]
    out.sort()
    return out


# ---------------------------------------------------------------------------
# duality: Y_K vs Z^d/K* via SNF of the inclusion matrix


def _int_matmul(a, b):
    """Product of integer matrices given as lists of rows."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _transpose(a):
    return [list(col) for col in zip(*a)]


def _divide_columns(a, divisors):
    """a . diag(divisors)^-1, which must be an integer matrix."""
    if any(x % q for row in a for x, q in zip(row, divisors)):
        raise ArithmeticError("Smith transforms are inconsistent")
    return [[x // q for x, q in zip(row, divisors)] for row in a]


class DualityRealization:
    """Character-group model of Y_K = dual(K/Z^d) for Z^d <= K of finite index.

    Writing Z^d = B_K . (M Z^d) with M = B_K^-1 integral, the quotient K/Z^d
    is Z^d/M Z^d in K-coordinates; SNF U M V = S identifies it with
    + Z/s_i, whose characters are integer tuples t modulo the invariant
    factors.  Translation by n adds the tuple s * (U^-T B_K^T n) mod s, and
    the conjugacy onto Z^d/K* sends t to the class of V^-T t.  Every map is
    precomputed as an integer matrix, so the per-character work is integer
    dot products reduced mod s.
    """

    def __init__(self, k: Lattice):
        self.k = k
        self.d = k.d
        self.basis = k.basis()
        m = self.basis.inv()
        if not m.is_integer():
            raise NotSubgroupError("K must contain Z^d")
        self._m_rows = [[int(x) for x in row] for row in m.rows]
        u, s, v = snf(self._m_rows)
        self.snf_diag = tuple(s[i][i] for i in range(k.d))
        self._u_rows = u
        # U M V = S gives U^-1 = M V S^-1 and V^-1 = S^-1 U M
        self._u_inv_rows = _divide_columns(_int_matmul(self._m_rows, v), self.snf_diag)
        # diag(s) . U^-T . B_K^T with B_K = mat / den: integral iff every
        # translation character is
        shift = _int_matmul(_transpose(self._u_inv_rows), _transpose(k.mat))
        shift = [[si * x for x in row] for si, row in zip(self.snf_diag, shift)]
        if any(x % k.den for row in shift for x in row):
            raise ArithmeticError("translation character must be integral")
        self._shift_rows = [[x // k.den for x in row] for row in shift]
        # integer rows of V^-T for the hot conjugacy map
        self._v_inv_t_rows = _divide_columns(
            _transpose(_int_matmul(u, self._m_rows)), self.snf_diag
        )
        self._restrictions = {}
        self.points = tuple(itertools.product(*[range(si) for si in self.snf_diag]))
        # K* has basis B_K^-T, whose columns are the rows of M
        self.quotient = FiniteOdometer(Lattice.from_span(k.d, self._m_rows))

    def card(self) -> int:
        return len(self.points)

    def translation_tuple(self, n):
        """Character of the rotation by n, in invariant-factor coordinates."""
        return tuple(
            sum(r * x for r, x in zip(row, n)) % si
            for row, si in zip(self._shift_rows, self.snf_diag)
        )

    def _shifted(self, t, shift):
        return tuple((a + b) % si for a, b, si in zip(t, shift, self.snf_diag))

    def translate(self, n, t):
        return self._shifted(t, self.translation_tuple(n))

    def to_quotient(self, t):
        """The conjugacy h_K: character tuple -> coset of K* in Z^d."""
        img = [sum(r * x for r, x in zip(row, t)) for row in self._v_inv_t_rows]
        return self.quotient.reduce(img)

    def _restriction(self, sub: "DualityRealization"):
        """Integer rows R and denominator L with restrict_tuple(t) = R t / L
        mod sub's factors: R = diag(s') U'^-T C^T U^T diag(L / s), where C is
        the K1-basis in K-coordinates and L = lcm(s)."""
        cached = self._restrictions.get(sub)
        if cached is not None:
            return cached
        c = _int_matmul(self._m_rows, sub.k.mat)
        if any(x % sub.k.den for row in c for x in row):
            raise NotSubgroupError("K1 must be contained in K2")
        c_t = [[x // sub.k.den for x in col] for col in zip(*c)]
        a = _int_matmul(_int_matmul(_transpose(sub._u_inv_rows), c_t), _transpose(self._u_rows))
        den = lcm(*self.snf_diag)
        rows = [
            [si * x * (den // sj) for x, sj in zip(row, self.snf_diag)]
            for si, row in zip(sub.snf_diag, a)
        ]
        self._restrictions[sub] = rows, den
        return rows, den

    def restrict_tuple(self, t, sub: "DualityRealization"):
        """Restriction of the character to a smaller K1 <= K (sub must satisfy
        K1 <= K); returns the tuple in sub's coordinates."""
        rows, den = self._restriction(sub)
        out = []
        for row, si in zip(rows, sub.snf_diag):
            num = sum(r * x for r, x in zip(row, t))
            if num % den:
                raise ArithmeticError("restricted character must be integral")
            out.append(num // den % si)
        return tuple(out)


def duality_check(k: Lattice, samples: int = 5, rng: random.Random | None = None) -> bool:
    """Verify the conjugacy Y_K ~ (Z^d/K*, translation) point by point."""
    rng = rng or random.Random(0)
    real = DualityRealization(k)
    zd = Lattice.standard(k.d)
    if real.card() != int(index(zd, k)) or real.card() != real.quotient.card:
        return False
    images = {t: real.to_quotient(t) for t in real.points}
    if set(images.values()) != set(real.quotient.reps):
        return False
    if images[(0,) * k.d] != (0,) * k.d:
        return False
    for _ in range(samples):
        n = tuple(rng.randint(-8, 8) for _ in range(k.d))
        shift = real.translation_tuple(n)
        for t, x in images.items():
            if images[real._shifted(t, shift)] != real.quotient.act(n, x):
                return False
    return True


def duality_square_check(
    k1: Lattice, k2: Lattice, samples: int = 5, rng: random.Random | None = None
) -> bool:
    """Commuting square for Z^d <= K1 <= K2: restriction of characters over
    the natural quotient of the dual-lattice odometers."""
    rng = rng or random.Random(0)
    if not k2.contains(k1):
        raise NotSubgroupError("K1 must be contained in K2")
    big, small = DualityRealization(k2), DualityRealization(k1)
    restricted = {t: big.restrict_tuple(t, small) for t in big.points}
    for t, r in restricted.items():
        if small.to_quotient(r) != small.quotient.reduce(big.to_quotient(t)):
            return False
    for _ in range(samples):
        n = tuple(rng.randint(-6, 6) for _ in range(k1.d))
        big_shift, small_shift = big.translation_tuple(n), small.translation_tuple(n)
        for t, r in restricted.items():
            if restricted[big._shifted(t, big_shift)] != small._shifted(r, small_shift):
                return False
    return True


# ---------------------------------------------------------------------------
# product and factor-map checks


def product_check(h1: HGroup, h2: HGroup, depth: int, sample_cap: int = 512) -> bool:
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
        if len(pairs) > sample_cap:
            pairs = [rng.choice(pairs) for _ in range(sample_cap)]
        for a, b in pairs:
            k = tuple(rng.randint(-5, 5) for _ in range(f12.d))
            joint = f12.act(k, a + b)
            split = f1.act(k[:d1], a) + f2.act(k[d1:], b)
            if joint != split:
                return False
    return True


def is_subgroup(h: HGroup, hp: HGroup) -> bool:
    """H <= H' for LOCAL presentations."""
    if h.d != hp.d:
        return False
    for e in h.entries:
        ep = hp.entry(e.p)
        if ep is None:
            return False
        for w in e.vspan:
            if not subspace_contains(ep.vspan, w):
                return False
        if not all(ep.member_local(c) for c in e.lattice.basis_columns()):
            return False
    return True


def factor_map_check(h: HGroup, hp: HGroup, depth: int) -> bool:
    """Level-wise equivariant surjections Y_{H'} -> Y_H for H <= H'."""
    if not is_subgroup(h, hp):
        raise NotSubgroupError("first group must be contained in the second")
    t, tp = tower(h, depth), tower(hp, depth)
    for n in range(depth):
        g, gp = t.duals[n], tp.duals[n]
        if not g.contains(gp):
            return False
        fine, coarse = FiniteOdometer(gp), FiniteOdometer(g)
        image = {coarse.reduce(x) for x in fine.reps}
        if image != set(coarse.reps):
            return False
        rng = random.Random(n)
        for x in fine.reps if fine.card <= 256 else [
            rng.choice(fine.reps) for _ in range(256)
        ]:
            k = tuple(rng.randint(-4, 4) for _ in range(h.d))
            if coarse.reduce(fine.act(k, x)) != coarse.act(k, coarse.reduce(x)):
                return False
    return True
