"""1-cocycles on finite quotients, the trace, and co-invariants.

A 1-cocycle on (Z^d/G, translation) is determined by its values on the
standard generators, theta(x, e_i), subject to the commuting-square
compatibility that makes the extension

    theta(x, m + n) = theta(x, m) + theta(phi^m x, n)

well defined.  Evaluating at the zero coset gives a homomorphism G -> Z,
i.e. an element of the dual lattice G*; conversely an explicit cocycle is
built from the fundamental-domain recipe on the half-open parallelogram of a
compliant generator pair (d <= 2).  Integrating the generator values against
the normalized counting measure gives the trace, which recovers the dual
vector exactly.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .hgroup import HGroup, Tower, _require_local, canonicalize, superindex, tower
from .linalg import IntegerSolver, Lattice, Supernatural, snf
from .odometer import FiniteOdometer


class BadGeneratorsError(ValueError):
    """No compliant generator pair available for the cocycle construction."""


class Cocycle1:
    """Integer 1-cocycle on a finite quotient, stored by generator values."""

    __slots__ = ("quotient", "gen_values")

    def __init__(self, quotient: FiniteOdometer, gen_values, validate: bool = True):
        self.quotient = quotient
        self.gen_values = tuple(dict(g) for g in gen_values)
        if len(self.gen_values) != quotient.d:
            raise ValueError("one generator-value map per dimension is required")
        for g in self.gen_values:
            if set(g) != set(quotient.reps):
                raise ValueError("generator values must cover every coset")
        if validate:
            self._check_compatibility()

    def _check_compatibility(self):
        q = self.quotient
        units = [tuple(1 if k == i else 0 for k in range(q.d)) for i in range(q.d)]
        for i, j in itertools.combinations(range(q.d), 2):
            gi, gj = self.gen_values[i], self.gen_values[j]
            for x in q.reps:
                left = gi[x] + gj[q.act(units[i], x)]
                right = gj[x] + gi[q.act(units[j], x)]
                if left != right:
                    raise ValueError(
                        f"incompatible generator values at {x} for e_{i+1},e_{j+1}"
                    )

    @classmethod
    def epsilon(cls, quotient: FiniteOdometer, i: int) -> "Cocycle1":
        """The constant cocycle theta(x, n) = n_i."""
        vals = [
            {x: (1 if k == i else 0) for x in quotient.reps} for k in range(quotient.d)
        ]
        return cls(quotient, vals, validate=False)

    @classmethod
    def from_coboundary(cls, quotient: FiniteOdometer, f) -> "Cocycle1":
        """d(f): theta(x, n) = f(phi^n x) - f(x)."""
        f = dict(f)
        units = [
            tuple(1 if k == i else 0 for k in range(quotient.d))
            for i in range(quotient.d)
        ]
        vals = [
            {x: f[quotient.act(u, x)] - f[x] for x in quotient.reps} for u in units
        ]
        return cls(quotient, vals, validate=False)

    def evaluate(self, x, n) -> int:
        """theta(x + G, n) by stepping the path e_1...e_1 e_2...e_2 ...;
        the compatibility invariant makes the value path independent."""
        q = self.quotient
        pos = q.reduce(x)
        total = 0
        for i, steps in enumerate(n):
            unit = tuple(1 if k == i else 0 for k in range(q.d))
            neg = tuple(-u for u in unit)
            if steps >= 0:
                for _ in range(int(steps)):
                    total += self.gen_values[i][pos]
                    pos = q.act(unit, pos)
            else:
                for _ in range(-int(steps)):
                    pos = q.act(neg, pos)
                    total -= self.gen_values[i][pos]
        return total

    def scale(self, c: int) -> "Cocycle1":
        vals = [{x: c * v for x, v in g.items()} for g in self.gen_values]
        return Cocycle1(self.quotient, vals, validate=False)

    def __add__(self, other: "Cocycle1") -> "Cocycle1":
        if self.quotient is not other.quotient and self.quotient.lattice != other.quotient.lattice:
            raise ValueError("cocycles live on different quotients")
        vals = [
            {x: g[x] + h[x] for x in g}
            for g, h in zip(self.gen_values, other.gen_values)
        ]
        return Cocycle1(self.quotient, vals, validate=False)

    def __sub__(self, other: "Cocycle1") -> "Cocycle1":
        return self + other.scale(-1)

    def __eq__(self, other):
        return (
            isinstance(other, Cocycle1)
            and self.quotient.lattice == other.quotient.lattice
            and self.gen_values == other.gen_values
        )

    def __repr__(self):
        return f"Cocycle1(card={self.quotient.card}, d={self.quotient.d})"


def alpha_map(theta: Cocycle1):
    """The dual vector h in G* with theta(0 + G, g) = <g, h> for g in G."""
    g = theta.quotient.lattice
    zero = (0,) * g.d
    targets = [theta.evaluate(zero, col) for col in g.basis_columns()]
    return g.basis().transpose().inv().apply(targets)


# ---------------------------------------------------------------------------
# explicit cocycles from the parallelogram fundamental domain


def generator_pair(g: Lattice):
    """Compliant generators (a,b), (c,d) read off the HNF basis columns:
    a,d > 0, b,c >= 0, ad - bc > 0.  With columns (h11,h21), (0,h22) the
    second line is vertical, so it always lies above the first."""
    if g.d != 2:
        raise BadGeneratorsError("generator pairs are a d=2 construction")
    if not g.is_integral():
        raise BadGeneratorsError("quotient lattice must be integral")
    (h11, h12), (h21, h22) = g.mat
    return (h11, h21), (h12, h22)


def _check_pair(g: Lattice, pair):
    (a, b), (c, d) = pair
    if not (a > 0 and d > 0 and b >= 0 and c >= 0 and a * d - b * c > 0):
        raise BadGeneratorsError(f"pair {pair} violates a,d>0, b,c>=0, ad-bc>0")
    if a * d - b * c != int(g.det()):
        raise BadGeneratorsError("pair does not generate the lattice")
    if not (g.member((a, b)) and g.member((c, d))):
        raise BadGeneratorsError("pair does not lie in the lattice")
    return pair


def parallelogram_domain(g: Lattice, pair=None):
    """Integer points of {s(a,b) + t(c,d) : 0 <= s,t < 1}, sorted.

    With det = ad - bc > 0, the coordinates are s = (dx - cy)/det and
    t = (ay - bx)/det, so 0 <= s,t < 1 compares the numerators with det.
    """
    pair = _check_pair(g, pair or generator_pair(g))
    (a, b), (c, d) = pair
    det = a * d - b * c
    pts = []
    xs = range(min(0, a, c, a + c), max(0, a, c, a + c) + 1)
    ys = range(min(0, b, d, b + d), max(0, b, d, b + d) + 1)
    for x, y in itertools.product(xs, ys):
        if 0 <= d * x - c * y < det and 0 <= a * y - b * x < det:
            pts.append((x, y))
    if len(pts) != det:
        raise BadGeneratorsError("fundamental domain has the wrong cardinality")
    return sorted(pts), pair


def _domain_reducer(pair):
    """v -> v - floor(s)(a,b) - floor(t)(c,d), the representative of v in
    the half-open parallelogram (det = ad - bc > 0, so floor is //)."""
    (a, b), (c, d) = pair
    det = a * d - b * c

    def rep(v):
        x, y = int(v[0]), int(v[1])
        fs = (d * x - c * y) // det
        ft = (a * y - b * x) // det
        return (x - fs * a - ft * c, y - fs * b - ft * d)

    return rep


def build_cocycle(g: Lattice, h, pair=None) -> Cocycle1:
    """Explicit cocycle with alpha_map equal to h in G* (d = 1 or 2).

    theta(x + G, n) = <g', h> where rep(x) + n = rep(rep(x) + n) + g' over the
    fundamental domain: the interval {0..m-1} for d = 1, the half-open
    parallelogram of the generator pair for d = 2.  The pairing is taken in
    integers: h = h_num / den over the common denominator of its entries.
    """
    if not g.is_integral():
        raise BadGeneratorsError("quotient lattice must be integral")
    h = [Fraction(x) for x in h]
    den = lcm(*(x.denominator for x in h))
    h_num = [x.numerator * (den // x.denominator) for x in h]
    for col in zip(*g.mat):
        if sum(x * y for x, y in zip(col, h_num)) % den:
            raise ValueError("h must pair integrally with the lattice (h in G*)")
    quotient = FiniteOdometer(g)
    if g.d == 1:
        m = g.mat[0][0]

        def rep(v):
            return (int(v[0]) % m,)

    elif g.d == 2:
        _, pair = parallelogram_domain(g, pair)
        rep = _domain_reducer(pair)
    else:
        raise BadGeneratorsError("explicit cocycles are provided for d <= 2 only")

    vals = [{} for _ in range(g.d)]
    for x in quotient.reps:
        k1 = rep(x)
        for i, column in enumerate(vals):
            w = list(k1)
            w[i] += 1
            pairing = sum((a - b) * c for a, b, c in zip(w, rep(w), h_num))
            if pairing % den:
                raise ArithmeticError("domain step left the lattice")
            column[x] = pairing // den
    return Cocycle1(quotient, vals)


def tau1(theta: Cocycle1):
    """Trace: integrate theta(., e_i) against normalized counting measure."""
    card = theta.quotient.card
    return tuple(Fraction(sum(g.values()), card) for g in theta.gen_values)


# ---------------------------------------------------------------------------
# coboundaries


class CoboundarySolver:
    """Decides theta in B^1 by integer linear algebra on a fixed quotient.

    The difference operator f |-> (f(x + e_i) - f(x))_{i,x} is echelonized
    once; each query checks solvability of D f = theta exactly over Z.
    """

    def __init__(self, quotient: FiniteOdometer):
        self.quotient = quotient
        reps = quotient.reps
        self.pos = {x: k for k, x in enumerate(reps)}
        units = [
            tuple(1 if k == i else 0 for k in range(quotient.d))
            for i in range(quotient.d)
        ]
        rows = []
        for unit in units:
            for x in reps:
                row = [0] * len(reps)
                row[self.pos[quotient.act(unit, x)]] += 1
                row[self.pos[x]] -= 1
                rows.append(row)
        self._solver = IntegerSolver(rows)

    def solve(self, theta: Cocycle1):
        """A function f with d(f) = theta, or None."""
        rhs = []
        for g in theta.gen_values:
            rhs.extend(g[x] for x in self.quotient.reps)
        sol = self._solver.solve(rhs)
        if sol is None:
            return None
        return {x: sol[k] for x, k in self.pos.items()}


def coboundary_between(theta: Cocycle1, eta: Cocycle1):
    """Explicit f with theta - eta = d(f), given equal alpha_map values:
    f(k + G) = theta(G, k) - eta(G, k) on coset representatives."""
    q = theta.quotient
    zero = (0,) * q.d
    f = {x: theta.evaluate(zero, x) - eta.evaluate(zero, x) for x in q.reps}
    return f


def is_coboundary_of(theta: Cocycle1, f) -> bool:
    return Cocycle1.from_coboundary(theta.quotient, f) == theta


# ---------------------------------------------------------------------------
# cohomology and co-invariants of the odometer


@dataclass(frozen=True)
class H1Presentation:
    """H^1 of the odometer of H: the group itself, with its level data."""

    group: HGroup
    tower: Tower

    def level_duals(self):
        """Hom(G_n, Z) realized as the dual lattice H_n at each level."""
        return tuple(g.dual() for g in self.tower.duals)


def h1_presentation(h: HGroup, depth: int = 4) -> H1Presentation:
    """First cohomology of the odometer: canonically H itself, together with
    the commuting level maps Hom(H_n*, Z) = H_n."""
    _require_local(h)
    t = tower(h, depth)
    for n in range(depth - 1):
        if not t.levels[n + 1].contains(t.levels[n]):
            raise ArithmeticError("tower levels fail to increase")
    for g, lvl in zip(t.duals, t.levels):
        if g.dual() != lvl:
            raise ArithmeticError("level duality failed")
    return H1Presentation(canonicalize(h), t)


def level_coinvariants_ok(quotient: FiniteOdometer) -> bool:
    """D(Z^d/G) is infinite cyclic with tau an order isomorphism onto
    [Z^d:G]^-1 Z: the difference functions span a saturated corank-1
    sublattice of Z^reps contained in the kernel of summation."""
    reps = quotient.reps
    n = len(reps)
    pos = {x: k for k, x in enumerate(reps)}
    units = [
        tuple(1 if k == i else 0 for k in range(quotient.d)) for i in range(quotient.d)
    ]
    cols = []
    for unit in units:
        for x in reps:
            col = [0] * n
            col[pos[x]] += 1
            col[pos[quotient.act(unit, x)]] -= 1
            cols.append(col)
    if any(sum(c) != 0 for c in cols):  # B lies in ker(sum)
        return False
    rows = [[cols[j][i] for j in range(len(cols))] for i in range(n)]
    _, s, _ = snf(rows)
    factors = [s[i][i] for i in range(min(n, len(cols))) if s[i][i] != 0]
    return len(factors) == n - 1 and all(f == 1 for f in factors)


def coinvariants(h: HGroup, verify_depth: int = 3) -> Supernatural:
    """Co-invariants D(Y_H) as a supernatural number: equals the superindex.

    At each tower level up to verify_depth the finite quotient is checked:
    D(Z^d/G_n) must be infinite cyclic and the trace an order isomorphism
    onto [Z^d : G_n]^-1 Z generated by [1]/card.
    """
    _require_local(h)
    t = tower(h, verify_depth)
    for g in t.duals:
        if not level_coinvariants_ok(FiniteOdometer(g)):
            raise ArithmeticError("finite-level co-invariants are not infinite cyclic")
    return superindex(h)


def torsion_free_check(
    quotient: FiniteOdometer,
    trials: int = 200,
    rng: random.Random | None = None,
    max_multiple: int = 5,
) -> bool:
    """No torsion in H^1: whenever n * theta is a coboundary (an integer
    linear system), theta itself is one.  Random cocycles are dual-vector
    cocycles plus coboundaries; a third of the trials seed f divisible by n
    so that the solvable branch is exercised."""
    rng = rng or random.Random(0)
    solver = CoboundarySolver(quotient)
    g = quotient.lattice
    dual_basis = g.basis().transpose().inv()
    for trial in range(trials):
        n = rng.randint(2, max_multiple)
        style = trial % 3
        if style == 0:
            # theta = d(f0) presented as (1/n) d(n f0): n*theta solvable by seeding
            f0 = {x: rng.randint(-4, 4) for x in quotient.reps}
            theta = Cocycle1.from_coboundary(quotient, f0)
        elif style == 1:
            coeffs = [rng.randint(-3, 3) for _ in range(quotient.d)]
            hvec = dual_basis.apply(coeffs)
            theta = build_cocycle(g, hvec)
        else:
            coeffs = [rng.randint(-3, 3) for _ in range(quotient.d)]
            hvec = dual_basis.apply(coeffs)
            f0 = {x: rng.randint(-4, 4) for x in quotient.reps}
            theta = build_cocycle(g, hvec) + Cocycle1.from_coboundary(quotient, f0)
        scaled = theta.scale(n)
        fn = solver.solve(scaled)
        if fn is not None:
            if not is_coboundary_of(scaled, fn):
                return False
            f1 = solver.solve(theta)
            if f1 is None or not is_coboundary_of(theta, f1):
                return False
    return True
