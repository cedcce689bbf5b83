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

from .hgroup import HGroup, Tower, _require_local, canonicalize, superindex, tower
from .linalg import Lattice, Supernatural, adjugate, clear_denominators
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
        cosets = quotient.steps[0].keys()
        for g in self.gen_values:
            if g.keys() != cosets:
                raise ValueError("generator values must cover every coset")
        if validate:
            self._check_compatibility()

    def _check_compatibility(self):
        q = self.quotient
        for i, j in itertools.combinations(range(q.d), 2):
            gi, gj = self.gen_values[i], self.gen_values[j]
            si, sj = q.steps[i], q.steps[j]
            for x in q.reps:
                if gi[x] + gj[si[x]] != gj[x] + gi[sj[x]]:
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
        vals = [{x: f[y] - f[x] for x, y in step.items()} for step in quotient.steps]
        return cls(quotient, vals, validate=False)

    def evaluate(self, x, n) -> int:
        """theta(x + G, n) by stepping the path e_1...e_1 e_2...e_2 ...;
        the compatibility invariant makes the value path independent."""
        q = self.quotient
        pos = q.reduce(x)
        total = 0
        for i, count in enumerate(n):
            values, step = self.gen_values[i], q.steps[i]
            if count >= 0:
                for _ in range(int(count)):
                    total += values[pos]
                    pos = step[pos]
            else:
                back = {y: x for x, y in step.items()}
                for _ in range(-int(count)):
                    pos = back[pos]
                    total -= values[pos]
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
    quotient = FiniteOdometer(g)
    den, h_num = _dual_numerators(g, h)
    return _cocycle_from_carries(quotient, _carry_table(quotient, pair), den, h_num)


def _dual_numerators(g: Lattice, h):
    """(den, h_num) with h = h_num / den, after checking that h lies in G*."""
    if len(h) != g.d:
        raise ValueError(f"h has {len(h)} entries, the lattice dimension is {g.d}")
    den, (h_num,) = clear_denominators([h])
    for col in zip(*g.mat):
        if sum(x * y for x, y in zip(col, h_num)) % den:
            raise ValueError("h must pair integrally with the lattice (h in G*)")
    return den, h_num


def _carry_table(quotient: FiniteOdometer, pair=None):
    """The h-independent half of build_cocycle: generators g_j of G (m for
    d = 1, the pair for d = 2) and, for every coset x and generator e_i,
    the integer carries c_j with w - rep(w) = sum_j c_j g_j for
    w = rep(x) + e_i.  Then theta_i(x) = sum_j c_j <g_j, h> for every h.
    The carries are solved from w - rep(w) by Cramer's rule; a division
    that is not exact means the step left the lattice."""
    g = quotient.lattice
    if g.d == 1:
        m = g.mat[0][0]
        gens = ((m,),)

        def rep(v):
            return (int(v[0]) % m,)

    elif g.d == 2:
        _, gens = parallelogram_domain(g, pair)
        rep = _domain_reducer(gens)
    else:
        raise BadGeneratorsError("explicit cocycles are provided for d <= 2 only")
    det, adj = adjugate([list(row) for row in zip(*gens)])
    inside = (0,) * len(gens)
    table = [{} for _ in range(g.d)]
    for x in quotient.reps:
        k1 = rep(x)
        for i, column in enumerate(table):
            w = k1[:i] + (k1[i] + 1,) + k1[i + 1 :]
            r = rep(w)
            if r == w:
                column[x] = inside
                continue
            diff = [a - b for a, b in zip(w, r)]
            carries = []
            for row in adj:
                c, rem = divmod(sum(a * b for a, b in zip(row, diff)), det)
                if rem:
                    raise ArithmeticError("domain step left the lattice")
                carries.append(c)
            column[x] = tuple(carries)
    return gens, table


def _cocycle_from_carries(quotient: FiniteOdometer, table, den: int, h_num) -> Cocycle1:
    """The h-dependent half of build_cocycle: one integral pairing
    <g_j, h> per generator (exact, as g_j is in G and h in G*), then
    theta_i(x) = sum_j c_j <g_j, h> over the carries of the table."""
    gens, carries = table
    pairings = [sum(a * b for a, b in zip(gen, h_num)) // den for gen in gens]
    values = {
        cs: sum(c * p for c, p in zip(cs, pairings))
        for column in carries
        for cs in set(column.values())
    }
    vals = [{x: values[cs] for x, cs in column.items()} for column in carries]
    return Cocycle1(quotient, vals)


def tau1(theta: Cocycle1):
    """Trace: integrate theta(., e_i) against normalized counting measure."""
    card = theta.quotient.card
    return tuple(Fraction(sum(g.values()), card) for g in theta.gen_values)


# ---------------------------------------------------------------------------
# coboundaries


class CoboundarySolver:
    """Decides theta in B^1 on a fixed quotient by a spanning-tree potential.

    If D f = theta, then f - f(0) is forced along the quotient's spanning
    tree: f(x + e_i) = f(x) + theta_i(x).  So D f = theta has an integer
    solution iff the potential with f(0) = 0 built along the tree satisfies
    every edge, and then that potential is one.
    """

    def __init__(self, quotient: FiniteOdometer):
        if not quotient.orbit_is_everything():
            raise ArithmeticError("unit-step graph is not connected")
        self.quotient = quotient
        self._zero = (0,) * quotient.d
        self._tree = quotient.spanning_tree

    def solve(self, theta: Cocycle1):
        """The function f with d(f) = theta and f(0) = 0, or None."""
        values = theta.gen_values
        f = {self._zero: 0}
        for x, i, y in self._tree:
            f[y] = f[x] + values[i][x]
        for column, step in zip(values, self.quotient.steps):
            for x, y in step.items():
                if f[y] - f[x] != column[x]:
                    return None
        return f


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
    sublattice of Z^reps contained in the kernel of summation.

    They are the edge vectors e_{x+e_i} - e_x of the unit-step graph, and
    the edges of a spanning tree are a Z-basis of ker(sum) (the reduced
    incidence matrix), while a graph with c components spans only rank
    card - c: so the check holds iff the graph is connected."""
    return quotient.orbit_is_everything()


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
    """No torsion in H^1: whenever n * theta is a coboundary (decided by
    the tree potential of CoboundarySolver), theta itself is one.  Random
    cocycles are dual-vector cocycles plus coboundaries; a third of the
    trials seed f divisible by n so that the solvable branch is exercised.
    The carry table of the explicit cocycles is built once per quotient."""
    rng = rng or random.Random(0)
    solver = CoboundarySolver(quotient)
    g = quotient.lattice
    table = _carry_table(quotient)
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
            theta = _cocycle_from_carries(quotient, table, *_dual_numerators(g, hvec))
        else:
            coeffs = [rng.randint(-3, 3) for _ in range(quotient.d)]
            hvec = dual_basis.apply(coeffs)
            f0 = {x: rng.randint(-4, 4) for x in quotient.reps}
            theta = _cocycle_from_carries(quotient, table, *_dual_numerators(g, hvec))
            theta = theta + Cocycle1.from_coboundary(quotient, f0)
        scaled = theta.scale(n)
        fn = solver.solve(scaled)
        if fn is not None:
            if not is_coboundary_of(scaled, fn):
                return False
            f1 = solver.solve(theta)
            if f1 is None or not is_coboundary_of(theta, f1):
                return False
    return True
