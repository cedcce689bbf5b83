"""1-cocycles on finite quotients, the trace, and co-invariants.

A 1-cocycle on (Z^d/G, translation) is determined by its values on the
standard generators, theta(x, e_i), subject to the commuting-square
compatibility that makes the extension

    theta(x, m + n) = theta(x, m) + theta(phi^m x, n)

well defined.  Evaluating at the zero coset gives a homomorphism G -> Z,
i.e. an element of the dual lattice G*; conversely every h in G* is the
value of an explicit cocycle theta_h, built in every d from a transversal
rep of Z^d/G with rep(g) = 0 for g in G.  With F(x) = <rep(x), h>, put

    theta_h(x + G, n) = <n, h> + F(x) - F(x + n) = <w - rep(w), h>

for w = rep(x) + n.  The vector w - rep(w) lies in G and h in G*, so the
values are integers, and theta_h is the constant cocycle <n, h> plus a
(rational) coboundary, so it satisfies the cocycle identity.  Any such
transversal serves; build_cocycle uses the box of the quotient's unit-step
tables.  At the zero coset F vanishes on G, so theta_h(G, g) = <g, h>:
alpha_map(theta_h) = h.  For the trace, x -> x + e_i permutes the cosets,
so the F terms cancel in the sum over the quotient, the values of
theta_h(., e_i) sum to card . h_i, and tau1(theta_h) = h exactly.

alpha is onto G*, and its kernel is B^1 by Schreier's lemma: along a
spanning tree of the unit-step graph lifted to Z^d from 0, the tree
potential of theta misses each other step e by <g_e, alpha(theta)>, and
the Schreier generators g_e span G.  So H^1(Z^d/G) = G* = Z^d, which is
torsion-free (torsion_free_check certifies this on a quotient), and an
explicit coboundary is the tree potential (CoboundarySolver).

For the odometer of H the levels G_n = H_n* give H^1 = H, with level maps
Hom(H_n*, Z) = H_n: the ``h1`` verb prints H and the levels of its tower.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import prod

from .hgroup import HGroup, _levels, superindex
from .linalg import Lattice, Supernatural, clear_denominators, valuation
from .odometer import FiniteOdometer

COCYCLE_MAX_CARD = 1_000_000  # cosets of Z^d/G that ``build_cocycle`` tabulates at most


class Cocycle1:
    """Integer 1-cocycle on a finite quotient, stored by generator values.

    A Cocycle1 keeps the generator-value dicts it receives, without a copy,
    so a caller must not change them afterwards."""

    __slots__ = ("quotient", "gen_values")

    def __init__(self, quotient: FiniteOdometer, gen_values, validate: bool = True):
        self.quotient = quotient
        self.gen_values = tuple(gen_values)
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
    targets = [theta.evaluate(zero, col) for col in zip(*g.mat)]
    return g.basis().transpose().inv().apply(targets)


# ---------------------------------------------------------------------------
# explicit cocycles from the box transversal


def build_cocycle(g: Lattice, h) -> Cocycle1:
    """Explicit cocycle theta_h with alpha_map and trace equal to h in G*,
    in every d.  A quotient of more than COCYCLE_MAX_CARD cosets raises
    ValueError before any table is built.

    With h = h_num / den over the common denominator of its entries and
    f(x) = <x, h_num> on the box representatives x (expanded a coordinate
    at a time, in the lexicographic order of ``reps``), the value at the
    unit step e_i is theta_i(x) = (f(x) + h_num[i] - f(x + e_i)) / den,
    x + e_i read from the quotient's step table.  This is the pairing of
    h with x + e_i - rep(x + e_i), which lies in G, so the division is
    exact.  Off the wrapping cosets the step stays in the box and the value
    is 0.  See the module docstring for alpha_map = tau1 = h.

    >>> theta = build_cocycle(Lattice.from_span(2, [(2, 1), (0, 3)]), (Fraction(1, 2), 0))
    >>> theta.quotient.reps
    ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2))
    >>> [[c[x] for x in theta.quotient.reps] for c in theta.gen_values]
    [[0, 0, 0, 1, 1, 1], [0, 0, 0, 0, 0, 0]]
    >>> tau1(theta) == alpha_map(theta) == (Fraction(1, 2), 0)
    True
    """
    if not g.is_integral():
        raise ValueError("quotient lattice must be integral")
    card = prod(g.diagonal())
    if card > COCYCLE_MAX_CARD:
        raise ValueError(f"quotient has {card} cosets, more than {COCYCLE_MAX_CARD}")
    quotient = FiniteOdometer(g)
    den, h_num = _dual_numerators(g, h)
    f = [0]
    for a, m in zip(h_num, g.diagonal()):
        f = [s + a * t for s in f for t in range(m)]
    f = dict(zip(quotient.reps, f))
    vals = [
        {x: (f[x] + a - f[y]) // den for x, y in step.items()}
        for a, step in zip(h_num, quotient.steps)
    ]
    return Cocycle1(quotient, vals)


def _dual_numerators(g: Lattice, h):
    """(den, h_num) with h = h_num / den, after checking that h lies in G*."""
    if len(h) != g.d:
        raise ValueError(f"h has {len(h)} entries, the lattice dimension is {g.d}")
    den, (h_num,) = clear_denominators([h])
    for col in zip(*g.mat):
        if sum(x * y for x, y in zip(col, h_num)) % den:
            raise ValueError("h must pair integrally with the lattice (h in G*)")
    return den, h_num


def tau1(theta: Cocycle1):
    """Trace: integrate theta(., e_i) against normalized counting measure."""
    card = theta.quotient.card
    return tuple(Fraction(sum(g.values()), card) for g in theta.gen_values)


# ---------------------------------------------------------------------------
# coboundaries, co-invariants and torsion


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
        """The function f with d(f) = theta and f(0) = 0, or None.

        >>> q = FiniteOdometer(Lattice.from_span(1, [(3,)]))
        >>> f = {(0,): 0, (1,): 2, (2,): 5}
        >>> CoboundarySolver(q).solve(Cocycle1.from_coboundary(q, f)) == f
        True
        >>> print(CoboundarySolver(q).solve(build_cocycle(q.lattice, (Fraction(1, 3),))))
        None
        """
        values = theta.gen_values
        f = {self._zero: 0}
        for x, i, y in self._tree:
            f[y] = f[x] + values[i][x]
        for column, step in zip(values, self.quotient.steps):
            for x, y in step.items():
                if f[y] - f[x] != column[x]:
                    return None
        return f


def coinvariants(h: HGroup, verify_depth: int = 3) -> Supernatural:
    """Co-invariants D(Y_H) as a supernatural number: equals the superindex.

    D(Y_H) is the direct limit of the D(Z^d/G_n) along the tower.  Each is
    infinite cyclic, with the trace an order isomorphism onto
    [Z^d : G_n]^-1 Z generated by [1]/card: the difference functions, the
    edge vectors e_{x+e_i} - e_x of the unit-step graph, span the corank-1
    kernel of summation on Z^reps exactly when that graph is connected (a
    spanning tree's edges are a Z-basis of it).  Connectivity holds by
    construction, so no quotient is built to test it: e_1..e_d generate
    Z^d, so their images generate Z^d/G_n, and the orbit of the zero coset
    under unit steps is the whole quotient.

    What is checked, at each level H_n = (1/den) M of the tower up to
    verify_depth (``hgroup._levels``), is that the level index
    [H_n : Z^d] = [Z^d : G_n] = den^d / prod diag(M) divides the
    superindex: no prime outside it, and no exponent above its own.  A
    correct superindex passes at every depth: H_n / Z^d is a finite
    subgroup of H / Z^d, whose p-part is L(p) / Z^d, of order
    p^v_p[L(p) : Z^d], at a rank-0 prime and unbounded at the others.

    The check has content at every depth that reaches a support prime.  It
    compares two computations, the levels from each entry's Smith form and
    one HNF per level, and the superindex from the entries' ranks and index
    valuations.  Every support prime p <= depth divides the index of level
    p: there Lambda_p(1) = {x : _rows . x = 0 mod p} would have to be p Z^d
    for H_p to gain nothing at p, which takes d rows invertible mod p, that
    is L(p) = Z^d at rank 0, an entry ``_entry`` never makes.  So a
    superindex that omits such a prime fails at every depth >= p, and an
    understated finite exponent fails once a level reaches it.  Equality
    at a finite exponent can need a deep level (5^3 first divides n! at
    n = 15), so it is left to criterion 6's depth-6 oracle.

    >>> from zodom.gdsl import parse_group
    >>> str(coinvariants(parse_group("oplus(Z[1/2], Z[1/3]) + gen(1/5, 1/5)"), 12))
    '2^inf*3^inf*5^1'
    """
    s = superindex(h)
    for n, level in enumerate(_levels(h, verify_depth), start=1):
        index = level.den**h.d // prod(level.diagonal())
        rest = index
        for p, e in s.items:
            k = valuation(index, p)
            if k > e:
                break
            rest //= p**k
        if rest != 1:
            raise ArithmeticError(f"level {n} index {index} does not divide the superindex {s}")
    return s


def torsion_free_check(quotient: FiniteOdometer) -> bool:
    """No torsion in H^1, by the Schreier generators g_e of G.

    Lift the spanning tree from 0, lift(y) = lift(x) + e_i on each tree edge
    (x, i, y), and put g_e = lift(x) + e_i - lift(y) for each step (0 on
    tree edges).  Checked: the lifts cover every coset, each reduces to its
    coset, each g_e reduces to 0 (so the step tables are the translation
    action), and the g_e span exactly G.  Proof: the holonomy of theta on
    edge e is the defect of the tree potential f(x) = theta(0 + G, lift(x)),
    which by the cocycle identity is
    theta(0 + G, g_e) = <g_e, alpha(theta)>.  So B^1 = ker alpha once the
    g_e span G, and H^1 embeds in G* = Z^d, which is torsion-free.
    """
    zero = (0,) * quotient.d
    lift = {zero: zero}
    for x, i, y in quotient.spanning_tree:
        lift[y] = tuple(a + (k == i) for k, a in enumerate(lift[x]))
    if len(lift) != quotient.card or any(quotient.reduce(v) != x for x, v in lift.items()):
        return False
    gens = {
        tuple(a + (k == i) - b for k, (a, b) in enumerate(zip(lift[x], lift[y])))
        for i, step in enumerate(quotient.steps)
        for x, y in step.items()
    }
    if any(quotient.reduce(g) != zero for g in gens):
        return False
    return Lattice.from_span(quotient.d, gens) == quotient.lattice
