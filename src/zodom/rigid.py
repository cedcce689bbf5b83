"""Example gallery and the inductive construction of a dense H <= Q^2 in
which every line Q x meets H in a cyclic group.

The construction appends matrices alpha_n = [[a,1],[1,b]] with prime
determinant ab - 1 and a, b >= K_n, where K_1 = 3 and
K_n = n * ||alpha_1|| ... ||alpha_{n-1}|| for the l1 operator norm
(max column absolute sum).  Row-vector convention: the level groups are
H_n = Z^2 alpha_n^-1 ... alpha_1^-1, increasing with prime indices.

The induction is started at K_1 = 3, matching the hypothesis K >= 3 under
which the norm bound holds; the alternative reading K_1 = 1 is reported as
a deviation flag alongside the construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .gdsl import parse_group
from .hgroup import ProgramGroup
from .linalg import Lattice, Mat, is_prime
from .odometer import FiniteOdometer


class SearchExhaustedError(RuntimeError):
    """Safety valve: no admissible b found within the step cap."""


K1_DEVIATION = (
    "induction start uses K_1 = 3 (the norm bound needs K >= 3); the"
    " alternative reading K_1 = 1 would give alpha_1 = [[1,1],[1,3]]"
    " with determinant 2"
)


def l1_operator_norm(m: Mat) -> int:
    """Max column absolute sum; the l1 -> l1 operator norm."""
    return max(
        sum(abs(int(m.rows[i][j])) for i in range(m.d)) for j in range(m.d)
    )


@dataclass(frozen=True)
class RigidLevel:
    a: int
    b: int
    det: int
    k_constant: int

    def matrix(self) -> Mat:
        return Mat([[self.a, 1], [1, self.b]])


class RigidProgram:
    """Lazily extended sequence of prime-determinant multiplier matrices."""

    def __init__(self, step_cap: int = 1_000_000):
        self.step_cap = step_cap
        self.levels: list[RigidLevel] = []
        self._products: list[Mat] = []  # P_n = alpha_1 ... alpha_n

    def __len__(self):
        return len(self.levels)

    def k_constant(self, n: int) -> int:
        if n == 1:
            return 3
        norms = 1
        for lvl in self.levels[: n - 1]:
            norms *= l1_operator_norm(lvl.matrix())
        return n * norms

    def extend(self, n: int) -> "RigidProgram":
        """Build levels up to n: a = K_n, b the smallest admissible value."""
        while len(self.levels) < n:
            k = self.k_constant(len(self.levels) + 1)
            a = k
            b = k
            steps = 0
            while not is_prime(a * b - 1):
                b += 1
                steps += 1
                if steps > self.step_cap:
                    raise SearchExhaustedError(
                        f"no b in [{k}, {k + self.step_cap}] with {a}*b - 1 prime"
                    )
            lvl = RigidLevel(a, b, a * b - 1, k)
            self.levels.append(lvl)
            prev = self._products[-1] if self._products else Mat.identity(2)
            self._products.append(prev * lvl.matrix())
        return self

    def alpha(self, n: int) -> Mat:
        self.extend(n)
        return self.levels[n - 1].matrix()

    def product(self, n: int) -> Mat:
        """P_n = alpha_1 ... alpha_n (P_0 = identity)."""
        if n == 0:
            return Mat.identity(2)
        self.extend(n)
        return self._products[n - 1]

    def program_group(self, depth_cap: int) -> ProgramGroup:
        return ProgramGroup(2, self.alpha, depth_cap)


# ---------------------------------------------------------------------------
# verification of the construction


def _row_in_z2(v) -> bool:
    return all(Fraction(x).denominator == 1 for x in v)


def _row_apply(v, m: Mat):
    return tuple(
        sum(Fraction(v[i]) * m.rows[i][j] for i in range(m.d)) for j in range(m.d)
    )


def _axis_generator(alpha: Mat, axis: int) -> Fraction:
    """Generator of {t : t e_axis in Z^2 alpha^-1}, positive."""
    row = tuple(alpha.rows[axis])
    # t*row integral iff t in (1/g)Z for g = gcd of the integer row entries
    g = gcd(int(row[0]), int(row[1]))
    return Fraction(1, max(g, 1))


def _min_norm_in_coset(x, radius: int = 2):
    """Minimal l1 norm over the coset x + Z^2 (entries of x rational)."""
    best = None
    for dx, dy in itertools.product(range(-radius, radius + 1), repeat=2):
        cand = (x[0] + dx, x[1] + dy)
        norm = abs(cand[0]) + abs(cand[1])
        if best is None or norm < best:
            best = norm
    return best


def verify_exercises(prog: RigidProgram, n: int) -> dict:
    """Check the five structural facts for alpha_n; returns a report dict.

    Item 2 as printed in the source material uses (a,-1) and (-1,b); the
    adjugate rows are (b,-1) and (-1,a), which is what actually lies in
    Z^2 alpha^-1.  Both variants are reported; 'item2' refers to the
    corrected one and the discrepancy is flagged.
    """
    prog.extend(n)
    lvl = prog.levels[n - 1]
    a, b, det = lvl.a, lvl.b, lvl.det
    alpha = lvl.matrix()
    alpha_inv = alpha.inv()
    report: dict = {"level": n, "a": a, "b": b, "det": det}

    report["item1"] = all(
        _row_in_z2(_row_apply(tuple(1 if i == k else 0 for k in range(2)), alpha))
        for i in range(2)
    )

    adjugate_rows = [(Fraction(b, det), Fraction(-1, det)), (Fraction(-1, det), Fraction(a, det))]
    as_written = [(Fraction(a, det), Fraction(-1, det)), (Fraction(-1, det), Fraction(b, det))]
    report["item2"] = all(
        _row_in_z2(_row_apply(v, alpha)) and _row_in_z2(_row_apply((-v[0], -v[1]), alpha))
        for v in adjugate_rows
    )
    report["item2_as_written"] = all(
        _row_in_z2(_row_apply(v, alpha)) for v in as_written
    )
    report["item2_deviation"] = not report["item2_as_written"]

    report["item3"] = _axis_generator(alpha, 0) == 1 and _axis_generator(alpha, 1) == 1

    ok4 = all(b <= k * b <= det - b + 1 for k in range(1, a))
    ok4 = ok4 and all(a <= k * a <= det - a + 1 for k in range(1, b))
    report["item4"] = ok4

    # item 5: nonzero x in Z^2 alpha^-1 has |x|_1 >= min(a,b)/det.  Any x with
    # |x|_1 <= 2 comes from z = x alpha with |z|_1 <= 2 ||alpha||; larger x
    # satisfy the bound trivially since min(a,b)/det < 1.  Scaling by det
    # keeps the loop in integers: det * x = z . adj(alpha).
    radius = 2 * l1_operator_norm(alpha)
    floor = min(a, b)
    ok5 = True
    for z1 in range(-radius, radius + 1):
        for z2 in range(-radius + abs(z1), radius - abs(z1) + 1):
            scaled = abs(z1 * b - z2) + abs(z2 * a - z1)
            if 0 < scaled <= 2 * det and scaled < floor:
                ok5 = False
    report["item5"] = ok5
    return report


def verify_torsion_bound(prog: RigidProgram, n: int) -> bool:
    """The key claim for alpha_n: x in Z^2 alpha^-1 - Z^2 and m > 1 with
    m x in Z^2 force |m x|_1 >= K_n.  The class of x has prime order det,
    so m is a multiple of det and it suffices to bound det * |x|_1 over
    minimal coset representatives."""
    prog.extend(n)
    lvl = prog.levels[n - 1]
    alpha, det, k = lvl.matrix(), lvl.det, lvl.k_constant
    alpha_inv = alpha.inv()
    dual = FiniteOdometer(Lattice(alpha.transpose()))  # cosets of Z^2 alpha
    for z in dual.reps:
        x = _row_apply(z, alpha_inv)
        if _row_in_z2(x):
            continue
        if det * _min_norm_in_coset(x) < k:
            return False
    return True


def verify_cyclicity(prog: RigidProgram, y, n: int) -> bool:
    """H_n n Q y equals H_{|y|_1} n Q y and is cyclic.

    For the row lattice H_k, the intersection with Q y is (1/g) Z y where
    g = gcd of the entries of y P_k; stabilization of g is the statement.
    """
    y = tuple(int(v) for v in y)
    if y == (0, 0):
        raise ValueError("y must be nonzero")
    m = abs(y[0]) + abs(y[1])
    if n < m:
        raise ValueError("level must be at least |y|_1")

    def line_gcd(k: int) -> int:
        w = _row_apply(y, prog.product(k))
        return gcd(int(w[0]), int(w[1]))

    g_m = line_gcd(m)
    return all(line_gcd(k) == g_m for k in range(m, n + 1))


def dual_ball_trivial(prog: RigidProgram, n: int) -> bool:
    """No nonzero dual vector of l1 norm <= n at level n (density witness)."""
    dual = Lattice(prog.product(n))  # H_n^* = Z^2 P_n^T, column basis P_n
    for x1 in range(-n, n + 1):
        for x2 in range(-(n - abs(x1)), n - abs(x1) + 1):
            if (x1, x2) != (0, 0) and dual.member((x1, x2)):
                return False
    return True


# ---------------------------------------------------------------------------
# the example gallery


GALLERY_TEXTS = {
    "z2": "oplus(Z, Z)",
    "class35_1a": "oplus(Z[1/2], Z[1/3])",
    "class35_1b": "oplus(Z[1/3], Z[1/2])",
    "class35_2a": "oplus(Z[1/2], Z[1/3]) + gen(0, 1/5)",
    "class35_2b": "oplus(Z[1/2], Z[1/3]) + gen(1/5, 0)",
    "class35_3a": "oplus(Z[1/2], Z[1/15])",
    "class35_3b": "oplus(Z[1/10], Z[1/3])",
    "class35_4a": "oplus(Z[1/2], Z[1/3])",
    "class35_4b": "oplus(Z[1/6])",
    "class11_fuchs": "oplus(Z[1/2], Z[1/3]) + gen(1/5, 1/5)",
    "class11_fuchs_swapped": "mat([0,1;1,0]) * oplus(Z[1/2], Z[1/3]) + gen(1/5, 1/5)",
}

# expected pairwise verdicts attached as metadata (relation -> YES/NO)
GALLERY_VERDICTS = [
    ("class35_1a", "class35_1b", {"conj": "NO", "iso": "YES", "coe": "YES", "oe": "YES"}),
    ("class35_2a", "class35_2b", {"conj": "NO", "iso": "NO", "coe": "YES", "oe": "YES"}),
    ("class35_3a", "class35_3b", {"conj": "NO", "iso": "NO", "coe": "NO", "oe": "YES"}),
    ("class35_4a", "class35_4b", {"conj": "NO", "iso": "NO", "coe": "NO", "oe": "YES"}),
    (
        "class11_fuchs",
        "class11_fuchs_swapped",
        {"conj": "NO", "iso": "YES", "coe": "YES", "oe": "YES"},
    ),
    ("class35_1a", "class35_1a", {"conj": "YES", "iso": "YES", "coe": "YES", "oe": "YES"}),
    ("class35_1a", "class35_3a", {"conj": "NO", "iso": "NO", "coe": "NO", "oe": "NO"}),
]


def gallery():
    """All named fixture groups, parsed fresh."""
    return {name: parse_group(text) for name, text in GALLERY_TEXTS.items()}
