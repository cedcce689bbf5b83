"""Exact integer and rational linear algebra for lattice computations.

Rational input is put over a common denominator (:func:`clear_denominators`)
once, where it is read, and the work is integer arithmetic, so all results
are exact.  Matrices are small (d <= 4 by design), so the algorithms favour
clarity and predictable cost: fraction-free Gauss-Jordan for determinants,
inverses and row echelon forms over Q, unimodular column reduction for
Hermite forms, classical Smith reduction with tracked transforms.

Conventions fixed here and relied on by every other module:

* Hermite normal form is the *column* form: lower-triangular, positive
  diagonal, and in each row ``i`` the off-diagonal entries satisfy
  ``0 <= h[i][j] < h[i][i]`` for ``j < i``.
* A :class:`Mat` is built from integer rows over a denominator and stored
  as ``num / den`` with ``den > 0`` and gcd(den, entries) = 1, so matrix
  equality is a syntactic check; ``Mat.rows``, ``Mat.apply`` and
  ``Mat.det`` are the only Fraction views, for reading.  Printing reads
  the integers, through :func:`ratio_text`.
* A :class:`Lattice` is stored as ``(1/den) * mat`` with ``mat`` an integer
  matrix in HNF whose columns generate the lattice and ``den`` minimal.
  Lattice equality is therefore a syntactic check.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain
from math import gcd, inf, lcm, prod
from operator import attrgetter, mul


class SingularMatrixError(ValueError):
    """A matrix is singular where an invertible one is required."""


class FactorBudgetError(ArithmeticError):
    """A factorization or primality proof did not finish within RHO_BUDGET."""


# ---------------------------------------------------------------------------
# small number theory helpers

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981  # least strong pseudoprime to all of _MR_BASES
RHO_BUDGET = 1 << 21  # Pollard-Brent steps spent on one composite before giving up
POCKLINGTON_BASES = 1000  # bases tried for each prime factor of F in _pocklington


def is_prime(n: int) -> bool:
    """Miller-Rabin to the 13 prime bases 2..41, deterministic below
    3,317,044,064,679,887,385,961,981 (Sorenson-Webster, Math. Comp. 2017).
    A witness proves n composite at any size; at and above that bound a
    number with no witness is decided by :func:`_pocklington`."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_BOUND or _pocklington(n)


def _pocklington(n: int) -> bool:
    """Primality of an odd n > 43^2 by Pocklington's criterion (Brillhart,
    Lehmer and Selfridge, Math. Comp. 1975).

    Let F be the factored part of n - 1, with F^2 > n.  If for every prime
    q | F some base a has a^(n-1) = 1 (mod n) and gcd(a^((n-1)/q) - 1, n) = 1,
    then every prime factor p of n is 1 mod F, so p > sqrt(n) and n is
    prime.  A base with a^(n-1) != 1, or with that gcd strictly between 1
    and n, proves n composite.  Raises FactorBudgetError where n - 1 does
    not factor far enough within RHO_BUDGET, or no base below
    POCKLINGTON_BASES settles some q: the answer is never guessed."""
    primes, rest = _factor(n - 1)
    f = (n - 1) // rest
    if f * f <= n:
        raise FactorBudgetError(f"cannot prove {n} prime: n - 1 does not factor far enough")
    for q in primes:
        for a in range(2, POCKLINGTON_BASES):
            x = pow(a, (n - 1) // q, n)
            if x != 1:
                break
        else:
            raise FactorBudgetError(f"cannot prove {n} prime: no base settles {q}")
        if pow(x, q, n) != 1 or gcd(x - 1, n) != 1:
            return False
    return True


_TRIAL_LIMIT = 1 << 10  # factorint hands larger composite cofactors to _brent


def factorint(n: int) -> dict[int, int]:
    """Prime factorization of |n|; raises FactorBudgetError where a
    composite part does not split within RHO_BUDGET.
    factorint(12) == {2: 2, 3: 1}."""
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    out, rest = _factor(n)
    if rest > 1:
        raise FactorBudgetError(f"cannot factor {rest} within {RHO_BUDGET} Pollard-Brent steps")
    return out


def _factor(n: int):
    """(factorization of the factored part, unfactored rest) of n >= 1:
    trial division up to _TRIAL_LIMIT, stopping once the cofactor is prime;
    a composite cofactor left over has only large prime factors and is split
    by Pollard-Brent, recursively.  A composite that _brent cannot split
    stays in rest."""
    out: dict[int, int] = {}
    rest = 1
    f = 2
    prime = is_prime(n)
    while not prime and f <= _TRIAL_LIMIT and f * f <= n:
        if n % f == 0:
            while n % f == 0:
                out[f] = out.get(f, 0) + 1
                n //= f
            prime = is_prime(n)
        f += 1 if f == 2 else 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
        elif q := _brent(m):
            stack += [q, m // q]
        else:
            rest *= m
    return dict(sorted(out.items())), rest


def _brent(n: int) -> int:
    """A proper factor of an odd composite n: Pollard's rho with Brent's
    cycle detection and batched gcds (Brent, BIT 1980), iterating
    y -> y^2 + c from y = 2 with c = 1, 2, ... until one splits n; 0 once
    RHO_BUDGET steps have gone by without a split."""
    c = spent = 0
    while spent < RHO_BUDGET:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1 and spent < RHO_BUDGET:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            spent += 2 * r
            r *= 2
        if g == n:  # the batch overshot: redo it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
    return 0


def valuation(x, p: int) -> int:
    """p-adic valuation of a nonzero int or Fraction (no Fraction is built)."""
    if x == 0:
        raise ValueError("valuation of 0 is undefined")
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


# ---------------------------------------------------------------------------
# integer matrix kernels (lists of rows)


def clear_denominators(rows):
    """(den, ints): the least common denominator of the int or Fraction
    entries, and the integer rows den * rows."""
    den = lcm(*(x.denominator for row in rows for x in row))
    return den, [[x.numerator * (den // x.denominator) for x in row] for row in rows]


def _gauss_jordan(rows):
    """Fraction-free Gauss-Jordan elimination of integer rows (Bareiss,
    Math. Comp. 1968); returns ``(a, pivots, det)``.

    Each step replaces every other row by (p * row - f * pivot row) // prev,
    p the pivot and prev the one before; every entry is then a minor of the
    input (Sylvester's identity), so the division is exact.  Row k < rank of
    ``a`` is the k-th reduced echelon row times the last pivot; later rows
    are zero.  ``det`` is the determinant of the pivot columns, signed by
    the row swaps, when the rank is the row count, else 0.

    >>> _gauss_jordan([[0, 2, 4], [3, 1, 2]])
    ([[6, 0, 0], [0, 6, 12]], [0, 1], -6)
    """
    a = [list(row) for row in rows]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    pivots: list[int] = []
    prev = sign = 1
    for c in range(nc):
        k = len(pivots)
        if k == nr:
            break
        i = next((i for i in range(k, nr) if a[i][c]), None)
        if i is None:
            continue
        if i != k:
            a[k], a[i] = a[i], a[k]
            sign = -sign
        top = a[k]
        p = top[c]
        for i in range(nr):
            if i != k:
                f = a[i][c]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], top)]
        pivots.append(c)
        prev = p
    return a, pivots, sign * prev if len(pivots) == nr else 0


def adjugate(rows):
    """(det, adj) of a square nonsingular integer matrix A, so that
    adj . A = det . I.  A 2 x 2 matrix [[a, b], [c, e]] takes the closed
    form det = a e - b c, adj = [[e, -b], [-c, a]]; any other size is
    eliminated: [A | I] leaves p * A^-1 on the right, p = a[0][0] the last
    pivot.

    >>> adjugate([[2, 1], [3, 4]])
    (5, [[4, -1], [-3, 2]])
    >>> adjugate([[2, 1, 0], [3, 4, 0], [0, 0, 1]])
    (5, [[4, -1, 0], [-3, 2, 0], [0, 0, 5]])
    """
    n = len(rows)
    if n == 2:
        (a, b), (c, e) = rows
        det = a * e - b * c
        if not det:
            raise SingularMatrixError("matrix is not invertible")
        return det, [[e, -b], [-c, a]]
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    a, pivots, det = _gauss_jordan([[*r, *e] for r, e in zip(rows, eye)])
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix is not invertible")
    sign = 1 if a[0][0] == det else -1
    return det, [[sign * x for x in row[n:]] for row in a]


def _column_echelon(rows: list[list[int]]):
    """Lower column-echelon form by unimodular column operations.

    Returns ``(h, pivots)`` with ``h = rows . v`` for some unimodular ``v``
    and ``pivots`` the list of pivot rows (one per leading column).  Pivot
    entries are positive and entries to their left in the same row are
    reduced into ``[0, pivot)``.  ``v`` itself is not kept: a caller that
    needs it stacks the identity under its rows, since the same column
    operations take [A; I] to [A . v; v].  The first len(A) rows are
    reduced exactly as A alone would be, and the later pivots only combine
    columns whose A-part is zero, so the top block is A's own echelon form.

    >>> _column_echelon([[2, 4], [1, 0], [1, 0], [0, 1]])  # [A; I] -> [A . v; v]
    ([[2, 0], [1, 2], [1, 2], [0, -1]], [0, 1])
    """
    m = [list(row) for row in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivots: list[int] = []
    col = 0
    for row in range(nr):
        if col >= nc:
            break
        cur = m[row]
        while True:
            jmin = -1
            best = 0
            for j in range(col, nc):
                a = abs(cur[j])
                if a and (jmin < 0 or a < best):
                    jmin, best = j, a
            if jmin < 0:
                break
            if jmin != col:
                for r in m:
                    r[col], r[jmin] = r[jmin], r[col]
            # column j -= q * column col clears or shrinks cur[j]
            done = True
            p = cur[col]
            for j in range(col + 1, nc):
                if cur[j]:
                    q = cur[j] // p
                    for r in m:
                        r[j] -= q * r[col]
                    if cur[j]:
                        done = False
            if done:
                break
        if jmin < 0:
            continue
        if cur[col] < 0:
            for r in m:
                r[col] = -r[col]
        p = cur[col]
        for j in range(col):
            q = cur[j] // p
            if q:  # a zero quotient would add nothing
                for r in m:
                    r[j] -= q * r[col]
        pivots.append(row)
        col += 1
    return m, pivots


def snf(rows):
    """Smith normal form with transforms: returns (u, s, v) with u.m.v = s.

    ``s`` is diagonal with s[0][0] | s[1][1] | ... and u, v unimodular.
    Works for any rectangular integer matrix; the primary contract is the
    square nonsingular case.

    Step t takes as pivot the entry of least nonzero absolute value in the
    block of rows and columns >= t, the first in row-major order on a tie,
    and swaps it to (t, t).  It then clears column t below the pivot and row
    t right of it by floor-division row and column operations; a nonzero
    remainder is swapped in as the new pivot and the clearing repeats.  If
    the pivot fails to divide a later entry, the first such entry's row is
    added to row t and step t starts over; otherwise a negative pivot's row
    is negated.  u and v are the products of these operations in this
    order, so (u, s, v) is a pure function of the input; ``snf_reference``
    in tests/helpers.py pins that order, as ``column_echelon_reference``
    there pins :func:`_column_echelon`'s.

    >>> u, s, v = snf([[2, 0], [1, 3]])
    >>> [s[0][0], s[1][1]]
    [1, 6]
    """
    a = [list(map(int, r)) for r in rows]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    u = [[0] * i + [1] + [0] * (nr - 1 - i) for i in range(nr)]
    v = [[0] * i + [1] + [0] * (nc - 1 - i) for i in range(nc)]
    t = 0
    while True:
        # locate smallest nonzero entry in the remaining block
        pi = pj = -1
        best = 0
        for i in range(t, nr):
            row = a[i]
            for j in range(t, nc):
                x = abs(row[j])
                if x and (pi < 0 or x < best):
                    pi, pj, best = i, j, x
        if pi < 0:
            break
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
            for row in v:
                row[t], row[pj] = row[pj], row[t]
        # clear row and column t; a nonzero remainder becomes the smaller pivot
        dirty = True
        while dirty:
            dirty = False
            top = a[t]
            for i in range(t + 1, nr):
                row = a[i]
                if row[t]:
                    q = row[t] // top[t]
                    a[i] = row = [x - q * y for x, y in zip(row, top)]
                    u[i] = [x - q * y for x, y in zip(u[i], u[t])]
                    if row[t]:
                        a[t], a[i] = row, top
                        u[t], u[i] = u[i], u[t]
                        top = row
                        dirty = True
            for j in range(t + 1, nc):
                if top[j]:
                    q = top[j] // top[t]
                    for row in a:
                        row[j] -= q * row[t]
                    for row in v:
                        row[j] -= q * row[t]
                    if top[j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        for row in v:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
        # divisibility: pivot must divide every later entry
        p = top[t]
        for i in range(t + 1, nr):
            row = a[i]
            if any(row[j] % p for j in range(t + 1, nc)):
                a[t] = [x + y for x, y in zip(top, row)]
                u[t] = [x + y for x, y in zip(u[t], u[i])]
                break
        else:
            if p < 0:
                a[t] = [-x for x in top]
                u[t] = [-x for x in u[t]]
            t += 1
    return u, a, v


# ---------------------------------------------------------------------------
# rational matrices


def ratio_text(num: int, den: int) -> str:
    """num / den (den > 0) in lowest terms as text, ``n`` or ``n/m``, by
    one gcd; ``gdsl.format_rat``, ``gdsl.format_mat``, ``gdsl.print_expr``
    and ``Mat.__repr__`` print through it.

    >>> ratio_text(6, 4), ratio_text(-6, 3), ratio_text(0, 5)
    ('3/2', '-2', '0')
    """
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


class Record:
    """Base of the value types: ``Mat``, ``Lattice``, ``Supernatural`` here,
    ``Verdict``, the gdsl nodes, ``Tower`` and the like elsewhere.  A
    subclass names its fields, in order, as its ``__slots__`` and sets them
    in ``__init__``.  Instances of one class are equal when their fields
    are, hash by their fields, and print as ``Name(field=value, ...)``
    unless the class prints itself; they are immutable by convention.

    >>> class Pair(Record):
    ...     __slots__ = ("a", "b")
    ...     def __init__(self, a, b):
    ...         self.a, self.b = a, b
    >>> Pair(1, "x"), Pair(1, "x") == Pair(1, "x"), Pair(1, "x") == (1, "x")
    (Pair(a=1, b='x'), True, False)
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = attrgetter(*cls.__slots__)  # one field: its value, not a 1-tuple

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields(self) == other._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class Mat(Record):
    """Immutable square rational matrix num / den: ``num`` a tuple of integer
    row tuples, den > 0 and gcd(den, entries) = 1.  It is built from integer
    rows only; ``rows``, ``apply`` and ``det`` read it back as Fractions.

    >>> m = Mat([[0, 1], [1, 0]])
    >>> m * m == Mat.identity(2)
    True
    >>> a = Mat([[2, 4], [0, 12]], den=4)
    >>> a.den, a.num, a.det()
    (2, ((1, 2), (0, 6)), Fraction(3, 2))
    """

    __slots__ = ("den", "num")

    def __init__(self, num, den=1):
        """The matrix num / den, for integer rows num and an integer den != 0,
        reduced by one gcd (which rejects a non-integer entry)."""
        if den == 0:
            raise ValueError("Mat denominator must be nonzero")
        d = len(num)
        flat = list(chain.from_iterable(num))
        if d == 0 or len(flat) != d * d or min(map(len, num)) != d:
            raise ValueError("Mat must be square and nonempty")
        g = gcd(den, *flat)
        if den < 0:
            g = -g
        if g != 1:
            flat = [x // g for x in flat]
        self.den = den // g
        entries = iter(flat)
        self.num = tuple(zip(*[entries] * d))  # rows of d consecutive entries

    @classmethod
    def identity(cls, d: int) -> "Mat":
        return _identity(d)

    @property
    def d(self) -> int:
        return len(self.num)

    @property
    def rows(self):
        """The entries as Fractions, row by row."""
        return tuple(tuple(Fraction(x, self.den) for x in row) for row in self.num)

    def transpose(self) -> "Mat":
        return Mat(list(zip(*self.num)), self.den)

    def __mul__(self, other: "Mat") -> "Mat":
        if not isinstance(other, Mat):
            return NotImplemented
        cols = list(zip(*other.num))
        return Mat(
            [[sum(map(mul, row, col)) for col in cols] for row in self.num],
            self.den * other.den,
        )

    def apply(self, v):
        """Matrix times column vector, as Fractions."""
        vden, (vnum,) = clear_denominators([v])
        den = self.den * vden
        return tuple(Fraction(sum(map(mul, row, vnum)), den) for row in self.num)

    def scale(self, c) -> "Mat":
        """c times the matrix, for an int or Fraction c."""
        return Mat([[x * c.numerator for x in row] for row in self.num], self.den * c.denominator)

    def det(self) -> Fraction:
        return Fraction(_gauss_jordan(self.num)[2], self.den**self.d)

    def inv(self) -> "Mat":
        """Inverse den * adj(num) / det(num) of num / den."""
        det, adj = adjugate(self.num)
        return Mat([[self.den * x for x in row] for row in adj], det)

    def is_integer(self) -> bool:
        return self.den == 1

    def __repr__(self):
        body = "; ".join(",".join(ratio_text(x, self.den) for x in row) for row in self.num)
        return f"Mat([{body}])"


@cache  # one shared identity per d, which is safe as no Mat is ever changed
def _identity(d: int) -> Mat:
    return Mat([[1 if i == j else 0 for j in range(d)] for i in range(d)])


# ---------------------------------------------------------------------------
# lattices


class Lattice(Record):
    """Full-rank lattice in Q^d, canonicalized as (1/den) * (integer HNF).

    The columns of :meth:`basis` generate the lattice.  Two lattices are equal
    iff their canonical data coincide.
    """

    __slots__ = ("d", "den", "mat")

    def __init__(self, d: int, den: int, rows):
        """The lattice (1/den) * (column span of rows), for d integer rows of
        any common length and an integer den >= 1, in canonical form: one
        column reduction of the rows to HNF, then one gcd of its entries
        with den.  This is the one constructor that canonicalizes;
        :meth:`from_span` reads rational vectors into it.

        >>> Lattice(2, 4, [[2, 0, 4], [0, 2, 6]])
        Lattice(1/2 * [1,0; 0,1])
        >>> Lattice(2, 1, [[2, 1], [0, 3]]).mat
        ((1, 0), (3, 6))
        """
        if den < 1:
            raise ValueError(f"lattice denominator must be at least 1, got {den}")
        h, pivots = _column_echelon(rows)
        if len(pivots) < d:
            raise SingularMatrixError("spanning set is not full rank")
        cut = [row[:d] for row in h]
        g = gcd(den, *chain.from_iterable(cut))
        self.d, self.den, self.mat = d, den // g, tuple(tuple(x // g for x in row) for row in cut)

    @classmethod
    def _raw(cls, d: int, den: int, mat) -> "Lattice":
        """A lattice from data already canonical by construction, unchecked."""
        obj = object.__new__(cls)
        obj.d, obj.den, obj.mat = d, den, mat
        return obj

    @classmethod
    def standard(cls, d: int) -> "Lattice":
        """Z^d, one shared instance per d."""
        return _standard(d)

    @classmethod
    def from_span(cls, d: int, vectors) -> "Lattice":
        """Lattice generated by a (possibly redundant) list of rational vectors."""
        cols = list(vectors)
        if not cols or any(len(c) != d for c in cols):
            raise ValueError("bad column data")
        den, ints = clear_denominators(cols)
        return cls(d, den, list(zip(*ints)))

    def basis(self) -> Mat:
        return Mat(self.mat, self.den)

    def det(self) -> Fraction:
        return Fraction(prod(self.diagonal()), self.den**self.d)

    def diagonal(self):
        """HNF diagonal of the integer part (den must be 1 for coset boxes)."""
        return tuple(self.mat[i][i] for i in range(self.d))

    def _holds(self, w, e) -> bool:
        """Whether w / e (w integral, e > 0) lies in the lattice: forward
        substitution of mat . x = den * w / e on the triangular HNF."""
        x = []
        for i, row in enumerate(self.mat):
            q, r = divmod(self.den * w[i] - e * sum(c * y for c, y in zip(row, x)), e * row[i])
            if r:
                return False
            x.append(q)
        return True

    def dual(self) -> "Lattice":
        """Dual lattice: all vectors pairing integrally with every lattice
        element.  The dual of (1/den) * M is den * adj(M)^T / det(M).

        >>> Lattice(2, 2, [[1, 0], [0, 2]]).dual().mat
        ((2, 0), (0, 1))
        """
        det, adj = adjugate(self.mat)
        return Lattice(self.d, abs(det), [[self.den * x for x in col] for col in zip(*adj)])

    def contains(self, other: "Lattice") -> bool:
        return all(self._holds(col, other.den) for col in zip(*other.mat))

    def is_integral(self) -> bool:
        return self.den == 1

    def __repr__(self):
        body = "; ".join(",".join(str(x) for x in row) for row in self.mat)
        return f"Lattice(1/{self.den} * [{body}])"


@cache  # one shared Z^d per d, which is safe as no Lattice is ever changed
def _standard(d: int) -> Lattice:
    return Lattice._raw(d, 1, _identity(d).num)


def lattice_sum(*lats: Lattice) -> Lattice:
    """Sum of full-rank lattices, spanned by their HNF columns over the lcm
    of their denominators."""
    d = lats[0].d
    if any(lat.d != d for lat in lats):
        raise ValueError("dimension mismatch")
    den = lcm(*(lat.den for lat in lats))
    rows = [[den // lat.den * x for lat in lats for x in lat.mat[i]] for i in range(d)]
    return Lattice(d, den, rows)


# ---------------------------------------------------------------------------
# rational subspaces (for divisible directions)


def subspace_basis(vectors, d):
    """Canonical basis of the span: reduced row echelon rows rescaled to
    primitive integer vectors with positive pivots."""
    _, ints = clear_denominators(list(vectors))
    a, pivots, _ = _gauss_jordan(ints)
    out = []
    for row, c in zip(a, pivots):
        g = gcd(*row) if row[c] > 0 else -gcd(*row)
        out.append(tuple(x // g for x in row))
    return tuple(out)


# ---------------------------------------------------------------------------
# supernatural numbers


INF = inf  # exponent value for infinitely divisible primes


class Supernatural(Record):
    """Formal product of p^e with e a positive integer or INF.

    >>> str(Supernatural({2: INF, 5: 1}))
    '2^inf*5^1'
    >>> str(Supernatural({}))
    '1'
    """

    __slots__ = ("items",)

    def __init__(self, exponents):
        cleaned = {}
        for p, e in dict(exponents).items():
            if e == 0:
                continue
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            if e != INF and (not isinstance(e, int) or e < 0):
                raise ValueError(f"bad exponent {e!r} for prime {p}")
            cleaned[p] = e
        self.items = tuple(sorted(cleaned.items()))

    def exponent(self, p: int):
        for q, e in self.items:
            if q == p:
                return e
        return 0

    def primes(self):
        return tuple(p for p, _ in self.items)

    def __str__(self):
        if not self.items:
            return "1"
        return "*".join(f"{p}^{'inf' if e == INF else e}" for p, e in self.items)

    def __repr__(self):
        return f"Supernatural({dict(self.items)!r})"
