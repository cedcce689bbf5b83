"""Oracles used only by the tests: the index of nested lattices, block
(direct) sums of lattices and of groups, matrices from rational rows or
columns, the unimodularity test, the rational columns of a lattice, a
counter of the Fractions built, the integer kernel and congruence lattice
that ``zodom`` computed before it read them off one column reduction and
one Smith form, the Smith form and the column echelon form as written
before their row and column operations were inlined, the spectrum as
Fraction tuples, and lattice membership in Fractions."""

from fractions import Fraction
from math import prod

from zodom.hgroup import HGroup
from zodom.linalg import Lattice, Mat, _column_echelon, clear_denominators
from zodom.odometer import spectrum_numerators


def index(sub: Lattice, sup: Lattice) -> int:
    """[sup : sub] for nested lattices, a positive integer."""
    if sub.d != sup.d:
        raise ValueError("dimension mismatch")
    if not sup.contains(sub):
        raise ValueError("first lattice is not contained in the second")
    # det(sub) / det(sup), each the HNF diagonal over den^d
    return prod(sub.diagonal()) * sup.den**sub.d // (prod(sup.diagonal()) * sub.den**sub.d)


def lattice_block(a: Lattice, b: Lattice) -> Lattice:
    """Block-diagonal direct sum of two lattices."""
    cols = [c + (0,) * b.d for c in lattice_columns(a)]
    cols += [(0,) * a.d + c for c in lattice_columns(b)]
    return Lattice.from_span(a.d + b.d, cols)


def direct_sum(h1: HGroup, h2: HGroup) -> HGroup:
    """Block presentation of H1 + H2 in dimension d1 + d2."""
    zero1, zero2 = (0,) * h1.d, (0,) * h2.d
    data = {}
    for p in sorted(set(h1.support()) | set(h2.support())):
        lat_gens, div_gens = [], []
        for e, before, after in ((h1.entry(p), (), zero2), (h2.entry(p), zero1, ())):
            if e is not None:
                den = e.lattice.den
                lat_gens += [(den, before + c + after) for c in zip(*e.lattice.mat)]
                div_gens += [before + w + after for w in e.vspan]
        data[p] = (lat_gens, div_gens)
    return HGroup.from_local_data(h1.d + h2.d, data)


def spectrum(h: HGroup, height: int):
    """``spectrum_numerators`` read as Fraction tuples in [0, 1)^d."""
    den, nums = spectrum_numerators(h, height)
    return [tuple(Fraction(x, den) for x in u) for u in nums]


def lattice_member(lattice: Lattice, v) -> bool:
    """Whether the rational vector v lies in the lattice: forward
    substitution on its triangular basis in Fractions gives integral
    coordinates."""
    x = []
    for i, row in enumerate(lattice.mat):
        acc = Fraction(v[i]) - sum(Fraction(row[j], lattice.den) * x[j] for j in range(i))
        x.append(acc / Fraction(row[i], lattice.den))
    return all(c.denominator == 1 for c in x)


def rational_mat(rows) -> Mat:
    """The square matrix with the given int or Fraction rows."""
    den, num = clear_denominators(rows)
    return Mat(num, den)


def from_columns(cols) -> Mat:
    """The square matrix with the given int or Fraction columns."""
    return rational_mat(list(zip(*cols)))


def lattice_columns(lat: Lattice):
    """The HNF columns of a lattice, as Fraction vectors."""
    return [tuple(Fraction(x, lat.den) for x in col) for col in zip(*lat.mat)]


def local_pairs(gens):
    """Rational lattice generators as the (den, num) pairs of
    ``HGroup.from_local_data``."""
    return [(den, tuple(num)) for den, (num,) in (clear_denominators([g]) for g in gens)]


def is_unimodular(m: Mat) -> bool:
    """Whether m lies in GL_d(Z)."""
    return m.is_integer() and abs(m.det()) == 1


def fractions_built(monkeypatch):
    """The list that every Fraction built from now on appends its arguments
    to, until ``monkeypatch`` is undone."""
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    return built


def echelon_with_transform(rows):
    """(h, v, pivots): the column echelon form h = rows . v of integer rows,
    v unimodular, and the pivot rows of h, read off the echelon form of
    [rows; I], which the same column operations take to [rows . v; v]."""
    nr, nc = len(rows), len(rows[0])
    eye = [[int(i == j) for j in range(nc)] for i in range(nc)]
    h, pivots = _column_echelon([*map(list, rows), *eye])
    return h[:nr], h[nr:], [r for r in pivots if r < nr]


def integer_kernel(rows):
    """Basis (list of columns) of {x in Z^nc : rows . x = 0}, always
    saturated: the columns of v past the pivots of h = rows . v."""
    _, v, pivots = echelon_with_transform(rows)
    return [list(col) for col in zip(*v)][len(pivots):]


def congruence_lattice(rows, pk: int, d: int):
    """Basis columns of {x in Z^d : rows . x = 0 mod pk}: the first d
    coordinates of the integer kernel of [rows | pk I], and Z^d when there
    are no rows."""
    if not rows:
        return [[int(i == j) for i in range(d)] for j in range(d)]
    m = len(rows)
    ext = [[*row, *(pk * (i == j) for j in range(m))] for i, row in enumerate(rows)]
    return [c[:d] for c in integer_kernel(ext)]


def snf_reference(rows):
    """``zodom.linalg.snf`` as it was written with four nested closures for
    its row and column operations: the reference that the inlined version
    must match exactly, transforms included."""
    a = [list(map(int, r)) for r in rows]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def rowop(dst, src, q):  # row dst += q * row src (a and u)
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def colop(dst, src, q):
        for r in range(nr):
            a[r][dst] += q * a[r][src]
        for r in range(nc):
            v[r][dst] += q * v[r][src]

    def rowswap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def colswap(i, j):
        for r in range(nr):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(nc):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    t = 0
    while True:
        # locate smallest nonzero entry in the remaining block
        pi = pj = -1
        best = 0
        for i in range(t, nr):
            for j in range(t, nc):
                x = abs(a[i][j])
                if x != 0 and (pi < 0 or x < best):
                    pi, pj, best = i, j, x
        if pi < 0:
            break
        rowswap(t, pi)
        colswap(t, pj)
        # clear row and column t
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, nr):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    rowop(i, t, -q)
                    if a[i][t] != 0:  # remainder became the smaller pivot
                        rowswap(t, i)
                        dirty = True
            for j in range(t + 1, nc):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    colop(j, t, -q)
                    if a[t][j] != 0:
                        colswap(t, j)
                        dirty = True
        # divisibility: pivot must divide every later entry
        fixed = True
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if a[i][j] % a[t][t] != 0:
                    rowop(t, i, 1)
                    fixed = False
                    break
            if not fixed:
                break
        if not fixed:
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return u, a, v


def column_echelon_reference(rows):
    """``zodom.linalg._column_echelon`` as it was written with a closure for
    its column additions, each applied even with a zero quotient: the
    reference that the inlined version must match exactly, pivots included."""
    m = [list(row) for row in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0

    def coladd(dst, src, q):
        # column dst += q * column src
        for r in m:
            r[dst] += q * r[src]

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
                if a != 0 and (jmin < 0 or a < best):
                    jmin, best = j, a
            if jmin < 0:
                break
            if jmin != col:
                for r in m:
                    r[col], r[jmin] = r[jmin], r[col]
            done = True
            for j in range(col + 1, nc):
                if cur[j] != 0:
                    coladd(j, col, -(cur[j] // cur[col]))
                    if cur[j] != 0:
                        done = False
            if done:
                break
        if jmin < 0:
            continue
        if cur[col] < 0:
            for r in m:
                r[col] = -r[col]
        for j in range(col):
            coladd(j, col, -(cur[j] // cur[col]))
        pivots.append(row)
        col += 1
    return m, pivots
