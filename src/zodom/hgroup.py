"""Finite presentations of groups Z^d <= H <= Q^d and their towers.

A group in the representable class is described by finite *local* data: for
each prime p in a finite support, a module

    M_p = L(p) (x) Zp + V_p (x) Qp

given by a lattice L(p) with Z^d <= L(p) of p-power index, a divisible
subspace V_p of rank r, and the integer rows ``LocalEntry._rows``, a
Z-basis of L(p)* n V_p^perp: a rational vector v lies in M_p iff f . v is
p-integral for every row f.  The group is H = {v in Q^d : v in M_p for
every p}.  L(p) is stored in a canonical form that depends on M_p alone, so
two presentations of one group compare equal.

This local data is the only presentation: membership, equality,
superindex, the approximating tower and every decider read it, and parsing
and ``apply_matrix`` build each entry straight from generators, one column
reduction per entry (``_entry``).

Membership, the witness test alpha.H = H' and the tower run in integers on
the rows.  A vector is num / den with integer num; it lies in M_p iff
row . num = 0 mod p^k for every row (p^k the p-part of den), and in H iff
that holds at every support prime and no other prime divides den.  Each
tower level is Z^d plus, at each support prime, p^-k times the integer
solutions Lambda_p(k) of row . x = 0 mod p^k, read off one Smith form
U . rows . V = S as V . diag(p^k / gcd(s_j, p^k), 1, ..., 1) Z^d
(``_congruence_rows``).  alpha is integer rows over den, and
``maps_onto``, the one witness test of ``classify``, runs ``maps_into``
both ways, taking +-alpha^-1 as |det| plus den * adj from the adjugate.
An image of a divisible direction lies in V'_p iff it pairs to zero with
the rows of H' at p, and an entry with L(p) = Z^d adds no generator
beyond the columns of alpha.
"""

from __future__ import annotations

from math import gcd, lcm, prod
from operator import mul

from .linalg import (
    INF,
    Lattice,
    Mat,
    Record,
    Supernatural,
    _column_echelon,
    adjugate,
    clear_denominators,
    factorint,
    is_prime,
    ratio_text,
    snf,
    subspace_basis,
    valuation,
)


class NotSupergroupError(ValueError):
    """Resulting group would not contain Z^d."""


class LocalEntry:
    """Local data of H at one prime p: the lattice L(p), the divisible
    subspace V_p of rank r, and the integer rows ``_rows``, a Z-basis of
    L(p)* n V_p^perp in column-echelon form (at rank 0 the HNF of L(p)*),
    built by ``_entry``.

    L(p) is stored canonically as p^-k Lambda_p, with p^k the largest
    invariant factor of the rows and Lambda_p = {x in Z^d : _rows . x = 0
    mod p^k}.  With U . _rows . V = S the Smith form that also gives the
    invariant factors s_j, Lambda_p = V . diag(p^k / gcd(s_j, p^k), 1, ...,
    1) Z^d (``_congruence_rows``, with the proof and an example at ranks 0
    and 1).  That is (L(p) + V_p) n p^-k Z^d: p^k kills the image of L(p)
    in Q^d / V_p modulo that of Z^d, so both lattices have the same image
    there, hence the same rows and the same M_p, and the stored one
    depends on M_p alone.  At rank 0 it is L(p).  When p^k = 1 (no rows,
    as at every rank-d entry, or rows with unit invariant factors, as at
    most rank-1 entries) Lambda_p = {x : rows . x = 0 mod 1} = Z^d, so the
    lattice is ``Lattice.standard(d)`` with no reduction.

    The Smith form (s, V) of ``_smith_form`` is kept, as tuples, in
    ``_smith``: the tower levels and the spectrum read every Lambda_p(k)
    off it.  The nontrivial invariant factors of the rows, and v_p of
    their product, are kept in ``_invariants`` and ``_index_valuation``.
    """

    __slots__ = ("p", "r", "lattice", "vspan", "_rows", "_smith", "_invariants", "_index_valuation")

    def __init__(self, p, d, vspan, rows):
        self._smith = smith = _smith_form(rows, d)
        self._invariants = tuple(x for x in smith[0] if x != 1)
        pk = self._invariants[-1] if self._invariants else 1
        self._index_valuation = valuation(prod(self._invariants), p)
        self.p = p
        self.r = len(vspan)
        self.vspan = vspan
        self._rows = rows
        if pk == 1:
            self.lattice = Lattice.standard(d)
        else:
            self.lattice = Lattice(d, pk, _congruence_rows(smith, pk))

    def index_valuation(self) -> int:
        """v_p[L(p) : Z^d + L(p) n V_p], which is v_p[L(p) : Z^d] at rank 0
        and 0 at rank d; read once, in ``__init__``, as v_p of the product
        of the invariant factors of ``_rows``.

        Proof: with pi : Q^d -> Q^d / V_p, whose kernel meets L in L n V,
        [L : Z^d + L n V] = [pi L : pi Z^d] = [Z^d n V^perp : L* n V^perp],
        the last by duality in V^perp = (Q^d / V)*.  Z^d n V^perp is
        saturated, so this index is the gcd of the maximal minors of any
        basis of L* n V^perp, the product of its invariant factors.
        """
        return self._index_valuation

    def __repr__(self):
        return f"LocalEntry(p={self.p}, r={self.r}, lattice={self.lattice!r}, vspan={self.vspan!r})"


def _smith_form(rows, d: int):
    """(s, v) for independent integer rows f_1..f_m in Z^d, as tuples: the
    diagonal s_1 | ... | s_m of their Smith form U . rows . V = S and the
    rows of the unimodular d x d transform V; ((), I) when there are no
    rows."""
    if not rows:
        return (), tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
    _, s, v = snf(rows)
    return tuple(s[i][i] for i in range(len(rows))), tuple(map(tuple, v))


def _congruence_rows(smith, pk: int):
    """Rows of a d x d integer matrix whose columns are a basis of
    Lambda = {x in Z^d : rows . x = 0 mod pk}, from the Smith form
    (s, v) = ``_smith_form(rows, d)``, kept as ``LocalEntry._smith``:
    column j of V times pk / gcd(s_j, pk),
    and times 1 for j >= m.

    Proof: x = V y is a bijection of Z^d, and rows . x = U^-1 S y with U^-1
    unimodular, hence invertible mod pk, so x lies in Lambda iff S y = 0
    mod pk, i.e. s_j y_j = 0 mod pk for j < m, i.e. pk / gcd(s_j, pk)
    divides y_j; the other y_j are free.  So Lambda = V . diag(pk / gcd(s_j,
    pk), 1, ..., 1) Z^d.

    Rank 0, L(5) = Z^2 + Z (1/5, 1/5): Lambda = V . diag(5, 1) Z^2.

    >>> e = HGroup.from_local_data(2, {5: ([(5, (1, 1))], [])}).entry(5)
    >>> smith = e._smith
    >>> e._rows, smith
    (((1, 4), (0, 5)), ((1, 5), ((1, -4), (0, 1))))
    >>> _congruence_rows(smith, 5), e.lattice
    ([[5, -4], [0, 1]], Lattice(1/5 * [1,0; 1,5]))

    Rank 1, V_2 = Q (1, 0, 0) and L(2) = Z^3 + Z (0, 1/4, 1/2):
    Lambda = V . diag(4, 1, 1) Z^3.

    >>> e = HGroup.from_local_data(3, {2: ([(4, (0, 1, 2))], [(1, 0, 0)])}).entry(2)
    >>> smith = e._smith
    >>> e._rows, smith
    (((0, 2, 1), (0, 0, 2)), ((1, 4), ((0, 0, 1), (0, 1, 0), (1, -2, 0))))
    >>> _congruence_rows(smith, 4), e.lattice
    ([[0, 0, 1], [0, 1, 0], [4, -2, 0]], Lattice(1/4 * [1,0,0; 0,1,0; 0,2,4]))
    """
    s, v = smith
    scale = [pk // gcd(x, pk) for x in s] + [1] * (len(v) - len(s))
    return [[x * c for x, c in zip(row, scale)] for row in v]


def _entry(d: int, p: int, gens, vspan):
    """LocalEntry at p for lattice generators num / den, given as integer
    pairs (den, num), and the canonical basis ``vspan`` of V_p; None if
    M_p = Zp^d.

    Proof sketch: with den = p^k m, p not dividing m, the p-primary part of
    (Z^d + <gens>) / Z^d is generated by the p-components of the generators,
    and that of num / den generates the same subgroup as m num / den =
    num / p^k, m being a unit mod p^k.  So L(p) = Z^d + sum Z num / p^k and
    L(p)* = {f in Z^d : f . num = 0 mod p^k for every generator}.  The rows,
    a basis of L(p)* n V_p^perp, are the first d coordinates of the integer
    kernel of E = [[w | 0]; [num | p^k e_j]] (w over vspan, j over
    generators): t_j = -f . num / p^k is fixed by f, so that projection is
    a bijection.  Generators with num = 0 mod p^k impose nothing.

    One column reduction of [E; I_d | 0] gives them.  E has independent
    rows (the p^k e_j block separates the generator rows, and the w are
    independent), so its n_E rows take the first n_E pivots.  The other
    columns then vanish on E and, the column operations being unimodular,
    are a basis of its kernel, whose first d coordinates the I_d rows show.
    The projection being injective, each of those columns takes a pivot in
    the I_d rows, which leaves that block in reduced column-echelon form:
    positive pivots, zeros to their right and entries to their left in
    [0, pivot).  That form of a Z-module is its HNF, which is unique, so
    the rows depend on M_p alone and are canonical.
    """
    cons = []
    for den, num in gens:
        pk = p ** valuation(den, p)
        num = [x % pk for x in num]
        if any(num):
            cons.append((pk, num))
    if not cons and not vspan:
        return None
    m = len(cons)
    ext = [[*w, *[0] * m] for w in vspan]
    ext += [[*num, *(pk * (i == j) for j in range(m))] for i, (pk, num) in enumerate(cons)]
    top = len(ext)
    ext += [[int(i == j) for j in range(d + m)] for i in range(d)]
    h, _ = _column_echelon(ext)
    rows = tuple(tuple(row[j] for row in h[top:]) for j in range(top, d + m))
    return LocalEntry(p, d, vspan, rows)


class HGroup:
    """Local presentation of Z^d <= H <= Q^d; entries sorted by prime.

    Groups compare and hash by one key, (d, ((p, vspan, _rows), ...)) over
    the entries.  Each entry's vspan and rows depend on M_p alone
    (``_entry``), and the rows fix the stored L(p) (``LocalEntry``), so two
    groups have the same key exactly when H = H'."""

    __slots__ = ("d", "entries", "_by_prime", "_key", "_free", "_superindex")

    def __init__(self, d: int, entries):
        self.d = d
        self.entries = tuple(sorted(entries, key=lambda e: e.p))
        self._by_prime = {e.p: e for e in self.entries}
        if len(self._by_prime) != len(self.entries):
            raise ValueError("duplicate primes in support")
        self._key = (d, tuple((e.p, e.vspan, e._rows) for e in self.entries))
        self._free = None  # is_free, filled on first use
        self._superindex = None  # superindex, filled on first use

    @classmethod
    def from_local_data(cls, d: int, data) -> "HGroup":
        """The group with data {p: (gens, divisible_gens)}, the format of
        ``local_data``: at each prime p, L(p) is the p-primary part of
        Z^d + <num / den> over the integer pairs (den, num) in gens, and V_p
        is spanned by the divisible generators.  Trivial entries are dropped.

        >>> HGroup.from_local_data(2, {5: ([(5, (1, 1))], [])}).entry(5)._rows
        ((1, 4), (0, 5))
        >>> HGroup.from_local_data(2, {5: ([(10, (1, 6)), (2, (1, 6))], [])}).entry(5)._rows
        ((1, 4), (0, 5))
        """
        entries = []
        for p in sorted(data):
            if not is_prime(p):
                raise ValueError(f"support key {p} is not prime")
            gens, div = data[p]
            e = _entry(d, p, gens, subspace_basis(div, d))
            if e is not None:
                entries.append(e)
        return cls(d, entries)

    def support(self):
        return tuple(e.p for e in self.entries)

    def entry(self, p: int):
        return self._by_prime.get(p)

    def local_data(self):
        """{p: (gens, divisible_gens)} with gens the HNF columns of L(p) as
        (den, num) pairs, the input format of ``from_local_data``."""
        return {
            e.p: ([(e.lattice.den, col) for col in zip(*e.lattice.mat)], list(e.vspan))
            for e in self.entries
        }

    def __eq__(self, other):
        return isinstance(other, HGroup) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"HGroup(d={self.d}, support={self.support()})"


class Tower(Record):
    """Increasing finite-index extensions H_1 = Z^d <= ... with duals G_n = H_n*.

    A level equal to the one before it (no support prime divides n) is the
    same Lattice object, and so is its dual; lattices are immutable, so the
    sharing shows only to ``is``."""

    __slots__ = ("levels", "duals")

    def __init__(self, levels: tuple, duals: tuple):
        self.levels = levels
        self.duals = duals

    @property
    def depth(self) -> int:
        return len(self.levels)

    def index_at(self, n: int) -> int:
        """[Z^d : G_n] = [H_n : Z^d] at 1-based level n: G_n is integral, so
        the product of its HNF diagonal."""
        return prod(self.duals[n - 1].diagonal())


# ---------------------------------------------------------------------------
# operations


def _member(entries, den: int, num) -> bool:
    """Whether num / den (integers, den > 0) lies in M_p for every entry and
    in Z[1/S]^d, S the entries' primes; for all of H's entries that is H.

    Once gcd(den, num) is divided out, let p^k be the p-part of den.  A
    vector v lies in M_p iff row . v is p-integral for every row of
    ``_rows``, and den / p^k is a unit at p, so num / den is in M_p iff
    row . num = 0 mod p^k for every row.  Any prime of den left over lies
    outside the support.

    >>> h = HGroup.from_local_data(2, {5: ([(5, (1, 1))], [])})
    >>> _member(h.entries, 5, [1, 1]), _member(h.entries, 5, [1, 0])
    (True, False)
    >>> _member(h.entries, 10, [2, 2]), _member(h.entries, 7, [0, 7])  # unreduced
    (True, True)
    >>> _member(h.entries, 35, [7, 12])  # 7/35 = 1/5, but 12/35 has a 7
    False
    """
    g = gcd(den, *num)
    if g > 1:
        den //= g
        num = [x // g for x in num]
    for e in entries:
        p = e.p
        if den % p == 0:
            pk = 1
            while den % p == 0:
                den //= p
                pk *= p
            if any(sum(map(mul, row, num)) % pk for row in e._rows):
                return False
    return den == 1


def member_h(v, h: HGroup) -> bool:
    """Membership of a rational vector in H."""
    if len(v) != h.d:
        raise ValueError("dimension mismatch")
    den, (num,) = clear_denominators([v])
    return _member(h.entries, den, num)


def difference(h1: HGroup, h2: HGroup):
    """None if H1 = H2 (same d), else the first local datum that differs.

    H1 = H2 iff both have the same support and, at each support prime, the
    same divisible subspace (canonical bases compare syntactically) and each
    L(p) lies in the other's M_p.  The HNF columns c of L(p) = (1/den) M
    are tested as c / den against the other entry's rows, h1's entries first.
    ``equal_h`` decides H1 = H2 from the canonical data alone; this names
    the datum, as ``classify`` does in the detail of a conjugacy NO.

    >>> h = HGroup.from_local_data(1, {5: ([(5, (1,))], [])})
    >>> difference(h, h) is None, difference(HGroup(1, ()), h)
    (True, 'support differs at p=5')
    """
    for a, b, which in ((h1, h2, "other"), (h2, h1, "first")):
        for e in a.entries:
            eb = b.entry(e.p)
            if eb is None:
                return f"support differs at p={e.p}"
            if e.vspan != eb.vspan:
                return f"divisible subspace at p={e.p} is {e.vspan} vs {eb.vspan}"
            den = e.lattice.den
            for c in zip(*e.lattice.mat):
                if not _member((eb,), den, c):
                    gen = tuple(ratio_text(x, den) for x in c)
                    return f"lattice generator {gen} at p={e.p} not in the {which} group"
    return None


def equal_h(h1: HGroup, h2: HGroup) -> bool:
    """H = H' (groups of different d are not equal), read off the
    canonical local data; ``difference`` is None exactly when it holds."""
    return h1 == h2


def maps_into(den: int, rows, h: HGroup, hp: HGroup) -> bool:
    """a.H <= H' for a = rows / den (integer rows, den > 0), decided on the
    images of a finite generating set of H.

    Proof sketch: H is Z^d plus, at each support prime p, the lattice L(p)
    and the vectors p^-k w for k >= 0 and w in the basis of V_p.  The unit
    vectors map to the columns of a.  p^-k a.w lies in H' for every k exactly
    when a.w lies in H' and in V'_p: at p, the coordinates of a.w off V'_p
    would have to be divisible by every power of p, so H' needs an entry at
    p whose V'_p holds a.w; at any other prime p^-k is a unit.  The basis
    vectors w are integral, so a.w lies in H' once the columns of a do, and
    only a.w in V'_p is tested for them: rows . w must pair to zero with
    every row of ``_rows`` of H' at p, since those span V'_p^perp.  The
    lattice columns c / den_L of L(p) map to (rows . c) / (den * den_L).
    The divisible directions and the lattice columns are tested before the
    unit columns, which pass for every integer a.

    An entry whose lattice has den_L = 1 adds no lattice column: then
    L(p) <= Z^d, and with Z^d <= L(p) it is Z^d, whose canonical HNF is the
    identity.  Its columns are the unit vectors, whose images, the columns
    of a, the last test checks anyway.  Every entry of rank d is one, and
    so is every entry of rank 1 with L(p) <= Z^d + V_p.
    """
    for e in h.entries:
        ep = hp.entry(e.p)
        for w in e.vspan:
            image = [sum(map(mul, row, w)) for row in rows]
            if ep is None or any(sum(map(mul, f, image)) for f in ep._rows):
                return False
    for e in h.entries:
        if e.lattice.den == 1:
            continue
        lden = den * e.lattice.den
        for c in zip(*e.lattice.mat):
            if not _member(hp.entries, lden, [sum(map(mul, row, c)) for row in rows]):
                return False
    return all(_member(hp.entries, den, col) for col in zip(*rows))


def maps_onto(a: Mat, h: HGroup, hp: HGroup) -> bool:
    """a.H = H' for a = num / den: a.H <= H' and a^-1.H' <= H, with
    a^-1 = den * adj(num) / det(num) from ``adjugate`` (closed form in
    d = 2), formed only once the forward test passes.  The sign of det is
    dropped, since -a^-1 maps H' into H iff a^-1 does (H = -H).  Images
    that do not contain Z^d give False.

    >>> h = HGroup.from_local_data(2, {2: ([], [(1, 0)]), 3: ([], [(0, 1)])})
    >>> hp = HGroup.from_local_data(2, {2: ([], [(0, 1)]), 3: ([], [(1, 0)])})
    >>> maps_onto(Mat([[0, 1], [1, 0]]), h, hp)
    True
    >>> maps_onto(Mat.identity(2), h, hp)
    False
    """
    if not maps_into(a.den, a.num, h, hp):
        return False
    det, adj = adjugate(a.num)
    return maps_into(abs(det), [[a.den * x for x in row] for row in adj], hp, h)


def superindex(h: HGroup) -> Supernatural:
    """Superindex of Z^d in H as a supernatural number: p^inf at primes with
    a divisible direction, p^v_p[L(p) : Z^d] at the others; computed once
    per group."""
    if h._superindex is None:
        h._superindex = Supernatural(
            {e.p: INF if e.r > 0 else e.index_valuation() for e in h.entries}
        )
    return h._superindex


def is_free(h: HGroup) -> bool:
    """Free action iff the divisible subspaces together span Q^d (H dense);
    computed once per group."""
    if h._free is None:
        vecs = [w for e in h.entries for w in e.vspan]
        h._free = len(subspace_basis(vecs, h.d)) == h.d
    return h._free


def apply_matrix(a: Mat, h: HGroup) -> HGroup:
    """Presentation of a.H; raises NotSupergroupError if Z^d is not contained.

    With a = rows / den and +-a^-1 = den * adj(rows) / |det|, Z^d <= a.H
    iff each column of a^-1 lies in H, which can fail only at primes of det
    (tested least first).  a.H has entries only at the support of H and the
    primes of den and det (elsewhere a is in GL_d(Zp) and M_p = Zp^d), and
    ``_entry`` reads a.M_p from the images rows . w of V_p and (rows . c) /
    (den * den_L) of the HNF columns c / den_L of L(p), Z^d where H has no
    entry.
    """
    if a.d != h.d:
        raise ValueError("dimension mismatch")
    d = h.d
    den, rows = a.den, a.num
    det, adj = adjugate(rows)
    det = abs(det)
    inv_cols = [[den * x for x in col] for col in zip(*adj)]
    # det // gcd(det, den^d) is the numerator of det a, den^d / that gcd its denominator
    primes = set(h.support()) | set(factorint(den)) | set(factorint(det // gcd(det, den**d)))
    entries = []
    for p in sorted(primes):
        e = h.entry(p)
        pk = p ** valuation(det, p)
        if pk > 1 and not all(_member((e,) if e else (), pk, c) for c in inv_cols):
            raise NotSupergroupError(f"image group does not contain Z^{d} locally at {p}")
        if e is None:
            gens, div = [(den, c) for c in zip(*rows)], []
        else:
            lden = den * e.lattice.den
            gens = [(lden, [sum(map(mul, row, c)) for row in rows]) for c in zip(*e.lattice.mat)]
            div = [[sum(map(mul, row, w)) for row in rows] for w in e.vspan]
        image = _entry(d, p, gens, subspace_basis(div, d))
        if image is not None:
            entries.append(image)
    return HGroup(d, entries)


def tower(h: HGroup, depth: int) -> Tower:
    """Approximating tower with levels H_n = H n (1/n!) Z^d, n = 1..depth.
    Since n! | (n+1)! the levels increase, and every integer divides some
    n!, so their union is H.

    Proof sketch for the levels: write v in H_n as z + sum_p x_p / p^k over
    the primes p | n!, with z and x_p integral and p^k the p-part of n!.
    Each x_p / p^k lies in H: it is q-integral at every q != p, and at p it
    differs from v by a p-integral vector.  A vector whose denominators are
    powers of p lies in H exactly when it lies in M_p, and x / p^k with x
    integral lies in M_p exactly when row . x = 0 mod p^k for every row of
    ``_rows``.  So H_n = Z^d + sum_p p^-k Lambda_p(k) with Lambda_p(k) =
    {x in Z^d : _rows . x = 0 mod p^k}, and a prime outside the support
    adds nothing.  With U . _rows . V = S in Smith form, Lambda_p(k) =
    V . diag(p^k / gcd(s_j, p^k), 1, ..., 1) Z^d (``_congruence_rows``), so
    the one Smith form each entry keeps (``LocalEntry._smith``) serves every
    level: each Lambda_p(k) is V with its columns scaled.

    Each level is built from the one before.  The exponent k = v_p(n!)
    exceeds v_p((n-1)!) exactly when p | n, so at every other prime the
    term p^-k Lambda_p(k) is that of level n - 1, already inside H_{n-1}.
    With H_{n-1} <= H_n this gives

        H_n = H_{n-1} + sum over support primes p | n of p^-k Lambda_p(k),

    one canonical HNF of the previous level's columns and the new Lambda_p
    columns over lcm(den of H_{n-1}, prod p^k).  H_1 = Z^d, and a level
    that no support prime divides is H_{n-1} itself: the tower holds the
    same Lattice object, and the same dual, again.

    >>> h = HGroup.from_local_data(2, {2: ([], [(1, 0)]), 3: ([], [(0, 1)])})
    >>> t = tower(h, 5)  # oplus(Z[1/2], Z[1/3])
    >>> [t.index_at(n) for n in range(1, 6)]
    [1, 2, 6, 24, 24]
    >>> t.levels[4] is t.levels[3], t.duals[4] is t.duals[3]
    (True, True)
    """
    levels = tuple(_levels(h, depth))
    duals = [levels[0]]  # H_1 = Z^d, its own dual
    for prev, level in zip(levels, levels[1:]):
        duals.append(duals[-1] if level is prev else level.dual())
    return Tower(levels, tuple(duals))


def _levels(h: HGroup, depth: int):
    """The levels H_1, ..., H_depth of ``tower`` without their duals, each
    built from the one before; a level equal to the one before is the same
    Lattice object.  ``tower`` adds the duals; the ``h1`` verb and
    ``superindex_oracle``, which need only the levels, read them here.
    Each support prime p <= depth (the others divide no n <= depth) reads
    the Smith form its entry keeps (``LocalEntry._smith``), and each
    Lambda_p(k) is read off it by ``_congruence_rows``; no Smith form is
    computed here."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    d = h.d
    level = Lattice.standard(d)  # H_1 = Z^d
    yield level
    smiths = [(e.p, e._smith) for e in h.entries if e.p <= depth]
    exps = [0] * len(smiths)  # v_p(n!) at each of those primes
    for n in range(2, depth + 1):
        parts = []  # (p^k, rows whose columns span Lambda_p(k)) at the support primes p | n
        for i, (p, smith) in enumerate(smiths):
            if n % p == 0:
                exps[i] += valuation(n, p)
                pk = p ** exps[i]
                parts.append((pk, _congruence_rows(smith, pk)))
        if parts:
            den = lcm(level.den, prod(pk for pk, _ in parts))
            lift = den // level.den
            rows = [
                [lift * x for x in level.mat[i]] + [den // pk * x for pk, lam in parts for x in lam[i]]
                for i in range(d)
            ]
            level = Lattice(d, den, rows)
        yield level


def superindex_oracle(h, depth: int) -> dict[int, int]:
    """Union-of-divisors reading of the superindex from a finite tower:
    for each prime, the largest exponent dividing some level index
    [H_n : Z^d] = den^d / prod diag of the level (1/den) M, with no dual."""
    exps: dict[int, int] = {}
    for level in _levels(h, depth):
        idx = level.den**h.d // prod(level.diagonal())
        if idx == 1:
            continue
        for p, e in factorint(idx).items():
            exps[p] = max(exps.get(p, 0), e)
    return exps

