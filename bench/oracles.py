"""Independent oracles for the benchmark's output checks.

Nothing here imports ``zodom``.  The oracles cover the restricted group
texts the benchmark generates,

    [mat([a,b;c,d]) *] oplus(Z[1/n1], ..., Z[1/nd]) [+ gen(x1, ..., xd)]*

and work from first principles: Legendre's formula for v_p(n!), membership
by brute-force enumeration of the finite group the gens generate modulo the
divisible part D, 2x2 determinants by hand, and sympy for primality.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import gcd

INF = "inf"


# ---------------------------------------------------------------------------
# number theory


def prime_factors(n: int) -> set[int]:
    n = abs(n)
    out, p = set(), 2
    while p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    if n > 1:
        out.add(n)
    return out


def vp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def legendre(n: int, p: int) -> int:
    """v_p(n!) = sum_k floor(n / p^k)."""
    total, q = 0, p
    while q <= n:
        total += n // q
        q *= p
    return total


def isprime(n: int) -> bool:
    import sympy  # installed alongside the test tools; not a zodom dependency

    return bool(sympy.isprime(n))


# ---------------------------------------------------------------------------
# reading the DSL subset


_MAT_RE = re.compile(r"^\s*mat\(\[([^\]]*)\]\)\s*\*\s*(.*)$", re.S)
_OPLUS_RE = re.compile(r"oplus\(([^)]*)\)")
_GEN_RE = re.compile(r"gen\(([^)]*)\)")
_COMP_RE = re.compile(r"^Z(?:\[1/(\d+)\])?$")


def parse_rows(body: str):
    """'a,b;c,d' -> [[Fraction]]"""
    rows = [[Fraction(x.strip()) for x in row.split(",")] for row in body.split(";")]
    if any(len(r) != len(rows) for r in rows):
        raise ValueError(f"not a square matrix: {body!r}")
    return rows


def parse_mat_text(text: str):
    """'mat([a,b;c,d])' as printed by the CLI -> [[Fraction]]"""
    m = re.fullmatch(r"\s*mat\(\[([^\]]*)\]\)\s*", text)
    if m is None:
        raise ValueError(f"not a matrix: {text!r}")
    return parse_rows(m.group(1))


def parse_vec_text(text: str):
    """'(x, y)' as printed by the CLI -> tuple of Fractions"""
    m = re.fullmatch(r"\s*\(([^)]*)\)\s*", text)
    if m is None:
        raise ValueError(f"not a vector: {text!r}")
    return tuple(Fraction(x.strip()) for x in m.group(1).split(","))


class GroupSpec:
    """H = M (D + sum Z g_i), D = Z[1/n_1] + ... + Z[1/n_d] coordinatewise."""

    def __init__(self, comps, gens=(), mat=None):
        self.comps = tuple(int(c) for c in comps)
        self.gens = tuple(tuple(Fraction(x) for x in g) for g in gens)
        self.mat = None if mat is None else [[Fraction(x) for x in r] for r in mat]
        self.d = len(self.comps)
        self._comp_primes = [prime_factors(c) for c in self.comps]
        self._minv = None if self.mat is None else inverse(self.mat)
        self._mods = self._moduli()
        self._parts = None

    @classmethod
    def from_text(cls, text: str) -> "GroupSpec":
        text = text.split("#", 1)[0].strip()
        mat = None
        m = _MAT_RE.match(text)
        if m is not None:
            mat = parse_rows(m.group(1))
            text = m.group(2)
        oplus = _OPLUS_RE.findall(text)
        if len(oplus) != 1:
            raise ValueError(f"expected one oplus(...) in {text!r}")
        comps = []
        for part in oplus[0].split(","):
            cm = _COMP_RE.match(part.strip())
            if cm is None:
                raise ValueError(f"bad component {part!r}")
            comps.append(int(cm.group(1) or 1))
        gens = [
            tuple(Fraction(x.strip()) for x in body.split(","))
            for body in _GEN_RE.findall(text)
        ]
        rest = _GEN_RE.sub("", _OPLUS_RE.sub("", text)).replace("+", "").strip()
        if rest:
            raise ValueError(f"unsupported text {rest!r}")
        return cls(comps, gens, mat)

    # -- the finite group T = (D + sum Z g) / D, as integer residues

    def _split(self, x: Fraction, j: int):
        """x mod Z[1/n_j] as (k, m): x = k/m mod D_j with m prime to n_j."""
        den, d_part = x.denominator, 1
        for p in self._comp_primes[j]:
            while den % p == 0:
                den //= p
                d_part *= p
        if den == 1:
            return 0, 1
        return x.numerator * pow(d_part, -1, den) % den, den

    def _moduli(self):
        mods = []
        for j in range(self.d):
            m = 1
            for g in self.gens:
                den = self._split(g[j], j)[1]
                m = m * den // gcd(m, den)
            mods.append(m)
        return mods

    def _residue(self, v):
        """The class of v in (Q/Z)^d mod D, or None if it is not in T's range."""
        out = []
        for j, x in enumerate(v):
            k, m = self._split(Fraction(x), j)
            if self._mods[j] % m:
                return None
            out.append(k * (self._mods[j] // m))
        return tuple(out)

    def _primary(self):
        """T split into p-primary parts (CRT on each coordinate's modulus); each
        part is enumerated by brute force, closing {0} under the gens."""
        if self._parts is None:
            gens = [self._residue(g) for g in self.gens]
            self._parts = {}
            for p in set().union(*(prime_factors(m) for m in self._mods)):
                mods = tuple(p ** vp(m, p) for m in self._mods)
                pgens = [tuple(k % q for k, q in zip(g, mods)) for g in gens]
                zero = (0,) * self.d
                seen, frontier = {zero}, [zero]
                while frontier:
                    t = frontier.pop()
                    for g in pgens:
                        s = tuple((a + b) % q for a, b, q in zip(t, g, mods))
                        if s not in seen:
                            seen.add(s)
                            frontier.append(s)
                self._parts[p] = (mods, seen)
        return self._parts

    def member(self, v) -> bool:
        """v in M(D + sum Z g) iff the class of M^-1 v mod D lies in T."""
        w = tuple(Fraction(x) for x in v)
        if self._minv is not None:
            w = apply(self._minv, w)
        t = self._residue(w)
        return t is not None and all(
            tuple(k % q for k, q in zip(t, mods)) in elems
            for mods, elems in self._primary().values()
        )

    def superindex(self):
        """{p: exponent or INF}; det +-1 matrices leave the superindex alone."""
        if self.mat is not None and abs(det(self.mat)) != 1:
            raise ValueError("superindex oracle needs det +-1")
        div = set().union(*self._comp_primes)
        out = {p: INF for p in div}
        for p, (_, elems) in self._primary().items():
            if p not in div:
                out[p] = vp(len(elems), p)
        return out

    def _torsion(self, n: int):
        """Lifts to Q^d of the elements of T[n!] (one p-part at a time), and |T[n!]|.
        n! kills a p-part element y mod q iff p^v_p(n!) y = 0 mod q."""
        gens, count = [], 1
        for p, (mods, elems) in self._primary().items():
            pn = p ** legendre(n, p)
            killed = [t for t in elems if all(pn * y % q == 0 for y, q in zip(t, mods))]
            count *= len(killed)
            for t in killed:
                lift = []
                for y, q, m in zip(t, mods, self._mods):
                    co = m // q  # CRT: k = y mod q, k = 0 mod m/q
                    lift.append(Fraction(y * co * pow(co, -1, q) % m if q > 1 else 0, m))
                gens.append(tuple(lift))
        return gens, count

    def sample(self, height: int = 2):
        """Small elements of H: D-generators up to p^height, the gens, their images."""
        out = []
        for j, n in enumerate(self.comps):
            for k in range(height + 1):
                out.append(
                    tuple(Fraction(1, n**k) if i == j else Fraction(0) for i in range(self.d))
                )
        out.extend(self.gens)
        if len(self.gens) >= 2:
            out.append(tuple(a + b for a, b in zip(self.gens[0], self.gens[1])))
        if self.mat is not None:
            out = [apply(self.mat, v) for v in out]
        return out

    # -- tower levels H_n = H n (1/n!) Z^d = D_n + lifts of T[n!] (mat = None)

    def _axis_parts(self, n: int):
        """The n_j-part of n! for each coordinate, by Legendre's formula."""
        parts = []
        for primes in self._comp_primes:
            part = 1
            for p in primes:
                part *= p ** legendre(n, p)
            parts.append(part)
        return parts

    def level_index(self, n: int) -> int:
        """[H_n : Z^d] = (prod_j n_j-part of n!) * |T[n!]|."""
        if self.mat is not None:
            raise ValueError("level oracle needs an untransformed group")
        out = 1
        for part in self._axis_parts(n):
            out *= part
        return out * self._torsion(n)[1]

    def level_gens(self, n: int):
        """Generators of H_n: the scaled axes plus the lifts of T[n!]."""
        gens = [
            tuple(Fraction(1, part) if i == j else Fraction(0) for i in range(self.d))
            for j, part in enumerate(self._axis_parts(n))
        ]
        return gens + self._torsion(n)[0]

    def level_dual_member(self, n: int, v) -> bool:
        """v in G_n = H_n*: integral pairing with every generator of H_n."""
        return all(
            sum(Fraction(a) * b for a, b in zip(v, g)).denominator == 1
            for g in self.level_gens(n)
        )

    def to_text(self) -> str:
        comps = ", ".join("Z" if c == 1 else f"Z[1/{c}]" for c in self.comps)
        text = f"oplus({comps})"
        for g in self.gens:
            text += " + gen(" + ", ".join(str(x) for x in g) + ")"
        if self.mat is not None:
            body = ";".join(",".join(str(x) for x in r) for r in self.mat)
            text = f"mat([{body}]) * {text}"
        return text


def format_superindex(s) -> str:
    if not s:
        return "1"
    return "*".join(f"{p}^{s[p]}" for p in sorted(s))


# ---------------------------------------------------------------------------
# 2x2 (and 1x1) matrices by hand


def det(m) -> Fraction:
    if len(m) == 1:
        return Fraction(m[0][0])
    if len(m) == 2:
        return Fraction(m[0][0]) * m[1][1] - Fraction(m[0][1]) * m[1][0]
    raise ValueError("oracle matrices are 1x1 or 2x2")


def inverse(m):
    dt = det(m)
    if dt == 0:
        raise ZeroDivisionError("singular matrix")
    if len(m) == 1:
        return [[1 / dt]]
    (a, b), (c, d) = m
    return [[d / dt, -b / dt], [-c / dt, a / dt]]


def apply(m, v):
    return tuple(sum(Fraction(x) * y for x, y in zip(row, v)) for row in m)


def is_integral(m) -> bool:
    return all(Fraction(x).denominator == 1 for row in m for x in row)


def witness_ok(w, h: GroupSpec, hp: GroupSpec, integral: bool) -> bool:
    """det +-1 (and integrality for iso), then sampled two-way containment
    w H <= H' and w^-1 H' <= H."""
    if abs(det(w)) != 1 or (integral and not is_integral(w)):
        return False
    winv = inverse(w)
    return all(hp.member(apply(w, v)) for v in h.sample()) and all(
        h.member(apply(winv, v)) for v in hp.sample()
    )


# ---------------------------------------------------------------------------
# the spectrum and the rigid construction


def spectrum(h: GroupSpec, height: int):
    """Sorted rational eigenvalues of H in [0,1)^d with denominators <= height."""
    line = [Fraction(0)] + [
        Fraction(num, den)
        for den in range(2, height + 1)
        for num in range(1, den)
        if gcd(num, den) == 1
    ]
    return sorted(v for v in itertools.product(sorted(line), repeat=h.d) if h.member(v))


def rigid_levels(levels: int):
    """(a, b, det, K) per level: K_1 = 3, K_n = n * prod ||alpha_i||_1,
    a = K_n, b the least b >= K_n with a*b - 1 prime (sympy)."""
    out = []
    norms = 1
    for n in range(1, levels + 1):
        k = 3 if n == 1 else n * norms
        a = b = k
        while not isprime(a * b - 1):
            b += 1
        out.append((a, b, a * b - 1, k))
        norms *= max(a, b) + 1  # l1 operator norm of [[a,1],[1,b]]
    return out


def sublattice_count(max_index: int) -> int:
    """Number of sublattices of Z^2 with index <= m: sum of sigma(m)."""
    return sum(sum(k for k in range(1, m + 1) if m % k == 0) for m in range(1, max_index + 1))
