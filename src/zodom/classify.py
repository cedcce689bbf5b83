"""Deciders for conjugacy, isomorphism, continuous orbit equivalence and
orbit equivalence of Z^d-odometers in terms of their groups H.

Decision strategy, in order:

* cheap invariants first (superindex; per-prime divisibility rank and index
  valuation, and for isomorphism the elementary divisors of L(p)/Z^d at
  rank-0 primes; line-arrangement consistency) -- mismatches yield NO with
  a checkable certificate;
* for zero-line groups (every support prime has divisibility rank 0 or d),
  both relations are decided in any d by a constructed witness: alpha maps
  Z^d + sum of the rank-0 lattices L(p) of H onto that of H' (for
  isomorphism through the Smith forms of the two), so YES holds exactly
  when the profiles agree;
* for d = 2 with at least two distinct divisible lines, the line constraints
  determine candidate matrices up to signs (isomorphism) or signs plus a
  per-prime valuation system (continuous orbit equivalence), read off the
  integer HNF columns of each L(p); the finitely many candidates are tested
  exactly, each +- pair once since H = -H, so a YES always re-validates;
  but a COE NO can be wrong when the support has a fully divisible (rank 2)
  prime (ROADMAP.md item 1, and the expected failure
  test_two_line_coe_tier_is_not_no_where_a_witness_exists);
* otherwise (d = 2, both relations on one-line groups) a bounded search over
  alpha = (1/q) [[a, b], [c, e]] with entries at most ``bound`` and
  det alpha = +-1: q = 1 for isomorphism, q = 1..bound for continuous orbit
  equivalence under a budget of COE_BUDGET triples (a, b, c), each matrix
  tested once, at its smallest q.  It returns the first witness in scan
  order, and UNKNOWN on exhaustion with a certificate stating the coverage
  reached.  With ``all_witnesses`` the search also enumerates the
  zero-line witnesses, and the constructed one replaces its UNKNOWN.

Isomorphism and continuous orbit equivalence share these steps; they
differ in the per-prime profile compared, the zero-line witness, the
line-tier scales and admissibility test, and the denominators searched.

Every candidate alpha, constructed or searched, is a Mat (integer rows
over one denominator), built from the integer frames and lattice bases,
so a witness is found without building a Fraction.  The zero-line tier and
the bounded search test it with ``maps_onto``.  The line tier forms its
frames and their adjugates in closed 2 x 2 form and carries each
candidate's exact inverse, so it tests alpha.H <= H' and alpha^-1.H' <= H
with two ``maps_into`` calls and runs no elimination.

YES verdicts are sound in every dimension (sufficiency holds for all d);
NO verdicts for d >= 3 carry a flag because necessity of the criteria is
established only for d <= 2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from operator import mul

from .hgroup import HGroup, difference, equal_h, is_free, maps_into, maps_onto, superindex
from .linalg import INF, Lattice, Mat, adjugate, factorint, lattice_sum, snf, valuation

CONJ, ISO, COE, OE = "conj", "iso", "coe", "oe"
YES, NO, UNKNOWN = "YES", "NO", "UNKNOWN"

D3_FLAG = "necessity proven for d <= 2 only"


class NotFreeError(ValueError):
    """Deciders require free (dense) groups."""


@dataclass(frozen=True)
class Certificate:
    kind: str
    detail: str

    def __str__(self):
        return f"{self.kind}: {self.detail}"


@dataclass(frozen=True)
class Verdict:
    relation: str
    answer: str
    witness: Mat | None = None
    certificate: Certificate | None = None
    witnesses: tuple = ()
    flags: tuple = ()

    def exit_code(self) -> int:
        return {YES: 0, NO: 1, UNKNOWN: 2}[self.answer]


# ---------------------------------------------------------------------------
# invariants


def _require_free(*groups):
    for h in groups:
        if not is_free(h):
            raise NotFreeError("classification requires dense (free) groups")


def _entry_profile(e):
    """(divisibility rank, v_p[L(p) : Z^d + L(p) n V_p]).  Both components
    are invariant under unimodular integral changes of H; under rational
    determinant +-1 changes only the rank and, at rank-0 primes, the
    valuation survive (divisible directions absorb scalings elsewhere)."""
    return (e.r, e.index_valuation())


def _profiles(h: HGroup):
    return {e.p: _entry_profile(e) for e in h.entries}


def _lines(h: HGroup):
    """Divisible lines for d = 2: prime -> primitive direction vector."""
    return {e.p: e.vspan[0] for e in h.entries if e.r == 1}


def _coe_profile_ok(h, hp):
    """COE-invariant per-prime data: rank always; valuation only at r = 0."""
    pa, pb = _profiles(h), _profiles(hp)
    for p in sorted(set(pa) | set(pb)):
        (ra, va) = pa.get(p, (0, 0))
        (rb, vb) = pb.get(p, (0, 0))
        if ra != rb:
            return Certificate(
                "local-profile", f"divisibility rank at p={p} is {ra} vs {rb}"
            )
        if ra == 0 and va != vb:
            return Certificate(
                "local-profile", f"index valuation at p={p} is {va} vs {vb}"
            )
    return None


def _elementary_divisors(e):
    """Elementary divisors of L(p)/Z^d at a rank-0 entry, ascending: the
    nontrivial invariant factors of ``_rows``, a basis of L(p)*.

    Proof: (x, f) -> f . x mod Z is a well-defined perfect pairing of
    L(p)/Z^d with Z^d/L(p)* (f . x in Z for all f in Z^d forces x in Z^d,
    for all x in L(p) forces f in L(p)*), so Z^d/L(p)* is the Pontryagin
    dual of the finite group L(p)/Z^d, hence isomorphic to it, and it is
    the sum of Z/s_i over the invariant factors s_i of the rows."""
    return e._invariants


def _iso_profile_ok(h, hp):
    """Unimodular integral alpha preserves the full per-prime profile and,
    at rank-0 primes, the elementary divisors of L(p)/Z^d.

    Proof sketch for the divisors: alpha in GL_d(Z) fixes Z^d, so it induces
    an isomorphism H/Z^d = H'/Z^d, which maps each p-primary part onto the
    matching part.  At a rank-0 prime the p-primary part is the finite group
    L(p)/Z^d, whose elementary divisors are isomorphism invariants.  They
    are read only once the (rank, valuation) profile agrees, and only at
    valuation >= 2, where a group of that order is not determined by it."""
    pa, pb = _profiles(h), _profiles(hp)
    for p in sorted(set(pa) | set(pb)):
        a = pa.get(p, (0, 0))
        b = pb.get(p, (0, 0))
        if a != b:
            return Certificate(
                "local-profile",
                f"(rank, valuation) at p={p} is {a} vs {b}",
            )
    for p, (rank, val) in sorted(pa.items()):
        if rank == 0 and val >= 2:
            da, db = _elementary_divisors(h.entry(p)), _elementary_divisors(hp.entry(p))
            if da != db:
                return Certificate(
                    "elementary-divisors",
                    f"L(p)/Z^d at p={p} has elementary divisors {da} vs {db}",
                )
    return None


def _line_assignment(h, hp):
    """Required map V_p(H) -> V_p(H') on divisible lines, or a certificate.

    Any alpha with alpha H = H' must send the p-line of H to the p-line of
    H' for every prime; the induced map on distinct lines must be a
    well-defined bijection.  The returned map sends each line of H to its
    target and the first prime that requires it.
    """
    la, lb = _lines(h), _lines(hp)
    if sorted(la) != sorted(lb):
        missing = sorted(set(la) ^ set(lb))
        return None, Certificate("line-map", f"line primes differ at {missing}")
    forward: dict = {}
    backward: dict = {}
    for p in sorted(la):
        src, dst = la[p], lb[p]
        first, q = forward.setdefault(src, (dst, p))
        if first != dst:
            return None, Certificate(
                "line-map", f"line {src} must map to both {first} (p={q}) and {dst} (p={p})"
            )
        if backward.get(dst, src) != src:
            return None, Certificate(
                "line-map", f"lines {backward[dst]} and {src} both must map to {dst}"
            )
        backward[dst] = src
    return forward, None


# ---------------------------------------------------------------------------
# conjugacy and orbit equivalence


def decide_conjugacy(h: HGroup, hp: HGroup) -> Verdict:
    """Conjugate iff H = H' (sufficiency in all d; necessity proven d <= 2)."""
    _require_free(h, hp)
    if h.d != hp.d:
        return Verdict(CONJ, NO, certificate=Certificate("dimension", f"d={h.d} vs d={hp.d}"))
    flags = (D3_FLAG,) if h.d >= 3 else ()
    detail = difference(h, hp)
    if detail is None:
        return Verdict(CONJ, YES)
    cert = _iso_profile_ok(h, hp) or Certificate("local-data", detail)
    return Verdict(CONJ, NO, certificate=cert, flags=flags)


def decide_oe(h: HGroup, hp: HGroup) -> Verdict:
    """Orbit equivalent iff the superindexes agree (d may differ)."""
    _require_free(h, hp)
    sa, sb = superindex(h), superindex(hp)
    if sa == sb:
        return Verdict(OE, YES)
    # canonical superindexes: unequal ones differ in some prime's exponent
    p = min(p for p in {*sa.primes(), *sb.primes()} if sa.exponent(p) != sb.exponent(p))
    detail = f"exponent at p={p} is {sa.exponent(p)} vs {sb.exponent(p)}"
    return Verdict(OE, NO, certificate=Certificate("superindex", detail))


def _sort_key(cand: Mat):
    # smallest entries first, each as (|numerator|, denominator) in lowest
    # terms; positive representative before its negative
    den = cand.den
    key = []
    for row in cand.num:
        for x in row:
            g = gcd(x, den)
            key.append((abs(x) // g, den // g, 0 if x >= 0 else 1))
    return tuple(key)


# ---------------------------------------------------------------------------
# isomorphism and continuous orbit equivalence: one witness search


def decide_isomorphism(
    h: HGroup, hp: HGroup, bound: int = 20, all_witnesses: bool = False
) -> Verdict:
    """Isomorphic iff alpha H = H' for some alpha in GL_d(Z) (d = d')."""
    _require_free(h, hp)
    if h.d != hp.d:
        return Verdict(ISO, NO, certificate=Certificate("dimension", f"d={h.d} vs d={hp.d}"))
    if h.d == 1:
        # GL_1(Z) = {+-1} and -H = H, so isomorphism collapses to equality
        if equal_h(h, hp):
            wits = (Mat([[1]]), Mat([[-1]])) if all_witnesses else ()
            return Verdict(ISO, YES, witness=Mat([[1]]), witnesses=wits)
        return Verdict(ISO, NO, certificate=_superindex_mismatch(h, hp))
    return _witness_search(ISO, h, hp, _iso_profile_ok, _iso_line_tier, bound, all_witnesses)


def decide_coe(
    h: HGroup, hp: HGroup, bound: int = 20, all_witnesses: bool = False
) -> Verdict:
    """COE iff alpha H = H' for rational alpha with det +-1 (same d)."""
    _require_free(h, hp)
    if h.d != hp.d:
        return Verdict(
            COE,
            NO,
            certificate=Certificate(
                "dimension",
                f"d={h.d} vs d={hp.d}: top nonvanishing cohomology degree differs",
            ),
        )
    if h.d == 1:
        # det +-1 forces alpha = +-1 in GL_1(Q)
        if equal_h(h, hp):
            return Verdict(COE, YES, witness=Mat([[1]]))
        return Verdict(COE, NO, certificate=_superindex_mismatch(h, hp))
    return _witness_search(COE, h, hp, _coe_profile_ok, _coe_line_tier, bound, all_witnesses)


def _superindex_mismatch(h, hp):
    """Certificate that the superindexes differ, or None where they agree."""
    sa, sb = superindex(h), superindex(hp)
    return None if sa == sb else Certificate("superindex", f"{sa} vs {sb}")


def _witness_search(relation, h, hp, profile_cert, line_tier, bound, all_witnesses):
    """The d >= 2 steps shared by isomorphism and COE: invariants, the
    zero-line tier (it returns None where it leaves the pair to the later
    steps), then for d = 2 the line tier (two distinct divisible lines) or
    the bounded search."""
    cert = _superindex_mismatch(h, hp) or profile_cert(h, hp)
    if cert is not None:
        return Verdict(relation, NO, certificate=cert)
    if all(e.r in (0, h.d) for e in h.entries):
        verdict = _zero_line_tier(relation, h, hp, bound, all_witnesses)
        if verdict is not None:
            return verdict
    if h.d >= 3:
        if equal_h(h, hp):
            return Verdict(relation, YES, witness=Mat.identity(h.d))
        return Verdict(
            relation,
            UNKNOWN,
            certificate=Certificate("search-exhausted", "no decision procedure for d >= 3"),
            flags=(D3_FLAG,),
        )
    assignment, cert = _line_assignment(h, hp)
    if cert is not None:
        return Verdict(relation, NO, certificate=cert)
    distinct = sorted(set(_lines(h).values()))
    if len(distinct) < 2:
        return _bounded_search(relation, h, hp, bound, all_witnesses)
    # _line_assignment rejects two lines with one target, so v1 != v2
    u1, u2 = distinct[:2]
    (v1, _), (v2, _) = assignment[u1], assignment[u2]
    return line_tier(h, hp, _frame(u1, u2), _frame(v1, v2), all_witnesses)


def _yes(relation, found, all_witnesses):
    found.sort(key=_sort_key)
    return Verdict(relation, YES, witness=found[0], witnesses=tuple(found) if all_witnesses else ())


def _frame(u, v):
    """(C, det C, adj C) for the integer frame C = [u v] of two lines, in
    closed form: det C = u0 v1 - v0 u1 and adj C = [[v1, -v0], [-u1, u0]],
    so that adj C . C = det C . I."""
    c = [[u[0], v[0]], [u[1], v[1]]]
    return c, u[0] * v[1] - v[0] * u[1], [[v[1], -v[0]], [-u[1], u[0]]]


def _sign_choices(relation, h, hp, frame, frame_p, scales, all_witnesses, failure):
    """Test alpha = C' diag(lambda, +-mu) C^-1, and take -alpha with it.

    With lambda = a / b, mu = c / e and C^-1 = adj C / det C, alpha is
    C' diag(a e, +-c b) adj C over b e det C: the two terms
    C'_i0 a e adj_0j and C'_i1 c b adj_1j are formed once and each sign
    choice adds them.  It is admissible when |det alpha| = 1, that is
    |det rows| = den^2, which scaling does not change, so it is tested before
    the Mat is built, and for isomorphism when alpha is also integral.

    alpha.H = H' is tested as alpha.H <= H' and alpha^-1.H' <= H, with the
    exact inverse carried along instead of eliminated: alpha^-1 =
    C diag(1 / lambda, +-1 / mu) C'^-1 = C diag(b / a, +-e / c) adj C' /
    det C', that is C diag(b c, +-e a) adj C' over a c det C', with the sign
    of det C' moved into the rows so that the denominator a c |det C'| is
    positive.  Its two terms are formed the same way, and only for a
    candidate whose forward test passes.

    The other two sign choices, diag(-lambda, -+mu), give -alpha, and each +-
    pair is tested once: |det(-alpha)| = |det alpha| in d = 2, -alpha is
    integral iff alpha is, and -alpha.H = alpha.(-H) = alpha.H since H = -H,
    so -alpha passes exactly when alpha does.  The four candidates are
    distinct (both terms are nonzero, of rank 1), and ``_sort_key`` tells
    apart any two distinct matrices, so sorting ``found`` gives the same
    witness and witness tuple as testing all four signs."""
    (a, b), (c, e) = scales
    cm, det_c, adj = frame
    cp, det_cp, adj_p = frame_p
    den = b * e * det_c
    t0 = [[cp[i][0] * a * e * adj[0][j] for j in range(2)] for i in range(2)]
    t1 = [[cp[i][1] * c * b * adj[1][j] for j in range(2)] for i in range(2)]
    sign = 1 if det_cp > 0 else -1
    inv_den = a * c * abs(det_cp)
    found = []
    for s2 in (1, -1):
        rows = [[x + s2 * y for x, y in zip(r0, r1)] for r0, r1 in zip(t0, t1)]
        if abs(rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]) != den * den:
            continue
        alpha = Mat(rows, den)
        if (relation == COE or alpha.is_integer()) and maps_into(alpha.den, alpha.num, h, hp):
            inv_rows = [
                [sign * (cm[i][0] * b * c * adj_p[0][j] + s2 * cm[i][1] * e * a * adj_p[1][j])
                 for j in range(2)]
                for i in range(2)
            ]
            if maps_into(inv_den, inv_rows, hp, h):
                found += (alpha, alpha.scale(-1))
    if found:
        return _yes(relation, found, all_witnesses)
    return Verdict(relation, NO, certificate=Certificate("line-candidates-exhausted", failure))


def _iso_line_tier(h, hp, frame, frame_p, all_witnesses):
    """Two distinct divisible lines pin alpha up to signs: a unimodular
    integral matrix sends primitive vectors to primitive vectors, so each
    line basis maps to +- its image's basis (lambda = mu = 1)."""
    return _sign_choices(
        ISO, h, hp, frame, frame_p, ((1, 1), (1, 1)), all_witnesses,
        "all sign choices on the line-constrained unimodular candidates fail",
    )


def _coe_line_tier(h, hp, frame, frame_p, all_witnesses):
    """alpha = C' diag(lambda, mu) C^-1 in the frame of two distinct lines;
    per-prime valuation equations plus the determinant relation solve for
    lambda and mu exactly, leaving only sign choices to test."""
    scales, cert = _valuation_scales(h, hp, frame, frame_p)
    if cert is not None:
        return Verdict(COE, NO, certificate=cert)
    return _sign_choices(
        COE, h, hp, frame, frame_p, scales, all_witnesses,
        "line and valuation constraints admit no witness",
    )


def _rank_zero_sum(h) -> Lattice:
    """M = Z^d + the sum of the lattices L(p) of the rank-0 entries."""
    return lattice_sum(Lattice.standard(h.d), *(e.lattice for e in h.entries if e.r == 0))


def _smith_frame(m: Lattice):
    """V of the Smith form U B^-1 V = S of B^-1 = den adj(mat) / det(mat),
    B = mat / den the basis of M: B^-1 is integral since Z^d <= M.  Then
    M = B Z^d = V S^-1 Z^d, since B = V S^-1 U and U is unimodular."""
    det, adj = adjugate(m.mat)
    return snf([[m.den * x // det for x in row] for row in adj])[2]


def _zero_line_tier(relation, h, hp, bound, all_witnesses):
    """A constructed witness alpha mapping M = Z^d + sum of the rank-0 L(p)
    of H onto M' likewise from H'; called once the profiles agree and H (so
    H') is zero-line.

    Proof sketch (any d): M (x) Z_p is L(p) at rank-0 primes and Z_p^d at
    every other prime, so alpha M = M' gives alpha L(p) = L'(p) at every
    prime; rank-d primes allow everything, hence alpha H = H'.

    For COE, alpha = B(M') B(M)^-1, and det alpha = det B(M') / det B(M) =
    prod p^(v_p - v'_p) over the rank-0 primes, which is 1 exactly when the
    COE profiles agree.  So alpha meets the COE criterion (alpha H = H' with
    det alpha = +-1; Giordano-Putnam-Skau, arXiv 1709.08585).

    For isomorphism, alpha = V' V^-1 from ``_smith_frame``, which lies in
    GL_d(Z) and maps M = V S^-1 Z^d onto V' S'^-1 Z^d = M' when S = S'.  The
    diagonal of S lists the elementary divisors of M / Z^d, the sum of the
    L(p) / Z^d, which ``_iso_profile_ok`` has compared prime by prime (by
    the valuation alone where it is at most 1).  So
    for zero-line groups both relations are YES exactly when the profiles
    agree.

    With ``all_witnesses`` (d = 2) the bounded search enumerates, and alpha
    replaces only its UNKNOWN.  A witness that fails the check (which the
    proof excludes) returns None, so the later steps decide and no YES is
    unverified."""
    m, mp = _rank_zero_sum(h), _rank_zero_sum(hp)
    if relation == COE:
        alpha = mp.basis() * m.basis().inv()
    else:
        alpha = Mat(_smith_frame(mp)) * Mat(_smith_frame(m)).inv()
    if not maps_onto(alpha, h, hp):
        return None
    if all_witnesses and h.d == 2:
        verdict = _bounded_search(relation, h, hp, bound, all_witnesses)
        if verdict.answer != UNKNOWN:
            return verdict
    return Verdict(relation, YES, witness=alpha, witnesses=(alpha,) if all_witnesses else ())


def _coord_min_vals(frame, h: HGroup, p: int):
    """Per-coordinate minimal p-valuations of C^-1 M_p, -INF on divisible
    axes, and the divisible directions w of M_p as adj C . w.

    C^-1 = adj C / det C, and the HNF columns of L(p) (Z^d where H has no
    entry) are c / den_L, so coordinate k of an image has valuation
    v_p((adj C . c)_k) - v_p(det C den_L).  A divisible direction keeps the
    scalar factor 1 / det C off: only which of its coordinates vanish and
    the difference of their valuations are read."""
    _, det, adj = frame
    d = h.d
    entry = h.entry(p)
    if entry is None:
        den_l, cols, vspan = 1, [[int(i == j) for i in range(d)] for j in range(d)], ()
    else:
        den_l, cols, vspan = entry.lattice.den, zip(*entry.lattice.mat), entry.vspan
    shift = valuation(det * den_l, p)
    mins = [None] * d
    for c in cols:
        w = [sum(map(mul, row, c)) for row in adj]
        for k in range(d):
            if w[k] != 0:
                v = valuation(w[k], p) - shift
                if mins[k] is None or v < mins[k]:
                    mins[k] = v
    divisible_dirs = []
    for wdir in vspan:
        w = [sum(map(mul, row, wdir)) for row in adj]
        divisible_dirs.append(w)
        for k in range(d):
            if w[k] != 0:
                mins[k] = -INF
    return mins, divisible_dirs


def _valuation_scales(h, hp, frame, frame_p):
    """(lambda, mu) = (prod p^i_p, prod p^j_p), each as an integer pair
    (numerator, denominator), from the per-prime system
    i + j = v_p(det C / det C'), i or j read off each non-divisible frame
    coordinate, and j - i read off a mixed divisible direction; or a
    certificate that the system has no solution."""
    det_c, det_cp = frame[1], frame_p[1]
    primes = set(h.support()) | set(hp.support()) | set(factorint(det_c)) | set(factorint(det_cp))
    lam, mu = [1, 1], [1, 1]
    for p in sorted(primes):
        vdet = valuation(det_c, p) - valuation(det_cp, p)
        mins, dirs = _coord_min_vals(frame, h, p)
        mins_p, dirs_p = _coord_min_vals(frame_p, hp, p)
        shifts = []
        for k in range(2):
            a, b = mins[k], mins_p[k]
            if (a == -INF) != (b == -INF):
                return None, Certificate(
                    "valuation-system", f"coordinate {k+1} divisible on one side only at p={p}"
                )
            shifts.append(None if a == -INF else b - a)
        i, j = shifts
        delta = None  # j - i from a mixed divisible direction
        for w, wp in zip(dirs, dirs_p):
            if all(x != 0 for x in w) and all(x != 0 for x in wp):
                delta = (valuation(wp[1], p) - valuation(wp[0], p)) - (
                    valuation(w[1], p) - valuation(w[0], p)
                )
        if i is None and j is None:
            if delta is None:
                i = 0  # fully divisible at p: any split works
            elif (vdet - delta) % 2:
                return None, Certificate("valuation-system", f"parity obstruction at p={p}")
            else:
                i = (vdet - delta) // 2
        if i is None:
            i = vdet - j
        if j is None:
            j = vdet - i
        if i + j != vdet or (delta is not None and j - i != delta):
            return None, Certificate("valuation-system", f"inconsistent valuations at p={p}")
        lam[i < 0] *= p ** abs(i)  # p^i joins the numerator, p^-i the denominator
        mu[j < 0] *= p ** abs(j)
    return (tuple(lam), tuple(mu)), None


# tier 3 for COE gives up after this many (a, b, c) triples
COE_BUDGET = 200_000


def _bounded_search(relation, h, hp, bound, all_witnesses):
    """Scan alpha = (1/q) [[a, b], [c, e]] with entries in [-bound, bound]
    and a e - b c = +-q^2, so det alpha = +-1 by construction.  Isomorphism
    takes q = 1; COE takes q = 1..bound and gives up after COE_BUDGET
    triples (a, b, c).  The loops run over q, then (a, b, c), then
    det = +q^2 before -q^2, then e; the first hit in that order is the
    witness.  A candidate with gcd(q, a, b, c, e) > 1 is skipped: it is the
    same matrix as one tested at a smaller q."""
    if not all_witnesses and equal_h(h, hp):
        return Verdict(relation, YES, witness=Mat.identity(h.d))
    coe = relation == COE
    span = range(-bound, bound + 1)
    found = []
    spent = 0
    for q in range(1, bound + 1) if coe else (1,):
        for a, b, c in itertools.product(span, repeat=3):
            spent += 1
            if coe and spent > COE_BUDGET:
                if found:
                    return _yes(relation, found, all_witnesses)
                return Verdict(
                    relation,
                    UNKNOWN,
                    certificate=Certificate(
                        "search-exhausted",
                        f"candidate budget {COE_BUDGET} spent at denominator {q} of {bound}, "
                        f"entries <= {bound}",
                    ),
                )
            for det in (q * q, -q * q):
                if a:
                    e, r = divmod(det + b * c, a)
                    es = () if r or abs(e) > bound else (e,)
                else:
                    es = span if b * c == -det else ()
                for e in es:
                    if gcd(q, a, b, c, e) > 1:
                        continue
                    alpha = Mat([[a, b], [c, e]], q)
                    if maps_onto(alpha, h, hp):
                        if not all_witnesses:
                            return Verdict(relation, YES, witness=alpha)
                        found.append(alpha)
    if found:
        return _yes(relation, found, all_witnesses)
    detail = f"entries and denominators <= {bound}" if coe else f"unimodular entries <= {bound}"
    return Verdict(relation, UNKNOWN, certificate=Certificate("search-exhausted", detail))


# ---------------------------------------------------------------------------


DECIDERS = {
    CONJ: decide_conjugacy,
    ISO: decide_isomorphism,
    COE: decide_coe,
    OE: decide_oe,
}


def decide(relation: str, h: HGroup, hp: HGroup, **kwargs) -> Verdict:
    if relation not in DECIDERS:
        raise ValueError(f"unknown relation {relation!r}")
    fn = DECIDERS[relation]
    if relation in (CONJ, OE):
        return fn(h, hp)
    return fn(h, hp, **kwargs)
