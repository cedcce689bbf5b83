"""``decide``: conjugacy, isomorphism, continuous orbit equivalence (COE)
and orbit equivalence (OE) of Z^d-odometers in terms of their groups H.

Decision strategy, in order:

* H = H' is YES for every relation in every d: H^1, so H, is a complete
  conjugacy invariant, and I and -I (-I H = -H = H) witness isomorphism
  and COE.  Under ``all_witnesses`` in d = 2 the tiers below list the
  witnesses instead;
* cheap invariants next, in one walk of the primes (``_local_mismatch``):
  superindex; per-prime divisibility rank and index valuation (COE compares
  ranks only, after the superindexes agree); for conj and isomorphism the
  elementary divisors of L(p)/Z^d at rank-0 primes; then line-arrangement
  consistency -- mismatches yield NO with a checkable certificate;
* for zero-line groups (every support prime has divisibility rank 0 or d),
  both relations are decided in any d by a constructed witness: alpha maps
  Z^d + sum of the rank-0 lattices L(p) of H onto that of H' (for
  isomorphism through the Smith forms of the two), so YES holds exactly
  when the profiles agree;
* for d = 2 with at least two distinct divisible lines, alpha = C' diag(
  lambda, +-D / lambda) C^-1 in the frames of two lines and their images:
  lambda = 1 for isomorphism; for COE a third line fixes lambda, else
  ``_scales`` walks its exponents at the rank-2 primes by their residues
  mod N, the product of the rank-0 congruence moduli (at most phi(N)
  classes).  Each +- pair is tested once (H = -H); a YES re-validates, and
  a NO is certified: every class that can hold a witness is tested;
* otherwise (d = 2, both relations on one-line groups) a bounded search over
  alpha = (1/q) [[a, b], [c, e]] with entries at most ``bound`` and
  det alpha = +-1: q = 1 for isomorphism, q = 1..bound for continuous orbit
  equivalence, both under a budget of SEARCH_BUDGET triples (a, b, c), each
  matrix tested once, at its smallest q.  It returns the first witness in scan
  order, and UNKNOWN on exhaustion with a certificate stating the coverage
  reached.  With ``all_witnesses`` the search also enumerates the
  zero-line witnesses, and the constructed one replaces its UNKNOWN.

Isomorphism and continuous orbit equivalence share these steps; they
differ in the per-prime profile compared, the zero-line witness, the
line-tier scales and admissibility test, and the denominators searched.

Every candidate alpha, constructed or searched, is a Mat (integer rows
over one denominator), built from the integer frames and lattice bases,
so a witness is found without building a Fraction, and every tier tests
it with ``maps_onto``.  Every YES is built by ``_yes``.

What each answer rests on, and so where it carries the flag D3_FLAG
("necessity proven for d <= 2 only"):

=====================  ===============================================  ======
answer                 rests on                                         flag
=====================  ===============================================  ======
YES                    its witness or H = H' (sufficient in every d)    none
dimension NO           conj and iso keep d; COE keeps the top           none
                       nonvanishing cohomology degree, d
superindex NO          the OE criterion; COE => OE                      none
conj NO                H^1, so H, is a complete conjugacy invariant     none
                       of free minimal Z^d-odometers in every d
iso NO                 conj after an automorphism A of Z^d, which       none
                       moves H to A^-T H
other COE NO           COE => alpha H = H' with det alpha = +-1,        d >= 3
                       proven for d <= 2 only
UNKNOWN                no decision procedure for d >= 3                 d >= 3
=====================  ===============================================  ======
"""

from __future__ import annotations

import itertools
from math import gcd, isqrt, prod
from operator import mul

from .hgroup import HGroup, difference, equal_h, is_free, maps_onto, superindex
from .linalg import INF, Lattice, Mat, Record, adjugate, factorint, lattice_sum, ratio_text, snf, valuation

CONJ, ISO, COE, OE = "conj", "iso", "coe", "oe"
RELATIONS = (CONJ, ISO, COE, OE)
YES, NO, UNKNOWN = "YES", "NO", "UNKNOWN"

D3_FLAG = "necessity proven for d <= 2 only"


class NotFreeError(ValueError):
    """Deciders require free (dense) groups."""


class Certificate(Record):
    __slots__ = ("kind", "detail")

    def __init__(self, kind: str, detail: str):
        self.kind = kind
        self.detail = detail

    def __str__(self):
        return f"{self.kind}: {self.detail}"


class Verdict(Record):
    __slots__ = ("relation", "answer", "witness", "certificate", "witnesses", "flags")

    def __init__(
        self,
        relation: str,
        answer: str,
        witness: Mat | None = None,
        certificate: Certificate | None = None,
        witnesses: tuple = (),
        flags: tuple = (),
    ):
        self.relation = relation
        self.answer = answer
        self.witness = witness
        self.certificate = certificate
        self.witnesses = witnesses
        self.flags = flags

    def exit_code(self) -> int:
        return {YES: 0, NO: 1, UNKNOWN: 2}[self.answer]


# ---------------------------------------------------------------------------
# invariants


def _require_free(*groups):
    for h in groups:
        if not is_free(h):
            raise NotFreeError("classification requires dense (free) groups")


def _profile(e):
    """(divisibility rank, v_p[L(p) : Z^d + L(p) n V_p]), (0, 0) off the support."""
    return (e.r, e.index_valuation()) if e else (0, 0)


def _lines(h: HGroup):
    """Divisible lines for d = 2: prime -> primitive direction vector."""
    return {e.p: e.vspan[0] for e in h.entries if e.r == 1}


def _local_mismatch(relation, h, hp):
    """Certificate that H and H' (of one d) differ in an invariant that
    ``relation`` (conj, iso or COE) keeps, or None.  In order: the
    superindex (iso and COE; the profiles fix it); over the primes of either
    support, least first, ``_profile`` at each, whole for conj and iso
    (alpha in GL_d(Z) keeps both components), its rank alone for COE (a
    rational alpha of det +-1 keeps the rank; divisible directions absorb
    scalings elsewhere); then, for conj and iso, the elementary divisors of
    L(p)/Z^d at rank-0 primes of valuation >= 2, where a group of that
    order is not determined by it.

    COE compares no valuation, as none differs once the superindexes agree:
    superindex(H) has exponent INF at a prime of positive rank and the
    valuation at every other (0 off the support, where the profile reads
    (0, 0); positive at a rank-0 entry, since ``_entry`` builds none with
    L(p) = Z^d), so equal superindexes give equal valuations wherever both
    ranks are 0.

    The elementary divisors of L(p)/Z^d at a rank-0 entry are
    ``LocalEntry._invariants``, the nontrivial invariant factors of
    ``_rows``, a basis of L(p)*.  Proof: (x, f) -> f . x mod Z is a
    well-defined perfect pairing of L(p)/Z^d with Z^d/L(p)* (f . x in Z for
    all f in Z^d forces x in Z^d, for all x in L(p) forces f in L(p)*), so
    Z^d/L(p)* is the Pontryagin dual of the finite group L(p)/Z^d, hence
    isomorphic to it, and it is the sum of Z/s_i over the invariant factors
    s_i of the rows.  They are isomorphism invariants: alpha in GL_d(Z)
    fixes Z^d, so it induces an isomorphism H/Z^d = H'/Z^d, which maps each
    p-primary part, L(p)/Z^d at a rank-0 prime, onto the matching part."""
    if relation != CONJ:
        sa, sb = superindex(h), superindex(hp)
        if sa != sb:
            return Certificate("superindex", f"{sa} vs {sb}")
    divisors = None
    for p in sorted({*h.support(), *hp.support()}):
        ea, eb = h.entry(p), hp.entry(p)
        a, b = _profile(ea), _profile(eb)
        if relation == COE:
            if a[0] != b[0]:
                detail = f"divisibility rank at p={p} is {a[0]} vs {b[0]}"
                return Certificate("local-profile", detail)
        elif a != b:
            return Certificate("local-profile", f"(rank, valuation) at p={p} is {a} vs {b}")
        elif a[0] == 0 and a[1] >= 2 and divisors is None:
            da, db = ea._invariants, eb._invariants
            if da != db:
                detail = f"L(p)/Z^d at p={p} has elementary divisors {da} vs {db}"
                divisors = Certificate("elementary-divisors", detail)
    return divisors


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
# the decider


def decide(
    relation: str, h: HGroup, hp: HGroup, bound: int = 20, all_witnesses: bool = False
) -> Verdict:
    """Decide ``relation`` between the free groups H and H': conj iff
    H = H'; OE iff the superindexes agree (d may differ); iso iff alpha H =
    H' for an alpha in GL_d(Z); COE iff alpha H = H' for a rational alpha of
    det +-1.  ``bound`` and ``all_witnesses`` steer the iso and COE witness
    search.  Flags follow the module docstring's table: on this d = 3 pair
    conj, iso and COE answer NO from one profile at p = 3, and only the COE
    NO rests on a criterion proven for d <= 2 alone:

    >>> from zodom.gdsl import parse_group
    >>> h = parse_group("oplus(Z[1/2], Z[1/2], Z[1/3])")
    >>> hp = parse_group("oplus(Z[1/2], Z[1/6], Z[1/3])")
    >>> for relation in (CONJ, ISO, COE):
    ...     v = decide(relation, h, hp)
    ...     print(relation, v.answer, v.certificate.kind, v.flags)
    conj NO local-profile ()
    iso NO local-profile ()
    coe NO local-profile ('necessity proven for d <= 2 only',)
    """
    if relation not in RELATIONS:
        raise ValueError(f"unknown relation {relation!r}")
    _require_free(h, hp)
    if relation == OE:
        sa, sb = superindex(h), superindex(hp)
        if sa == sb:
            return _yes(OE, [], all_witnesses)
        # canonical superindexes: unequal ones differ in some prime's exponent
        p = min(p for p in {*sa.primes(), *sb.primes()} if sa.exponent(p) != sb.exponent(p))
        detail = f"exponent at p={p} is {sa.exponent(p)} vs {sb.exponent(p)}"
        return Verdict(OE, NO, certificate=Certificate("superindex", detail))
    if h.d != hp.d:
        detail = f"d={h.d} vs d={hp.d}"
        if relation == COE:
            detail += ": top nonvanishing cohomology degree differs"
        return Verdict(relation, NO, certificate=Certificate("dimension", detail))
    if equal_h(h, hp):
        if relation == CONJ:
            return _yes(CONJ, [], all_witnesses)
        if h.d != 2 or not all_witnesses:
            # -I.H = -H = H and det(-I) = +-1, so -I is a witness too; in
            # d = 2 the tiers list the witnesses they find
            one = Mat.identity(h.d)
            return _yes(relation, [one, one.scale(-1)] if all_witnesses else [one], all_witnesses)
    elif relation == CONJ:
        cert = _local_mismatch(CONJ, h, hp) or Certificate("local-data", difference(h, hp))
        return Verdict(CONJ, NO, certificate=cert)
    verdict = _witness_search(relation, h, hp, bound, all_witnesses)
    # every other answer rests on a result proven in every d (module table)
    if h.d >= 3 and (
        verdict.answer == UNKNOWN
        or relation == COE and verdict.answer == NO and verdict.certificate.kind != "superindex"
    ):
        v = verdict
        return Verdict(v.relation, v.answer, v.witness, v.certificate, v.witnesses, flags=(D3_FLAG,))
    return verdict


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


def _witness_search(relation, h, hp, bound, all_witnesses):
    """The steps shared by isomorphism and COE once H = H' is settled:
    invariants (the relation's profile), the zero-line tier (it returns
    None where it leaves the pair to the later steps), then for d = 2 the
    relation's line tier (two distinct divisible lines) or the bounded
    search."""
    cert = _local_mismatch(relation, h, hp)
    if cert is not None:
        return Verdict(relation, NO, certificate=cert)
    if all(e.r in (0, h.d) for e in h.entries):
        verdict = _zero_line_tier(relation, h, hp, bound, all_witnesses)
        if verdict is not None:
            return verdict
    if h.d >= 3:
        cert = Certificate("search-exhausted", "no decision procedure for d >= 3")
        return Verdict(relation, UNKNOWN, certificate=cert)
    assignment, cert = _line_assignment(h, hp)
    if cert is not None:
        return Verdict(relation, NO, certificate=cert)
    distinct = sorted(assignment)  # the distinct lines of H
    if len(distinct) < 2:
        return _bounded_search(relation, h, hp, bound, all_witnesses)
    # _line_assignment rejects two lines with one target, so the targets differ
    return _line_tier(relation, h, hp, [(u, *assignment[u]) for u in distinct[:3]], all_witnesses)


def _yes(relation, found, all_witnesses):
    """YES with the first of the witnesses ``found`` in ``_sort_key`` order
    (none where it is empty, as for conj and OE), listing them all only under
    ``all_witnesses``."""
    found.sort(key=_sort_key)
    witness = found[0] if found else None
    return Verdict(relation, YES, witness=witness, witnesses=tuple(found) if all_witnesses else ())


def _frame(u, v):
    """(C, det C, adj C) for the integer frame C = [u v] of two lines, so
    that adj C . C = det C . I (``adjugate``, in closed 2 x 2 form)."""
    c = [[u[0], v[0]], [u[1], v[1]]]
    return (c, *adjugate(c))


def _line_tier(relation, h, hp, lines, all_witnesses):
    """alpha = C' diag(lambda, mu) C^-1 in the frames C = [u1 u2] and
    C' = [v1 v2] of the first two ``lines`` (u, v, p) of H (the distinct
    ones, up to three, each with its target v and first prime p), where
    det alpha = +-1 gives mu = +-D / lambda, D = |det C / det C'|.
    Isomorphism tests lambda = 1 only: a unimodular integral alpha sends
    the primitive u_k to +-v_k.  COE tests each lambda of ``_scales`` and,
    without ``all_witnesses``, stops at the first with a witness."""
    (u1, v1, _), (u2, v2, _) = lines[:2]
    frame, frame_p = _frame(u1, u2), _frame(v1, v2)
    found = []
    for lam in _scales(h, hp, frame, frame_p, lines[2:]) if relation == COE else [(1, 1)]:
        if isinstance(lam, Certificate):
            return Verdict(relation, NO, certificate=lam)
        found += _sign_choices(relation, h, hp, frame, frame_p, lam)
        if found and not all_witnesses:
            break
    if found:
        return _yes(relation, found, all_witnesses)
    failure = "line and valuation constraints admit no witness" if relation == COE else (
        "all sign choices on the line-constrained unimodular candidates fail")
    return Verdict(relation, NO, certificate=Certificate("line-candidates-exhausted", failure))


def _sign_choices(relation, h, hp, frame, frame_p, lam):
    """The witnesses among alpha = C' diag(lambda, +-mu) C^-1 with
    mu = D / lambda, each with -alpha.

    With lambda = a / b, mu = c / e = |det C| b / (|det C'| a) and
    C^-1 = adj C / det C, alpha is
    C' diag(a e, +-c b) adj C over b e det C: the two terms
    C'_i0 a e adj_0j and C'_i1 c b adj_1j are formed once and each sign
    choice adds them.  det alpha = +-lambda mu det C' / det C = +-1 by the
    choice of mu, so it is admissible for COE, and for isomorphism when it
    is also integral; alpha.H = H' is tested by ``maps_onto``.

    The other two sign choices, diag(-lambda, -+mu), give -alpha, and each +-
    pair is tested once: |det(-alpha)| = |det alpha| in d = 2, -alpha is
    integral iff alpha is, and -alpha.H = alpha.(-H) = alpha.H since H = -H,
    so -alpha passes exactly when alpha does.  The four candidates are
    distinct (both terms are nonzero, of rank 1), and ``_sort_key`` tells
    apart any two distinct matrices, so sorting the list gives the same
    witness and witness tuple as testing all four signs."""
    a, b = lam
    _, det_c, adj = frame
    cp, det_cp, _ = frame_p
    c, e = abs(det_c) * b, abs(det_cp) * a
    den = b * e * det_c
    t0 = [[cp[i][0] * a * e * adj[0][j] for j in range(2)] for i in range(2)]
    t1 = [[cp[i][1] * c * b * adj[1][j] for j in range(2)] for i in range(2)]
    found = []
    for s2 in (1, -1):
        alpha = Mat([[x + s2 * y for x, y in zip(r0, r1)] for r0, r1 in zip(t0, t1)], den)
        if (relation == COE or alpha.is_integer()) and maps_onto(alpha, h, hp):
            found += (alpha, alpha.scale(-1))
    return found


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
    prod p^(v_p - v'_p) over the rank-0 primes, which is 1 once the
    superindexes agree (``_local_mismatch``).  So alpha meets the COE criterion (alpha H = H' with
    det alpha = +-1; Giordano-Putnam-Skau, arXiv 1709.08585).

    For isomorphism, alpha = V' V^-1 from ``_smith_frame``, which lies in
    GL_d(Z) and maps M = V S^-1 Z^d onto V' S'^-1 Z^d = M' when S = S'.  The
    diagonal of S lists the elementary divisors of M / Z^d, the sum of the
    L(p) / Z^d, which ``_local_mismatch`` has compared prime by prime (by
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
    return _yes(relation, [alpha], all_witnesses)


def _coord_min_vals(frame, h: HGroup, p: int):
    """Per-coordinate minimal p-valuations of C^-1 M_p, -INF on divisible
    axes, with the images adj C . c of the lattice columns and their shift.
    C^-1 = adj C / det C, and the HNF columns of L(p) (Z^d where H has no
    entry) are c / den_L, so coordinate k of an image has valuation
    v_p((adj C . c)_k) - shift, shift = v_p(det C den_L)."""
    _, det, adj = frame
    entry = h.entry(p)
    if entry is None:
        den_l, cols, vspan = 1, ((1, 0), (0, 1)), ()
    else:
        den_l, cols, vspan = entry.lattice.den, tuple(zip(*entry.lattice.mat)), entry.vspan
    shift = valuation(det * den_l, p)
    images = [[sum(map(mul, row, c)) for row in adj] for c in cols]
    mins = [min(valuation(w[k], p) - shift for w in images if w[k]) for k in range(2)]
    for wdir in vspan:
        mins = [-INF if sum(map(mul, row, wdir)) else m for row, m in zip(adj, mins)]
    return mins, images, shift


def _congruence(side, h, q, det):
    """(q^t, c_q mod q^t) of ``_scales`` at the rank-0 prime q from one
    ``_coord_min_vals`` side: c_q is y' / x' of a lattice column whose x'
    is a unit (1 / det C den_L cancels)."""
    mins, images, shift = side
    entry = h.entry(q)
    m = q ** (-sum(mins) - valuation(det, q) - (entry.index_valuation() if entry else 0))
    w = next(w for w in images if w[0] and valuation(w[0], q) - shift == mins[0])
    return m, w[1] // q ** (mins[1] + shift) * pow(w[0] // q ** (mins[0] + shift), -1, m) % m


def _scales(h, hp, frame, frame_p, third):
    """Each lambda = (num, den) > 0 for which alpha = C' diag(lambda,
    +-D / lambda) C^-1 can be a COE witness, one per class below, or one
    Certificate that there is none.  With G_p = C^-1 M_p and G'_p likewise,
    alpha H = H' iff diag(lambda, mu) G_p = G'_p at every prime p.

    A third line w -> w' (``third`` = [(w, w', p)]) fixes lambda: with
    a = adj C . w and b = adj C' . w' (no entry is 0, as w is no frame
    line), diag(lambda, mu) a is parallel to b, lambda a0 b1 = mu a1 b0, so
    lambda^2 = |a1 b0 det C| / |a0 b1 det C'|: one candidate or none.

    Otherwise the lines are the axes of G, and v_p(lambda) is fixed as
    lambda0's at each prime not of rank 2: G_p is a lattice (rank 0) or V_p
    plus its projection along V_p (rank 1), so each coordinate that is not
    divisible moves its minimal valuation by v_p of its scale, and
    v_p(lambda mu) = v_p(D) gives the other.  A rank-2 prime puts no
    condition (G_p = Q_p^2), so lambda = lambda0 prod p^e_p over them (P2).
    At a rank-0 prime q let the hull be q^m0 Z_q + q^m1 Z_q, the product of
    G_q's coordinate projections, and q^t its index over G_q, t = -m0 - m1
    - v_q(det C) - v_q[L(q) : Z^2].  In hull coordinates x' = x / q^m0,
    y' = y / q^m1, G_q projects onto both axes and meets the second in
    q^t Z_q, so G_q = {y' = c_q x' mod q^t}, c_q a unit if t > 0.  The map
    sends hull onto hull' and acts there by the unit parts lambda_u and
    mu_u = s |D|_u / lambda_u (s = +-1, the sign of mu), so it maps G_q onto
    G'_q iff lambda_u^2 = s |D|_u c_q / c'_q mod q^t (t' = t, as the index
    valuations agree).  lambda_u = lambda0_u r with r = prod p^e_p mod
    N = prod q^t, and nothing else depends on e.  So a breadth-first walk of
    the subgroup <P2> of (Z/N)^x, by steps e_p +- 1, keeping each class's
    first e (least |e|_1) and yielding those of the classes that meet every
    congruence for one s, reaches the class of every witness, whose yielded
    lambda is a witness too.  It visits at most phi(N) classes; with P2
    empty or N = 1, lambda0 alone."""
    (_, det_c, adj), (_, det_cp, adj_p) = frame, frame_p
    if third:
        (w, wp, p), = third
        a, b = [sum(map(mul, row, w)) for row in adj], [sum(map(mul, row, wp)) for row in adj_p]
        num, den = abs(a[1] * b[0] * det_c), abs(a[0] * b[1] * det_cp)
        root = isqrt(num * den)  # lambda = root / den where num / den is a square
        if root * root == num * den:
            yield root, den
        else:
            detail = f"third line at p={p}: lambda^2 = {ratio_text(num, den)} is not a square"
            yield Certificate("valuation-system", detail)
        return
    primes = set(h.support()) | set(hp.support()) | set(factorint(det_c)) | set(factorint(det_cp))
    lam = [1, 1]
    rank2, rank0 = [], []
    for p in sorted(primes):
        vdet = valuation(det_c, p) - valuation(det_cp, p)
        side, side_p = _coord_min_vals(frame, h, p), _coord_min_vals(frame_p, hp, p)
        shifts = []
        for k in range(2):
            a, b = side[0][k], side_p[0][k]
            if (a == -INF) != (b == -INF):
                yield Certificate(
                    "valuation-system", f"coordinate {k+1} divisible on one side only at p={p}"
                )
                return
            shifts.append(None if a == -INF else b - a)
        i, j = shifts
        if i is None and j is None:
            rank2.append(p)
            continue
        if i is not None and j is not None:
            if i + j != vdet:
                yield Certificate("valuation-system", f"inconsistent valuations at p={p}")
                return
            rank0.append((p, side, side_p))
        i = vdet - j if i is None else i
        lam[i < 0] *= p ** abs(i)  # p^i joins the numerator, p^-i the denominator
    targets = []
    for q, side, side_p in rank0 if rank2 else ():
        (m, c), (m_p, c_p) = _congruence(side, h, q, det_c), _congruence(side_p, hp, q, det_cp)
        if m != m_p:
            return  # the map keeps [hull : G_q]: unequal only where the profiles differ
        if m > 1:
            x, y = abs(det_c) * lam[1] ** 2 * c, abs(det_cp) * lam[0] ** 2 * c_p
            x, y = x // q ** valuation(x, q), y // q ** valuation(y, q)  # unit parts
            targets.append((m, x * pow(y, -1, m) % m))
    n = prod(m for m, _ in targets)
    first = {1 % n: (0,) * len(rank2)}  # class of r -> its first e
    order = [1 % n]
    for r in order:  # grows while it is read: breadth first
        e = first[r]
        if any(all(r * r % m == s * k % m for m, k in targets) for s in (1, -1)):
            up, down = (prod(p ** max(x * sign, 0) for p, x in zip(rank2, e)) for sign in (1, -1))
            yield lam[0] * up, lam[1] * down
        for i, p in enumerate(rank2 if n > 1 else ()):
            for step in (1, -1):
                nxt = r * pow(p, step, n) % n
                if nxt not in first:
                    first[nxt] = e[:i] + (e[i] + step,) + e[i + 1 :]
                    order.append(nxt)


# the bounded search of either relation gives up after this many (a, b, c) triples
SEARCH_BUDGET = 200_000


def _bounded_search(relation, h, hp, bound, all_witnesses):
    """Scan alpha = (1/q) [[a, b], [c, e]] with entries in [-bound, bound]
    and a e - b c = +-q^2, so det alpha = +-1 by construction.  Isomorphism
    takes q = 1; COE takes q = 1..bound.  Either gives up after
    SEARCH_BUDGET triples (a, b, c), which iso's (2 bound + 1)^3 triples
    exceed only above bound 28.  The loops run over q, then (a, b, c), then
    det = +q^2 before -q^2, then e; the first hit in that order is the
    witness.  A candidate with gcd(q, a, b, c, e) > 1 is skipped: it is the
    same matrix as one tested at a smaller q."""
    coe = relation == COE
    span = range(-bound, bound + 1)
    found = []
    spent = 0
    for q in range(1, bound + 1) if coe else (1,):
        for a, b, c in itertools.product(span, repeat=3):
            spent += 1
            if spent > SEARCH_BUDGET:
                if found:
                    return _yes(relation, found, all_witnesses)
                where = f" at denominator {q} of {bound}," if coe else ", unimodular"
                return Verdict(
                    relation,
                    UNKNOWN,
                    certificate=Certificate(
                        "search-exhausted",
                        f"candidate budget {SEARCH_BUDGET} spent{where} entries <= {bound}",
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
                        found.append(alpha)
                        if not all_witnesses:
                            return _yes(relation, found, all_witnesses)
    if found:
        return _yes(relation, found, all_witnesses)
    detail = f"entries and denominators <= {bound}" if coe else f"unimodular entries <= {bound}"
    return Verdict(relation, UNKNOWN, certificate=Certificate("search-exhausted", detail))
