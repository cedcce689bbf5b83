"""The classify_mix corpus: seeded pairs of free groups whose truth is known
by construction.

Run ``python3 bench/corpus.py --seed N`` to print the corpus for a seed as
JSON lines (one pair per line, with its truth labels).  Nothing here imports
``zodom``; the benchmark hands zodom only the texts.

Classes (counts are fixed, so every seed does the same kinds of work):

* ``d1``: d = 1 pairs.  All four relations collapse to equality of the
  superindex, which the oracle reads from the text.  Every other pair is
  one group written two ways (YES) and the rest differ in superindex (NO):
  YES and NO cost differently and the median latency lies among them, so
  their mix is fixed rather than drawn.
* ``uni_two_line`` / ``uni_no_line``: (H, mat(alpha) H)
  with alpha unimodular, entries <= 20 and both off-diagonal entries nonzero.
  iso, coe and oe are YES.  conj is NO where alpha moves a divisible line,
  and is settled exactly on the no-line family (D = Z[1/n]^2 is fixed by
  alpha, so alpha H = H iff alpha and alpha^-1 keep every gen in H).
  One-line groups are left out: their witness sets are sparse, so where the
  first hit falls in the search's scan order (10 ms to 2 s) would depend on
  the seed more than any code change does.
* ``rat_two_line``: (H, mat(beta) H) with beta rational, det +-1,
  denominator 2 and entries <= 10; H holds the columns of beta^-1 so that
  beta H contains Z^2.  coe and oe are YES, conj is NO (beta moves a line);
  iso is not known by construction and is checked by properties only.
* ``superindex``: (H, H + gen(1/q, ...)) with q a prime outside the
  superindex of H: all four relations are NO.
* ``stress``: the fixed pair u1, u2 (iso NO, coe YES via diag(1/5, 5));
  decided in one direction only.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from oracles import GroupSpec, apply, inverse  # noqa: E402

RELATIONS = ("conj", "iso", "coe", "oe")
YES, NO = "YES", "NO"

STRESS = (
    "oplus(Z[1/6], Z[1/6]) + gen(1/5, 0) + gen(0, 1/5)",
    "oplus(Z[1/6], Z[1/6]) + gen(1/25, 0)",
)

# (class, number of pairs); each pair is decided for all four relations in
# both directions, except the stress pair
PLAN = (
    ("d1", 100),
    ("superindex", 8),
    ("uni_two_line", 24),
    ("rat_two_line", 12),
    ("uni_no_line", 8),
)

# Every group of a class has the same shape (number of primes and of gens),
# so a class's decisions cost about the same on every seed and the latency
# quantiles stay put; the seed varies the primes, numerators and matrices.
TWO_LINE_COMPS = ((3, 7), (7, 3), (3, 5), (5, 3), (5, 7), (7, 5))
NO_LINE_COMPS = ((6, 6), (10, 10), (14, 14), (15, 15), (21, 21), (35, 35))
GEN_DENS = (11, 13)
D1_COMPS = (2, 3, 5, 7)
D1_DENS = (11, 13, 17, 19)
NEW_PRIMES = (17, 19, 23)


class Pair:
    def __init__(self, kind, a: GroupSpec, b: GroupSpec, truth, both_ways=True):
        self.kind = kind
        self.a, self.b = a, b
        self.text_a, self.text_b = a.to_text(), b.to_text()
        self.truth = truth  # relation -> YES/NO, or None when not known
        self.both_ways = both_ways

    def as_json(self):
        return {
            "kind": self.kind,
            "a": self.text_a,
            "b": self.text_b,
            "truth": self.truth,
            "both_ways": self.both_ways,
        }


def _rand_gen(rng, d, den):
    while True:
        v = tuple(Fraction(rng.randint(0, den - 1), den) for _ in range(d))
        if any(x != 0 for x in v):
            return v


def _base(rng, comps_choices):
    comps = rng.choice(comps_choices)
    return GroupSpec(comps, [_rand_gen(rng, len(comps), rng.choice(GEN_DENS))])


def _unimodular(rng, bound=20):
    """Random integer matrix with det +-1, entries <= bound, nonzero off-diagonal."""
    while True:
        a = rng.randint(-bound, bound)
        c = rng.randint(-bound, bound)
        if a == 0 or c == 0 or gcd(a, c) != 1:
            continue
        # solve a*d - b*c = 1 and shift by k*(a, c) towards small entries
        g, x, y = _egcd(a, -c)  # a*x + (-c)*y = 1
        d0, b0 = x, y
        best = min(
            ((b0 + k * a, d0 + k * c) for k in range(-3 * bound, 3 * bound + 1)),
            key=lambda bd: max(abs(bd[0]), abs(bd[1])),
        )
        b, d = best
        if b == 0 or max(abs(b), abs(d)) > bound:
            continue
        m = [[a, b], [c, d]]
        if rng.random() < 0.5:  # det -1: negate the second column
            m = [[a, -b], [c, -d]]
        return m


def _egcd(a, b):
    if b == 0:
        return (a, 1, 0) if a > 0 else (-a, -1, 0)
    g, x, y = _egcd(b, a % b)
    return g, y, x - (a // b) * y


def _with_mat(h: GroupSpec, m) -> GroupSpec:
    return GroupSpec(h.comps, h.gens, m)


def _conj_no_line(h: GroupSpec, m) -> str:
    """Exact conj truth on D = Z[1/n]^2: alpha D = D, so alpha H = H iff
    alpha g and alpha^-1 g lie in H for every gen g."""
    minv = inverse(m)
    same = all(h.member(apply(m, g)) and h.member(apply(minv, g)) for g in h.gens)
    return YES if same else NO


def _d1_pair(rng, same):
    def spec():
        comp = rng.choice(D1_COMPS)
        gens = [(Fraction(rng.randint(1, 9), rng.choice(D1_DENS)),) for _ in range(2)]
        return GroupSpec((comp,), gens)

    a = spec()
    if same:
        # the same group written differently: (g1, g2) -> (-g1, g2 + k g1)
        g1, g2 = a.gens[0][0], a.gens[1][0]
        b = GroupSpec(a.comps, [(-g1,), (g2 + rng.randint(1, 3) * g1,)])
    else:
        b = spec()
        while b.superindex() == a.superindex():
            b = spec()
    ans = YES if a.superindex() == b.superindex() else NO
    if ans != (YES if same else NO):
        raise AssertionError("a rewritten d = 1 group must keep its superindex")
    return Pair("d1", a, b, {r: ans for r in RELATIONS})


def _superindex_pair(rng):
    fam = rng.choice((TWO_LINE_COMPS, NO_LINE_COMPS))
    a = _base(rng, fam)
    q = rng.choice(NEW_PRIMES)
    extra = tuple(Fraction(rng.randint(1, q - 1), q) for _ in range(2))
    b = GroupSpec(a.comps, a.gens + (extra,))
    if rng.random() < 0.5:
        b = _with_mat(b, _unimodular(rng))
    if a.superindex() == b.superindex():
        raise AssertionError("the new prime must change the superindex")
    return Pair("superindex", a, b, {r: NO for r in RELATIONS})


def _uni_pair(rng, kind):
    fam = TWO_LINE_COMPS if kind == "uni_two_line" else NO_LINE_COMPS
    a = _base(rng, fam)
    m = _unimodular(rng)
    b = _with_mat(a, m)
    conj = _conj_no_line(a, m) if kind == "uni_no_line" else NO
    return Pair(kind, a, b, {"conj": conj, "iso": YES, "coe": YES, "oe": YES})


def _half_unimodular(rng):
    """beta = (1/2) M with det M = +-4, entries of M <= 20, both off-diagonal
    entries nonzero and both columns of beta^-1 outside Z^2."""
    while True:
        m = [[rng.randint(-20, 20) for _ in range(2)] for _ in range(2)]
        if m[0][1] == 0 or m[1][0] == 0:
            continue
        if abs(m[0][0] * m[1][1] - m[0][1] * m[1][0]) != 4:
            continue
        beta = [[Fraction(x, 2) for x in r] for r in m]
        binv = inverse(beta)
        if all(any(binv[i][j].denominator != 1 for i in range(2)) for j in range(2)):
            return beta


def _rat_pair(rng):
    a = _base(rng, TWO_LINE_COMPS)
    beta = _half_unimodular(rng)
    binv = inverse(beta)
    cols = [tuple(binv[i][j] for i in range(2)) for j in range(2)]
    extra = tuple(tuple(x % 1 for x in c) for c in cols)
    a = GroupSpec(a.comps, a.gens + extra)
    b = _with_mat(a, beta)
    return Pair("rat_two_line", a, b, {"conj": NO, "iso": None, "coe": YES, "oe": YES})


def make_corpus(seed: int):
    rng = random.Random(seed)
    pairs = []
    for kind, count in PLAN:
        for k in range(count):
            if kind == "d1":
                pairs.append(_d1_pair(rng, same=k % 2 == 0))
            elif kind == "superindex":
                pairs.append(_superindex_pair(rng))
            elif kind == "rat_two_line":
                pairs.append(_rat_pair(rng))
            else:
                pairs.append(_uni_pair(rng, kind))
    u1, u2 = (GroupSpec.from_text(t) for t in STRESS)
    pairs.append(
        Pair("stress", u1, u2, {"conj": NO, "iso": NO, "coe": YES, "oe": YES}, both_ways=False)
    )
    return pairs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    for pair in make_corpus(args.seed):
        print(json.dumps(pair.as_json()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
