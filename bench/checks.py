"""Output checks for the three workloads, against the oracles and against
properties that need no oracle.

Every check returns the reasons an operation failed (an empty list when it
passed), so a wrong output is counted as a failed operation rather than
stopping the run.  ``KNOWN_FAULT`` marks the one failure the benchmark
expects: the tier-3 search returning UNKNOWN for iso and coe on the stress
pair.  Any other UNKNOWN, on that pair too, is an unexpected failure.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import oracles
from oracles import GroupSpec

KNOWN_FAULT = "known fault: tier-3 search leaves the stress pair UNKNOWN"
KNOWN_FAULT_RELATIONS = ("iso", "coe")
CHAIN = ("conj", "iso", "coe", "oe")


def key_values(lines):
    out = {}
    for line in lines:
        key, sep, value = line.partition("=")
        if sep:
            out[key] = value
    return out


# ---------------------------------------------------------------------------
# paper_suite


CRITERION_RE = re.compile(r"^criterion_(\d\d)_([a-z0-9_]+)=(PASS|FAIL)$")


def check_paper_suite(lines, rc):
    """One result per criterion plus one for the verdict: [(op, reasons)]."""
    kv = key_values(lines)
    status = {}
    for line in lines:
        m = CRITERION_RE.match(line)
        if m:
            status[int(m.group(1))] = m.group(3)
    results = []
    for num in range(1, 12):
        reasons = []
        if status.get(num) != "PASS":
            reasons.append(f"criterion {num} reports {status.get(num, 'nothing')}")
        detail = kv.get(f"criterion_{num:02d}_detail", "")
        if num == 3:
            m = re.match(r"100 exact traces \(b=0: (\d+), b>0: (\d+)\)", detail)
            if not m or int(m.group(1)) + int(m.group(2)) != 100:
                reasons.append(f"criterion 3 detail {detail!r}")
        if num == 5:
            want = f"{oracles.sublattice_count(50)} lattices, 20 nested squares"
            if detail != want:
                reasons.append(f"criterion 5 detail {detail!r} != {want!r}")
        results.append((f"criterion_{num:02d}", reasons))
    reasons = []
    if kv.get("verdict") != "PASS" or rc != 0:
        reasons.append(f"verdict={kv.get('verdict')} exit={rc}")
    results.append(("verdict", reasons))
    return results


# ---------------------------------------------------------------------------
# classify_mix


class Decision:
    """One decide() call: the pair, its direction, the relation and the verdict."""

    def __init__(self, pair_index, forward, relation, answer, witness, timing=None):
        self.pair_index = pair_index
        self.forward = forward
        self.relation = relation
        self.answer = answer
        self.witness = witness  # rows of Fractions or None
        self.timing = timing  # (start, seconds) as measured
        self.reasons: list[str] = []


def check_decisions(pairs, decisions):
    """Fill each decision's reasons: truth, witness, implication chain, symmetry."""
    by_key = {(d.pair_index, d.forward, d.relation): d for d in decisions}
    for d in decisions:
        pair = pairs[d.pair_index]
        h, hp = (pair.a, pair.b) if d.forward else (pair.b, pair.a)
        truth = pair.truth.get(d.relation)
        if d.answer == "UNKNOWN" and truth is not None:
            if pair.kind == "stress" and d.relation in KNOWN_FAULT_RELATIONS:
                d.reasons.append(KNOWN_FAULT)
            else:
                d.reasons.append(f"UNKNOWN where the truth is {truth}")
        elif truth is not None and d.answer != truth:
            d.reasons.append(f"{d.answer} contradicts the construction ({truth})")
        if d.answer == "YES" and d.relation in ("iso", "coe"):
            if d.witness is None:
                d.reasons.append("YES without a witness")
            elif not oracles.witness_ok(d.witness, h, hp, integral=d.relation == "iso"):
                d.reasons.append(f"witness {d.witness} fails the oracle")
        if d.answer == "YES" and d.relation == "conj":
            ident = [[Fraction(int(i == j)) for j in range(h.d)] for i in range(h.d)]
            if h.d != hp.d or not oracles.witness_ok(ident, h, hp, integral=True):
                d.reasons.append("conj YES but the groups differ on the sample")
    for (idx, fwd, rel), d in by_key.items():
        # implication chain: a YES forces YES on every weaker relation
        strong = CHAIN.index(rel)
        for weaker in CHAIN[strong + 1 :]:
            w = by_key.get((idx, fwd, weaker))
            if d.answer == "YES" and w is not None and w.answer != "YES":
                w.reasons.append(f"chain: {rel} YES but {weaker} {w.answer}")
        if fwd:
            back = by_key.get((idx, False, rel))
            if back is not None and back.answer != d.answer:
                back.reasons.append(f"symmetry: {d.answer} one way, {back.answer} the other")
    return decisions


# ---------------------------------------------------------------------------
# approximants


def _units_walk(d, steps):
    """Position after k unit steps cycling e_1, ..., e_d (as the CLI walks)."""
    pos = [0] * d
    out = []
    for k in range(steps):
        pos[k % d] += 1
        out.append(tuple(pos))
    return out


class VerbOracle:
    """Expected outputs of one CLI verb, computed once per run."""

    def __init__(self, verb, spec: GroupSpec | None, **params):
        self.verb = verb
        self.spec = spec
        self.params = params
        self._cache = None

    def expect(self):
        if self._cache is None:
            self._cache = getattr(self, f"_expect_{self.verb}")()
        return self._cache

    def check(self, lines, rc):
        if rc != 0:
            return [f"{self.verb} exited {rc}"]
        return getattr(self, f"_check_{self.verb}")(key_values(lines), self.expect())

    # -- simulate

    def _expect_simulate(self):
        spec, depth = self.spec, self.params["depth"]
        card = spec.level_index(depth)
        # column HNF box: G n (0 x Z) = m11 Z, and m00 * m11 = card
        m11 = next(y for y in range(1, card + 1) if spec.level_dual_member(depth, (0, y)))
        walk = _units_walk(spec.d, self.params["steps"])
        last = walk[-1] if walk else (0,) * spec.d
        level = next(
            (n for n in range(1, depth + 1) if not spec.level_dual_member(n, last)),
            None,
        )
        return {"card": card, "box": (card // m11, m11), "walk": walk, "level": level}

    def _check_simulate(self, kv, ex):
        reasons = []
        depth = self.params["depth"]
        if kv.get("card") != str(ex["card"]):
            reasons.append(f"card {kv.get('card')} != {ex['card']}")
        if kv.get("measure") != f"1/{ex['card']}":
            reasons.append(f"measure {kv.get('measure')} != 1/{ex['card']}")
        for k, raw in enumerate(ex["walk"], 1):
            try:
                pos = oracles.parse_vec_text(kv.get(f"step_{k}", ""))
            except ValueError:
                reasons.append(f"step_{k} unreadable")
                continue
            in_box = all(0 <= x < b for x, b in zip(pos, ex["box"]))
            diff = tuple(r - x for r, x in zip(raw, pos))
            if not in_box or not self.spec.level_dual_member(depth, diff):
                reasons.append(f"step_{k}={kv.get(f'step_{k}')} is not the residue of {raw}")
        want = "0" if ex["level"] is None else f"1/{ex['level']}"
        if kv.get("metric_from_start") != want:
            reasons.append(f"metric {kv.get('metric_from_start')} != {want}")
        return reasons

    # -- tower and h1 share the level checks

    def _expect_levels(self):
        return [self.spec.level_index(n) for n in range(1, self.params["depth"] + 1)]

    def _check_level_mats(self, kv, indexes, with_duals):
        reasons = []
        for n, idx in enumerate(indexes, 1):
            n_mod = math.factorial(n)
            try:
                lvl = oracles.parse_mat_text(kv.get(f"level_{n}", ""))
            except ValueError:
                reasons.append(f"level_{n} unreadable")
                continue
            cols = [tuple(lvl[i][j] for i in range(len(lvl))) for j in range(len(lvl))]
            # a sublattice of H_n with index 1/idx over Z^d is H_n itself
            if abs(oracles.det(lvl)) * idx != 1 or not all(
                self.spec.member(c) and all((x * n_mod).denominator == 1 for x in c) for c in cols
            ):
                reasons.append(f"level_{n} is not H n (1/{n}!)Z^d")
            if with_duals:
                if kv.get(f"index_{n}") != str(idx):
                    reasons.append(f"index_{n} {kv.get(f'index_{n}')} != {idx}")
                try:
                    dual = oracles.parse_mat_text(kv.get(f"dual_{n}", ""))
                except ValueError:
                    reasons.append(f"dual_{n} unreadable")
                    continue
                dcols = [tuple(dual[i][j] for i in range(len(dual))) for j in range(len(dual))]
                if abs(oracles.det(dual)) != idx or not all(
                    self.spec.level_dual_member(n, c) for c in dcols
                ):
                    reasons.append(f"dual_{n} is not G_{n}")
        if f"level_{len(indexes) + 1}" in kv:
            reasons.append("more levels than asked for")
        return reasons

    _expect_tower = _expect_levels
    _expect_h1 = _expect_levels

    def _check_tower(self, kv, ex):
        return self._check_level_mats(kv, ex, with_duals=True)

    def _check_h1(self, kv, ex):
        reasons = self._check_level_mats(kv, ex, with_duals=False)
        spec = self.spec
        primes = sorted(set().union(*[oracles.prime_factors(c) for c in spec.comps]) | {
            p for g in spec.gens for x in g for p in oracles.prime_factors(x.denominator)
        })
        if kv.get("h1_dimension") != str(spec.d):
            reasons.append(f"h1_dimension {kv.get('h1_dimension')}")
        if kv.get("h1_support") != ",".join(map(str, primes)):
            reasons.append(f"h1_support {kv.get('h1_support')} != {primes}")
        for p in primes:
            rank = sum(1 for c in spec.comps if c % p == 0)
            if kv.get(f"h1_local_{p}.rank") != str(rank):
                reasons.append(f"h1 rank at {p}: {kv.get(f'h1_local_{p}.rank')} != {rank}")
        return reasons

    # -- free, coinv and superindex

    def _expect_free(self):
        # the divisible subspaces span Q^d iff every coordinate inverts a prime
        return "true" if all(c > 1 for c in self.spec.comps) else "false"

    def _check_free(self, kv, ex):
        return [] if kv.get("free") == ex else [f"free {kv.get('free')} != {ex}"]

    def _expect_coinv(self):
        return oracles.format_superindex(self.spec.superindex())

    _expect_superindex = _expect_coinv

    def _check_coinv(self, kv, ex):
        reasons = []
        if kv.get("coinvariants") != ex:
            reasons.append(f"coinvariants {kv.get('coinvariants')} != {ex}")
        if kv.get("verified_levels") != str(self.params["depth"]):
            reasons.append(f"verified_levels {kv.get('verified_levels')}")
        return reasons

    def _check_superindex(self, kv, ex):
        return [] if kv.get("superindex") == ex else [f"superindex {kv.get('superindex')} != {ex}"]

    # -- spectrum

    def _expect_spectrum(self):
        return oracles.spectrum(self.spec, self.params["height"])

    def _check_spectrum(self, kv, ex):
        if kv.get("count") != str(len(ex)):
            return [f"count {kv.get('count')} != {len(ex)}"]
        try:
            got = [oracles.parse_vec_text(kv.get(f"ev_{k}", "")) for k in range(1, len(ex) + 1)]
        except ValueError:
            return ["unreadable eigenvalue"]
        return [] if got == ex else ["eigenvalues differ from the brute-force list"]

    # -- rigid

    def _expect_rigid(self):
        return oracles.rigid_levels(self.params["levels"])

    def _check_rigid(self, kv, ex):
        reasons = []
        for n, (a, b, det, k) in enumerate(ex, 1):
            for key, want in (("a", a), ("b", b), ("det", det), ("k_constant", k)):
                if kv.get(f"level_{n}.{key}") != str(want):
                    reasons.append(f"level_{n}.{key} {kv.get(f'level_{n}.{key}')} != {want}")
            got_det = kv.get(f"level_{n}.det", "")
            if not got_det.isdigit() or not oracles.isprime(int(got_det)):
                reasons.append(f"level_{n}.det {got_det} is not prime")
            if self.params.get("verify"):
                keys = [f"level_{n}.exercise_{i}" for i in range(1, 6)]
                keys += [f"level_{n}.norm_bound", f"level_{n}.dual_ball"]
                for key in keys:
                    if kv.get(key) != "pass":
                        reasons.append(f"{key}={kv.get(key)}")
        if self.params.get("verify") and kv.get("cyclicity") != "pass":
            reasons.append(f"cyclicity={kv.get('cyclicity')}")
        return reasons
