"""The paper-suite acceptance checks behind ``zodom verify --suite paper``.

Each criterion is exact (tolerance zero): the checks compare rationals,
integer matrices and verdict strings, never floats.  Every randomized
criterion takes its generator from the given seed, so runs are reproducible.
A criterion returns (ok, detail), and ``run_paper_suite`` labels it with the
number and name its function name carries.
"""

from __future__ import annotations

import random

from .classify import COE, CONJ, ISO, OE, RELATIONS, decide
from .cohomology import (
    CoboundarySolver,
    Cocycle1,
    alpha_map,
    build_cocycle,
    coinvariants,
    tau1,
    torsion_free_check,
)
from .hgroup import HGroup, is_free, superindex_oracle, tower
from .linalg import INF, Lattice, Mat, Record, is_prime
from .odometer import (
    FiniteOdometer,
    TowerSystem,
    duality_check,
    duality_square_check,
    measure_cylinder,
    metric,
)
from .rigid import (
    GALLERY_VERDICTS,
    RigidProgram,
    dual_ball_trivial,
    gallery,
    nonzero_l1_ball,
    verify_cyclicity,
    verify_exercises,
    verify_torsion_bound,
)

DEFAULT_SEED = 455680


class CriterionResult(Record):
    __slots__ = ("number", "name", "ok", "detail")

    def __init__(self, number: int, name: str, ok: bool, detail: str):
        self.number = number
        self.name = name
        self.ok = ok
        self.detail = detail

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"criterion_{self.number:02d}_{self.name}={status}"


SWAP = Mat([[0, 1], [1, 0]])
SCALE_5 = Mat([[1, 0], [0, 25]], 5)


# ---------------------------------------------------------------------------
# shared corpora


def random_quotient(rng: random.Random, max_index: int, force_diagonal: bool = False):
    while True:
        a = rng.randint(1, 14)
        c = rng.randint(1, 14)
        if a * c > max_index:
            continue
        b = 0 if force_diagonal else rng.randint(0, c - 1)
        return Lattice.from_span(2, [(a, b), (0, c)])


def random_dual_vector(rng: random.Random, g: Lattice):
    coeffs = [rng.randint(-6, 6) for _ in range(g.d)]
    return g.basis().transpose().inv().apply(coeffs)


def cocycle_corpus(seed: int):
    """100 (G, h) pairs with G <= Z^2 of index <= 200 and h in G*; every
    fifth instance is forced diagonal to exercise the b = 0 branch."""
    rng = random.Random(seed)
    out = []
    for k in range(100):
        g = random_quotient(rng, 200, force_diagonal=(k % 5 == 0))
        out.append((g, random_dual_vector(rng, g)))
    return out


def sublattices_z2(max_index: int):
    """Every sublattice of Z^2 of index at most max_index, by index.

    The index-m sublattices of Z^2 are exactly the column HNFs
    [[a, 0], [b, c]] with ac = m and 0 <= b < c: each has one such basis.
    So each is built in its canonical form, with no reduction, and index m
    has sigma(m) of them (2,080 up to 50)."""
    out = []
    for m in range(1, max_index + 1):
        for a in range(1, m + 1):
            if m % a:
                continue
            c = m // a
            for b in range(c):
                out.append(Lattice._raw(2, 1, ((a, 0), (b, c))))
    return out


def random_d1_group(rng: random.Random) -> HGroup:
    data = {}
    for p in (2, 3, 5, 7):
        kind = rng.randint(0, 3)
        if kind == 0:
            continue
        if kind == 1:
            data[p] = ([], [(1,)])  # infinitely divisible
        else:
            e = rng.randint(1, 3)
            data[p] = ([(p**e, (1,))], [])
    return HGroup.from_local_data(1, data)


# ---------------------------------------------------------------------------
# criteria


def criterion_1_classification_table(seed: int) -> tuple[bool, str]:
    g = gallery()
    checks = []
    v = decide(ISO, g["class35_1a"], g["class35_1b"])
    checks.append(v.answer == "YES" and v.witness == SWAP)
    checks.append(decide(CONJ, g["class35_1a"], g["class35_1b"]).answer == "NO")
    v = decide(COE, g["class35_2a"], g["class35_2b"])
    checks.append(v.answer == "YES" and v.witness == SCALE_5 and v.witness.det() == 1)
    checks.append(decide(ISO, g["class35_2a"], g["class35_2b"]).answer == "NO")
    checks.append(decide(OE, g["class35_3a"], g["class35_3b"]).answer == "YES")
    v = decide(COE, g["class35_3a"], g["class35_3b"])
    checks.append(v.answer == "NO" and v.certificate.kind == "line-map")
    checks.append(g["class35_4a"].d == 2 and g["class35_4b"].d == 1)
    checks.append(decide(OE, g["class35_4a"], g["class35_4b"]).answer == "YES")
    return all(checks), f"{sum(checks)}/{len(checks)} table entries exact"


def criterion_2_witness_sets(seed: int) -> tuple[bool, str]:
    g = gallery()
    h, hp = g["class11_fuchs"], g["class11_fuchs_swapped"]
    neg_swap = Mat([[0, -1], [-1, 0]])
    expected = {SWAP, neg_swap}
    iso = decide(ISO, h, hp, bound=20, all_witnesses=True)
    coe = decide(COE, h, hp, bound=20, all_witnesses=True)
    ok = (
        iso.answer == "YES"
        and set(iso.witnesses) == expected
        and coe.answer == "YES"
        and set(coe.witnesses) == expected
        and all(w.det() == -1 for w in coe.witnesses)
    )
    detail = (
        f"iso witnesses {len(iso.witnesses)}, coe witnesses {len(coe.witnesses)}, "
        "no det=+1 witness in bound"
    )
    return ok, detail


def criterion_3_trace_exactness(seed: int) -> tuple[bool, str]:
    corpus = cocycle_corpus(seed)
    b_zero = b_pos = 0
    for g, h in corpus:
        if g.mat[1][0] == 0:  # b, the HNF entry below the first pivot
            b_zero += 1
        else:
            b_pos += 1
        if tau1(build_cocycle(g, h)) != tuple(h):
            return False, f"tau1 mismatch on {g!r}"
    return b_zero >= 10 and b_pos >= 10, f"100 exact traces (b=0: {b_zero}, b>0: {b_pos})"


def criterion_4_alpha_isomorphism(seed: int) -> tuple[bool, str]:
    corpus = cocycle_corpus(seed)
    for g, h in corpus:
        if alpha_map(build_cocycle(g, h)) != tuple(h):
            return False, f"round trip failed on {g!r}"
    rng = random.Random(seed + 1)
    for _ in range(50):
        g = random_quotient(rng, 200)
        h = random_dual_vector(rng, g)
        theta = build_cocycle(g, h)
        f0 = {x: rng.randint(-5, 5) for x in theta.quotient.reps}
        eta = theta + Cocycle1.from_coboundary(theta.quotient, f0)
        if alpha_map(eta) != alpha_map(theta):
            return False, "alpha not coboundary-invariant"
        if CoboundarySolver(theta.quotient).solve(eta - theta) is None:
            return False, "explicit coboundary failed"
    return True, "100 round trips, 50 explicit coboundary differences"


def criterion_5_duality(seed: int) -> tuple[bool, str]:
    lats = sublattices_z2(50)
    for g in lats:
        if not duality_check(g):
            return False, f"duality failed for {g!r}"
    count = 0
    for g1 in lats:
        if count >= 20:
            break
        if int(g1.det()) > 16:
            continue
        factor = 2 if count % 2 == 0 else 3
        scaled = Lattice(2, 1, [[factor * x for x in row] for row in g1.mat])
        if not duality_square_check(g1, scaled):
            return False, f"square failed for {g1!r}"
        count += 1
    return count >= 20, f"{len(lats)} lattices, {count} nested squares"


def criterion_6_oe_invariant(seed: int) -> tuple[bool, str]:
    for name, h in sorted(gallery().items()):
        try:
            s = coinvariants(h, 6)
        except ArithmeticError as exc:
            return False, f"coinvariants for {name}: {exc}"
        oracle6 = superindex_oracle(h, 6)
        oracle3 = superindex_oracle(h, 3)
        for p in set(s.primes()) | set(oracle6):
            e = s.exponent(p)
            got = oracle6.get(p, 0)
            if e == INF:
                # unbounded: strictly increasing along the chain
                if not got > oracle3.get(p, 0) >= 0:
                    return False, f"oracle not growing at p={p} for {name}"
            elif got != e:
                return False, f"oracle exponent at p={p} is {got} != {e} for {name}"
    return True, "coinvariants = superindex = depth-6 oracle"


def criterion_7_d1_collapse(seed: int) -> tuple[bool, str]:
    rng = random.Random(seed)
    pairs = 0
    while pairs < 50:
        a = random_d1_group(rng)
        b = random_d1_group(rng) if rng.random() < 0.7 else a
        if not (is_free(a) and is_free(b)):
            continue
        answers = [decide(rel, a, b).answer for rel in RELATIONS]
        if len(set(answers)) != 1:
            return False, f"verdicts {answers} differ on pair {pairs}"
        pairs += 1
    return True, "four verdicts identical on 50 pairs"


def criterion_8_implication_chain(seed: int) -> tuple[bool, str]:
    g = gallery()
    names = [n for n in sorted(g) if is_free(g[n])]
    order = RELATIONS  # strongest first
    checked = 0
    for na in names:
        for nb in names:
            answers = [decide(rel, g[na], g[nb]).answer for rel in order]
            for strong in range(len(order)):
                if answers[strong] == "YES" and not all(a == "YES" for a in answers[strong:]):
                    return False, f"chain broken for ({na}, {nb}): {answers}"
            checked += 1
    # expected-verdict metadata from the gallery re-checked as part of the chain
    for na, nb, expected in GALLERY_VERDICTS:
        for rel, want in expected.items():
            got = decide(rel, g[na], g[nb]).answer
            if got != want:
                return False, f"({na}, {nb}) {rel}: {got} != {want}"
    return True, f"{checked} ordered pairs consistent"


def criterion_9_measure_metric(seed: int) -> tuple[bool, str]:
    rng = random.Random(seed)
    g = gallery()
    for name in ("class35_1a", "class35_3a", "class11_fuchs"):
        t = tower(g[name], 4)
        sys = TowerSystem(t)
        for n in range(1, 5):
            f = sys.quotients[n - 1]
            if measure_cylinder(t, n) * f.card != 1:
                return False, f"masses at level {n} of {name}"
            k = (rng.randint(-5, 5), rng.randint(-5, 5))
            if {f.act(k, x) for x in f.reps} != set(f.reps):
                return False, "action not measure-preserving"
            if not f.orbit_is_everything():
                return False, f"level {n} not minimal"
        pts = [sys.random_point(rng) for _ in range(10)]
        for _ in range(100):
            a, b = rng.choice(pts), rng.choice(pts)
            k = (rng.randint(-6, 6), rng.randint(-6, 6))
            if metric(sys.act(k, a), sys.act(k, b)) != metric(a, b):
                return False, "metric not equivariant"
            c = rng.choice(pts)
            if metric(a, c) > metric(a, b) + metric(b, c):
                return False, "triangle inequality"
    return True, "three towers of depth 4 verified"


TORSION_QUOTIENTS = [
    [(2, 1), (0, 3)],
    [(6, 0), (0, 10)],
    [(7, 3), (0, 8)],
    [(5, 0), (0, 12)],
    [(4, 1), (0, 9)],
    [(3, 0), (0, 20)],
    [(6, 5), (0, 10)],
    [(8, 5), (0, 6)],
    [(1, 0), (0, 59)],
    [(5, 2), (0, 11)],
]


def criterion_10_torsion_free(seed: int) -> tuple[bool, str]:
    for rows in TORSION_QUOTIENTS:
        g = Lattice.from_span(2, rows)
        if int(g.det()) > 60:
            return False, "quotient exceeds index bound"
        if not torsion_free_check(FiniteOdometer(g)):
            return False, f"torsion witness on {rows}"
    return True, f"{len(TORSION_QUOTIENTS)} quotients, Schreier generators span G"


def criterion_11_rigid(seed: int) -> tuple[bool, str]:
    prog = RigidProgram().extend(3)
    for lvl in prog.levels:
        if not is_prime(lvl.det):
            return False, f"determinant {lvl.det} not prime"
    for n in (1, 2, 3):
        report = verify_exercises(prog, n)
        if not all(report[f"item{k}"] for k in range(1, 6)):
            return False, f"exercise failed at level {n}"
    for n in (1, 2, 3):
        if not verify_torsion_bound(prog, n):
            return False, f"norm bound failed at level {n}"
    for y in nonzero_l1_ball(3):
        if not verify_cyclicity(prog, y, 3):
            return False, f"cyclicity failed for y={y}"
    for n in (1, 2, 3):
        if not dual_ball_trivial(prog, n):
            return False, f"dual ball nontrivial at {n}"
    return True, "levels 1-3: primes, exercises, cyclicity, dual balls"


CRITERIA = [
    criterion_1_classification_table,
    criterion_2_witness_sets,
    criterion_3_trace_exactness,
    criterion_4_alpha_isomorphism,
    criterion_5_duality,
    criterion_6_oe_invariant,
    criterion_7_d1_collapse,
    criterion_8_implication_chain,
    criterion_9_measure_metric,
    criterion_10_torsion_free,
    criterion_11_rigid,
]


# (number, name) of each criterion, read once from the function names, so a
# wrapper put in CRITERIA in place of a criterion keeps its label
_LABELS = [
    (int(number), name)
    for number, name in (fn.__name__.removeprefix("criterion_").split("_", 1) for fn in CRITERIA)
]


def run_paper_suite(seed: int = DEFAULT_SEED):
    return [CriterionResult(n, name, *fn(seed)) for (n, name), fn in zip(_LABELS, CRITERIA)]
