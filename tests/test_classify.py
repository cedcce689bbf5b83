import hashlib
import inspect
import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zodom import classify, linalg
from zodom.classify import (
    COE,
    CONJ,
    ISO,
    OE,
    D3_FLAG,
    RELATIONS,
    Certificate,
    NotFreeError,
    Verdict,
    decide,
)
from zodom.gdsl import parse_group
from zodom.hgroup import (
    HGroup,
    NotSupergroupError,
    apply_matrix,
    difference,
    equal_h,
    maps_into,
    maps_onto,
    superindex,
)
from zodom.linalg import INF, Lattice, Mat, adjugate, factorint, valuation
from zodom.rigid import GALLERY_VERDICTS, gallery

from helpers import (
    fractions_built,
    from_columns,
    is_unimodular,
    lattice_columns,
    local_pairs,
    rational_mat,
)
from test_hgroup import _elementary_divisors_reference, det_one_matrices, free_groups

F = Fraction

SWAP = Mat([[0, 1], [1, 0]])
NEG_SWAP = Mat([[0, -1], [-1, 0]])
SCALE_5 = Mat([[1, 0], [0, 25]], 5)

# no divisible line (rank 2 at p=3); every COE witness has denominator 2
HALF_A = "oplus(Z[1/3], Z[1/3]) + gen(1/2, 0) + gen(0, 1/2)"
HALF_B = "oplus(Z[1/3], Z[1/3]) + gen(1/2, 0) + gen(1/4, 1/2)"

# one divisible line (0, 1) at p=5, so isomorphism and COE reach the bounded
# search; every witness for its SHEAR_3 image has an entry of size >= 3
ONE_LINE = "oplus(Z[1/2], Z[1/10]) + gen(1/9, 0)"
SHEAR_3 = Mat([[1, 0], [3, 1]])


def mats(text):
    """The matrices written "a,b;c,d" in text, separated by spaces."""
    return tuple(
        rational_mat([[F(x) for x in row.split(",")] for row in m.split(";")]) for m in text.split()
    )


@pytest.fixture(scope="module")
def g():
    return gallery()


# ---------------------------------------------------------------------------
# conjugacy


def test_verdict_is_a_value_with_its_signature():
    empty = inspect.Parameter.empty
    params = [(p.name, p.default) for p in inspect.signature(Verdict).parameters.values()]
    assert params == [
        ("relation", empty), ("answer", empty), ("witness", None),
        ("certificate", None), ("witnesses", ()), ("flags", ()),
    ]
    v = Verdict("iso", "YES")
    assert repr(v) == (
        "Verdict(relation='iso', answer='YES', witness=None, certificate=None, witnesses=(), flags=())"
    )
    cert = Certificate("superindex", "2^1 vs 3^1")
    assert repr(cert) == "Certificate(kind='superindex', detail='2^1 vs 3^1')"
    w = Verdict(relation=COE, answer="NO", certificate=cert, flags=(D3_FLAG,))
    same = Verdict(COE, "NO", None, Certificate("superindex", "2^1 vs 3^1"), (), (D3_FLAG,))
    assert w == same and hash(w) == hash(same) and w != v
    assert v == Verdict("iso", "YES", witness=None) and hash(v) == hash(Verdict("iso", "YES"))
    assert v != ("iso", "YES", None, None, (), ())


def test_conjugacy_same_group(g):
    assert decide(CONJ, g["class35_1a"], g["class35_1a"]).answer == "YES"


def test_conjugacy_swapped_factors(g):
    v = decide(CONJ, g["class35_1a"], g["class35_1b"])
    assert v.answer == "NO"
    assert "p=2" in v.certificate.detail


def test_conjugacy_local_data_certificates(g):
    # equal profiles: the certificate is the first local datum that differs
    v = decide(CONJ, g["class35_1a"], g["class35_1b"])
    assert str(v.certificate) == "local-data: divisible subspace at p=2 is ((1, 0),) vs ((0, 1),)"
    v = decide(CONJ, g["class35_2a"], g["class35_2b"])
    assert str(v.certificate) == (
        "local-data: lattice generator ('0', '1/5') at p=5 not in the other group"
    )
    # a support that differs, or M_p inside M'_p with M_p != M'_p, changes
    # the (rank, valuation) profile, so the profile certificate comes first
    big = parse_group("oplus(Z[1/2], Z[1/3]) + gen(1/5, 0) + gen(0, 1/5)")
    for h, hp, text in (
        (g["class35_1a"], g["class11_fuchs"], "support differs at p=5"),
        (g["class11_fuchs"], big, "lattice generator ('1/5', '0') at p=5 not in the first group"),
    ):
        assert difference(h, hp) == text
        v = decide(CONJ, h, hp)
        assert v.answer == "NO" and v.certificate.kind == "local-profile"
        assert "at p=5" in v.certificate.detail


def test_conjugacy_d1(g):
    v = decide(CONJ, parse_group("oplus(Z[1/2])"), parse_group("oplus(Z[1/3])"))
    assert v.answer == "NO"
    assert v.certificate.kind in ("local-profile", "superindex")


def test_conjugacy_requires_free():
    with pytest.raises(NotFreeError):
        decide(CONJ, HGroup(2, ()), HGroup(2, ()))
    with pytest.raises(NotFreeError):
        decide(CONJ, 
            parse_group("oplus(Z[1/2], Z)"), parse_group("oplus(Z[1/2], Z)")
        )


# ---------------------------------------------------------------------------
# isomorphism


def test_iso_swap_example(g):
    v = decide(ISO, g["class35_1a"], g["class35_1b"])
    assert v.answer == "YES"
    assert v.witness == SWAP
    assert equal_h(apply_matrix(v.witness, g["class35_1a"]), g["class35_1b"])
    v = decide(ISO, g["class35_1a"], g["class35_1b"], all_witnesses=True)
    assert v.witnesses == mats("0,1;1,0 0,1;-1,0 0,-1;1,0 0,-1;-1,0")


def test_iso_scaled_pair_is_negative(g):
    v = decide(ISO, g["class35_2a"], g["class35_2b"])
    assert v.answer == "NO"


def test_iso_fuchs_witnesses(g):
    v = decide(ISO, g["class11_fuchs"], g["class11_fuchs_swapped"], all_witnesses=True)
    assert v.answer == "YES"
    assert v.witnesses == (SWAP, NEG_SWAP)
    assert all(abs(w.det()) == 1 and w.det() == -1 for w in v.witnesses)


def test_iso_witness_revalidates(g):
    for a, b in [("class35_1a", "class35_1b"), ("class11_fuchs", "class11_fuchs_swapped")]:
        v = decide(ISO, g[a], g[b])
        assert v.answer == "YES"
        assert is_unimodular(v.witness)
        assert equal_h(apply_matrix(v.witness, g[a]), g[b])


def test_iso_bounded_search_path():
    # divisible rank 2 at p=2 gives no line constraints: bounded search tier
    h = parse_group("oplus(Z[1/2], Z[1/2]) + gen(1/9, 0)")
    hp = apply_matrix(Mat([[1, 0], [1, 1]]), h)
    assert not equal_h(h, hp)
    v = decide(ISO, h, hp, bound=2)
    assert v.answer == "YES"
    assert equal_h(apply_matrix(v.witness, h), hp)


def test_iso_dimension_mismatch(g):
    assert decide(ISO, g["class35_4a"], g["class35_4b"]).answer == "NO"


# ---------------------------------------------------------------------------
# continuous orbit equivalence


def test_coe_scaling_example(g):
    v = decide(COE, g["class35_2a"], g["class35_2b"])
    assert v.answer == "YES"
    assert v.witness == SCALE_5
    assert v.witness.det() == 1
    assert equal_h(apply_matrix(v.witness, g["class35_2a"]), g["class35_2b"])
    v = decide(COE, g["class35_2a"], g["class35_2b"], all_witnesses=True)
    assert v.witnesses == mats("1/5,0;0,5 1/5,0;0,-5 -1/5,0;0,5 -1/5,0;0,-5")


def test_coe_line_obstruction(g):
    v = decide(COE, g["class35_3a"], g["class35_3b"])
    assert v.answer == "NO"
    assert v.certificate.kind == "line-map"
    # the certificate cites the conflicting line assignments at p=3 and p=5
    assert "p=3" in v.certificate.detail and "p=5" in v.certificate.detail


@pytest.mark.parametrize("relation", ["iso", "coe"])
def test_line_map_certificate_text(g, relation):
    forward = decide(relation, g["class35_3a"], g["class35_3b"]).certificate
    assert str(forward) == (
        "line-map: line (0, 1) must map to both (0, 1) (p=3) and (1, 0) (p=5)"
    )
    backward = decide(relation, g["class35_3b"], g["class35_3a"]).certificate
    assert str(backward) == (
        "line-map: line (1, 0) must map to both (1, 0) (p=2) and (0, 1) (p=5)"
    )


def test_coe_identity(g):
    v = decide(COE, g["class35_3a"], g["class35_3a"])
    assert v.answer == "YES"
    assert v.witness == Mat.identity(2)


def test_coe_fuchs_witness_set_no_positive_determinant(g):
    v = decide(COE, g["class11_fuchs"], g["class11_fuchs_swapped"], all_witnesses=True)
    assert v.answer == "YES"
    assert v.witnesses == (SWAP, NEG_SWAP)
    assert all(w.det() == -1 for w in v.witnesses)


def test_coe_bounded_search_with_denominator():
    h, hp = parse_group(HALF_A), parse_group(HALF_B)
    # zero-line: COE is decided by the constructed witness at any bound
    for bound in (1, 2):
        v = decide(COE, h, hp, bound=bound)
        assert v.answer == "YES"
        assert v.witness == Mat([[1, 0], [2, 4]], 2)
        assert abs(v.witness.det()) == 1 and equal_h(apply_matrix(v.witness, h), hp)
    # all_witnesses enumerates with the bounded search; the constructed
    # witness replaces only its UNKNOWN (no witness at denominator 1)
    v = decide(COE, h, hp, bound=1, all_witnesses=True)
    assert v.answer == "YES"
    assert v.witnesses == (Mat([[1, 0], [2, 4]], 2),)
    v = decide(COE, h, hp, bound=2, all_witnesses=True)
    assert v.witness == Mat([[2, 1], [0, 2]], 2)
    assert v.witnesses == mats(
        "1,1/2;0,1 1,1/2;0,-1 1,-1/2;0,1 1,-1/2;0,-1"
        " -1,1/2;0,1 -1,1/2;0,-1 -1,-1/2;0,1 -1,-1/2;0,-1"
        " 1/2,1;1,0 1/2,1;-1,0 1/2,-1;1,0 1/2,-1;-1,0"
        " 1/2,1/2;1,-1 1/2,1/2;-1,1 1/2,-1/2;1,1 1/2,-1/2;-1,-1"
        " -1/2,1;1,0 -1/2,1;-1,0 -1/2,-1;1,0 -1/2,-1;-1,0"
        " -1/2,1/2;1,1 -1/2,1/2;-1,-1 -1/2,-1/2;1,-1 -1/2,-1/2;-1,1"
    )
    assert all(abs(w.det()) == 1 and equal_h(apply_matrix(w, h), hp) for w in v.witnesses)
    # no integral witness: the 2-primary parts of H/Z^2 are (Z/2)^2 and Z/4
    v = decide(ISO, h, hp, bound=2)
    assert v.answer == "NO"
    assert str(v.certificate) == (
        "elementary-divisors: L(p)/Z^d at p=2 has elementary divisors (2, 2) vs (4,)"
    )
    # a one-line pair still reaches the bounded search, whose COE witnesses
    # include denominator 2
    h, hp = parse_group(ONE_LINE), apply_matrix(SHEAR_3, parse_group(ONE_LINE))
    v = decide(COE, h, hp, bound=1)
    assert v.answer == "UNKNOWN"
    assert str(v.certificate) == "search-exhausted: entries and denominators <= 1"
    v = decide(COE, h, hp, bound=3)
    assert v.answer == "YES"
    assert v.witness == Mat([[-1, 0], [-3, -1]])  # first hit in scan order
    v = decide(COE, h, hp, bound=3, all_witnesses=True)
    assert v.witness == SHEAR_3
    assert v.witnesses == mats(
        "1,0;3,1 1,0;3,-1 1,0;-3/2,1 1,0;-3/2,-1 -1,0;-3,1 -1,0;-3,-1 -1,0;3/2,1 -1,0;3/2,-1"
    )
    assert all(abs(w.det()) == 1 and equal_h(apply_matrix(w, h), hp) for w in v.witnesses)


def test_coe_search_tests_each_matrix_once():
    h = parse_group("oplus(Z[1/2], Z[1/2]) + gen(1/9, 0)")
    hp = apply_matrix(Mat([[1, 0], [1, 1]]), h)
    v = decide(COE, h, hp, bound=2, all_witnesses=True)
    # the tuple listed by the search that tested (1/q) M again at every q
    # dividing all entries of M, in its order
    repeated = mats(
        "1,0;1,1 1,0;1,1 1,0;1,-1 1,0;1,-1 1,1;1,0 1,1;1,0 1,1;1,2 1,-1;1,0 1,-1;1,0"
        " 1,-1;1,-2 1,1/2;1,-1/2 1,-1/2;1,1/2 1,2;1,1 1,-2;1,-1 -1,0;-1,1 -1,0;-1,1"
        " -1,0;-1,-1 -1,0;-1,-1 -1,1;-1,0 -1,1;-1,0 -1,1;-1,2 -1,-1;-1,0 -1,-1;-1,0"
        " -1,-1;-1,-2 -1,1/2;-1,-1/2 -1,-1/2;-1,1/2 -1,2;-1,1 -1,-2;-1,-1"
        " 1/2,1;1/2,-1 1/2,-1;1/2,1 -1/2,1;-1/2,-1 -1/2,-1;-1/2,1"
    )
    assert len(set(v.witnesses)) == len(v.witnesses) == 24
    assert v.witnesses == tuple(dict.fromkeys(repeated))


def test_coe_budget_certificate_names_denominator(monkeypatch):
    h, hp = parse_group(ONE_LINE), apply_matrix(SHEAR_3, parse_group(ONE_LINE))
    # 125 triples (a, b, c) per denominator at bound 2: the budget runs out
    # at q = 2, before any witness (all have an entry of size >= 3)
    monkeypatch.setattr(classify, "SEARCH_BUDGET", 150)
    v = decide(COE, h, hp, bound=2)
    assert v.answer == "UNKNOWN"
    assert str(v.certificate) == (
        "search-exhausted: candidate budget 150 spent at denominator 2 of 2, entries <= 2"
    )
    # hits found before the budget runs out are returned: here those of q = 1
    monkeypatch.setattr(classify, "SEARCH_BUDGET", 125)
    h = parse_group("oplus(Z[1/2], Z[1/2]) + gen(1/9, 0)")
    shear = apply_matrix(Mat([[1, 0], [1, 1]]), h)
    v = decide(COE, h, shear, bound=2, all_witnesses=True)
    assert v.answer == "YES"
    assert v.witnesses == decide(ISO, h, shear, bound=2, all_witnesses=True).witnesses
    assert len(v.witnesses) == 16


def test_iso_search_stops_at_the_budget():
    # the 53 pair is one-line, so both relations reach the bounded search;
    # at bound 1000 iso's box holds 2001^3 triples, and the budget ends it
    line = "oplus(Z[1/53], Z[1/371]) + gen(1/13, {}/169)"
    h, hp = parse_group(line.format(1)), parse_group(line.format(4))
    start = time.perf_counter()
    v = decide(ISO, h, hp, bound=1000)
    assert time.perf_counter() - start < 2
    assert v.answer == "UNKNOWN"
    assert str(v.certificate) == (
        "search-exhausted: candidate budget 200000 spent, unimodular entries <= 1000"
    )


def test_coe_no_from_divisibility_rank():
    # both superindexes are 2^inf * 3^inf, so OE holds; at p = 2 the first
    # group is divisible in two directions and the second in one
    h = parse_group("oplus(Z[1/6], Z[1/6])")
    hp = parse_group("oplus(Z[1/6], Z[1/3])")
    assert superindex(h) == superindex(hp)
    v = decide(COE, h, hp)
    assert v.answer == "NO"
    assert str(v.certificate) == "local-profile: divisibility rank at p=2 is 2 vs 1"


def test_coe_dimension_mismatch(g):
    v = decide(COE, g["class35_4a"], g["class35_4b"])
    assert v.answer == "NO"
    assert v.certificate.kind == "dimension"


# COE YES pairs, each with a det 1 witness, where the scales of the line
# tier are not read off the valuations alone.  Each has the rank-2 prime 2
# besides its lines at 7 and 11, in a tilted frame (tilted-frame), with the
# residue of lambda at the rank-0 prime 13 fixed only modulo 13
# (rank0-residue), or with the ratio lambda / mu that a third line sets
# (third-line).  tilted-frame is also iso YES.
_BASE = "oplus(Z[1/14], Z[1/22])"
_TILTED = f"mat([2,-5;-1,3]) * {_BASE}"
_THIRD_LINE = f"{_BASE} + mat([1,0;1,1]) * oplus(Z[1/13], Z)"
WRONG_COE_NO = {
    "tilted-frame": (_TILTED, f"mat([-2,-7;5,17]) * {_TILTED}", Mat([[2, 7], [-5, -17]])),
    "rank0-residue": (
        f"{_BASE} + gen(1/13, 1/169)",
        f"{_BASE} + gen(1/13, 4/169)",
        Mat([[1, 0], [0, 4]], 2),
    ),
    "third-line": (_THIRD_LINE, f"mat([2,0;0,1/2]) * {_THIRD_LINE}", Mat([[4, 0], [0, 1]], 2)),
}


@pytest.mark.parametrize("case", sorted(WRONG_COE_NO))
def test_wrong_coe_no_pairs_have_witnesses(case):
    a, b, w = WRONG_COE_NO[case]
    h, hp = parse_group(a), parse_group(b)
    assert w.det() == 1
    assert maps_onto(w, h, hp) and maps_onto(w.inv(), hp, h)


@pytest.mark.parametrize("backward", [False, True])
@pytest.mark.parametrize("case", sorted(WRONG_COE_NO))
def test_two_line_coe_tier_is_not_no_where_a_witness_exists(case, backward):
    a, b, _ = WRONG_COE_NO[case]
    h, hp = parse_group(a), parse_group(b)
    if backward:
        h, hp = hp, h
    v = decide(COE, h, hp)
    assert v.answer == "YES", v.certificate
    assert abs(v.witness.det()) == 1 and maps_onto(v.witness, h, hp)


# ---------------------------------------------------------------------------
# orbit equivalence


def test_oe_examples(g):
    assert decide(OE, g["class35_3a"], g["class35_3b"]).answer == "YES"
    assert decide(OE, g["class35_4a"], g["class35_4b"]).answer == "YES"
    v = decide(OE, parse_group("oplus(Z[1/2])"), parse_group("oplus(Z[1/3])"))
    assert v.answer == "NO"
    assert v.certificate.kind == "superindex"


def test_oe_certificate_revalidates(g):
    v = decide(OE, g["class35_1a"], g["class35_3a"])
    assert v.answer == "NO"
    assert "p=5" in v.certificate.detail
    assert superindex(g["class35_1a"]).exponent(5) != superindex(g["class35_3a"]).exponent(5)


# ---------------------------------------------------------------------------
# cross-cutting properties


def test_gallery_expected_verdicts(g):
    for na, nb, expected in GALLERY_VERDICTS:
        for rel, want in expected.items():
            assert decide(rel, g[na], g[nb]).answer == want, (na, nb, rel)


def test_implication_chain_on_gallery(g):
    names = [n for n in sorted(g) if n != "z2"]
    for na in names:
        for nb in names:
            answers = [decide(rel, g[na], g[nb]).answer for rel in (CONJ, ISO, COE, OE)]
            for k in range(3):
                if answers[k] == "YES":
                    assert all(a == "YES" for a in answers[k:]), (na, nb, answers)


def test_d1_collapse_random_pairs():
    rng = random.Random(7)
    texts = [
        "oplus(Z[1/2])",
        "oplus(Z[1/3])",
        "oplus(Z[1/6])",
        "oplus(Z[1/2]) + gen(1/9)",
        "oplus(Z[1/5]) + gen(1/4)",
        "oplus(Z[1/30])",
    ]
    for _ in range(50):
        a = parse_group(rng.choice(texts))
        b = parse_group(rng.choice(texts))
        answers = {decide(rel, a, b).answer for rel in (CONJ, ISO, COE, OE)}
        assert len(answers) == 1


def test_d3_verdicts_flagged():
    a = parse_group("oplus(Z[1/2], Z[1/3], Z[1/5])")
    b = parse_group("oplus(Z[1/3], Z[1/2], Z[1/5])")
    assert decide(CONJ, a, a).answer == "YES"
    v = decide(CONJ, a, b)
    assert v.answer == "NO"
    assert not v.flags  # H is a complete conjugacy invariant in every d
    v = decide(ISO, a, b)
    assert v.answer == "UNKNOWN"
    assert any("d <= 2" in f for f in v.flags)


def test_d3_zero_line_coe_constructed():
    a = parse_group("oplus(Z[1/6], Z[1/6], Z[1/6]) + gen(1/5, 0, 0) + gen(0, 1/5, 0)")
    b = parse_group("oplus(Z[1/6], Z[1/6], Z[1/6]) + gen(0, 0, 1/25)")
    v = decide(COE, a, b)
    assert v.answer == "YES" and not v.flags
    assert v.witness == Mat([[125, 0, 0], [0, 125, 0], [0, 0, 1]], 25)
    assert equal_h(apply_matrix(v.witness, a), b)
    v = decide(COE, a, b, all_witnesses=True)
    assert v.witnesses == (Mat([[125, 0, 0], [0, 125, 0], [0, 0, 1]], 25),)
    v = decide(ISO, a, b)
    assert v.answer == "NO"
    assert v.certificate.kind == "elementary-divisors"


@pytest.mark.parametrize("relation", RELATIONS)
def test_d3_zero_line_equal_groups_list_both_signs(relation):
    # H = H' is YES in every d.  -I.H = -H = H, so iso and COE list -I
    # beside I, except in d = 2 under all_witnesses, where the tiers list
    # every witness they find; conj and OE carry no witness
    texts = [
        "oplus(Z[1/2]) + gen(1/3)",
        "oplus(Z[1/2], Z[1/2]) + gen(1/3, 1/3)",
        # lines (1, 1) and (1, -1): the swap is a witness and sorts before I
        "mat([1/2,1/2;1/2,-1/2]) * oplus(Z[1/2], Z[1/3])",
        "oplus(Z[1/2], Z[1/2], Z[1/2]) + gen(1/3, 1/3, 0)",
    ]
    for text in texts:
        h = parse_group(text)
        d, one = h.d, Mat.identity(h.d)
        for all_witnesses in (False, True):
            v = decide(relation, h, h, bound=2, all_witnesses=all_witnesses)
            assert v.answer == "YES" and v.certificate is None and not v.flags
            if relation in (CONJ, OE):
                assert v.witness is None and v.witnesses == ()
            elif not all_witnesses:
                assert v.witness == one and v.witnesses == ()
            elif d == 2:
                assert {one, one.scale(-1)} < set(v.witnesses)
                assert v.witness == v.witnesses[0]
            else:
                assert v.witness == one and v.witnesses == (one, one.scale(-1))


def test_unknown_on_search_exhaustion():
    # every witness for this shear image has an entry of size >= 3, but the
    # group is zero-line, so neither relation needs the bounded search
    h = parse_group("oplus(Z[1/2], Z[1/2]) + gen(1/9, 0)")
    hp = apply_matrix(SHEAR_3, h)
    v = decide(ISO, h, hp, bound=2)
    assert v.answer == "YES"
    assert is_unimodular(v.witness) and equal_h(apply_matrix(v.witness, h), hp)
    v = decide(COE, h, hp, bound=2)
    assert v.answer == "YES"
    assert abs(v.witness.det()) == 1 and equal_h(apply_matrix(v.witness, h), hp)
    # the same shear on a one-line group: both searches exhaust the box
    h = parse_group(ONE_LINE)
    hp = apply_matrix(SHEAR_3, h)
    v = decide(ISO, h, hp, bound=2)
    assert v.answer == "UNKNOWN"
    assert str(v.certificate) == "search-exhausted: unimodular entries <= 2"
    v = decide(COE, h, hp, bound=2)
    assert v.answer == "UNKNOWN"
    assert str(v.certificate) == "search-exhausted: entries and denominators <= 2"


def test_relation_dispatch():
    a = parse_group("oplus(Z[1/2])")
    assert decide("oe", a, a).answer == "YES"
    with pytest.raises(ValueError):
        decide("nope", a, a)


# ---------------------------------------------------------------------------
# the invariant screen: superindex, per-prime profile, elementary divisors


def _screen_reference(relation, h, hp):
    """The screen as three walks, with COE's rank-0 valuation check and the
    elementary divisors read off the Smith form of each L(p)."""
    sa, sb = superindex(h), superindex(hp)
    if relation != CONJ and sa != sb:
        return Certificate("superindex", f"{sa} vs {sb}")
    primes = sorted(set(h.support()) | set(hp.support()))
    for p in primes:
        ea, eb = h.entry(p), hp.entry(p)
        (ra, va), (rb, vb) = [(e.r, e.index_valuation()) if e else (0, 0) for e in (ea, eb)]
        if relation == COE and ra != rb:
            return Certificate("local-profile", f"divisibility rank at p={p} is {ra} vs {rb}")
        if relation == COE and ra == 0 and va != vb:
            return Certificate("local-profile", f"index valuation at p={p} is {va} vs {vb}")
        if relation != COE and (ra, va) != (rb, vb):
            detail = f"(rank, valuation) at p={p} is {(ra, va)} vs {(rb, vb)}"
            return Certificate("local-profile", detail)
    for p in primes if relation != COE else ():
        ea, eb = h.entry(p), hp.entry(p)
        if ea.r == 0 and ea.index_valuation() >= 2:
            da, db = (_elementary_divisors_reference(e.lattice) for e in (ea, eb))
            if da != db:
                detail = f"L(p)/Z^d at p={p} has elementary divisors {da} vs {db}"
                return Certificate("elementary-divisors", detail)
    return None


def test_local_mismatch_matches_reference():
    # unrelated pairs, and (H, beta H) with det beta = +-1, which keep every
    # COE invariant, and every iso invariant when beta is integral
    kinds = []

    @given(st.sampled_from([2, 3]), st.sampled_from([False, True, True]), st.data())
    @settings(max_examples=800, deadline=None, derandomize=True)
    def check(d, constructed, data):
        h = data.draw(free_groups(d))
        if constructed:
            beta = data.draw(det_one_matrices(d))
            try:
                hp = apply_matrix(beta, h)
            except NotSupergroupError:
                constructed = False
        if not constructed:
            hp = data.draw(free_groups(d))
        got = {r: classify._local_mismatch(r, h, hp) for r in (CONJ, ISO, COE)}
        for relation, cert in got.items():
            assert cert == _screen_reference(relation, h, hp), relation
        if constructed:
            assert got[COE] is None
            if beta.is_integer():
                assert got[ISO] is None
        kinds.append((constructed, *(c.kind if c else None for c in got.values())))

    check()
    assert sum(k[0] for k in kinds) >= 200
    seen = Counter(k[1:] for k in kinds)  # (conj, iso, COE) certificate kinds
    assert seen["local-profile", "superindex", "superindex"] >= 50
    assert seen["local-profile", "local-profile", "local-profile"] >= 10  # a rank differs
    assert seen["local-profile", "local-profile", None] >= 10  # a valuation at rank >= 1
    assert seen["elementary-divisors", "elementary-divisors", None] >= 1


# ---------------------------------------------------------------------------
# randomized ground truth: decide(H, alpha H) must be YES with a valid witness


STRESS_TEXTS = [
    "oplus(Z[1/2], Z[1/3])",
    "oplus(Z[1/2], Z[1/3]) + gen(1/5, 1/5)",
    "oplus(Z[1/2], Z[1/15])",
    "oplus(Z[1/2], Z[1/3]) + gen(1/7, 2/7)",
    "mat([1,1;0,1]) * oplus(Z[1/2], Z[1/3])",
    "mat([2,1;1,1]) * oplus(Z[1/6], Z[1/5])",
]


def _random_unimodular(rng):
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        if abs(rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]) == 1:
            return Mat(rows)


def test_iso_complete_on_constructed_images():
    rng = random.Random(31337)
    for _ in range(40):
        h = parse_group(rng.choice(STRESS_TEXTS))
        a = _random_unimodular(rng)
        hp = apply_matrix(a, h)
        v = decide(ISO, h, hp)
        assert v.answer == "YES"
        assert equal_h(apply_matrix(v.witness, h), hp)


def test_coe_complete_on_constructed_images():
    from zodom.hgroup import NotSupergroupError

    rng = random.Random(24601)
    done = 0
    while done < 40:
        h = parse_group(rng.choice(STRESS_TEXTS))
        p = rng.choice([2, 3, 5, 7])
        k = rng.randint(0, 2)
        diag = Mat([[1, 0], [0, p ** (2 * k)]], p**k)
        m = _random_unimodular(rng)
        alpha = m * diag if rng.random() < 0.5 else diag * m
        try:
            hp = apply_matrix(alpha, h)
        except NotSupergroupError:
            continue
        v = decide(COE, h, hp)
        assert v.answer == "YES", (alpha, v.certificate)
        assert abs(v.witness.det()) == 1
        assert equal_h(apply_matrix(v.witness, h), hp)
        done += 1


def test_no_verdicts_match_brute_force():
    import itertools

    from zodom.hgroup import NotSupergroupError

    pairs = [
        ("oplus(Z[1/2], Z[1/15])", "oplus(Z[1/10], Z[1/3])"),
        ("oplus(Z[1/2], Z[1/3]) + gen(0, 1/5)", "oplus(Z[1/2], Z[1/3]) + gen(1/5, 0)"),
        (HALF_A, HALF_B),
    ]
    for ta, tb in pairs:
        h, hp = parse_group(ta), parse_group(tb)
        assert decide(ISO, h, hp).answer == "NO"
        bound = 4
        for rows in itertools.product(range(-bound, bound + 1), repeat=4):
            m = Mat([[rows[0], rows[1]], [rows[2], rows[3]]])
            if abs(m.det()) != 1:
                continue
            try:
                assert not equal_h(apply_matrix(m, h), hp)
            except NotSupergroupError:
                pass


# ---------------------------------------------------------------------------
# zero-line groups: every support prime has divisibility rank 0 or d


ZERO_LINE_TEXTS = [
    HALF_A,
    HALF_B,
    "oplus(Z[1/2], Z[1/2]) + gen(1/9, 0)",
    "oplus(Z[1/2], Z[1/2]) + gen(1/9, 1/3) + gen(0, 1/3)",
    "oplus(Z[1/6], Z[1/6]) + gen(1/5, 0) + gen(0, 1/5)",
    "oplus(Z[1/6], Z[1/6]) + gen(1/25, 0)",
    "oplus(Z[1/10], Z[1/10]) + gen(1/3, 2/3) + gen(1/7, 0)",
]


def _no_search(*args):
    raise AssertionError("the zero-line tier fell through to the bounded search")


def test_coe_zero_line_sound_and_complete(monkeypatch):
    from zodom.hgroup import NotSupergroupError

    monkeypatch.setattr(classify, "_bounded_search", _no_search)
    rng = random.Random(8191)
    done = 0
    while done < 40:
        h = parse_group(rng.choice(ZERO_LINE_TEXTS))
        p = rng.choice([2, 3, 5, 7])
        k = rng.randint(0, 2)
        diag = Mat([[1, 0], [0, p ** (2 * k)]], p**k)
        beta = _random_unimodular(rng) * diag * _random_unimodular(rng)
        try:
            hp = apply_matrix(beta, h)
        except NotSupergroupError:
            continue
        v = decide(COE, h, hp)
        assert v.answer == "YES", (beta, v.certificate)
        assert abs(v.witness.det()) == 1
        assert equal_h(apply_matrix(v.witness, h), hp)
        done += 1


def test_iso_never_no_on_zero_line_unimodular_images(monkeypatch):
    # the Smith-form witness needs no search, at any bound
    monkeypatch.setattr(classify, "_bounded_search", _no_search)
    rng = random.Random(65537)
    for _ in range(30):
        h = parse_group(rng.choice(ZERO_LINE_TEXTS))
        hp = apply_matrix(_random_unimodular(rng), h)
        v = decide(ISO, h, hp, bound=1)
        assert v.answer == "YES", v.certificate
        assert is_unimodular(v.witness) and equal_h(apply_matrix(v.witness, h), hp)


ZERO_LINE_D3_TEXTS = [
    "oplus(Z[1/6], Z[1/6], Z[1/6]) + gen(1/5, 0, 0) + gen(0, 1/5, 0)",
    "oplus(Z[1/2], Z[1/2], Z[1/2]) + gen(1/9, 1/3, 0) + gen(0, 0, 1/5)",
    "oplus(Z[1/10], Z[1/10], Z[1/10]) + gen(1/3, 2/3, 1/3) + gen(1/49, 0, 3/7)",
]


def test_iso_zero_line_d3_unimodular_images():
    # in d = 3 there is no search: before the Smith-form witness these were
    # UNKNOWN unless H = H'
    rng = random.Random(4099)
    for _ in range(30):
        h = parse_group(rng.choice(ZERO_LINE_D3_TEXTS))
        rows = [[int(i == j) for j in range(3)] for i in range(3)]
        for _ in range(4):
            i, j = rng.sample(range(3), 2)
            c = rng.choice([-2, -1, 1, 2])
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        hp = apply_matrix(Mat(rows), h)
        v = decide(ISO, h, hp)
        assert v.answer == "YES" and not v.flags, v.certificate
        assert is_unimodular(v.witness) and equal_h(apply_matrix(v.witness, h), hp)


# ---------------------------------------------------------------------------
# line tiers: integer candidates against the Fraction reference


def _sort_key_reference(m):
    return tuple(
        (abs(x.numerator), x.denominator, 0 if x.numerator >= 0 else 1)
        for row in m.rows
        for x in row
    )


def _sign_choices_reference(relation, h, hp, c_inv, cp_mat, scales, admissible, all_witnesses, failure):
    """alpha = C' diag(+-lambda, +-mu) C^-1 as Fraction Mat products."""
    lam, mu = scales
    found = []
    for s1, s2 in itertools.product((1, -1), repeat=2):
        cand = cp_mat * rational_mat([[s1 * lam, 0], [0, s2 * mu]]) * c_inv
        if admissible(cand) and maps_onto(cand, h, hp):
            found.append(cand)
    if found:
        found.sort(key=_sort_key_reference)
        wits = tuple(found) if all_witnesses else ()
        return Verdict(relation, "YES", witness=found[0], witnesses=wits)
    return Verdict(relation, "NO", certificate=Certificate("line-candidates-exhausted", failure))


def _coord_min_vals_reference(frame_inv, h, p):
    """Per-coordinate minimal p-valuations of C^-1 M_p on Fraction columns,
    -INF on the coordinates a divisible direction reaches."""
    d = h.d
    entry = h.entry(p)
    cols = lattice_columns(entry.lattice if entry else Lattice.standard(d))
    mins = [min(valuation(w[k], p) for w in map(frame_inv.apply, cols) if w[k]) for k in range(d)]
    for wdir in entry.vspan if entry is not None else ():
        mins = [-INF if x else m for x, m in zip(frame_inv.apply(wdir), mins)]
    return mins


def _valuation_scales_reference(h, hp, c_mat, c_inv, cp_mat):
    """lambda and mu from the valuations at every prime, for pairs whose
    divisible lines are the frame lines and that have no rank-2 prime."""
    cp_inv = cp_mat.inv()
    det_c, det_cp = c_mat.det(), cp_mat.det()
    primes = set(h.support()) | set(hp.support())
    primes |= set(factorint(int(abs(det_c)))) | set(factorint(int(abs(det_cp))))
    lam = mu = Fraction(1)
    for p in sorted(primes):
        vdet = valuation(det_c / det_cp, p)
        mins = _coord_min_vals_reference(c_inv, h, p)
        mins_p = _coord_min_vals_reference(cp_inv, hp, p)
        shifts = []
        for k in range(2):
            a, b = mins[k], mins_p[k]
            if (a == -INF) != (b == -INF):
                return None, Certificate(
                    "valuation-system", f"coordinate {k+1} divisible on one side only at p={p}"
                )
            shifts.append(None if a == -INF else b - a)
        i, j = shifts
        assert i is not None or j is not None, "a rank-2 prime or a third line"
        if i is None:
            i = vdet - j
        if j is None:
            j = vdet - i
        if i + j != vdet:
            return None, Certificate("valuation-system", f"inconsistent valuations at p={p}")
        lam *= Fraction(p) ** i
        mu *= Fraction(p) ** j
    return (lam, mu), None


def _line_tier_reference(relation, h, hp, c_mat, cp_mat, all_witnesses):
    c_inv = c_mat.inv()
    if relation == ISO:
        return _sign_choices_reference(
            ISO, h, hp, c_inv, cp_mat, (1, 1), is_unimodular, all_witnesses,
            "all sign choices on the line-constrained unimodular candidates fail",
        )
    scales, cert = _valuation_scales_reference(h, hp, c_mat, c_inv, cp_mat)
    if cert is not None:
        return Verdict(COE, "NO", certificate=cert)
    return _sign_choices_reference(
        COE, h, hp, c_inv, cp_mat, scales, lambda m: abs(m.det()) == 1, all_witnesses,
        "line and valuation constraints admit no witness",
    )


def _tier_lines(h, hp):
    """The distinct lines of H, up to three, each as (u, target, prime), that
    ``_witness_search`` hands ``_line_tier``, or None where the pair does not
    reach it."""
    assignment, cert = classify._line_assignment(h, hp)
    distinct = sorted(set(classify._lines(h).values()))
    if cert is not None or len(distinct) < 2:
        return None
    lines = [(u, *assignment[u]) for u in distinct[:3]]
    return None if lines[0][1] == lines[1][1] else lines


@st.composite
def two_line_groups(draw):
    """Free d = 2 groups with at least two distinct divisible lines, plus
    rank-2 and rank-0 primes, each with lattice generators."""
    vec = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any)
    primes = draw(st.lists(st.sampled_from([2, 3, 5, 7]), min_size=2, max_size=4, unique=True))
    data = {}
    for k, p in enumerate(primes):
        kind = draw(st.sampled_from(["line", "plane", "lattice"])) if k >= 2 else "line"
        div = {"line": [draw(vec)], "plane": [(1, 0), (0, 1)], "lattice": []}[kind]
        lat = [
            tuple(F(x, p ** draw(st.integers(1, 2))) for x in draw(vec))
            for _ in range(draw(st.integers(0, 2)))
        ]
        data[p] = (local_pairs(lat), div)
    h = HGroup.from_local_data(2, data)
    assume(len(set(classify._lines(h).values())) >= 2)
    return h


def test_line_tiers_match_fraction_reference():
    # Where every divisible line is a frame line and no prime has rank 2,
    # lambda is fixed by the valuations alone, and the tier must match the
    # Fraction reference exactly.  Elsewhere each witness re-validates, and
    # an image of H is COE YES (iso YES under a unimodular matrix).
    outcomes = []

    @given(two_line_groups(), st.data())
    @settings(max_examples=500, deadline=None)
    def check(h, data):
        # an image of H, an image of H with one lattice generator added, an
        # image of H under a matrix of determinant 1/q, or an unrelated group
        kind = data.draw(st.sampled_from(["image", "perturbed", "scaled", "other"]))
        src, hp, image = h, None, None
        if kind == "perturbed":
            p = data.draw(st.sampled_from(h.support()))
            local = h.local_data()
            v = tuple(F(x, p) for x in data.draw(st.tuples(*[st.integers(0, p)] * 2)))
            local[p][0].extend(local_pairs([v]))
            src = HGroup.from_local_data(2, local)
        if kind == "scaled":
            q = data.draw(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19]))
            u, v = (_random_unimodular(data.draw(st.randoms())) for _ in "uv")
            a = u * Mat([[1, 0], [0, q]]).inv() * v
        elif kind != "other":
            a = data.draw(st.one_of(det_one_matrices(2), st.builds(_random_unimodular, st.randoms())))
        if kind != "other":
            try:
                hp = apply_matrix(a, src)
                image = a if kind == "image" else None
            except NotSupergroupError:
                pass
        if hp is None:
            hp = data.draw(two_line_groups())
        lines = _tier_lines(h, hp)
        assume(lines is not None)
        (u1, v1, _), (u2, v2, _) = lines[:2]
        c_mat, cp_mat = from_columns([u1, u2]), from_columns([v1, v2])
        plain = len(lines) == 2 and all(e.r < 2 for e in h.entries + hp.entries)
        all_witnesses = data.draw(st.booleans())
        for relation in (ISO, COE):
            got = classify._line_tier(relation, h, hp, lines, all_witnesses)
            if plain:
                assert got == _line_tier_reference(relation, h, hp, c_mat, cp_mat, all_witnesses)
                outcomes.append((relation, got.answer))
            for w in got.witnesses or [got.witness] * (got.answer == "YES"):
                assert abs(w.det()) == 1 and maps_onto(w, h, hp)
                assert relation == COE or w.is_integer()
            if image is not None and (relation == COE or is_unimodular(image)):
                assert got.answer == "YES", (relation, image, got.certificate)

    check()
    for relation in (ISO, COE):
        assert outcomes.count((relation, "YES")) >= 30 and outcomes.count((relation, "NO")) >= 30


def _two_line_text(frame, line_primes, r, gens, third=None):
    """The d = 2 group in the unimodular frame: lines e1, e2 at the two line
    primes, the primes of r of rank 2, the lattice generators gens =
    [(den, x, y)] at rank-0 primes, and, for third = (p, k), the line
    (1, k) at p."""
    p1, p2 = line_primes
    text = f"oplus(Z[1/{p1 * r}], Z[1/{p2 * r}])"
    text += "".join(f" + gen({x}/{den}, {y}/{den})" for den, x, y in gens)
    if third:
        text += f" + mat([1,0;{third[1]},1]) * oplus(Z[1/{third[0]}], Z)"
    rows = ";".join(",".join(map(str, row)) for row in frame.num)
    return parse_group(f"mat([{rows}]) * {text}")


@st.composite
def unimodular_matrices(draw):
    """Products of up to three elementary row operations and a swap."""
    rows = [[1, 0], [0, 1]]
    for _ in range(draw(st.integers(0, 3))):
        i, c = draw(st.integers(0, 1)), draw(st.integers(-2, 2))
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[1 - i])]
    return Mat(rows[::-1] if draw(st.booleans()) else rows)


@st.composite
def constructed_two_line_pairs(draw):
    """(H, beta, beta.H): H has lines at two of 7, 11, 13, 19, the rank-2
    primes of r in {1, 2, 3, 6, 10}, in three draws of ten a third line
    (1, k) at another of them, and up to two rank-0 generators at 5, 17 or
    23 with denominator q or q^2, in a random unimodular frame; beta =
    U diag(p^i, p^-i) V with p inside or outside the support and i in
    {-1, 0, 1, 2}, or U V where beta.H would not contain Z^2."""
    p1, p2, p3 = draw(st.permutations([7, 11, 13, 19]))[:3]
    r = draw(st.sampled_from([1, 2, 3, 6, 10]))
    gens = []
    for _ in range(draw(st.integers(0, 2))):
        den = draw(st.sampled_from([5, 17, 23])) ** draw(st.integers(1, 2))
        gens.append((den, draw(st.integers(0, den - 1)), draw(st.integers(0, den - 1))))
    third = (p3, draw(st.integers(1, 3))) if draw(st.integers(0, 9)) < 3 else None
    h = _two_line_text(draw(unimodular_matrices()), (p1, p2), r, gens, third)
    u, v = draw(unimodular_matrices()), draw(unimodular_matrices())
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13, 29]))
    i = draw(st.sampled_from([-1, 0, 1, 2]))
    try:
        beta = u * rational_mat([[F(p) ** i, 0], [0, F(p) ** -i]]) * v
        return h, beta, apply_matrix(beta, h)
    except NotSupergroupError:
        return h, u * v, apply_matrix(u * v, h)


def test_two_line_tier_never_no_on_constructed_pairs():
    # COE of (H, beta.H) is YES both ways with a re-validated witness, iso
    # too where beta is unimodular, and no YES is followed by a NO further
    # down conj => iso => COE => OE
    @given(constructed_two_line_pairs())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def check(case):
        h, beta, hp = case
        for x, y in ((h, hp), (hp, h)):
            verdicts = [decide(relation, x, y) for relation in RELATIONS]
            answers = [v.answer for v in verdicts]
            if "YES" in answers:
                assert "NO" not in answers[answers.index("YES"):], answers
            for v in verdicts[1:3]:
                if v.relation == COE or is_unimodular(beta):
                    assert v.answer == "YES", (v.relation, beta, v.certificate)
                if v.answer == "YES":
                    assert maps_onto(v.witness, x, y) and abs(v.witness.det()) == 1
                    assert v.relation == COE or v.witness.is_integer()

    check()


def _small_line_witnesses(h, hp):
    """The number of alpha = C' diag(lambda, mu) C^-1 with lambda = prod p^e,
    |e| <= 2, over the support and 2, 3, 5, and mu = +-D / lambda that map
    H onto H' by apply_matrix and equal_h (-alpha covers -lambda, since
    H = -H).  Only the frame lines come from classify."""
    (u1, v1, _), (u2, v2, _) = _tier_lines(h, hp)[:2]
    c, cp = [[u1[0], u2[0]], [u1[1], u2[1]]], [[v1[0], v2[0]], [v1[1], v2[1]]]
    (det_c, adj), (det_cp, adj_p) = adjugate(c), adjugate(cp)
    z2 = HGroup(2, ())

    def scaled(m, x, y, a, den):
        # m diag(x, y) a / den
        rows = [[m[i][0] * x * a[0][j] + m[i][1] * y * a[1][j] for j in range(2)] for i in range(2)]
        return Mat(rows, den)

    primes = sorted({*h.support(), *hp.support(), 2, 3, 5})
    found = 0
    for exps in itertools.product(range(-2, 3), repeat=len(primes)):
        n = math.prod(p**e for p, e in zip(primes, exps) if e > 0)
        d = math.prod(p**-e for p, e in zip(primes, exps) if e < 0)
        for s in (1, -1):
            # lambda = n / d and mu = s D / lambda: alpha over d n |det C'| det C,
            # alpha^-1 over d n |det C| det C'
            x, y = n * n * abs(det_cp), d * d * abs(det_c)
            alpha = scaled(cp, x, s * y, adj, d * n * abs(det_cp) * det_c)
            inv = scaled(c, y, s * x, adj_p, d * n * abs(det_c) * det_cp)
            # alpha Z^2 <= H' and alpha^-1 Z^2 <= H are necessary, and cheap
            if maps_into(alpha.den, alpha.num, z2, hp) and maps_into(inv.den, inv.num, z2, h):
                try:
                    found += equal_h(apply_matrix(alpha, h), hp)
                except NotSupergroupError:
                    pass
    return found


def test_line_tier_no_verdicts_have_no_small_witness():
    # seeded unconstructed pairs of one shape, lines at 7 and 11: no NO of
    # the line tier has a witness in the search above, which finds the
    # witnesses of two of the formerly wrong NOs
    for case in ("rank0-residue", "tilted-frame"):
        assert _small_line_witnesses(*map(parse_group, WRONG_COE_NO[case][:2]))
    rng = random.Random(4243)
    kinds = []
    while len(kinds) < 10:
        lines, r = rng.sample([7, 11], 2), rng.choice([1, 2, 3, 6])
        dens = [rng.choice([5, 25, 17]) for _ in range(rng.randint(1, 2))]
        h, hp = (
            _two_line_text(_random_unimodular(rng), lines, r, [(d, 1, rng.randrange(d)) for d in dens])
            for _ in "ab"
        )
        v = decide(COE, h, hp)
        kind = v.certificate.kind if v.answer == "NO" else None
        if kind in ("valuation-system", "line-candidates-exhausted"):
            assert not _small_line_witnesses(h, hp), v.certificate
            kinds.append(kind)
    assert set(kinds) == {"valuation-system", "line-candidates-exhausted"}


_Q_PAIR = "oplus(Z[1/14], Z[1/22]) + gen(1/{q}, {a}/{q2})"


@pytest.mark.parametrize("q, q2, answer", [(10007, 10007**2, "YES"), (1009, 1009, "NO")])
def test_rank0_residue_walk_is_fast(q, q2, answer):
    # lambda = 2^e at the rank-2 prime 2: COE needs 2^(2e) = +-1/3 mod q.
    # For q = 10007 the walk finds a class; for q = 1009 it exhausts <2> mod
    # 1009, and no diag(+-2^e, +-2^-e) with |e| <= 504 = ord(2) is a witness
    h, hp = (parse_group(_Q_PAIR.format(q=q, q2=q2, a=a)) for a in (1, 3))
    for x, y in ((h, hp), (hp, h)):
        start = time.perf_counter()
        v = decide(COE, x, y)
        assert time.perf_counter() - start < 0.5
        assert v.answer == answer
        if answer == "YES":
            assert abs(v.witness.det()) == 1 and maps_onto(v.witness, x, y)
    if answer == "NO":
        for e in range(-504, 505):
            lam = F(2) ** e
            for mu in (1 / lam, -1 / lam):
                assert not maps_onto(rational_mat([[lam, 0], [0, mu]]), h, hp)


def _tier_pairs():
    """(H, alpha H) for seeded unimodular and det +-1 alpha over the stress
    and zero-line texts, and three NO pairs: none reaches the bounded search."""
    rng = random.Random(1009)
    pairs = []
    for texts, d in ((STRESS_TEXTS, 2), (ZERO_LINE_TEXTS, 2), (ZERO_LINE_D3_TEXTS, 3)):
        for text in texts:
            h = parse_group(text)
            for _ in range(3):
                rows = [[int(i == j) for j in range(d)] for i in range(d)]
                i, j = rng.sample(range(d), 2)
                rows[i] = [x + rng.choice([-2, -1, 1, 2]) * y for x, y in zip(rows[i], rows[j])]
                p = rng.choice([2, 3, 5])
                scale = [[F(p) if i == j == 0 else F(1, p) if i == j == 1 else int(i == j)
                          for j in range(d)] for i in range(d)]
                for a in (Mat(rows), Mat(rows) * rational_mat(scale)):
                    try:
                        pairs.append((h, apply_matrix(a, h)))
                    except NotSupergroupError:
                        pass
    pairs += [(parse_group(a), parse_group(b)) for a, b in (
        ("oplus(Z[1/2], Z[1/15])", "oplus(Z[1/10], Z[1/3])"),
        ("oplus(Z[1/2], Z[1/3]) + gen(0, 1/5)", "oplus(Z[1/2], Z[1/3]) + gen(1/5, 0)"),
        (HALF_A, HALF_B),
    )]
    return pairs


def test_line_and_zero_line_tiers_build_no_fraction(monkeypatch):
    monkeypatch.setattr(classify, "_bounded_search", _no_search)
    pairs = _tier_pairs()
    answers = []
    for h, hp in pairs:
        for relation in (ISO, COE):
            with monkeypatch.context() as m:
                built = fractions_built(m)
                v = decide(relation, h, hp)
            assert not built, (relation, v)
            answers.append(v.answer)
    assert answers.count("YES") >= 50 and answers.count("NO") >= 5


def test_sign_choices_test_each_sign_pair_once(g, monkeypatch):
    # -alpha passes exactly when alpha does (H = -H), so each _sign_choices
    # call tests at most one member of each of its two +- pairs with
    # maps_onto and lists both members of each pair that passes, and the
    # line tier's witness tuples are sorted
    tested = []
    calls = []  # (candidates tested, witness list) per _sign_choices call
    verdicts = []
    sign_choices, line_tier = classify._sign_choices, classify._line_tier

    def count_tests(alpha, h, hp):
        tested.append(alpha)
        return maps_onto(alpha, h, hp)

    def record(*args):
        before = len(tested)
        found = sign_choices(*args)
        calls.append((tested[before:], found))
        return found

    def record_tier(*args):
        verdicts.append(line_tier(*args))
        return verdicts[-1]

    monkeypatch.setattr(classify, "maps_onto", count_tests)
    monkeypatch.setattr(classify, "_sign_choices", record)
    monkeypatch.setattr(classify, "_line_tier", record_tier)
    # the one-line and zero-line witness enumerations are not under test
    monkeypatch.setattr(classify, "_bounded_search", lambda relation, *args: Verdict(relation, "UNKNOWN"))
    free = [g[name] for name in g if name != "z2"]
    for h, hp in list(itertools.product(free, repeat=2)) + _tier_pairs():
        for relation in (ISO, COE):
            decide(relation, h, hp, all_witnesses=True)
    assert len(calls) >= 50 and max(len(t) for t, _ in calls) == 2
    assert sum(1 for _, found in calls if found) >= 20
    for t, found in calls:
        assert len(t) < 2 or t[1] not in (t[0], t[0].scale(-1))
        assert found[::2] == [w for w in t if w in found]
        assert found[1::2] == [w.scale(-1) for w in found[::2]]
    yes = [v.witnesses for v in verdicts if v.answer == "YES"]
    assert len(yes) >= 20
    for wits in yes:
        assert set(wits) == {w.scale(-1) for w in wits}
        assert list(wits) == sorted(wits, key=classify._sort_key)


def _count_eliminations(monkeypatch):
    """The list that every linalg._gauss_jordan call (adjugate, det) appends
    to from now on."""
    calls = []
    eliminate = linalg._gauss_jordan

    def counting(rows):
        calls.append(rows)
        return eliminate(rows)

    monkeypatch.setattr(linalg, "_gauss_jordan", counting)
    return calls


def _two_line_pairs(g):
    """The gallery and ``_tier_pairs`` pairs of d = 2 groups with two
    distinct divisible lines and a consistent line map."""
    free = [g[name] for name in g if name != "z2"]
    pairs = list(itertools.product(free, repeat=2)) + _tier_pairs()
    return [(h, hp) for h, hp in pairs if h.d == hp.d == 2 and _tier_lines(h, hp)]


def test_frame_is_the_closed_form_adjugate(monkeypatch):
    eliminations = _count_eliminations(monkeypatch)

    @given(st.tuples(*[st.integers(-30, 30)] * 4))
    @settings(max_examples=300, deadline=None)
    def check(x):
        u, v = x[:2], x[2:]
        assume(u[0] * v[1] != v[0] * u[1])
        before = len(eliminations)
        got = classify._frame(u, v)
        assert len(eliminations) == before
        c = [[u[0], v[0]], [u[1], v[1]]]
        assert got == (c, *adjugate(c))

    check()


def test_line_tiers_run_no_elimination(g, monkeypatch):
    # frames and candidate inverses come from closed 2 x 2 adjugates, so the
    # tiers run no elimination
    eliminations = _count_eliminations(monkeypatch)
    runs = []  # (eliminations, answer) per tier call
    tier = classify._line_tier

    def counted(*args):
        before = len(eliminations)
        verdict = tier(*args)
        runs.append((len(eliminations) - before, verdict.answer))
        return verdict

    monkeypatch.setattr(classify, "_line_tier", counted)
    for h, hp in _two_line_pairs(g):
        for relation in (ISO, COE):
            decide(relation, h, hp)
    assert len(runs) >= 50 and [a for _, a in runs].count("YES") >= 20
    assert all(n == 0 for n, _ in runs)


# ---------------------------------------------------------------------------
# decide() output pinned: a rewrite of the deciders or of Mat must leave the
# answer, the witness text, the certificate and the flags of every decision
# unchanged


def _decision_digest(decisions):
    sha = hashlib.sha256()
    for v in decisions:
        sha.update(f"{v.answer}|{v.witness!r}|{v.certificate}|{v.flags}\n".encode())
    return sha.hexdigest()


DECIDE_DIGESTS = {
    "gallery": "d0a07d437ec64148e700d84c70f768f28a02f66d3d09b5b5663689e41f27c313",
    "tiers": "23b498560316d80d9817796a318949dd720e1023f519ba35722adf41c0acde2a",
}


def test_decide_output_is_pinned(g):
    free = [g[name] for name in g if name != "z2"]
    gallery_pairs = [
        decide(rel, a, b) for a, b in itertools.product(free, repeat=2) for rel in (CONJ, ISO, COE, OE)
    ]
    assert len(gallery_pairs) == 400
    tiers = [decide(rel, a, b) for a, b in _tier_pairs() for rel in (CONJ, ISO, COE, OE)]
    got = {"gallery": _decision_digest(gallery_pairs), "tiers": _decision_digest(tiers)}
    assert got == DECIDE_DIGESTS


# ---------------------------------------------------------------------------
# flags: what each answer rests on, the table of the classify docstring


def _table_flags(relation, h, hp, v):
    """D3_FLAG on a d >= 3 UNKNOWN and on a d >= 3 COE NO that rests on the
    COE criterion; no flag on a YES, on a conj or iso NO, or on a dimension
    or superindex NO."""
    if h.d != hp.d or h.d < 3 or v.answer == "YES":
        return ()
    if v.answer == "UNKNOWN":
        return (D3_FLAG,)
    coe_criterion = relation == COE and v.certificate.kind not in ("dimension", "superindex")
    return (D3_FLAG,) if coe_criterion else ()


# conj, iso and COE all answer NO from one profile at p = 3; the superindexes
# differ at 5 and 7
D3_TABLE_EXAMPLES = [
    ("oplus(Z[1/2], Z[1/2], Z[1/3])", "oplus(Z[1/2], Z[1/6], Z[1/3])", ((), (), (D3_FLAG,), ())),
    ("oplus(Z[1/2], Z[1/3], Z[1/5])", "oplus(Z[1/2], Z[1/3], Z[1/7])", ((), (), (), ())),
]


def _d3_pairs():
    """Seeded pairs of d = 3 groups, and of a group and a shear of another,
    plus one d = 3 against d = 2 pair."""
    texts = [a for a, _, _ in D3_TABLE_EXAMPLES] + [b for _, b, _ in D3_TABLE_EXAMPLES]
    texts += ["oplus(Z[1/2], Z[1/3], Z[1/5]) + gen(1/7, 1/7, 0)", *ZERO_LINE_D3_TEXTS]
    groups = [parse_group(text) for text in texts]
    rng = random.Random(2718)
    pairs = [(groups[0], parse_group("oplus(Z[1/2], Z[1/3])"))]
    for _ in range(40):
        h, hp = rng.choice(groups), rng.choice(groups)
        rows = [[int(i == j) for j in range(3)] for i in range(3)]
        i, j = rng.sample(range(3), 2)
        rows[i] = [x + rng.choice([-2, -1, 1, 2]) * y for x, y in zip(rows[i], rows[j])]
        pairs += [(h, hp), (h, apply_matrix(Mat(rows), hp))]
    return pairs


def test_flags_follow_the_table(g):
    for a, b, flags in D3_TABLE_EXAMPLES:
        h, hp = parse_group(a), parse_group(b)
        assert tuple(decide(rel, h, hp).flags for rel in RELATIONS) == flags
    free = [g[name] for name in g if name != "z2"]
    seen = set()
    for h, hp in list(itertools.product(free, repeat=2)) + _tier_pairs() + _d3_pairs():
        for relation in RELATIONS:
            v = decide(relation, h, hp)
            assert v.flags == _table_flags(relation, h, hp, v), (relation, v)
            if h.d >= 3:
                kind = v.certificate.kind if v.answer == "NO" else None
                seen.add((relation, v.answer, kind, v.flags))
    # every row of the table occurs in d = 3
    for row in [
        (CONJ, "NO", "local-profile", ()),
        (ISO, "NO", "local-profile", ()),
        (ISO, "NO", "superindex", ()),
        (ISO, "NO", "dimension", ()),
        (COE, "NO", "local-profile", (D3_FLAG,)),
        (COE, "NO", "superindex", ()),
        (COE, "NO", "dimension", ()),
        (ISO, "UNKNOWN", None, (D3_FLAG,)),
        (COE, "UNKNOWN", None, (D3_FLAG,)),
        (COE, "YES", None, ()),
    ]:
        assert row in seen, row
