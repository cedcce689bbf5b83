import functools
import itertools
import random
from fractions import Fraction
from math import factorial, gcd, prod
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zodom.gdsl import elaborate, parse, parse_group
from zodom.hgroup import (
    HGroup,
    NotSupergroupError,
    _congruence_rows,
    _entry,
    _member,
    _smith_form,
    apply_matrix,
    difference,
    equal_h,
    is_free,
    maps_into,
    maps_onto,
    member_h,
    superindex,
    superindex_oracle,
    tower,
)
from zodom.linalg import (
    INF,
    Lattice,
    Mat,
    Supernatural,
    _column_echelon,
    clear_denominators,
    factorint,
    lattice_sum,
    snf,
    subspace_basis,
    valuation,
)
from zodom.rigid import GALLERY_TEXTS

from helpers import (
    congruence_lattice,
    direct_sum,
    fractions_built,
    from_columns,
    index,
    integer_kernel,
    lattice_columns,
    lattice_member,
    local_pairs,
    rational_mat,
)

F = Fraction

Z2_3 = "oplus(Z[1/2], Z[1/3])"
FUCHS = "oplus(Z[1/2], Z[1/3]) + gen(1/5, 1/5)"

GALLERY = [
    "oplus(Z)",
    "oplus(Z[1/2])",
    "oplus(Z[1/6])",
    "oplus(Z, Z)",
    Z2_3,
    "oplus(Z[1/3], Z[1/2])",
    "oplus(Z[1/2], Z[1/15])",
    "oplus(Z[1/10], Z[1/3])",
    FUCHS,
    "oplus(Z[1/2]) + gen(1/5)",
]


# ---------------------------------------------------------------------------
# canonical local data


def test_canonicalize_split_group():
    h = parse_group(Z2_3)
    assert h.support() == (2, 3)
    e2, e3 = h.entries
    assert (e2.r, e3.r) == (1, 1)
    assert e2.vspan == ((1, 0),)
    assert e3.vspan == ((0, 1),)
    assert e2.lattice == Lattice.standard(2)


def test_canonicalize_trivial_group():
    h = parse_group("oplus(Z, Z)")
    assert h.support() == ()
    assert HGroup.from_local_data(h.d, h.local_data()) == h


def test_canonicalize_fuchs_adds_five_entry():
    h = parse_group(FUCHS)
    e5 = h.entry(5)
    assert e5.r == 0
    assert e5.lattice == Lattice.from_span(2, [(F(1, 5), F(1, 5)), (0, 1)])


def test_canonicalize_idempotent_on_gallery():
    # every parsed entry is canonical: rebuilding from the local data gives
    # the same group, and the same rows
    for text in GALLERY + list(GALLERY_TEXTS.values()):
        h = parse_group(text)
        again = HGroup.from_local_data(h.d, h.local_data())
        assert again == h
        assert [e._rows for e in again.entries] == [e._rows for e in h.entries]


def test_composite_support_key_rejected():
    with pytest.raises(ValueError):
        HGroup.from_local_data(1, {6: ([(6, (1,))], [])})


# ---------------------------------------------------------------------------
# membership


def test_member_fuchs_examples():
    h = parse_group(FUCHS)
    assert member_h((F(1, 5), F(1, 5)), h)
    assert not member_h((F(1, 5), 0), h)
    assert member_h((0, 0), h)
    assert member_h((F(3, 4), F(2, 9)), h)
    assert not member_h((F(1, 7), 0), h)
    assert member_h((F(2, 5), F(7, 5)), h)  # 2*(1/5,1/5) + (0,1)
    assert not member_h((F(2, 5), F(1, 5)), h)


def test_member_degenerate_standard():
    h = HGroup(2, ())
    assert member_h((1, -3), h)
    assert not member_h((F(1, 2), 0), h)


def _adapted_basis(lattice, vspan):
    """The Fraction adapted basis B_p: a basis of L(p) whose last r columns
    span L(p) n V_p.  In L(p)-coordinates L(p) n V_p is the integer kernel K
    of ann . mat (ann the integer annihilator of V_p), which is saturated, so
    with U K V = S in Smith form the first r columns of U^-1 span K; its last
    d - r columns followed by its first r are the coordinates of B_p."""
    d, r = lattice.d, len(vspan)
    if r in (0, d):
        return lattice.basis()
    ann = integer_kernel(vspan)
    kernel = integer_kernel(
        [[sum(f[i] * lattice.mat[i][j] for i in range(d)) for j in range(d)] for f in ann]
    )
    u, s, _ = snf([[c[i] for c in kernel] for i in range(d)])
    assert all(s[i][i] == 1 for i in range(r))
    cols = list(zip(*Mat(u).inv().rows))
    return lattice.basis() * from_columns(cols[r:] + cols[:r])


@functools.lru_cache(maxsize=None)
def _adapted_inverse(e):
    return _adapted_basis(e.lattice, e.vspan).inv()


def _member_local_reference(e, v):
    """The Fraction rule: the first d-r coordinates of B_p^-1 v are p-integral."""
    w = _adapted_inverse(e).apply(v)
    return all(w[i].denominator % e.p != 0 for i in range(e.lattice.d - e.r))


LOCAL_ENTRIES = [
    e
    for text in GALLERY + list(GALLERY_TEXTS.values())
    for e in parse_group(text).entries
]


def _member_local(e, v):
    """v in M_p by the integer rows: with v = num / den and p^k the p-part
    of den, v lies in M_p iff num / p^k does, since den / p^k is a unit at p."""
    den, (num,) = clear_denominators([v])
    return _member((e,), e.p ** valuation(den, e.p), num)


def test_member_local_matches_fraction_rule_on_gallery():
    # every entry against the lattice generators of every entry at its prime,
    # and against the p-power points of a small box
    checked = 0
    for e in LOCAL_ENTRIES:
        probes = [
            c
            for other in LOCAL_ENTRIES
            if (other.p, other.lattice.d) == (e.p, e.lattice.d)
            for c in lattice_columns(other.lattice)
        ]
        box = range(-e.p**2, e.p**2 + 1, max(1, e.p // 2))
        probes += [tuple(F(x, e.p**2) for x in xs) for xs in itertools.product(box, repeat=e.lattice.d)]
        for v in probes:
            assert _member_local(e, v) == _member_local_reference(e, v), (e, v)
            checked += 1
    assert checked > 1000


@given(
    st.sampled_from(LOCAL_ENTRIES),
    st.integers(min_value=0, max_value=4),
    st.sampled_from([1, 1, 7, 11]),
    st.lists(st.integers(min_value=-(10**4), max_value=10**4), min_size=3, max_size=3),
)
@settings(max_examples=300, deadline=None)
def test_member_local_matches_fraction_rule_random(e, k, cofactor, nums):
    den = e.p**k * (cofactor if cofactor % e.p else 1)
    v = tuple(F(x, den) for x in nums[: e.lattice.d])
    assert _member_local(e, v) == _member_local_reference(e, v)


# ---------------------------------------------------------------------------
# equality


def test_equal_examples():
    a = parse_group(Z2_3)
    b = parse_group("oplus(Z[1/3], Z[1/2])")
    assert equal_h(a, a)
    assert not equal_h(a, b)
    assert not equal_h(parse_group(FUCHS), a)


def test_equal_is_equivalence_on_presentation_variants():
    # same group built three different ways
    a = parse_group("oplus(Z[1/2], Z[1/3])")
    b = direct_sum(parse_group("oplus(Z[1/2])"), parse_group("oplus(Z[1/3])"))
    c = parse_group("oplus(Z[1/2], Z) + oplus(Z, Z[1/3])")
    assert equal_h(a, b) and equal_h(b, c) and equal_h(a, c)
    assert equal_h(b, a) and equal_h(c, b)


@st.composite
def local_groups(draw, d):
    """Groups, free or not, from random local data at up to three of the
    primes 2, 3, 5, 7: divisible directions and lattice generators of
    denominator p^0..p^3."""
    vec = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    data = {}
    for p in draw(st.lists(st.sampled_from([2, 3, 5, 7]), max_size=3, unique=True)):
        div = draw(st.lists(vec, max_size=d))
        lat = [
            tuple(F(x, p ** draw(st.integers(0, 3))) for x in draw(vec))
            for _ in range(draw(st.integers(0, 2)))
        ]
        data[p] = (local_pairs(lat), div)
    return HGroup.from_local_data(d, data)


@given(st.integers(1, 3), st.data())
@settings(max_examples=300, deadline=None)
def test_rebuild_from_local_data_is_identity(d, data):
    h = data.draw(local_groups(d))
    again = HGroup.from_local_data(d, h.local_data())
    assert again == h
    assert [(e._rows, e._invariants) for e in again.entries] == [
        (e._rows, e._invariants) for e in h.entries
    ]


def test_equal_matches_identity_witness_test():
    # H' is H re-presented with one more local generator at some prime,
    # equal to H iff that generator already lies in M_p, or a fresh group
    answers = []

    @given(st.integers(1, 3), st.data())
    @settings(max_examples=500, deadline=None)
    def check(d, data):
        h = data.draw(local_groups(d))
        if data.draw(st.booleans()):
            hp = data.draw(local_groups(d))
        else:
            p = data.draw(st.sampled_from([*h.support(), 2, 3]))
            v = tuple(F(x, p ** data.draw(st.integers(0, 2))) for x in data.draw(
                st.lists(st.integers(-3, 3), min_size=d, max_size=d)))
            local = h.local_data()
            lat, div = local.get(p, ([], []))
            if data.draw(st.booleans()):
                local[p] = (lat, div + [v])
            else:
                local[p] = (lat + local_pairs([v]), div)
            hp = HGroup.from_local_data(d, local)
        if data.draw(st.booleans()):
            h, hp = hp, h
        answer = equal_h(h, hp)
        assert answer == equal_h(hp, h) == maps_onto(Mat.identity(d), h, hp)
        assert not answer or hash(h) == hash(hp)
        assert (difference(h, hp) is None) == answer
        answers.append(answer)

    check()
    assert answers.count(True) >= 50 and answers.count(False) >= 50


def test_difference_texts():
    a, b = parse_group(Z2_3), parse_group("oplus(Z[1/3], Z[1/2])")
    assert difference(a, a) is None
    assert difference(a, b) == "divisible subspace at p=2 is ((1, 0),) vs ((0, 1),)"
    assert difference(a, parse_group("oplus(Z[1/2], Z)")) == "support differs at p=3"
    assert difference(parse_group("oplus(Z[1/2], Z)"), a) == "support differs at p=3"
    fuchs = parse_group(FUCHS)
    assert difference(fuchs, parse_group(Z2_3 + " + gen(1/5, 2/5)")) == (
        "lattice generator ('1/5', '1/5') at p=5 not in the other group"
    )
    assert difference(fuchs, parse_group(Z2_3 + " + gen(1/5, 0) + gen(0, 1/5)")) == (
        "lattice generator ('1/5', '0') at p=5 not in the first group"
    )


def p_primary_over_standard(lat: Lattice, p: int) -> Lattice:
    """The intermediate lattice Z^d <= L' <= L with [L' : Z^d] the p-part of [L : Z^d].

    Multiplying by the prime-to-p part of the index kills the prime-to-p
    torsion of L/Z^d and is bijective on the p-part.
    """
    zd = Lattice.standard(lat.d)
    n = index(zd, lat)
    np_part = n // p ** valuation(n, p) if n > 1 else 1
    if np_part == 1:
        return lat
    return lattice_sum(zd, Lattice(lat.d, lat.den, [[np_part * x for x in row] for row in lat.mat]))


def test_p_primary_over_standard():
    big = Lattice.from_span(2, [(F(1, 6), 0), (0, 1)])
    assert p_primary_over_standard(big, 2) == Lattice(2, 2, [[1, 0], [0, 2]])
    assert p_primary_over_standard(big, 3) == Lattice(2, 3, [[1, 0], [0, 3]])
    assert p_primary_over_standard(big, 5) == Lattice.standard(2)


def _raw_lattice(d, p, gens):
    """Z^d plus the generators, cut to its p-primary part: L(p) as given."""
    zd = Lattice.standard(d)
    return p_primary_over_standard(Lattice.from_span(d, [*lattice_columns(zd), *gens]), p)


def test_equal_groups_have_equal_presentations():
    # one group written twice, the second time with extra lattice generators
    # c w / p^j for w in V_p; they lie in M_p, so the group is the same, and
    # its canonical local data must be too, whatever they do to L(p)
    rng = random.Random(2026)
    moved = 0
    for _ in range(600):
        d = rng.randint(1, 3)
        data, more = {}, {}
        for p in rng.sample([2, 3, 5, 7], rng.randint(1, 3)):
            div = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(rng.randint(0, d))]
            lat = [
                tuple(F(rng.randint(-3, 3), p ** rng.randint(0, 3)) for _ in range(d))
                for _ in range(rng.randint(0, 2))
            ]
            extra = []
            for w in div:
                c, pj = rng.randint(1, 5), p ** rng.randint(1, 4)
                extra.append(tuple(F(c * x, pj) for x in w))
            data[p], more[p] = (local_pairs(lat), div), (local_pairs(lat + extra), div)
            moved += _raw_lattice(d, p, lat) != _raw_lattice(d, p, lat + extra)
        h, hp = HGroup.from_local_data(d, data), HGroup.from_local_data(d, more)
        assert maps_onto(Mat.identity(d), h, hp)
        assert h == hp and h.local_data() == hp.local_data()
    assert moved > 300


@st.composite
def local_datum(draw, d):
    """(p, lattice generators, divisible generators) at one of 2, 3, 5, 7."""
    vec = st.lists(st.integers(-4, 4), min_size=d, max_size=d)
    p = draw(st.sampled_from([2, 3, 5, 7]))
    div = draw(st.lists(vec, max_size=d))
    lat = [
        tuple(F(x, p ** draw(st.integers(0, 3))) for x in draw(vec))
        for _ in range(draw(st.integers(0, 3)))
    ]
    return p, lat, div


def _row_module(rows, d):
    """Canonical form of the Z-span of the rows: its column echelon form."""
    if not rows:
        return ()
    h, pivots = _column_echelon([[f[i] for f in rows] for i in range(d)])
    return tuple(tuple(h[i][j] for i in range(d)) for j in range(len(pivots)))


def _index_valuation_reference(lattice, vspan, p):
    """v_p[L : Z^d] - v_p[Z^d + L n V : Z^d], with L n V spanned by the last
    r columns of the adapted basis."""
    d, r = lattice.d, len(vspan)
    if r == d:
        return 0
    zd = Lattice.standard(d)
    full = valuation(index(zd, lattice), p)
    if r == 0:
        return full
    b = _adapted_basis(lattice, vspan)
    mixed = Lattice.from_span(d, [*lattice_columns(zd), *list(zip(*b.rows))[d - r:]])
    return full - valuation(index(zd, mixed), p)


@given(st.integers(1, 4), st.data())
@settings(max_examples=300, deadline=None)
def test_rows_match_adapted_basis_reference(d, data):
    # the rows span the same module as the first d - r rows of B_p^-1, built
    # from L(p) as given, and the index reads as the adapted-basis formula
    p, lat_gens, div_gens = data.draw(local_datum(d))
    e = HGroup.from_local_data(d, {p: (local_pairs(lat_gens), div_gens)}).entry(p)
    lattice, vspan = _raw_lattice(d, p, lat_gens), subspace_basis(div_gens, d)
    if e is None:
        assert not vspan and lattice == Lattice.standard(d)
        return
    binv = _adapted_basis(lattice, vspan).inv()
    reference = [[int(x) for x in row] for row in binv.rows[: d - len(vspan)]]
    assert _row_module(e._rows, d) == _row_module(reference, d)
    assert e.index_valuation() == _index_valuation_reference(lattice, vspan, p)
    assert (e.r, e.vspan) == (len(vspan), vspan)


def _local_entry_reference(d, p, lattice_gens, divisible_gens):
    """The Fraction build of an entry: L(p) as the p-primary part of the
    lattice Z^d + <num / den> over the pairs (den, num), rows D . x over the
    integer kernel of vspan . D with D the HNF of the dual lattice L(p)*,
    then the Smith-form tail.  Returns (p, r, lattice, vspan, index
    valuation, rows), or None."""
    vspan = subspace_basis(list(divisible_gens), d)
    lat = _raw_lattice(d, p, [tuple(F(x, den) for x in num) for den, num in lattice_gens])
    if not vspan and lat == Lattice.standard(d):
        return None
    dual = lat.dual()
    assert dual.den == 1
    rows = list(zip(*dual.mat))
    if vspan:
        kernel = integer_kernel([[sum(map(mul, w, f)) for f in rows] for w in vspan])
        rows = [tuple(sum(map(mul, row, x)) for row in dual.mat) for x in kernel]
    _, s, _ = snf(rows)
    invariants = [s[i][i] for i in range(len(rows))]
    pk = invariants[-1] if invariants else 1
    lam = congruence_lattice(rows, pk, d)
    lattice = Lattice(d, pk, list(zip(*lam)))
    return p, len(vspan), lattice, vspan, valuation(prod(invariants), p), tuple(rows)


def _elementary_divisors_reference(lattice):
    """Elementary divisors of L/Z^d from the Smith form of L's HNF."""
    _, s, _ = snf(lattice.mat)
    return tuple(sorted(lattice.den // s[i][i] for i in range(lattice.d) if s[i][i] != lattice.den))


@st.composite
def raw_local_data(draw, d):
    """(p, lattice generators, divisible generators) as a parser or
    ``local_data`` hands them over: pairs (den, num), not always in lowest
    terms, with den p^k times a cofactor (often a foreign prime), generators
    that vanish mod p^k, integral ones, redundant sums and multiples of
    earlier ones, and divisible directions."""
    vec = st.lists(st.integers(-6, 6), min_size=d, max_size=d)
    p = draw(st.sampled_from([2, 3, 5, 7]))
    div = draw(st.lists(vec, max_size=d))
    lat = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["plain", "plain", "zero mod p^k", "integral", "redundant"]))
        if kind == "redundant" and lat:
            (da, a), (db, b) = draw(st.sampled_from(lat)), draw(st.sampled_from(lat))
            c = draw(st.integers(-3, 3))
            lat.append((da * db, tuple(x * db + c * y * da for x, y in zip(a, b))))
            continue
        k = draw(st.integers(0, 3))
        den = p**k * draw(st.sampled_from([1, 1, 2, 3, 5, 7, 11, 6]))
        num = draw(vec)
        if kind == "zero mod p^k":
            num = [p**k * x for x in num]
        elif kind == "integral":
            den = 1
        lat.append((den, tuple(num)))
    return p, lat, div


@given(st.integers(1, 3), st.data())
@settings(max_examples=500, deadline=None)
def test_local_entry_matches_lattice_reference(d, data):
    p, lat_gens, div_gens = data.draw(raw_local_data(d))
    e = HGroup.from_local_data(d, {p: (lat_gens, div_gens)}).entry(p)
    ref = _local_entry_reference(d, p, lat_gens, div_gens)
    if ref is None:
        assert e is None
        return
    assert (e.p, e.r, e.lattice, e.vspan, e.index_valuation()) == ref[:5]
    # the rows are stored in column-echelon form: at rank 0 the HNF of
    # L(p)*, as the reference reads it off the dual; in between the same
    # module in another basis
    assert _row_module(e._rows, d) == e._rows
    if e.r in (0, d):
        assert e._rows == ref[5]
    else:
        assert _row_module(e._rows, d) == _row_module(ref[5], d)
    if e.r == 0:
        assert e._invariants == _elementary_divisors_reference(e.lattice)


def _entry_rows_reference(d, p, gens, vspan):
    """The rows as two reductions built them: the integer kernel of
    [[w | 0]; [num | p^k e_j]], then the column echelon form of its first d
    coordinates; None where ``_entry`` gives None."""
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
    return _row_module([c[:d] for c in integer_kernel(ext)], d)


@given(st.integers(1, 4), st.data())
@settings(max_examples=400, deadline=None)
def test_entry_rows_match_two_reduction_reference(d, data):
    # one column reduction of [E; I_d | 0] gives the HNF of the kernel's
    # first d coordinates, the rows the kernel-then-echelon build gave
    p, gens, div_gens = data.draw(raw_local_data(d))
    vspan = subspace_basis(div_gens, d)
    e = _entry(d, p, gens, vspan)
    ref = _entry_rows_reference(d, p, gens, vspan)
    assert (e is None) == (ref is None)
    if e is not None:
        assert e._rows == ref


@st.composite
def independent_rows(draw):
    """(d, rows, p, k): d <= 3, 1..d linearly independent integer rows (an
    entry of rank 0..d-1 has that many), p and 1 <= k <= 4."""
    d = draw(st.integers(1, 3))
    m = draw(st.integers(1, d))
    p = draw(st.sampled_from([2, 3, 5]))
    entry = st.one_of(st.integers(-9, 9), st.sampled_from([p, p * p, -p, p**3]))
    rows = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=m, max_size=m))
    assume(len(subspace_basis(rows, d)) == m)
    return d, tuple(map(tuple, rows)), p, draw(st.integers(1, 4))


@given(independent_rows())
@settings(max_examples=400, deadline=None)
def test_congruence_rows_match_kernel_reference(case):
    # Lambda = {x : rows . x = 0 mod p^k} from one Smith form spans the same
    # lattice as the first d coordinates of the kernel of [rows | p^k I]
    d, rows, p, k = case
    pk = p**k
    lam = _congruence_rows(_smith_form(rows, d), pk)
    ref = congruence_lattice(rows, pk, d)
    assert Lattice(d, 1, lam) == Lattice(d, 1, list(zip(*ref)))
    for col in zip(*lam):
        assert all(sum(map(mul, row, col)) % pk == 0 for row in rows)


def _check_kept_smith(h):
    """Each entry's kept Smith form is a fresh one of its rows, and its
    lattice is the canonical p^-k Lambda_p built from it; returns the
    entries' p^k."""
    pks = []
    for e in h.entries:
        smith = _smith_form(e._rows, h.d)
        assert e._smith == smith
        assert isinstance(e._smith[1], tuple) and all(isinstance(r, tuple) for r in e._smith[1])
        pk = smith[0][-1] if smith[0] else 1
        assert e.lattice == Lattice(h.d, pk, _congruence_rows(smith, pk))
        pks.append(pk)
    return pks


def test_kept_smith_form_on_gallery():
    # the gallery has entries with p^k = 1 (every Z[1/p] coordinate) and
    # with p^k > 1 (the Fuchs group's L(5)), in d = 1 and 2
    pks = []
    for text in [*GALLERY, *GALLERY_TEXTS.values(), "oplus(Z[1/2], Z[1/3], Z[1/5]) + gen(1/7, 1/7, 0)"]:
        pks += _check_kept_smith(parse_group(text))
    assert 1 in pks and 5 in pks and 7 in pks


@given(st.integers(1, 3), st.data())
@settings(max_examples=200, deadline=None)
def test_kept_smith_form_matches_fresh_build(d, data):
    _check_kept_smith(data.draw(local_groups(d)))


# ---------------------------------------------------------------------------
# superindex


def test_superindex_examples():
    assert superindex(parse_group("oplus(Z[1/2], Z[1/15])")) == Supernatural(
        {2: INF, 3: INF, 5: INF}
    )
    assert superindex(HGroup(2, ())) == Supernatural({})
    assert superindex(parse_group(FUCHS)) == Supernatural({2: INF, 3: INF, 5: 1})


def test_superindex_of_direct_sum_adds_exponents():
    a = parse_group("oplus(Z[1/2]) + gen(1/9)")
    b = parse_group("oplus(Z[1/3]) + gen(1/2)")
    sa, sb = superindex(a), superindex(b)
    s = superindex(direct_sum(a, b))
    for p in (2, 3):
        assert s.exponent(p) == sa.exponent(p) + sb.exponent(p)
    assert s.exponent(2) == INF and s.exponent(3) == INF


def test_superindex_matches_tower_oracle_on_gallery():
    # off the gallery, the oracle at p = 2 is 4, 5 and 5: the generator lies
    # in L(2) n V_2; [L(2) : Z^2] = 4 with half of it in V_2; the canonical
    # L(2) is (1/2) Z^2, which enlarges L(2) n V_2
    extra = [Z2_3 + " + gen(1/2, 0)", Z2_3 + " + gen(1/4, 1/2)", Z2_3 + " + gen(0, 1/2)"]
    for text in GALLERY + extra:
        h = parse_group(text)
        s = superindex(h)
        oracle = superindex_oracle(h, 6)
        for p in set(s.primes()) | set(oracle):
            e = s.exponent(p)
            if e == INF:
                # exponent grows with the (1/n!)-chain: r_p divisible
                # directions each contribute v_p(n!) at depth n, and the
                # lattice part modulo V_p adds v_p[L(p) : Z^d + L(p) n V_p]
                r = h.entry(p).r
                lat = h.entry(p).index_valuation()
                assert oracle[p] == r * valuation(factorial(6), p) + lat, (text, p)
            else:
                assert oracle.get(p, 0) == e


@given(st.integers(1, 3), st.data())
@settings(max_examples=200, deadline=None)
def test_superindex_slot_matches_fresh_build(d, data):
    h = data.draw(local_groups(d))
    assert h._superindex is None
    fresh = Supernatural({e.p: INF if e.r > 0 else e.index_valuation() for e in h.entries})
    s = superindex(h)
    assert s == fresh and h._superindex is s
    assert superindex(h) is s


# ---------------------------------------------------------------------------
# freeness


def test_is_free_examples():
    assert is_free(parse_group(Z2_3))
    assert not is_free(parse_group("oplus(Z[1/2], Z)"))
    assert is_free(parse_group("oplus(Z[1/2])"))
    assert not is_free(HGroup(2, ()))
    assert is_free(parse_group(FUCHS))


@given(st.integers(1, 3), st.data())
@settings(max_examples=200, deadline=None)
def test_is_free_slot_matches_fresh_rank(d, data):
    h = data.draw(local_groups(d))
    assert h._free is None
    rank = len(subspace_basis([w for e in h.entries for w in e.vspan], d))
    assert is_free(h) == (rank == d)
    assert h._free == (rank == d)


# ---------------------------------------------------------------------------
# matrix action


def test_apply_matrix_swap_example():
    swap = Mat([[0, 1], [1, 0]])
    assert equal_h(
        apply_matrix(swap, parse_group(Z2_3)), parse_group("oplus(Z[1/3], Z[1/2])")
    )


def test_apply_matrix_identity():
    h = parse_group(FUCHS)
    assert equal_h(apply_matrix(Mat.identity(2), h), h)


def test_apply_matrix_rational_scaling_example():
    a = Mat([[1, 0], [0, 25]], 5)
    h = parse_group("oplus(Z[1/2], Z) + oplus(Z, Z[1/3]) + gen(0, 1/5)")
    hp = parse_group("oplus(Z[1/2], Z) + oplus(Z, Z[1/3]) + gen(1/5, 0)")
    assert equal_h(apply_matrix(a, h), hp)


def test_apply_matrix_roundtrip_random_unimodular():
    rng = random.Random(2024)
    h = parse_group(FUCHS)
    count = 0
    while count < 50:
        rows = [[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)]
        det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
        if abs(det) != 1:
            continue
        count += 1
        a = Mat(rows)
        assert equal_h(apply_matrix(a, apply_matrix(a.inv(), h)), h)


def _apply_matrix_reference(a, h):
    """The Fraction build of a.H: a^-1 e_i tested by the Fraction rule at every
    prime of the support, of a's denominators and of det a; the images of
    the lattice basis columns and of V_p under Mat.apply."""
    det = a.det()
    primes = set(h.support())
    primes |= {q for row in a.rows for x in row for q in factorint(x.denominator)}
    primes |= set(factorint(det.numerator)) | set(factorint(det.denominator))
    preimages = list(zip(*a.inv().rows))  # a^-1 e_i
    data = {}
    for p in sorted(primes):
        entry = h.entry(p)
        for i in range(h.d):
            pre = preimages[i]
            ok = _member_local_reference(entry, pre) if entry else all(
                x.denominator % p != 0 for x in pre
            )
            if not ok:
                raise NotSupergroupError(
                    f"image group does not contain Z^{h.d} locally at {p}"
                )
        lat_cols = lattice_columns(entry.lattice if entry else Lattice.standard(h.d))
        div = entry.vspan if entry else ()
        data[p] = (local_pairs(a.apply(c) for c in lat_cols), [a.apply(w) for w in div])
    return HGroup.from_local_data(h.d, data)


def _apply_or_error(apply, a, h):
    try:
        return apply(a, h)
    except NotSupergroupError as exc:
        return str(exc)


# ---------------------------------------------------------------------------
# witness test: a.H = H' from the generators of H


@st.composite
def free_groups(draw, d):
    """Free groups with one to three of the primes 2, 3, 5, each with random
    divisible directions and lattice generators of p-power denominator."""
    vec = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    data = {}
    for p in draw(st.lists(st.sampled_from([2, 3, 5]), min_size=1, max_size=3, unique=True)):
        div = draw(st.lists(vec, max_size=d))
        lat = [
            tuple(F(x, p ** draw(st.integers(0, 2))) for x in draw(vec))
            for _ in range(draw(st.integers(0, 2)))
        ]
        data[p] = (local_pairs(lat), div)
    h = HGroup.from_local_data(d, data)
    assume(is_free(h))
    return h


@st.composite
def invertible_matrices(draw, d):
    """Integer (q = 1) or rational (q = 2, 3) matrices with entries n/q."""
    q = draw(st.sampled_from([1, 1, 2, 3]))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d), min_size=d, max_size=d))
    m = Mat(rows, q)
    assume(m.det() != 0)
    return m


@st.composite
def det_one_matrices(draw, d):
    """Unimodular matrices (products of elementary row operations, a swap and
    a sign) or rational ones U diag(q, 1/q, 1, ...) V of det +-1, q = 2, 3, 5."""

    def unimodular():
        rows = [[int(i == j) for j in range(d)] for i in range(d)]
        for _ in range(draw(st.integers(1, 4))):
            i, j = draw(st.permutations(range(d)))[:2]
            c = draw(st.integers(-2, 2))
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        if draw(st.booleans()):
            rows[0], rows[1] = rows[1], rows[0]
        sign = draw(st.sampled_from([1, -1]))
        rows[-1] = [sign * x for x in rows[-1]]
        return Mat(rows)

    m = unimodular()
    if draw(st.booleans()):
        q = draw(st.sampled_from([2, 3, 5]))
        scale = rational_mat([[F(q) if i == j == 0 else F(1, q) if i == j == 1 else int(i == j)
                               for j in range(d)] for i in range(d)])
        m = m * scale * unimodular()
    assert abs(m.det()) == 1, m
    return m


def _member_h_reference(v, h):
    """The Fraction rule at every support prime; no other prime may divide a
    denominator."""
    v = tuple(F(x) for x in v)
    rest = 1
    for x in v:
        rest = rest * x.denominator // gcd(rest, x.denominator)
    for e in h.entries:
        if rest % e.p == 0:
            rest //= e.p ** valuation(rest, e.p)
            if not _member_local_reference(e, v):
                return False
    return rest == 1


def _maps_onto_reference(a, h, hp):
    """The Fraction witness test: a and a^-1 applied to the generators of H
    and H', each divisible direction kept in the span of V'_p."""

    def maps_into(a, h, hp):
        for e in h.entries:
            ep = hp.entry(e.p)
            for w in e.vspan:
                if ep is None or len(subspace_basis([*ep.vspan, a.apply(w)], h.d)) > ep.r:
                    return False
        images = [a.apply(c) for e in h.entries for c in lattice_columns(e.lattice)]
        return all(_member_h_reference(v, hp) for v in images + list(zip(*a.rows)))

    return maps_into(a, h, hp) and maps_into(a.inv(), hp, h)


def _into(a, h, hp):
    return maps_into(a.den, a.num, h, hp)


def test_apply_matrix_matches_fraction_reference():
    outcomes = []

    @given(st.integers(1, 3), st.data())
    @settings(max_examples=500, deadline=None)
    def check(d, data):
        h = data.draw(local_groups(d))
        if d == 1:
            a = rational_mat([[F(data.draw(st.sampled_from([1, -1, 2, 3, 6, 10])),
                                 data.draw(st.sampled_from([1, 2, 3, 5])))]])
        else:
            a = data.draw(st.one_of(det_one_matrices(d), invertible_matrices(d)))
        got = _apply_or_error(apply_matrix, a, h)
        assert got == _apply_or_error(_apply_matrix_reference, a, h)
        if isinstance(got, HGroup):
            assert [e._rows for e in got.entries] == [
                e._rows for e in HGroup.from_local_data(d, got.local_data()).entries
            ]
        outcomes.append(isinstance(got, HGroup))

    check()
    assert outcomes.count(True) >= 100 and outcomes.count(False) >= 50


def test_from_local_data_and_apply_matrix_build_no_fraction(monkeypatch):
    groups = [parse_group(text) for text in GALLERY + list(GALLERY_TEXTS.values())]
    groups.append(parse_group("oplus(Z[1/2], Z[1/3], Z[1/6]) + gen(1/5, 2/5, 0)"))
    data = [(h.d, p, lat, div) for h in groups for p, (lat, div) in h.local_data().items()]
    mats = {
        1: [Mat([[2]], 3), Mat([[-1]])],
        2: [Mat([[0, 1], [1, 0]]), Mat([[1, 0], [0, 25]], 5), Mat([[6, 3], [3, 1]], 3)],
        3: [Mat([[1, 1, 0], [0, 1, 0], [0, 2, 1]]), Mat([[1, 0, 0], [0, 4, 0], [0, 0, 6]], 2)],
    }
    built = fractions_built(monkeypatch)
    entries = [HGroup.from_local_data(d, {p: (lat, div)}).entry(p) for d, p, lat, div in data]
    images = [_apply_or_error(apply_matrix, a, h) for h in groups for a in mats[h.d]]
    monkeypatch.undo()
    assert not built
    assert len(entries) > 20 and all(entries)
    assert sum(isinstance(x, HGroup) for x in images) > 10
    assert any(isinstance(x, str) for x in images)


def test_integer_forms_build_no_fraction(monkeypatch):
    # rationals become integers once, in the parser: the local data round
    # trip builds no Fraction, elaboration only the one of Mat.det in
    # expr_dimension, and Mat takes integer rows only
    groups = [parse_group(text) for text in GALLERY_TEXTS.values()]
    expr = parse("gen(1/7, 0) + mat([2,1;1,1]) * oplus(Z[1/2], Z[1/3]) + gen(1/5, 1/5)")
    built = fractions_built(monkeypatch)
    again = [HGroup.from_local_data(h.d, h.local_data()) for h in groups]
    round_trip = len(built)
    h = elaborate(expr)
    monkeypatch.undo()
    assert again == groups and round_trip == 0
    assert len(built) == 1 and h.support() == (2, 3, 5, 7)
    with pytest.raises(TypeError):
        Mat([[Fraction(1, 2), 0], [0, 1]])


@st.composite
def maps_onto_cases(draw, d):
    """(a, H, H'): H' = +-a.H half the time where that contains Z^d, else
    an unrelated group."""
    h = draw(free_groups(d))
    a = draw(det_one_matrices(d))
    if draw(st.booleans()):
        try:
            return a, h, apply_matrix(draw(st.sampled_from([a, a.scale(-1)])), h)
        except NotSupergroupError:
            pass
    return a, h, draw(free_groups(d))


def test_maps_onto_matches_fraction_reference():
    answers = []

    @given(st.sampled_from([2, 3]), st.data())
    @settings(max_examples=1000, deadline=None)
    def check(d, data):
        a, h, hp = data.draw(maps_onto_cases(d))
        answer = maps_onto(a, h, hp)
        assert answer == _maps_onto_reference(a, h, hp)
        answers.append((d, answer))

    check()
    assert len(answers) >= 1000
    for d in (2, 3):
        assert answers.count((d, True)) >= 50 and answers.count((d, False)) >= 50


def test_maps_onto_answers_alike_for_a_and_minus_a():
    # -a.H = a.(-H) = a.H since H = -H: the lemma that lets the d = 2 line
    # tier test one candidate of each +- pair
    answers = []

    @given(st.sampled_from([2, 3]), st.data())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def check(d, data):
        a, h, hp = data.draw(maps_onto_cases(d))
        answer = maps_onto(a, h, hp)
        assert maps_onto(a.scale(-1), h, hp) == answer
        answers.append((d, answer))

    check()
    for d in (2, 3):
        assert answers.count((d, True)) >= 50 and answers.count((d, False)) >= 50


@st.composite
def rank_one_lattice_cases(draw):
    """(a, H, H0): H has a rank-1 entry at p whose lattice generator u / p^k
    lies outside Z^d + V_p, H0 is H without that generator, a full-rank
    prime q makes both free, and a has det +-1."""
    d = draw(st.sampled_from([2, 3]))
    p, q = draw(st.permutations([2, 3, 5, 7]))[:2]
    vec = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    w, u = draw(vec), draw(vec)
    # u / p^k is off Z^d + V_p when some 2 x 2 minor of [w u] is prime to p
    assume(any((w[i] * u[j] - w[j] * u[i]) % p for i in range(d) for j in range(i)))
    k = draw(st.integers(1, 2))
    gen = tuple(F(x, p**k) for x in u)
    full = ([], [[int(i == j) for j in range(d)] for i in range(d)])
    h = HGroup.from_local_data(d, {p: (local_pairs([gen]), [w]), q: full})
    h0 = HGroup.from_local_data(d, {p: ([], [w]), q: full})
    return draw(det_one_matrices(d)), h, h0


def test_maps_onto_matches_fraction_reference_at_rank_one_lattices():
    # a.H0 misses a.H only by the lattice columns of a rank-1 entry, so a
    # maps_into that skipped those columns would answer True on (H, a.H0)
    # and on (H0, a.H), both False
    answers = []

    @given(rank_one_lattice_cases())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def check(case):
        a, h, h0 = case
        try:
            images = {"h": apply_matrix(a, h), "h0": apply_matrix(a, h0)}
        except NotSupergroupError:
            assume(False)
        for src, dst in itertools.product(("h", "h0"), repeat=2):
            group = h if src == "h" else h0
            answer = maps_onto(a, group, images[dst])
            assert answer == _maps_onto_reference(a, group, images[dst])
            answers.append((src == dst, answer))

    check()
    assert answers.count((True, True)) >= 100
    assert answers.count((False, False)) >= 100 and (False, True) not in answers


def test_member_kernel_branches():
    h = parse_group("oplus(Z[1/2], Z)")
    # an unreduced num / den: 3/6 = 1/2 needs the 3 divided out first
    assert _member(h.entries, 6, [3, 0]) and _member(h.entries, 6, [3, 6])
    assert not _member(h.entries, 6, [3, 3])
    # outside Z[1/S]^d: a 7 left in den after the support primes
    assert not _member(h.entries, 7, [1, 0]) and _member(h.entries, 7, [7, 14])
    assert not _into(Mat([[1, 0], [0, 49]], 7), h, h)
    # a divisible direction landing at a prime where H' has rank 0
    # (the rows of a rank-0 entry span all of Q^d, so no direction passes)
    rank0 = parse_group("oplus(Z, Z) + gen(1/2, 0)")
    assert rank0.entry(2).r == 0 and rank0.entry(2)._rows == ((2, 0), (0, 1))
    assert not _into(Mat.identity(2), h, rank0)
    assert _into(Mat.identity(2), rank0, h)
    # a rank-d entry has no rows, so any direction passes
    full = parse_group("oplus(Z[1/2], Z[1/2])")
    assert full.entry(2)._rows == ()
    for a in (Mat.identity(2), Mat([[1, 1], [0, 1]]), Mat([[3, 5], [1, 2]])):
        assert _into(a, h, full)
        assert not _into(a.inv(), full, h)


def _onto_by_rebuild(a, h, hp):
    try:
        return equal_h(apply_matrix(a, h), hp)
    except NotSupergroupError:
        return False


def test_maps_onto_matches_rebuild_of_image():
    answers = []

    @given(st.sampled_from([2, 3]), st.data())
    @settings(max_examples=300, deadline=None)
    def check(d, data):
        h = data.draw(free_groups(d))
        a = data.draw(invertible_matrices(d))
        if data.draw(st.booleans()):
            # H' = beta.H with beta = +-a or independent, so YES cases occur
            beta = data.draw(st.sampled_from([a, a.scale(-1), data.draw(invertible_matrices(d))]))
            try:
                hp = apply_matrix(beta, h)
            except NotSupergroupError:
                hp = h
        else:
            hp = data.draw(free_groups(d))
        answer = maps_onto(a, h, hp)
        assert answer == _onto_by_rebuild(a, h, hp)
        answers.append(answer)

    check()
    assert answers.count(True) >= 20 and answers.count(False) >= 20


def test_maps_into_one_direction_only():
    small = parse_group("oplus(Z[1/2], Z)")
    big = parse_group("oplus(Z[1/2], Z[1/3])")
    ident = Mat.identity(2)
    assert _into(ident, small, big)
    assert not _into(ident, big, small)
    assert not maps_onto(ident, small, big)
    # the swap sends the divisible direction at 2 off the V_2 of big
    assert not _into(Mat([[0, 1], [1, 0]]), small, big)
    assert _into(Mat([[0, 1], [1, 0]]), small, parse_group("oplus(Z[1/3], Z[1/2])"))


@pytest.mark.parametrize(
    "text, calls",
    [
        (Z2_3, 2),
        (FUCHS, 4),
        # a rank-2 prime 7 has L(7) = Z^2 too
        ("oplus(Z[1/14], Z[1/21]) + gen(1/5, 1/5)", 4),
        # a rank-1 entry whose L(2) is not Z^2 keeps its columns
        ("oplus(Z[1/2], Z) + gen(1/4, 1/2)", 4),
    ],
)
def test_maps_into_skips_entries_with_standard_lattice(monkeypatch, text, calls):
    # the HNF columns of L(p) = Z^d are the unit vectors, whose images the
    # column test checks: such an entry adds no _member call
    h = parse_group(text)
    counted = []

    def counting(entries, den, num):
        counted.append(den)
        return _member(entries, den, num)

    monkeypatch.setattr("zodom.hgroup._member", counting)
    assert maps_into(1, [[1, 0], [0, 1]], h, h)
    assert len(counted) == calls


def test_maps_onto_false_where_image_lacks_zd():
    h = parse_group("oplus(Z[1/3], Z[1/3])")
    for a in (Mat([[2, 0], [0, 1]]), Mat([[4, 0], [0, 1]], 2)):
        with pytest.raises(NotSupergroupError):
            apply_matrix(a, h)
        assert not maps_onto(a, h, h)
        assert not _into(a.inv(), h, h)
    # Z^d has no support prime: only the columns of a are tested
    zd = HGroup(2, ())
    half = Mat([[1, 0], [0, 2]], 2)
    assert not _into(half, zd, zd)
    assert _into(half.inv(), zd, zd) and not maps_onto(half.inv(), zd, zd)


# ---------------------------------------------------------------------------
# towers


def test_tower_examples():
    t = tower(parse_group("oplus(Z[1/2])"), 3)
    assert t.levels[0] == Lattice.standard(1)
    assert t.levels[1] == Lattice.from_span(1, [(F(1, 2),)])
    assert t.duals[1] == Lattice.from_span(1, [(2,)])

    t = tower(HGroup(2, ()), 4)
    assert all(l == Lattice.standard(2) for l in t.levels)

    t = tower(parse_group(Z2_3), 2)
    assert t.levels[1] == Lattice.from_span(2, [(F(1, 2), 0), (0, 1)])
    assert t.duals[1] == Lattice.from_span(2, [(2, 0), (0, 1)])


def test_tower_invariants():
    for text in (Z2_3, FUCHS, "oplus(Z[1/10], Z[1/3])"):
        h = parse_group(text)
        t = tower(h, 6)
        zd = Lattice.standard(h.d)
        for n in range(t.depth):
            assert t.duals[n].is_integral()
            assert zd.contains(t.duals[n])
            if n > 0:
                assert t.levels[n].contains(t.levels[n - 1])
                assert t.duals[n - 1].contains(t.duals[n])
            # index duality [Z^d : G_n] = [H_n : Z^d]
            assert index(t.duals[n], zd) == index(zd, t.levels[n])


def test_tower_levels_capture_membership():
    rng = random.Random(99)
    h = parse_group(FUCHS)
    t = tower(h, 6)
    for _ in range(60):
        v = (
            F(rng.randint(-20, 20), rng.choice([1, 2, 4, 3, 5, 6, 30])),
            F(rng.randint(-20, 20), rng.choice([1, 2, 4, 3, 5, 6, 30])),
        )
        in_level = any(lattice_member(lvl, v) for lvl in t.levels)
        if in_level:
            assert member_h(v, h)
        denom_lcm = (v[0].denominator * v[1].denominator)
        if member_h(v, h) and denom_lcm <= 30:  # 30 | 6! guarantees capture by depth 6
            assert any(lattice_member(lvl, v) for lvl in t.levels)


@pytest.mark.parametrize("text", ["oplus(Z[1/6])", Z2_3, FUCHS, "oplus(Z[1/10], Z[1/3]) + gen(1/7, 0)"])
def test_tower_builds_only_changed_primes(monkeypatch, text):
    """Level n adds Lambda_p only at the support primes p | n, and a level
    no support prime divides is the previous Lattice object, dual too."""
    h = parse_group(text)
    depth = 12
    calls = []

    def counting(smith, pk):
        calls.append(pk)
        return _congruence_rows(smith, pk)

    monkeypatch.setattr("zodom.hgroup._congruence_rows", counting)
    t = tower(h, depth)
    primes = h.support()
    assert len(calls) == sum(1 for n in range(1, depth + 1) for p in primes if n % p == 0)
    for n in range(2, depth + 1):
        repeated = all(n % p for p in primes)
        assert (t.levels[n - 1] is t.levels[n - 2]) == repeated
        assert (t.duals[n - 1] is t.duals[n - 2]) == repeated
    assert t.levels[0] == t.duals[0] == Lattice.standard(h.d)


def _tower_reference(h, depth):
    """The Fraction tower: at each support prime p | n!, with p^k the p-part
    of n!, L(p) plus p^-m times a saturated basis of V_p (m = max(k, v_p of
    L(p)'s denominator)) cut down to p^-k Z^d, the intersection read as the
    dual of the sum of the duals; then the sum with Z^d over all p."""
    d = h.d
    zd = Lattice.standard(d)
    levels = []
    for n in range(1, depth + 1):
        fact = factorial(n)
        parts = [zd]
        for e in h.entries:
            k = valuation(fact, e.p)
            if k == 0:
                continue
            cols = lattice_columns(e.lattice)
            if e.r > 0:
                m = max(k, valuation(e.lattice.den, e.p))
                ann = integer_kernel(e.vspan)
                sat = integer_kernel(ann) if ann else [[int(i == j) for i in range(d)] for j in range(d)]
                cols += [tuple(F(x, e.p**m) for x in w) for w in sat]
            box = Lattice.from_span(d, [tuple(F(int(i == j), e.p**k) for i in range(d)) for j in range(d)])
            parts.append(lattice_sum(Lattice.from_span(d, cols).dual(), box.dual()).dual())
        levels.append(lattice_sum(*parts))
    return tuple(levels), tuple(l.dual() for l in levels)


@pytest.mark.parametrize(
    "text",
    [
        "oplus(Z[1/6])",  # rank d: no rows, so Lambda_p is Z^d
        "oplus(Z[1/6], Z[1/6]) + gen(1/5, 0) + gen(0, 1/5)",
        "oplus(Z[1/3], Z[1/21])",
        "oplus(Z[1/2], Z[1/3]) + gen(1/4, 1/4)",
        *GALLERY,
    ],
)
def test_tower_matches_fraction_reference(text):
    h = parse_group(text)
    t = tower(h, 9)
    assert (t.levels, t.duals) == _tower_reference(h, 9)


@given(st.integers(1, 3), st.integers(1, 9), st.data())
@settings(max_examples=300, deadline=None)
def test_tower_matches_fraction_reference_random(d, depth, data):
    h = data.draw(local_groups(d))
    t = tower(h, depth)
    assert (t.levels, t.duals) == _tower_reference(h, depth)


# ---------------------------------------------------------------------------
# direct sums


def test_direct_sum_examples():
    s = direct_sum(parse_group("oplus(Z[1/2])"), parse_group("oplus(Z[1/3])"))
    assert equal_h(s, parse_group(Z2_3))
    assert direct_sum(HGroup(1, ()), HGroup(1, ())) == HGroup(2, ())
    dd = direct_sum(parse_group("oplus(Z[1/2])"), parse_group("oplus(Z[1/2])"))
    assert dd.entry(2).r == 2
    assert subspace_basis(dd.entry(2).vspan, 2) == ((1, 0), (0, 1))
