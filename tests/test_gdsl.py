import itertools
from fractions import Fraction

import pytest

from zodom.gdsl import (
    BadDenominatorError,
    DimensionMismatchError,
    Gen,
    GdslSyntaxError,
    MatExpr,
    Oplus,
    SumExpr,
    ZComp,
    elaborate,
    format_mat,
    format_rat,
    format_vec,
    parse,
    parse_group,
    parse_matrix,
    parse_vector,
    print_expr,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from zodom.gdsl import expr_dimension
from zodom.hgroup import HGroup, NotSupergroupError, apply_matrix, equal_h, superindex
from zodom.linalg import INF, Mat, SingularMatrixError, Supernatural, factorint

from helpers import fractions_built, local_pairs

F = Fraction


def test_parse_fuchs_example():
    e = parse("oplus(Z[1/2], Z[1/3]) + gen(1/5, 1/5)")
    assert isinstance(e, SumExpr)
    op, gen = e.items
    assert op == Oplus((ZComp(2), ZComp(3)))
    assert gen == Gen(5, (1, 1))


def test_parse_plain_oplus():
    e = parse("oplus(Z, Z)")
    assert e == Oplus((ZComp(1), ZComp(1)))
    assert elaborate(e).support() == ()


def test_parse_mat_example():
    e = parse("mat([0,1;1,0]) * oplus(Z[1/2], Z[1/3])")
    assert isinstance(e, MatExpr)
    assert e.mat == Mat([[0, 1], [1, 0]])
    assert isinstance(e.operand, Oplus)


def test_mat_applies_to_whole_remainder():
    e = parse("mat([0,1;1,0]) * oplus(Z[1/2], Z[1/3]) + gen(1/5, 1/5)")
    assert isinstance(e, MatExpr)
    assert isinstance(e.operand, SumExpr)
    swapped = elaborate(e)
    direct = elaborate(
        MatExpr(Mat([[0, 1], [1, 0]]), parse("oplus(Z[1/2], Z[1/3]) + gen(1/5, 1/5)"))
    )
    assert equal_h(swapped, direct)


def test_whitespace_and_comments():
    text = """
    # the Fuchs group
    oplus( Z[1/2] ,Z[1/3] )
      + gen( 1/5 , 1/5 )   # generator
    """
    assert equal_h(parse_group(text), parse_group("oplus(Z[1/2],Z[1/3])+gen(1/5,1/5)"))


def test_rationals_parse():
    e = parse("gen(-3/4, 2)")
    assert e == Gen(4, (-3, 8))
    assert parse("gen(2/4, 0, -6/9)") == Gen(6, (3, 0, -4))


def test_parsing_a_mat_builds_no_fraction(monkeypatch):
    text = "mat([2/4, -3; 0, 6/9]) * mat([1, 1/2; 0, -1]) * oplus(Z[1/2], Z)"
    built = fractions_built(monkeypatch)
    e = parse(text)
    assert built == []
    assert e.mat == Mat([[3, -18], [0, 4]], 6)
    assert e.operand.mat == Mat([[2, 1], [0, -2]], 2)
    assert parse("gen(1/3, 2/4)") == Gen(6, (2, 3))
    assert built == []


def test_printing_a_mat_builds_no_fraction(monkeypatch):
    e = parse("mat([2/4, -3; 0, 6/9]) * gen(1/3, -2/4, 0)")
    built = fractions_built(monkeypatch)
    assert print_expr(e) == "mat([1/2,-3;0,2/3]) * gen(1/3, -1/2, 0)"
    assert repr(e.mat) == "Mat([1/2,-3; 0,2/3])"
    assert built == []


def test_syntax_error_offsets():
    with pytest.raises(GdslSyntaxError) as exc:
        parse("oplus(Z[1/2], Q)")
    assert exc.value.offset == 14
    with pytest.raises(GdslSyntaxError) as exc:
        parse("gen(1/5, 1/5) extra")
    assert exc.value.offset == 14
    with pytest.raises(GdslSyntaxError) as exc:
        parse("")
    assert exc.value.offset == 0
    with pytest.raises(GdslSyntaxError):
        parse("gen(1/0)")


def test_vector_and_matrix_entry_points_read_the_whole_input():
    assert parse_vector("1/2, -3 # a comment") == [(1, 2), (-3, 1)]
    assert parse_matrix(" [1/2,0; 0,1] ") == Mat([[1, 0], [0, 2]], 2)
    for text, offset in [("1/2,", 4), ("1/2 0", 4), ("0.5", 1), ("", 0)]:
        with pytest.raises(GdslSyntaxError) as exc:
            parse_vector(text)
        assert exc.value.offset == offset, text
    with pytest.raises(GdslSyntaxError) as exc:
        parse_matrix("[1,0;0,1] x")
    assert (exc.value.offset, exc.value.expected) == (10, "end of input")
    with pytest.raises(DimensionMismatchError):
        parse_matrix("[1,0]")


def test_bad_denominator():
    with pytest.raises(BadDenominatorError):
        parse("oplus(Z[1/1])")
    with pytest.raises(BadDenominatorError):
        parse("oplus(Z[1/0])")


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        elaborate(parse("oplus(Z, Z) + gen(1/2)"))
    with pytest.raises(DimensionMismatchError):
        elaborate(parse("mat([0,1;1,0]) * oplus(Z[1/2])"))
    with pytest.raises(DimensionMismatchError):
        parse("mat([1,0;0,1;0,0]) * oplus(Z, Z)")


def test_matrix_chain_checks_each_determinant_once(monkeypatch):
    det = Mat.det
    calls = []

    def counting_det(self):
        calls.append(self)
        return det(self)

    monkeypatch.setattr(Mat, "det", counting_det)
    for n in (1, 2, 4, 8):
        chain = "mat([1,1;0,1]) * " * n
        for text in (chain + "oplus(Z[1/2], Z[1/3])", "gen(1/5, 0) + " + chain + "oplus(Z[1/2], Z)"):
            calls.clear()
            parse_group(text)
            assert len(calls) == n, text
    # the errors and their messages are unchanged, wherever the bad matrix sits
    with pytest.raises(SingularMatrixError, match=r"^matrix must be invertible$"):
        parse_group("mat([1,1;0,1]) * mat([1,2;2,4]) * oplus(Z[1/2], Z)")
    with pytest.raises(DimensionMismatchError, match=r"^matrix is 3x3 but operand has dimension 2$"):
        parse_group("mat([1,1;0,1]) * mat([1,0,0;0,1,0;0,0,1]) * oplus(Z, Z)")
    with pytest.raises(DimensionMismatchError, match=r"^summands have mixed dimensions \[1, 2\]$"):
        parse_group("mat([1,1;0,1]) * mat([0,1;1,0]) * oplus(Z, Z) + gen(1/2)")


def test_composite_inverse_means_all_prime_factors():
    a = parse_group("oplus(Z[1/15])")
    b = parse_group("oplus(Z[1/3]) + oplus(Z[1/5])")
    c = parse_group("oplus(Z[1/225])")  # exponent of n irrelevant
    assert equal_h(a, b) and equal_h(a, c)
    assert superindex(a) == Supernatural({3: INF, 5: INF})


def test_elaborate_gen_example():
    h = parse_group("gen(1/5, 1/5)")
    e5 = h.entry(5)
    assert e5.r == 0
    from zodom.linalg import Lattice

    assert e5.lattice == Lattice.from_span(2, [(F(1, 5), F(1, 5)), (0, 1)])


def _elaborate_reference(e):
    """Elaboration that builds every sub-expression as an HGroup and reads
    a sum back through each part's local data."""
    d = expr_dimension(e)
    if isinstance(e, Oplus):
        data = {}
        for i, comp in enumerate(e.comps):
            if comp.inv == 1:
                continue
            unit = tuple(F(1 if j == i else 0) for j in range(d))
            for p in factorint(comp.inv):
                data.setdefault(p, ([], []))[1].append(unit)
        return HGroup.from_local_data(d, data)
    if isinstance(e, Gen):
        vec = tuple(F(n, e.den) for n in e.num)
        primes = set()
        for x in vec:
            if x.denominator > 1:
                primes |= set(factorint(x.denominator))
        return HGroup.from_local_data(d, {p: (local_pairs([vec]), []) for p in primes})
    if isinstance(e, MatExpr):
        return apply_matrix(e.mat, _elaborate_reference(e.operand))
    data = {}
    for part in map(_elaborate_reference, e.items):
        for p, (lat, div) in part.local_data().items():
            slot = data.setdefault(p, ([], []))
            slot[0].extend(lat)
            slot[1].extend(div)
    return HGroup.from_local_data(d, data)


def _outcome(build, text):
    try:
        return build(parse(text))
    except NotSupergroupError as exc:
        return str(exc)


NESTED_TEXTS = [
    # a matrix operand inside a sum
    "gen(1/5, 0) + mat([1,1;0,1]) * oplus(Z[1/2], Z[1/3]) + gen(1/4, 1/4)",
    "oplus(Z[1/2], Z) + gen(1/9, 0) + mat([0,1;1,0]) * oplus(Z[1/3], Z) + gen(1/9, 1/3)",
    "gen(1/10, 3/5) + mat([2,1;1,1]) * oplus(Z[1/2], Z) + gen(1/9, 1/3)",
    # chains
    "mat([1/2,0;0,2]) * mat([0,1;1,0]) * oplus(Z[1/2], Z[1/3]) + gen(1/4, 1/9)",
    "mat([2,1;1,1]) * mat([1,-1;0,1]) * mat([1,0;3,1]) * oplus(Z[1/6], Z[1/5]) + gen(1/7, 2/7)",
    "oplus(Z[1/3], Z[1/2]) + mat([1,0;3,1]) * mat([1/5,0;0,5]) * oplus(Z[1/2], Z[1/3]) + gen(0, 1/5)",
    # d = 3
    "oplus(Z[1/2], Z[1/3], Z[1/6]) + gen(1/5, 2/5, 0)",
    "mat([1,1,0;0,1,0;0,2,1]) * oplus(Z[1/2], Z[1/3], Z[1/5]) + gen(1/7, 1/7, 0)",
    "gen(1/4, 0, 1/2) + mat([0,0,1;0,1,0;1,0,0]) * oplus(Z[1/10], Z, Z[1/3]) + gen(0, 1/9, 1/27)",
    # the image lacks Z^d
    "gen(1/3, 0) + mat([2,0;0,1]) * oplus(Z[1/3], Z[1/3])",
]


@pytest.mark.parametrize("text", NESTED_TEXTS)
def test_nested_expressions_match_reference(text):
    assert _outcome(elaborate, text) == _outcome(_elaborate_reference, text)


MATRIX_TEXTS = {
    1: ["[2]", "[1/3]", "[-1]", "[6/5]"],
    2: ["[0,1;1,0]", "[1,1;0,1]", "[2,1;1,1]", "[1/2,0;0,2]", "[1,0;3,1]", "[1/5,0;0,5]", "[2,0;0,1]"],
    3: ["[1,1,0;0,1,0;0,2,1]", "[0,0,1;0,1,0;1,0,0]", "[1/2,0,0;0,2,0;0,0,1]", "[1,0,0;1,1,0;0,0,3]"],
}


@st.composite
def group_texts(draw, d, depth=2):
    """Random sums of oplus, gen and mat items; a mat takes the rest of the
    text as its operand, so the trees nest in both directions."""
    items = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["oplus", "gen", "mat"] if depth else ["oplus", "gen"]))
        if kind == "oplus":
            comps = st.sampled_from(["Z", "Z[1/2]", "Z[1/3]", "Z[1/6]", "Z[1/5]", "Z[1/10]"])
            items.append(f"oplus({', '.join(draw(st.lists(comps, min_size=d, max_size=d)))})")
        elif kind == "gen":
            rats = st.tuples(st.integers(-4, 4), st.sampled_from([1, 2, 3, 4, 5, 9, 10, 25]))
            items.append(f"gen({', '.join(f'{n}/{q}' for n, q in draw(st.lists(rats, min_size=d, max_size=d)))})")
        else:
            items.append(f"mat({draw(st.sampled_from(MATRIX_TEXTS[d]))}) * {draw(group_texts(d, depth - 1))}")
    return " + ".join(items)


def test_random_nested_expressions_match_reference():
    outcomes = []

    @given(st.integers(1, 3), st.data())
    @settings(max_examples=300, deadline=None)
    def check(d, data):
        text = data.draw(group_texts(d))
        got = _outcome(elaborate, text)
        assert got == _outcome(_elaborate_reference, text)
        outcomes.append(("mat(" in text, isinstance(got, HGroup)))

    check()
    assert outcomes.count((True, True)) >= 50 and outcomes.count((True, False)) >= 10


def test_print_parse_print_fixed_point():
    texts = [
        "oplus(Z[1/2], Z[1/3]) + gen(1/5, 1/5)",
        "oplus(Z, Z)",
        "mat([0,1;1,0]) * oplus(Z[1/2], Z[1/3])",
        "gen(-1/2, 3) + oplus(Z[1/6], Z)",
        "mat([1/5,0;0,5]) * oplus(Z[1/2], Z[1/3]) + gen(0, 1/5)",
    ]
    for t in texts:
        printed = print_expr(parse(t))
        assert print_expr(parse(printed)) == printed
        assert equal_h(elaborate(parse(printed)), elaborate(parse(t)))


def test_sum_reorder_and_regroup_invariance():
    items = ["oplus(Z[1/2], Z)", "oplus(Z, Z[1/3])", "gen(1/5, 1/5)"]
    base = parse_group(" + ".join(items))
    for perm in itertools.permutations(items):
        assert equal_h(parse_group(" + ".join(perm)), base)
    # oplus regrouping: Z[1/6] x Z vs sum of the prime pieces
    a = parse_group("oplus(Z[1/6], Z)")
    b = parse_group("oplus(Z[1/2], Z) + oplus(Z[1/3], Z)")
    assert equal_h(a, b)


def test_report_formatting():
    assert format_rat(F(1, 2)) == "1/2"
    assert format_rat(F(-3)) == "-3"
    assert format_vec((F(1, 2), F(0))) == "(1/2, 0)"
    assert format_mat(Mat([[0, 1], [1, 0]])) == "mat([0,1;1,0])"
    assert format_mat(Mat([[1, 0], [0, 25]], 5)) == "mat([1/5,0;0,5])"
    assert str(Supernatural({2: INF, 3: INF, 5: INF})) == "2^inf*3^inf*5^inf"
    assert str(Supernatural({})) == "1"


def _fraction_text(x: Fraction) -> str:
    """Reference text of a rational, read off a Fraction."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@given(st.integers(1, 3), st.integers(1, 60), st.data())
@settings(max_examples=300, deadline=None)
def test_matrix_text_matches_fraction_reference(d, den, data):
    num = data.draw(
        st.lists(st.lists(st.integers(-200, 200), min_size=d, max_size=d), min_size=d, max_size=d)
    )
    m = Mat(num, den)
    ref = [[_fraction_text(Fraction(x, den)) for x in row] for row in num]
    assert format_mat(m) == "mat([" + ";".join(",".join(row) for row in ref) + "])"
    assert repr(m) == "Mat([" + "; ".join(",".join(row) for row in ref) + "])"
    # a gen literal prints its entries the same way
    gen = print_expr(parse("gen(" + ", ".join(f"{x}/{den}" for x in num[0]) + ")"))
    assert gen == "gen(" + ", ".join(ref[0]) + ")"


def test_vector_text_builds_no_fraction_and_matches_reference(monkeypatch):
    # format_rat reads an int's or a Fraction's numerator and denominator
    values = [0, 5, -3, F(1, 2), F(-7, 12), F(6, 3), F(-4, 6), *(F(n, 60) for n in range(-130, 131))]
    ref = [_fraction_text(F(x)) for x in values]
    built = fractions_built(monkeypatch)
    assert [format_rat(x) for x in values] == ref
    assert format_vec(values[:5]) == "(0, 5, -3, 1/2, -7/12)"
    assert built == []
