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
    print_expr,
)
from zodom.hgroup import equal_h, superindex
from zodom.linalg import INF, Mat, Supernatural

F = Fraction


def test_parse_fuchs_example():
    e = parse("oplus(Z[1/2], Z[1/3]) + gen(1/5, 1/5)")
    assert isinstance(e, SumExpr)
    op, gen = e.items
    assert op == Oplus((ZComp(2), ZComp(3)))
    assert gen == Gen((F(1, 5), F(1, 5)))


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
    assert e == Gen((F(-3, 4), F(2)))


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
    assert format_mat(Mat([[F(1, 5), 0], [0, 5]])) == "mat([1/5,0;0,5])"
    assert str(Supernatural({2: INF, 3: INF, 5: INF})) == "2^inf*3^inf*5^inf"
    assert str(Supernatural({})) == "1"
